import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import dirichlet_ruc
from dirichlet_ruc import (
    ArityError,
    DomainError,
    MultiIndex,
    OverflowLimitError,
    TorusPoint,
    factorize,
    index_of,
    monomial_eval,
    prime_ap_search,
    primes_up_to,
)
from dirichlet_ruc.bohr import PrimeAP


def test_primes_up_to_small():
    assert list(primes_up_to(10)) == [2, 3, 5, 7]
    assert list(primes_up_to(2)) == [2]
    assert list(primes_up_to(1)) == []


def test_primes_up_to_budget():
    from dirichlet_ruc import ResourceError
    from dirichlet_ruc.bohr import SIEVE_LIMIT

    with pytest.raises(ResourceError):
        primes_up_to(SIEVE_LIMIT + 1)


@pytest.fixture
def recorded_sieves(monkeypatch):
    """Limits requested from primes_up_to; every table holds the primes below
    100 only, so the shared-table growth is seen without sieving to 10^8."""
    from dirichlet_ruc import bohr

    asked = []

    def fake(limit):
        asked.append(limit)
        if limit > bohr.SIEVE_LIMIT:
            return primes_up_to(limit)  # refuses before allocating
        return primes_up_to(100)

    monkeypatch.setattr(bohr, "primes_up_to", fake)
    monkeypatch.setattr(bohr, "_shared_table", None)
    return asked


def test_shared_table_growth_stops_at_sieve_budget(recorded_sieves):
    from dirichlet_ruc import ResourceError
    from dirichlet_ruc.bohr import SIEVE_LIMIT, shared_table

    # 4^k * 65536 overshoots 99_999_989 to 268_435_456; the budget suffices.
    assert shared_table(99_999_989).limit == SIEVE_LIMIT
    assert shared_table(67_108_865).limit == SIEVE_LIMIT
    assert recorded_sieves == [SIEVE_LIMIT]  # the second call reused the table
    with pytest.raises(ResourceError):
        shared_table(SIEVE_LIMIT + 1)
    assert recorded_sieves[-1] == SIEVE_LIMIT + 1


def test_index_of_growth_stops_at_sieve_budget(recorded_sieves):
    from dirichlet_ruc import ResourceError
    from dirichlet_ruc.bohr import SIEVE_LIMIT

    # The fake tables never hold a 41st prime: growth runs to the budget,
    # then the next request is refused.
    with pytest.raises(ResourceError):
        index_of((0,) * 40 + (1,))
    assert recorded_sieves[-3:] == [67_108_864, SIEVE_LIMIT, SIEVE_LIMIT + 1]


def test_primes_table_lookup():
    table = primes_up_to(100)  # 97 is its largest prime, 100 = limit is composite
    assert table.is_prime(97)
    assert not table.is_prime(91)
    assert table.slot_of(2) == 0
    assert table.slot_of(11) == 4
    with pytest.raises(DomainError):
        table.slot_of(12)
    assert table.slot_of(97) == 24
    assert not table.is_prime(100)
    with pytest.raises(DomainError):
        table.slot_of(100)
    for lookup in (table.is_prime, table.slot_of):  # 101 is prime, past the table
        with pytest.raises(DomainError):
            lookup(101)
    assert table[24] == table[-1] == 97
    assert all(type(p) is int for p in (table[0], *table))


def test_smallest_factor_table_holds_slots():
    table = primes_up_to(100)
    spf = table.smallest_factor_table()
    assert spf.dtype == "int32" and len(spf) == 101
    for n in range(2, 101):
        p = table[int(spf[n])]
        assert n % p == 0 and all(n % q for q in range(2, p))


@pytest.mark.parametrize("limit", [100, 120, 1 << 16])
def test_roundtrip_where_the_sieve_hands_over_to_trial_division(limit):
    # limit + 1 is 101 (prime), 121 (11^2) and 65537 (prime): the first
    # integers past the slot sieve, factorized by trial division.
    table = primes_up_to(limit)
    for n in (limit, limit + 1):
        assert index_of(factorize(n, table), table) == n
        assert factorize(n, table) == factorize(n)


def _record_real_sieves(monkeypatch):
    from dirichlet_ruc import bohr

    asked = []
    real = bohr.primes_up_to
    monkeypatch.setattr(bohr, "primes_up_to", lambda limit: asked.append(limit) or real(limit))
    monkeypatch.setattr(bohr, "_shared_table", None)
    return asked


def test_factorize_composite_past_the_default_table(monkeypatch):
    # Both factors lie past 65521, the last prime of the default 2^16 table,
    # and far inside the sieve budget.
    asked = _record_real_sieves(monkeypatch)
    n = 65537 * 65539
    alpha = factorize(n)
    assert alpha.pairs == ((6542, 1), (6543, 1))
    assert index_of(alpha) == n
    assert asked == [1 << 16, 1 << 18]  # one growth step, for the factor 65539


def test_factorize_refuses_a_huge_prime_before_sieving(recorded_sieves):
    from dirichlet_ruc import ResourceError

    with pytest.raises(ResourceError):
        factorize(2**61 - 1)
    assert recorded_sieves == [1 << 16]


def test_factorize_composite_of_primes_past_the_budget_is_refused(recorded_sieves):
    from dirichlet_ruc import ResourceError

    # 100000007 and 100000037 are primes just past the budget: rho splits
    # the leftover, and it is refused before any sieve grows.
    with pytest.raises(ResourceError, match="100000037 exceeds sieve budget"):
        factorize(100_000_007 * 100_000_037)
    assert recorded_sieves == [1 << 16]


@pytest.mark.parametrize(
    "small, large",
    [
        (1, (65537, 65537)),  # a square
        (12, (65537, 65537, 65537)),  # a cube
        (65521, (65539, 99991)),
        (2, (65543, 262139, 262147)),
        (1, (262147, 262147, 65543)),
        (3, (1048573, 65537)),
    ],
)
def test_rho_splits_leftovers_of_up_to_three_large_primes(monkeypatch, small, large):
    from dirichlet_ruc import bohr

    asked = _record_real_sieves(monkeypatch)
    n = small * math.prod(large)
    alpha = factorize(n)
    assert index_of(alpha) == n
    table = bohr.shared_table()
    primes = {table[slot] for slot, _ in alpha.pairs}
    assert primes == set(large) | {p for p in (2, 3, 65521) if small % p == 0}
    # The table grew once, and only as far as the largest factor needs.
    assert asked == [1 << 16, table.limit] and max(large) <= table.limit < 4 * max(large)


def test_rho_refuses_a_factor_past_the_budget_beside_one_inside(recorded_sieves):
    from dirichlet_ruc import ResourceError

    with pytest.raises(ResourceError, match="100000007 exceeds"):
        factorize(65537 * 100_000_007)
    assert recorded_sieves == [1 << 16]


def test_first_lookup_on_a_large_table_adds_no_memory():
    # The lookups search the prime array itself: no list or dict of the
    # 664,579 primes below 10^7 is built (that cost about 56 MiB).
    code = (
        "import resource\n"
        "from dirichlet_ruc import primes_up_to\n"
        "table = primes_up_to(10**7)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "assert table.slot_of(9_999_991) == 664_578 and table.is_prime(9_999_991)\n"
        "assert not table.is_prime(9_999_990)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    src = str(Path(dirichlet_ruc.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 10 * 1024  # KiB


def test_slot_sieve_on_a_large_shared_table_stays_within_its_cap():
    # With the shared table grown to 2^24, factorize(12) used to build the
    # slot sieve over the whole table: 64 MiB of int32.  It stops at 2^22.
    code = (
        "import resource\n"
        "from dirichlet_ruc import bohr, factorize\n"
        "table = bohr.shared_table(1 << 24)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "assert factorize(12) == (2, 1)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        "assert len(table.smallest_factor_table()) == (1 << 22) + 1\n"
    )
    src = str(Path(dirichlet_ruc.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 16 * 1024  # KiB; the uncapped sieve added about 36 MiB


def test_roundtrip_between_the_slot_sieve_cap_and_the_table_limit():
    from dirichlet_ruc.bohr import _SLOT_SIEVE_MAX

    # Past 2^22 a table up to 2^23 factorizes by trial division: 2^22 + 1
    # (5 * 397 * 2113), twice the prime 4194301, and the prime 8388593.
    table = primes_up_to(1 << 23)
    for n in (_SLOT_SIEVE_MAX, _SLOT_SIEVE_MAX + 1, 2 * 4_194_301, 8_388_593, 1 << 23):
        assert index_of(factorize(n, table), table) == n
    assert factorize(8_388_593, table).pairs == ((len(table) - 1, 1),)
    assert len(table.smallest_factor_table()) == _SLOT_SIEVE_MAX + 1


def test_factorize_examples():
    assert factorize(12) == (2, 1)
    assert factorize(1) == ()
    assert factorize(63) == (0, 2, 0, 1)


def test_factorize_rejects_zero():
    with pytest.raises(DomainError):
        factorize(0)


def test_index_of_examples():
    assert index_of((2, 1)) == 12
    assert index_of(()) == 1
    assert index_of((0, 0, 1)) == 5


def test_index_of_overflow():
    with pytest.raises(OverflowLimitError):
        index_of((64,))
    assert index_of((62,)) == 2**62
    with pytest.raises(OverflowLimitError):
        index_of((63,))  # 2**63 is one past MAX_INDEX
    start = time.monotonic()
    with pytest.raises(OverflowLimitError):
        index_of((2**60,))  # refused before 2 is raised to that power
    assert time.monotonic() - start < 1.0


def test_multi_index_trims_and_validates():
    assert MultiIndex((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert MultiIndex(()) == ()
    with pytest.raises(DomainError):
        MultiIndex((1, -1))


def test_roundtrip_range():
    for n in range(1, 20000):
        assert index_of(factorize(n)) == n


def test_multiplicativity(rng):
    for _ in range(200):
        m = int(rng.integers(1, 3000))
        n = int(rng.integers(1, 3000))
        assert factorize(m * n) == factorize(m) + factorize(n)


def test_monomial_examples():
    assert abs(monomial_eval((1, 0, 2), (1j, 1, -1)) - 1j) < 1e-12
    assert monomial_eval((), (0.5 + 0.5j,)) == 1
    root = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    assert abs(monomial_eval((3,), (root,)) - 1) < 1e-12


def test_monomial_arity_error():
    with pytest.raises(ArityError):
        monomial_eval((1, 0, 2), (1j, 1))


def test_monomial_multiplicative(rng):
    for _ in range(100):
        alpha = MultiIndex(rng.integers(0, 5, size=4))
        beta = MultiIndex(rng.integers(0, 5, size=4))
        z = [TorusPoint(Fraction(int(rng.integers(0, 997)), 997)) for _ in range(4)]
        lhs = monomial_eval(alpha + beta, z)
        rhs = monomial_eval(alpha, z) * monomial_eval(beta, z)
        assert abs(lhs - rhs) < 1e-12


def test_torus_point_huge_exponent_is_exact():
    # 2**62 = 1 mod 3, so (1/3 turn)^(2**62) is exactly 1/3 turn again.
    z = TorusPoint(Fraction(1, 3))
    assert z.pow(2**62).turns == Fraction(1, 3)
    # and fixed-point points reduce exactly mod 1
    w = TorusPoint.from_fixed(1)
    assert w.pow(2**63).turns == Fraction(1, 2)


def test_torus_point_from_complex():
    assert TorusPoint.from_complex(1j).turns == Fraction(1, 4)
    with pytest.raises(DomainError):
        TorusPoint.from_complex(2 + 0j)


def _oracle_is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _oracle_ap_search(length: int, bound: int) -> PrimeAP | None:
    # Brute force, independent of the sieve implementation.
    for start in range(2, bound + 1):
        if not _oracle_is_prime(start):
            continue
        top_step = (bound - start) // (length - 1)
        for step in range(1, top_step + 1):
            if all(_oracle_is_prime(start + k * step) for k in range(length)):
                return PrimeAP(start, step, length)
    return None


@pytest.mark.parametrize(
    "length,bound,expected",
    [(3, 100, (3, 2)), (5, 100, (5, 6)), (10, 3000, (199, 210))],
)
def test_prime_ap_search_matches_oracle(length, bound, expected):
    found = prime_ap_search(length, bound)
    assert found is not None
    assert (found.start, found.step) == expected
    if bound <= 200:
        oracle = _oracle_ap_search(length, bound)
        assert (oracle.start, oracle.step) == expected
    for term in found.terms():
        assert term <= bound and _oracle_is_prime(term)


def test_prime_ap_search_none_when_absent():
    # No 7-term AP of primes fits below 100.
    assert prime_ap_search(7, 100) is None


def test_prime_ap_search_preconditions():
    with pytest.raises(DomainError):
        prime_ap_search(1, 100)
    with pytest.raises(DomainError):
        prime_ap_search(5, 3)
