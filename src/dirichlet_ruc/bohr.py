"""Prime infrastructure and the integer <-> prime-exponent correspondence.

Every n >= 1 factors as n = p_1^{a_1} * ... * p_m^{a_m} over the ordered
primes, which identifies n with the exponent vector (a_1, ..., a_m).  This
module owns that bijection, unimodular monomial evaluation with exact angle
arithmetic (huge exponents such as 2**60 lose no precision), and the search
for arithmetic progressions of primes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import ArityError, DomainError, OverflowLimitError, ResourceError

MAX_INDEX = 2**63 - 1

# Sieving beyond this costs > ~1 GB; treat as a misuse rather than thrash.
SIEVE_LIMIT = 100_000_000

FIXED_POINT_DENOMINATOR = 2**64


class MultiIndex:
    """Prime-exponent vector with trailing zeros trimmed.

    Reads like a tuple of non-negative ints (len/iter/index/compare), but is
    stored sparsely as (slot, exponent) pairs: alpha(p) for a prime near 10^6
    has ~78000 slots and only one nonzero entry, and the n <-> alpha maps
    must stay O(number of prime factors).  `+` is componentwise addition,
    matching multiplication of the underlying integers.
    """

    __slots__ = ("_pairs", "_length")

    def __init__(self, exponents: Sequence[int] = ()):
        pairs = []
        for slot, e in enumerate(exponents):
            e = int(e)
            if e < 0:
                raise DomainError("exponents must be non-negative")
            if e:
                pairs.append((slot, e))
        self._pairs = tuple(pairs)
        self._length = self._pairs[-1][0] + 1 if self._pairs else 0

    @classmethod
    def from_pairs(cls, pairs) -> "MultiIndex":
        """Build from sorted (slot, exponent) pairs with positive exponents."""
        out = cls.__new__(cls)
        out._pairs = tuple(pairs)
        out._length = out._pairs[-1][0] + 1 if out._pairs else 0
        return out

    @property
    def pairs(self) -> tuple:
        return self._pairs

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, slot: int):
        if isinstance(slot, slice):
            return tuple(self)[slot]
        if slot < 0:
            slot += self._length
        if not 0 <= slot < self._length:
            raise IndexError(slot)
        for s, e in self._pairs:
            if s == slot:
                return e
            if s > slot:
                return 0
        return 0

    def __iter__(self) -> Iterator[int]:
        previous = -1
        for s, e in self._pairs:
            yield from (0 for _ in range(s - previous - 1))
            yield e
            previous = s
        yield from (0 for _ in range(self._length - previous - 1))

    def _as_key(self, other):
        if isinstance(other, MultiIndex):
            return other._pairs
        if isinstance(other, (tuple, list)):
            return MultiIndex(other)._pairs
        return None

    def __eq__(self, other) -> bool:
        key = self._as_key(other)
        return self._pairs == key if key is not None else NotImplemented

    def __lt__(self, other) -> bool:
        key = self._as_key(other)
        if key is None:
            return NotImplemented
        return tuple(self) < tuple(MultiIndex.from_pairs(key))

    def __hash__(self):
        return hash(("MultiIndex", self._pairs))

    def __add__(self, other):
        key = self._as_key(other)
        if key is None:
            return NotImplemented
        merged = dict(self._pairs)
        for s, e in key:
            merged[s] = merged.get(s, 0) + e
        return MultiIndex.from_pairs(sorted(merged.items()))

    __radd__ = __add__

    def __repr__(self):
        if self._length <= 16:
            return f"MultiIndex({tuple(self)})"
        return f"MultiIndex.from_pairs({list(self._pairs)})"


class PrimeTable:
    """All primes up to `limit`, with O(log) prime -> slot lookup."""

    def __init__(self, primes: np.ndarray, limit: int):
        self._primes = primes
        self.limit = int(limit)
        self._spf: np.ndarray | None = None
        self._plist: list[int] | None = None
        self._slots: dict[int, int] | None = None

    @property
    def primes(self) -> np.ndarray:
        return self._primes

    def _as_list(self) -> list[int]:
        if self._plist is None:
            self._plist = [int(p) for p in self._primes]
        return self._plist

    def _slot_map(self) -> dict[int, int]:
        if self._slots is None:
            self._slots = {p: i for i, p in enumerate(self._as_list())}
        return self._slots

    def __len__(self) -> int:
        return len(self._primes)

    def __getitem__(self, i: int) -> int:
        return self._as_list()[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._as_list())

    def is_prime(self, n: int) -> bool:
        if n > self.limit:
            raise DomainError(f"{n} exceeds sieve limit {self.limit}")
        return n in self._slot_map()

    def slot_of(self, p: int) -> int:
        """Zero-based position of the prime p (2 -> 0, 3 -> 1, ...)."""
        slot = self._slot_map().get(p)
        if slot is None:
            raise DomainError(f"{p} is not a prime within the table")
        return slot

    def smallest_factor_table(self) -> np.ndarray:
        """Smallest-prime-factor array for 0..limit (built lazily, cached)."""
        if self._spf is None:
            spf = np.zeros(self.limit + 1, dtype=np.int64)
            for p in range(2, math.isqrt(self.limit) + 1):
                if spf[p] == 0:
                    block = spf[p * p :: p]
                    block[block == 0] = p
            untouched = spf == 0
            untouched[:2] = False
            spf[untouched] = np.nonzero(untouched)[0]
            self._spf = spf
        return self._spf


def primes_up_to(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes; exact list of all primes <= limit."""
    limit = int(limit)
    if limit < 1:
        raise DomainError("limit must be >= 1")
    if limit > SIEVE_LIMIT:
        raise ResourceError(f"sieve limit {limit} exceeds budget {SIEVE_LIMIT}")
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, math.isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    primes = np.nonzero(~composite)[0].astype(np.int64)
    return PrimeTable(primes, limit)


_shared_table: PrimeTable | None = None


def shared_table(minimum_limit: int = 1 << 16) -> PrimeTable:
    """Module-level prime table, grown geometrically on demand."""
    global _shared_table
    if _shared_table is None or _shared_table.limit < minimum_limit:
        limit = 1 << 16
        while limit < minimum_limit:
            limit *= 4
        limit = min(limit, max(minimum_limit, SIEVE_LIMIT))  # past the budget, sieving refuses
        _shared_table = PrimeTable(primes_up_to(limit).primes, limit)
    return _shared_table


def factorize(n: int, table: PrimeTable | None = None) -> MultiIndex:
    """Prime-exponent vector of n; inverse of index_of.

    Supports n up to 2**63 - 1 as long as every prime factor fits inside
    the sieve budget (a huge prime factor would need its slot number, i.e.
    a sieve up to that prime).
    """
    n = int(n)
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    if n > MAX_INDEX:
        raise OverflowLimitError(f"{n} exceeds {MAX_INDEX}")
    if n == 1:
        return MultiIndex()
    table = table if table is not None else shared_table()
    if n <= table.limit:
        return _factorize_spf(n, table)
    return _factorize_trial(n, table)


def _factorize_spf(n: int, table: PrimeTable) -> MultiIndex:
    spf = table.smallest_factor_table()
    factors: list[tuple[int, int]] = []
    while n > 1:
        p = int(spf[n])
        count = 0
        while n % p == 0:
            n //= p
            count += 1
        factors.append((p, count))
    return _to_multi_index(factors, table)


def _factorize_trial(n: int, table: PrimeTable) -> MultiIndex:
    factors: list[tuple[int, int]] = []
    for p in map(int, table.primes):
        if p * p > n:
            break
        if n % p == 0:
            count = 0
            while n % p == 0:
                n //= p
                count += 1
            factors.append((p, count))
    if n > 1:
        if n > SIEVE_LIMIT:
            raise ResourceError(
                f"prime factor {n} exceeds sieve budget {SIEVE_LIMIT}"
            )
        table = shared_table(n)
        factors.append((n, 1))
    return _to_multi_index(factors, table)


def _to_multi_index(factors: list[tuple[int, int]], table: PrimeTable) -> MultiIndex:
    return MultiIndex.from_pairs(
        (table.slot_of(p), count) for p, count in factors
    )


def index_of(alpha: Sequence[int], table: PrimeTable | None = None) -> int:
    """The integer p_1^{a_1} * ... * p_m^{a_m}; inverse of factorize."""
    alpha = alpha if isinstance(alpha, MultiIndex) else MultiIndex(alpha)
    if not alpha.pairs:
        return 1
    if table is None or len(table) < len(alpha):
        table = shared_table(_nth_prime_bound(len(alpha)))
        while len(table) < len(alpha):
            table = shared_table(table.limit + 1)  # the next size up
    n = 1
    for slot, exp in alpha.pairs:
        p = table[slot]
        for _ in range(exp):
            n *= p
            if n > MAX_INDEX:
                raise OverflowLimitError("index exceeds 2**63 - 1")
    return n


def _nth_prime_bound(m: int) -> int:
    if m < 6:
        return 16
    return int(m * (math.log(m) + math.log(math.log(m)) + 1)) + 16


class TorusPoint:
    """A point e^{2*pi*i*t} of the unit circle, with t kept exact.

    The angle lives in turns as a Fraction mod 1, so integer powers reduce
    by exact modular multiplication: (z^k) keeps full precision even for
    k ~ 2**62, where repeated floating-point angle doubling would have lost
    every bit.  Uniform random points use denominator 2**64 (64-bit
    fixed-point); quadrature grids use the grid size as denominator.
    """

    __slots__ = ("turns",)

    def __init__(self, turns: Fraction | int):
        self.turns = Fraction(turns) % 1

    @classmethod
    def from_fraction(cls, numerator: int, denominator: int) -> "TorusPoint":
        return cls(Fraction(numerator, denominator))

    @classmethod
    def from_fixed(cls, numerator: int) -> "TorusPoint":
        return cls(Fraction(int(numerator), FIXED_POINT_DENOMINATOR))

    @classmethod
    def from_complex(cls, z: complex, tolerance: float = 1e-9) -> "TorusPoint":
        z = complex(z)
        if abs(abs(z) - 1.0) > tolerance:
            raise DomainError(f"{z!r} is not unimodular")
        turns = cmath.phase(z) / (2 * math.pi)
        numerator = round(turns * FIXED_POINT_DENOMINATOR)
        return cls.from_fixed(numerator % FIXED_POINT_DENOMINATOR)

    @classmethod
    def coerce(cls, z) -> "TorusPoint":
        return z if isinstance(z, TorusPoint) else cls.from_complex(z)

    def pow(self, exponent: int) -> "TorusPoint":
        return TorusPoint((self.turns * int(exponent)) % 1)

    def __mul__(self, other: "TorusPoint") -> "TorusPoint":
        return TorusPoint(self.turns + other.turns)

    def value(self) -> complex:
        t = 2 * math.pi * float(self.turns)
        return complex(math.cos(t), math.sin(t))

    def __complex__(self) -> complex:
        return self.value()

    def __eq__(self, other) -> bool:
        return isinstance(other, TorusPoint) and self.turns == other.turns

    def __hash__(self):
        return hash(("TorusPoint", self.turns))

    def __repr__(self):
        return f"TorusPoint({self.turns})"


def monomial_eval(alpha: Sequence[int], z: Sequence) -> complex:
    """Evaluate z^alpha = z_1^{a_1} * ... * z_m^{a_m} for unimodular z.

    Angles are summed exactly before the single conversion to complex, so
    the result is unimodular to machine precision regardless of exponent
    size.
    """
    alpha = alpha if isinstance(alpha, MultiIndex) else MultiIndex(alpha)
    if len(z) < len(alpha):
        raise ArityError(
            f"monomial needs {len(alpha)} coordinates, got {len(z)}"
        )
    total = Fraction(0)
    for slot, exp in alpha.pairs:
        total += TorusPoint.coerce(z[slot]).pow(exp).turns
    return TorusPoint(total).value()


@dataclass(frozen=True)
class PrimeAP:
    """Arithmetic progression start, start+step, ... entirely of primes."""

    start: int
    step: int
    length: int

    def terms(self) -> list[int]:
        return [self.start + k * self.step for k in range(self.length)]


def prime_ap_search(length: int, bound: int, table: PrimeTable | None = None) -> PrimeAP | None:
    """First arithmetic progression of `length` primes with all terms <= bound.

    Deterministic witness: smallest start wins, ties broken by smallest
    step.  Returns None when no progression fits under the bound.
    """
    length = int(length)
    bound = int(bound)
    if length < 2:
        raise DomainError("length must be >= 2")
    if bound < length:
        raise DomainError("bound must be >= length")
    if table is None or table.limit < bound:
        table = shared_table(bound)
    is_prime = np.zeros(bound + 1, dtype=bool)
    primes = table.primes[table.primes <= bound]
    is_prime[primes] = True
    span = length - 1
    for start in map(int, primes):
        max_step = (bound - start) // span
        if max_step < 1:
            break
        for step in range(1, max_step + 1):
            if all(is_prime[start + k * step] for k in range(1, length)):
                return PrimeAP(start=start, step=step, length=length)
    return None
