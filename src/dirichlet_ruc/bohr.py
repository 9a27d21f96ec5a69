"""Prime infrastructure and the integer <-> prime-exponent correspondence.

Every n >= 1 factors as n = p_1^{a_1} * ... * p_m^{a_m} over the ordered
primes, which identifies n with the exponent vector (a_1, ..., a_m).  This
module owns that bijection, unimodular monomial evaluation with exact angle
arithmetic (huge exponents such as 2**60 lose no precision), and the search
for arithmetic progressions of primes.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import ArityError, DomainError, OverflowLimitError, ResourceError

MAX_INDEX = 2**63 - 1

# Sieving beyond this costs > ~1 GB; treat as a misuse rather than thrash.
SIEVE_LIMIT = 100_000_000

# The slot sieve stops here (16 MiB of int32), whatever the table's limit;
# factorize trial-divides past it, which needs the primes up to sqrt(n) only.
_SLOT_SIEVE_MAX = 1 << 22

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
        exponents = [int(e) for e in exponents]
        if min(exponents, default=0) < 0:
            raise DomainError("exponents must be non-negative")
        self._pairs = tuple((slot, e) for slot, e in enumerate(exponents) if e)
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
        return tuple(self)[slot]

    def __iter__(self) -> Iterator[int]:
        dense = [0] * self._length
        for slot, e in self._pairs:
            dense[slot] = e
        return iter(dense)

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
    """All primes up to `limit` as one sorted array; a prime's slot is its
    position in it (2 -> 0, 3 -> 1, ...)."""

    def __init__(self, primes: np.ndarray, limit: int):
        self.primes = primes
        self.limit = int(limit)
        self._view = memoryview(primes)  # scalar reads give ints without a list copy
        self._spf: memoryview | None = None  # the slot sieve, as int32

    def __len__(self) -> int:
        return len(self._view)

    def __getitem__(self, i: int) -> int:
        return self._view[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._view)

    def _find(self, n: int) -> int:
        """Slot of n if n is a prime of the table, else -1."""
        slot = int(np.searchsorted(self.primes, n)) if 2 <= n <= self.limit else len(self)
        return slot if slot < len(self) and self._view[slot] == n else -1

    def is_prime(self, n: int) -> bool:
        if n > self.limit:
            raise DomainError(f"{n} exceeds sieve limit {self.limit}")
        return self._find(n) >= 0

    def slot_of(self, p: int) -> int:
        """Zero-based position of the prime p (2 -> 0, 3 -> 1, ...)."""
        slot = self._find(p)
        if slot < 0:
            raise DomainError(f"{p} is not a prime within the table")
        return slot

    def smallest_factor_table(self) -> np.ndarray:
        """Slot sieve for 0..min(limit, 2^22): entry n >= 2 is the slot of n's
        smallest prime factor, as int32 (built lazily, cached).  factorize
        takes larger n by trial division, so the sieve holds 16 MiB at most
        whatever the table's limit."""
        return np.asarray(self._slot_sieve())

    def _slot_sieve(self) -> memoryview:
        if self._spf is None:
            bound = min(self.limit, _SLOT_SIEVE_MAX)
            covered = int(np.searchsorted(self.primes, bound, side="right"))
            spf = np.zeros(bound + 1, dtype=np.int32)
            spf[self.primes[:covered]] = np.arange(covered, dtype=np.int32)
            root = int(np.searchsorted(self.primes, math.isqrt(bound), side="right"))
            for slot in reversed(range(root)):  # smaller primes overwrite larger ones
                p = self._view[slot]
                spf[p * p :: p] = slot
            self._spf = memoryview(spf)
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
    a sieve up to that prime).  Up to the table's limit, and up to 2^22,
    the slot sieve factors n; past either, trial division does.
    """
    n = int(n)
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    if n > MAX_INDEX:
        raise OverflowLimitError(f"{n} exceeds {MAX_INDEX}")
    table = table if table is not None else shared_table()
    if n > min(table.limit, _SLOT_SIEVE_MAX):
        return _factorize_trial(n, table)
    spf, primes = table._slot_sieve(), table._view
    factors: list[tuple[int, int]] = []
    while n > 1:
        slot = spf[n]
        p = primes[slot]
        count = 0
        while n % p == 0:
            n //= p
            count += 1
        factors.append((slot, count))
    return MultiIndex.from_pairs(factors)


def _factorize_trial(n: int, table: PrimeTable) -> MultiIndex:
    """Trial division by the table's primes.  A leftover with no factor in
    the table is split by Pollard-Brent rho, so a prime factor past the sieve
    budget is refused before any sieve grows, and the table grows only as far
    as the largest factor, which needs a sieve up to itself for its slot."""
    factors: list[tuple[int, int]] = []
    for slot in range(len(table)):
        p = table[slot]
        if p * p > n:
            break
        if n % p == 0:
            count = 0
            while n % p == 0:
                n //= p
                count += 1
            factors.append((slot, count))
    leftover = sorted(_prime_factors(n))
    if leftover:
        if leftover[-1] > SIEVE_LIMIT:
            raise ResourceError(f"prime factor {leftover[-1]} exceeds sieve budget {SIEVE_LIMIT}")
        if leftover[-1] > table.limit:
            table = shared_table(leftover[-1])
        for p in sorted(set(leftover)):
            factors.append((table.slot_of(p), leftover.count(p)))
    return MultiIndex.from_pairs(factors)


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n >= 1, with multiplicity, in no fixed order."""
    if n == 1:
        return []
    if _is_prime(n):
        return [n]
    d = _rho_divisor(n)
    return _prime_factors(d) + _prime_factors(n // d)


def _rho_divisor(n: int) -> int:
    """A proper divisor of the composite n, by Brent's variant of Pollard's
    rho on x -> x^2 + c, c = 1, 2, ... until one splits n (deterministic).
    Products of |x - y| are batched 128 at a time between gcds."""
    root = math.isqrt(n)
    if root * root == n:
        return root  # a square; rho's two cycles can coincide on it
    for c in itertools.count(1):
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                d = math.gcd(q, n)
                k += 128
            r *= 2
        if d == n:  # the batch overshot: step back one product at a time
            y, d = saved, 1
            while d == 1:
                y = (y * y + c) % n
                d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 12 prime bases, exact for
    n < 3.3 * 10**24 (so for every n <= MAX_INDEX)."""
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n <= witnesses[-1]:
        return n in witnesses
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):  # a witness unless n - 1 is among x, x^2, ..., x^(2^(s-1))
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def index_of(alpha: Sequence[int], table: PrimeTable | None = None) -> int:
    """The integer p_1^{a_1} * ... * p_m^{a_m}; inverse of factorize."""
    alpha = alpha if isinstance(alpha, MultiIndex) else MultiIndex(alpha)
    table = table if table is not None else shared_table()
    while len(table) < len(alpha):
        table = shared_table(table.limit + 1)  # the next size up
    n, primes = 1, table._view
    for slot, exp in alpha.pairs:
        # exp > 63 overflows for every prime (2**64 > MAX_INDEX): refuse it
        # before raising a prime to a huge power.
        if exp > 63 or (n := n * primes[slot] ** exp) > MAX_INDEX:
            raise OverflowLimitError("index exceeds 2**63 - 1")
    return n


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
