"""Independent reference values for the benchmark's output checks.

Plain numpy, written from the definitions and sharing no code with
dirichlet_ruc: its own prime sieve, its own random numbers (PCG64), its own
norms.  Monte Carlo references return (value, stderr) so a check can
compare within the combined uncertainty of both estimates; exact ones
return stderr 0.
"""

from __future__ import annotations

import math

import numpy as np


def primes_below(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, math.isqrt(n) + 1))


def prime_exponents(n: int, primes: np.ndarray) -> list[int]:
    """Exponent vector of n over primes[0], primes[1], ... (trailing zeros cut)."""
    out = []
    for p in map(int, primes):
        if n == 1:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append(e)
    if n != 1:
        raise ValueError("prime list too short")
    while out and out[-1] == 0:
        out.pop()
    return out


def exponent_matrix(ns, primes: np.ndarray) -> np.ndarray:
    rows = [prime_exponents(int(n), primes) for n in ns]
    width = max((len(r) for r in rows), default=0)
    out = np.zeros((len(rows), width), dtype=np.float64)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def column_norms(r: float, combos: np.ndarray) -> np.ndarray:
    """l_r norms of the columns of a (d, k) complex matrix; r may be inf."""
    mags = np.abs(combos)
    if r == math.inf:
        return mags.max(axis=0)
    return (mags**r).sum(axis=0) ** (1.0 / r)


def moment(g: np.ndarray, q: float) -> tuple[float, float]:
    """(E g^q)^(1/q) and its delta-method stderr from i.i.d. draws g."""
    gq = g**q
    mean = float(gq.mean())
    value = mean ** (1.0 / q)
    stderr = float(gq.std(ddof=1)) / math.sqrt(g.size) * value / (q * mean)
    return value, stderr


def torus_multipliers(exps: np.ndarray, rng, count: int) -> np.ndarray:
    """(count, terms) values of z^alpha at uniform polytorus points."""
    theta = rng.random((count, exps.shape[1]))
    return np.exp(2j * math.pi * (theta @ exps.T))


def hp_norm_mc(X: np.ndarray, exps: np.ndarray, r: float, p: float, samples: int, rng):
    """(E_z ||sum_n x_n z^alpha(n)||_r^p)^(1/p); X is (d, terms)."""
    g = column_norms(r, X @ torus_multipliers(exps, rng, samples).T)
    return moment(g, p)


def multiplier_mc(X: np.ndarray, r: float, q: float, kind: str, samples: int, rng):
    """(E ||sum_n c_n x_n||_r^q)^(1/q) for random signs, rotations or Gaussians."""
    m = X.shape[1]
    if kind == "signs":
        c = rng.choice([-1.0, 1.0], size=(m, samples))
    elif kind == "rotations":
        c = np.exp(2j * math.pi * rng.random((m, samples)))
    else:  # unit-variance complex Gaussians
        c = (rng.standard_normal((m, samples)) + 1j * rng.standard_normal((m, samples))) / math.sqrt(2)
    return moment(column_norms(r, X @ c), q)


def _all_signs(m: int, lo: int, hi: int) -> np.ndarray:
    idx = np.arange(lo, hi)[None, :]
    return np.where((idx >> np.arange(m)[:, None]) & 1, 1.0, -1.0)


def exact_sign_moments(X: np.ndarray, r: float, qs, scale=None) -> list[float]:
    """(E ||sum eps_n a_n x_n||_r^q)^(1/q) for each q, all 2^m patterns."""
    m = X.shape[1]
    Y = X if scale is None else X * np.asarray(scale)[None, :]
    total = 1 << m
    sums = np.zeros(len(qs))
    for lo in range(0, total, 1 << 14):
        g = column_norms(r, Y @ _all_signs(m, lo, min(lo + (1 << 14), total)))
        for i, q in enumerate(qs):
            sums[i] += float((g**q).sum())
    return [(s / total) ** (1.0 / q) for s, q in zip(sums, qs)]


def hprad_mc(X: np.ndarray, exps: np.ndarray, r: float, p: float, samples: int, rng,
             patterns: int | None = None, blocks: int = 10):
    """E_eps (E_z ||sum eps_n x_n z^alpha(n)||_r^p)^(1/p).

    All 2^m sign patterns, or `patterns` random ones when that is fewer; the
    stderr combines independent blocks of torus samples with the spread
    over sampled patterns."""
    m = X.shape[1]
    sampled = patterns is not None and patterns < (1 << m)
    signs = rng.choice([-1.0, 1.0], size=(m, patterns)) if sampled else _all_signs(m, 0, 1 << m)
    per_block = []
    sums = np.zeros(signs.shape[1])
    size = samples // blocks
    for _ in range(blocks):
        mult = torus_multipliers(exps, rng, size)  # (size, m)
        block_sum = np.zeros(signs.shape[1])
        for lo in range(0, size, 64):
            combos = (mult[lo : lo + 64, None, :] * X[None, :, :]) @ signs  # (s, d, patterns)
            mags = np.abs(combos)
            g = mags.max(axis=1) if r == math.inf else (mags**r).sum(axis=1) ** (1.0 / r)
            block_sum += (g**p).sum(axis=0)
        sums += block_sum
        per_block.append(float(((block_sum / size) ** (1.0 / p)).mean()))
    inner = (sums / (size * blocks)) ** (1.0 / p)
    stderr = float(np.std(per_block, ddof=1)) / math.sqrt(blocks)
    if sampled:
        stderr = math.hypot(stderr, float(inner.std(ddof=1)) / math.sqrt(patterns))
    return float(inner.mean()), stderr


def trig_grid(polys, size: int) -> np.ndarray:
    """(size**2, len(polys)) values of 2-variable trig polynomials on a grid.

    Each poly is a dict {(e1, e2): c}."""
    t = np.arange(size) / size
    out = np.zeros((size * size, len(polys)), dtype=np.complex128)
    for j, poly in enumerate(polys):
        for (e1, e2), c in poly.items():
            out[:, j] += c * np.exp(2j * math.pi * (e1 * t[:, None] + e2 * t[None, :])).reshape(-1)
    return out


def function_rad_norm(polys, r: float, size: int) -> float:
    """E || sum eps_n f_n ||_{L_r(T^2)}, exact over signs, grid of size**2."""
    values = trig_grid(polys, size)
    m = values.shape[1]
    g = (np.abs(values @ _all_signs(m, 0, 1 << m)) ** r).mean(axis=0) ** (1.0 / r)
    return float(g.mean())


def kernel_l1(N: int, nodes: int = 24) -> float:
    """(1/pi) int_0^pi |sin(N t/2) / sin(t/2)| dt by Gauss-Legendre between zeros."""
    if N == 1:
        return 1.0
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = [2 * math.pi * k / N for k in range(N // 2 + 1)]
    if edges[-1] < math.pi:
        edges.append(math.pi)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        t = 0.5 * (b - a) * x + 0.5 * (b + a)
        total += 0.5 * (b - a) * float((w * np.abs(np.sin(N * t / 2) / np.sin(t / 2))).sum())
    return total / math.pi


def within(value: float, stderr: float, ref: float, ref_stderr: float, z: float, floor: float = 1e-9) -> bool:
    """True when two estimates agree within z combined standard errors."""
    return abs(value - ref) <= z * math.hypot(stderr, ref_stderr) + floor * max(1.0, abs(ref))
