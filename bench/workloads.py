"""Seeded library workloads: search, mc_norms and exact_signs.

Op i of a workload is built from a generator seeded with (workload seed, i),
so a seed fixes the inputs, and every seed gives inputs of the same shapes
and sizes: the slot i % len(SLOTS) alone fixes an op's kind, space, term
count, support shape and sample count.  Each op draws its own sampler seed,
so no two ops share a sample panel.

Slots are ordered so that the run's latency median and 90th percentile fall
inside groups of ops of one cost, not on the boundary between two groups.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

import dirichlet_ruc as dr
import reference as ref

SIGN_REF_PATTERNS = 8192  # sampled sign patterns for references above 2^16
MC_REF_SAMPLES = 4000
Z = 6.0  # standard errors allowed between an estimate and its reference


class CheckFailed(Exception):
    pass


class Checks:
    """Comparisons against references; ref_scale != 1 deliberately corrupts
    every reference, to show that the checks catch a wrong value."""

    def __init__(self, ref_scale: float = 1.0):
        self.ref_scale = ref_scale

    def agree(self, label, value, stderr, reference, ref_stderr=0.0, z=Z, rel=1e-9):
        reference = reference * self.ref_scale
        if not (math.isfinite(value) and ref.within(value, stderr, reference, ref_stderr, z, rel)):
            raise CheckFailed(
                f"{label}: {value!r} +- {stderr:.3g} vs reference {reference!r} +- {ref_stderr:.3g}"
            )

    @staticmethod
    def require(condition, message):
        if not condition:
            raise CheckFailed(message)


class Op(NamedTuple):
    kind: str
    call: Callable[[], object]
    check: Callable[[object, Checks], None]


def fingerprint(value):
    """Exact, hashable image of an op's output (floats by their bits)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (bool, int, str, bytes)) or value is None:
        return value
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (np.floating, np.integer, np.bool_, complex)):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return tuple(fingerprint(v) for v in value)
    return (type(value).__name__, fingerprint(tuple(vars(value).values())))


def op_rng(seed: int, workload: str, i: int):
    tag = int.from_bytes(workload.encode()[:8], "little")
    return np.random.default_rng([seed & 0xFFFFFFFF, tag, i])


def _vectors(rng, d, m):
    return [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(m)]


def _r(space) -> float:
    if isinstance(space, dr.HilbertSpace):
        return 2.0
    if isinstance(space, dr.SupSpace):
        return math.inf
    return space.r


def _check_mc(check: Checks, est, samples: int):
    check.require(est.mode == "mc", f"mode {est.mode} is not mc")
    check.require(est.stderr > 0, "mc estimate reports stderr 0")
    check.require(est.samples_used == samples, f"samples_used {est.samples_used} != {samples}")


_PRIMES = ref.primes_below(5000)


def _largest_prime_factor_table(limit: int) -> np.ndarray:
    lpf = np.arange(limit + 1)
    for p in map(int, _PRIMES):
        lpf[p :: p] = p  # later (larger) primes overwrite smaller ones
    return lpf


# Sparse supports use frequencies <= 5000 whose prime factors are at most
# the 270th prime, and always one multiple of it, so every seed lifts to
# exactly 270 circle variables.  Dense supports lie in [2, 60] and always
# contain 59, the 17th prime: 17 variables.
SPARSE_TOP = int(_PRIMES[269])
_LPF = _largest_prime_factor_table(5000)
_SPARSE_POOL = np.array([n for n in range(2, 5001) if _LPF[n] < SPARSE_TOP])


def _dense_support(rng, terms=16):
    rest = rng.choice(np.array([n for n in range(2, 61) if n != 59]), terms - 1, replace=False)
    return sorted(int(n) for n in rest) + [59]


def _sparse_support(rng, terms=16):
    top = SPARSE_TOP * int(rng.integers(1, 5000 // SPARSE_TOP + 1))
    rest = rng.choice(_SPARSE_POOL, terms - 1, replace=False)
    return sorted([int(n) for n in rest] + [top])


# --- mc_norms -----------------------------------------------------------

MC_SAMPLES = 20_000
D_MC = 8

MC_SLOTS = [
    ("hp_dense", dr.SupSpace(D_MC), 3.0),
    ("hp_sparse", dr.SupSpace(D_MC), 3.0),
    ("steinhaus", dr.SequenceSpace(3.0, D_MC), 1.0),
    ("gaussian", dr.SupSpace(D_MC), 3.0),
    ("rademacher", dr.SequenceSpace(1.0, D_MC), 3.0),
    ("hp_dense", dr.HilbertSpace(D_MC), 1.0),
    ("hp_sparse", dr.HilbertSpace(D_MC), 1.0),
    ("steinhaus", dr.SupSpace(D_MC), 3.0),
    ("gaussian", dr.SequenceSpace(3.0, D_MC), 1.0),
    ("rademacher", dr.SupSpace(D_MC), 1.0),
    ("hp_dense", dr.SequenceSpace(3.0, D_MC), 3.0),
    ("hp_sparse", dr.SequenceSpace(3.0, D_MC), 3.0),
    ("steinhaus", dr.HilbertSpace(D_MC), 3.0),
    ("gaussian", dr.HilbertSpace(D_MC), 1.0),
    ("rademacher", dr.SequenceSpace(3.0, D_MC), 3.0),
    ("hp_dense", dr.SupSpace(D_MC), 1.0),
    ("hp_sparse", dr.HilbertSpace(D_MC), 3.0),
    ("parseval", dr.HilbertSpace(D_MC), 2.0),
    ("gaussian_single", dr.SupSpace(D_MC), 3.0),
]


def mc_norms_op(seed: int, i: int) -> Op:
    kind, space, p = MC_SLOTS[i % len(MC_SLOTS)]
    rng = op_rng(seed, "mc_norms", i)
    cfg = dr.SamplerConfig(seed=int(rng.integers(0, 2**31)), samples=MC_SAMPLES)
    ref_rng = np.random.default_rng([seed & 0xFFFFFFFF, i, 0x5EF])
    r = _r(space)

    if kind in ("hp_dense", "hp_sparse", "parseval"):
        ns = _sparse_support(rng) if kind == "hp_sparse" else _dense_support(rng)
        xs = _vectors(rng, D_MC, len(ns))
        method = "mc" if kind == "parseval" else "auto"

        def call():
            return dr.hp_norm(dr.DirichletPolynomial(space, dict(zip(ns, xs))), p, cfg, method=method)

        def check(est, c: Checks):
            _check_mc(c, est, MC_SAMPLES)
            X = np.column_stack(xs)
            if kind == "parseval":
                c.agree("Parseval", est.value, est.stderr, math.sqrt(float((np.abs(X) ** 2).sum())))
                return
            value, se = ref.hp_norm_mc(X, ref.exponent_matrix(ns, _PRIMES), r, p, MC_REF_SAMPLES, ref_rng)
            c.agree("hp_norm", est.value, est.stderr, value, se)

        return Op(kind, call, check)

    if kind == "gaussian_single":
        x = _vectors(rng, D_MC, 1)[0]

        def call():
            return dr.gaussian_average([x], space, p, cfg)

        def check(est, c: Checks):
            closed = float(np.abs(x).max()) * math.gamma(1 + p / 2) ** (1 / p)
            c.agree("single Gaussian moment", est.value, 0.0, closed, rel=1e-12)

        return Op(kind, call, check)

    xs = _vectors(rng, D_MC, 24)
    fn = {"steinhaus": "steinhaus_average", "gaussian": "gaussian_average",
          "rademacher": "rademacher_average"}[kind]
    multipliers = {"steinhaus": "rotations", "gaussian": "gaussian", "rademacher": "signs"}[kind]

    def call():
        return getattr(dr, fn)(xs, space, p, cfg)

    def check(est, c: Checks):
        _check_mc(c, est, MC_SAMPLES)
        value, se = ref.multiplier_mc(np.column_stack(xs), r, p, multipliers, MC_REF_SAMPLES, ref_rng)
        c.agree(fn, est.value, est.stderr, value, se)

    return Op(kind, call, check)


# --- exact_signs ----------------------------------------------------------

HPRAD_SAMPLES = 1000

SIGN_SLOTS = [
    ("rademacher", dr.SupSpace(8), 18, 3.0),
    ("kahane", dr.SequenceSpace(1.0, 8), 18, 3.0),
    ("rademacher", dr.SequenceSpace(3.0, 16), 16, 1.0),
    ("kahane", dr.SupSpace(16), 16, 2.0),
    ("contraction", dr.SequenceSpace(3.0, 8), 16, 1.0),
    ("contraction", dr.SupSpace(16), 14, 1.0),
    ("hprad", dr.SupSpace(8), 12, 1.0),
    ("rad_norm_fn", dr.FunctionLr(1.0, 2), 10, 1.0),
    ("hprad", dr.SequenceSpace(1.0, 8), 12, 3.0),
    ("hprad", dr.SupSpace(8), 10, 3.0),
]


def _sign_reference(X, r, qs, rng, scale=None):
    """Exact sign moments up to 2^16 patterns, sampled (with stderr) above."""
    m = X.shape[1]
    if m <= 16:
        return [(v, 0.0) for v in ref.exact_sign_moments(X, r, qs, scale)]
    Y = X if scale is None else X * np.asarray(scale)[None, :]
    eps = rng.choice([-1.0, 1.0], size=(m, SIGN_REF_PATTERNS))
    g = ref.column_norms(r, Y @ eps)
    return [ref.moment(g, q) for q in qs]


def exact_signs_op(seed: int, i: int) -> Op:
    kind, space, m, p = SIGN_SLOTS[i % len(SIGN_SLOTS)]
    rng = op_rng(seed, "exact_signs", i)
    ref_rng = np.random.default_rng([seed & 0xFFFFFFFF, i, 0x5EF])

    if kind == "rad_norm_fn":
        polys = []
        for _ in range(m):
            keys = {tuple(int(e) for e in rng.integers(-3, 4, size=2)) for _ in range(3)}
            polys.append({k: complex(*rng.standard_normal(2)) for k in keys})

        def call():
            family = [dr.TrigPolynomial(poly, 2) for poly in polys]
            return dr.rad_norm(family, space, dr.SamplerConfig())

        def check(est, c: Checks):
            c.require(est.mode == "quadrature", f"mode {est.mode} is not quadrature")
            fine = ref.function_rad_norm(polys, 1.0, 64)
            coarse = ref.function_rad_norm(polys, 1.0, 48)
            c.agree("rad_norm FunctionLr", est.value, est.quad_error, fine, abs(fine - coarse), z=4.0)

        return Op(kind, call, check)

    d = space.d
    xs = _vectors(rng, d, m)
    r = _r(space)
    X = np.column_stack(xs)

    if kind == "hprad":
        support = [37] + sorted(int(n) for n in rng.choice(np.arange(2, 37), m - 1, replace=False))
        cfg = dr.SamplerConfig(seed=int(rng.integers(0, 2**31)), samples=HPRAD_SAMPLES)

        def call():
            return dr.hprad_norm(dr.DirichletPolynomial(space, dict(zip(support, xs))), p, cfg)

        def check(est, c: Checks):
            _check_mc(c, est, HPRAD_SAMPLES)
            value, se = ref.hprad_mc(X, ref.exponent_matrix(support, _PRIMES), r, p,
                                     HPRAD_SAMPLES, ref_rng, patterns=256)
            c.agree("hprad_norm", est.value, est.stderr, value, se)

        return Op(kind, call, check)

    if kind == "rademacher":
        def call():
            return dr.rademacher_average(xs, space, p)

        def check(est, c: Checks):
            c.require(est.mode == "exact", f"mode {est.mode} is not exact")
            (value, se), = _sign_reference(X, r, [p], ref_rng)
            c.agree("rademacher_average", est.value, 0.0, value, se)

        return Op(kind, call, check)

    if kind == "kahane":
        def call():
            return dr.kahane_ratio(xs, space, p)

        def check(ratio, c: Checks):
            c.require(ratio >= 1.0, f"kahane_ratio {ratio} < 1")
            (vp, sp), (v1, s1) = _sign_reference(X, r, [p, 1.0], ref_rng)
            c.agree("kahane_ratio", ratio, 0.0, vp / v1, (vp / v1) * math.hypot(sp / vp, s1 / v1))

        return Op(kind, call, check)

    a = rng.uniform(-1.0, 1.0, m) * np.exp(2j * math.pi * rng.random(m))

    def call():
        return dr.contraction_check(xs, a, space)

    def check(report, c: Checks):
        c.require(report.holds, "contraction principle reported as violated")
        (lhs, ls), = _sign_reference(X, r, [1.0], ref_rng, scale=a)
        (base, bs), = _sign_reference(X, r, [1.0], ref_rng)
        c.agree("contraction lhs", report.lhs.value, report.lhs.stderr, lhs, ls)
        c.agree("contraction rhs", report.rhs.value, report.rhs.stderr, base * math.pi / 2, bs * math.pi / 2)

    return Op(kind, call, check)


# --- search -------------------------------------------------------------

SEARCH_VECTORS = 6
SEARCH_SAMPLES = 4000
SEARCH_ITERATIONS = 3
# Magnitude moves shrink a coefficient by at most one step per sweep, so with
# 3 sweeps of step 1/8 none reaches 0: every evaluation keeps all 6 terms and
# an op's cost does not depend on the path the search takes.
SEARCH_STEP = 0.125
SEARCH_SPACE = dr.SupSpace(4)
# p of each op in a cycle.  p = 3 ops run about 10% longer than p = 1 ops;
# with twice as many p = 1 ops the median lies inside their group rather
# than on the boundary between the two.
SEARCH_SLOTS = [1.0, 3.0, 1.0]


def _search_inputs(seed: int, i: int):
    rng = op_rng(seed, "search", i)
    vectors = _vectors(rng, SEARCH_SPACE.d, SEARCH_VECTORS)
    cfg = dr.SamplerConfig(seed=int(rng.integers(0, 2**31)), samples=SEARCH_SAMPLES)
    return SEARCH_SLOTS[i % len(SEARCH_SLOTS)], vectors, cfg


def _all_ones(vectors):
    return dr.DirichletPolynomial(SEARCH_SPACE, {n + 1: x for n, x in enumerate(vectors)})


def search_warmup(seed: int) -> None:
    """One ruc_ratio, the unit a search op repeats, instead of a whole search."""
    p, vectors, cfg = _search_inputs(seed, 0)
    dr.ruc_ratio(_all_ones(vectors), p, cfg)


def search_op(seed: int, i: int) -> Op:
    p, vectors, cfg = _search_inputs(seed, i)
    search_cfg = dr.SearchConfig(restarts=1, iterations=SEARCH_ITERATIONS, initial_step=SEARCH_STEP)
    ref_rng = np.random.default_rng([seed & 0xFFFFFFFF, i, 0x5EF])

    def call():
        return dr.ruc_constant_search(SEARCH_SPACE, vectors, p, search_cfg, cfg)

    def check(result, c: Checks):
        floor = dr.ruc_ratio(_all_ones(vectors), p, cfg).ratio
        c.require(result.report.ratio >= floor, f"search ratio {result.report.ratio} < all-ones {floor}")
        keep = [n for n, a in enumerate(result.coefficients) if a != 0]
        X = np.column_stack([result.coefficients[n] * vectors[n] for n in keep])
        exps = ref.exponent_matrix([n + 1 for n in keep], _PRIMES)
        num, num_se = ref.hprad_mc(X, exps, math.inf, p, SEARCH_SAMPLES, ref_rng)
        den, den_se = ref.hp_norm_mc(X, exps, math.inf, p, SEARCH_SAMPLES, ref_rng)
        report = result.report
        c.agree("search numerator", report.numerator.value, report.numerator.stderr, num, num_se)
        c.agree("search denominator", report.denominator.value, report.denominator.stderr, den, den_se)

    return Op("search", call, check)


WORKLOADS = {
    "search": (search_op, len(SEARCH_SLOTS)),
    "mc_norms": (mc_norms_op, len(MC_SLOTS)),
    "exact_signs": (exact_signs_op, len(SIGN_SLOTS)),
}
