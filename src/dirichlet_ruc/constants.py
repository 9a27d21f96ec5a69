"""RUC/RUD ratios, extremal-constant search, type/cotype witnesses, and
growth experiments pitting sqrt(N) against Dirichlet-kernel L1 growth.

A ratio is a lower bound on its constant up to the reported uncertainty
only: the true constants are suprema over all lengths and coefficient
choices, and the derivative-free search merely reports the best instance it
found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bohr import PrimeAP, prime_ap_search
from .dirichlet import DirichletPolynomial, dirichlet_kernel_l1, lift_arrays, scalar_polynomial
from .errors import DomainError, UndefinedRatioError
from .randomized import _HpradPlan, rademacher_average
from .sampling import (
    MODE_EXACT,
    MODE_QUADRATURE,
    STREAM_SEARCH,
    STREAM_SUMMING,
    _CHUNK_BUDGET,
    Estimate,
    PowerMoments,
    SamplerConfig,
    torus_characters,
    uniform_bits,
)
from .spaces import (
    Element,
    SpaceSpec,
    as_element,
    element_is_zero,
    is_coordinate,
    nonzero_elements,
    norm as space_norm,
    scale_element,
)


@dataclass(frozen=True)
class RatioReport:
    """numerator / denominator, which must be positive.  quad_error is the
    quadrature error of a ratio whose two norms come from one pass of
    randomized._HpradPlan: |R_fine - R_half| on the grid route, plus in a
    function space |R_fine - R_inner|, the gap to the ratio on the half
    inner grid (alone off the grid); None for a closed form or a quadrature
    denominator over a Monte Carlo numerator, whose errors then propagate."""

    numerator: Estimate
    denominator: Estimate
    ratio: float
    instance: str
    quad_error: float | None = None

    def __post_init__(self):
        if not self.denominator.value > 0:
            raise UndefinedRatioError("denominator estimate is not positive")


@dataclass(frozen=True)
class SearchConfig:
    """Compass-search budget: random restarts, sweeps per restart, and a
    geometrically decaying step on magnitudes/phases (sup-normalized)."""

    restarts: int = 3
    iterations: int = 40
    initial_step: float = 0.5
    step_decay: float = 0.5
    min_step: float = 1e-3

    def __post_init__(self):
        if self.restarts < 1 or self.iterations < 1:
            raise DomainError("restarts and iterations must be >= 1")
        if not (math.isfinite(self.initial_step) and self.initial_step > 0):
            raise DomainError("initial_step must be finite and > 0")
        if not 0 < self.step_decay <= 1:
            raise DomainError("step_decay must lie in (0, 1]")
        if not (math.isfinite(self.min_step) and self.min_step >= 0):
            raise DomainError("min_step must be finite and >= 0")


def _ratio_report(
    numerator: Estimate, denominator: Estimate, quad_error: float | None, instance: str
) -> RatioReport:
    """numerator / denominator as a RatioReport, which refuses a denominator
    that is not positive (a norm whose p-th powers underflow, say); such a
    denominator is never divided by."""
    ratio = numerator.value / denominator.value if denominator.value > 0 else math.nan
    return RatioReport(numerator, denominator, ratio, instance, quad_error)


def ruc_ratio(
    D: DirichletPolynomial, p: float, cfg: SamplerConfig | None = None
) -> RatioReport:
    """||D||_rad / ||D||: > 1 means sign-averaging exceeds the plain norm.

    One plan (randomized._HpradPlan) gives both norms.  The denominator is
    the identity pattern of hprad_norm's own pass, on either route, so the
    two norms read one panel; on the grid route a support whose sign
    patterns form a single coset has a ratio of exactly 1.  Off the grid
    route, where hp_norm would average on a grid (p = 2, few variables), the
    denominator is that grid average instead."""
    if D.is_zero():
        raise UndefinedRatioError("zero polynomial")
    plan = _HpradPlan(D, p, cfg if cfg is not None else SamplerConfig())
    return _ratio_report(*plan.evaluate(plan.xs, plain=True), describe_instance(D, p))


def rud_ratio(
    D: DirichletPolynomial, p: float, cfg: SamplerConfig | None = None
) -> RatioReport:
    """||D|| / ||D||_rad: the reciprocal orientation of ruc_ratio."""
    report = ruc_ratio(D, p, cfg)
    quad_error = report.quad_error  # first order: |d(1/R)| = |dR| / R^2
    rud = _ratio_report(report.denominator, report.numerator, None, report.instance)
    return rud if quad_error is None else replace(rud, quad_error=quad_error / report.ratio**2)


def describe_instance(D: DirichletPolynomial, p: float) -> str:
    space = D.space
    name = type(space).__name__
    size = getattr(space, "d", getattr(space, "k", "?"))
    return f"{name}({size}), {len(D.support())} terms, p={p}"


@dataclass(frozen=True)
class SearchResult:
    coefficients: np.ndarray
    report: RatioReport


def _sup_normalize(a: np.ndarray) -> np.ndarray:
    top = np.abs(a).max()
    return a if top == 0 else a / top


def ruc_constant_search(
    space: SpaceSpec,
    vectors: Sequence[Element],
    p: float,
    search_cfg: SearchConfig | None = None,
    cfg: SamplerConfig | None = None,
) -> SearchResult:
    """Maximize ruc_ratio over coefficient vectors a (terms a_n * x_n).

    Random restarts + coordinate-wise compass moves on magnitude and phase,
    all evaluated with the same sampler seed (common random numbers).  The
    best ratio found is a lower bound on the true constant; ties keep the
    incumbent, and the all-ones start is always evaluated first.  Each
    support is lifted and routed once: its plan (randomized._HpradPlan) and
    instance string are kept for every candidate on it, so the reports are
    those of ruc_ratio bit for bit, and the first plans hold their character
    panels while the panels held fit _CHUNK_BUDGET entries in all.  A
    candidate equal to the incumbent's coefficients is not evaluated again.
    """
    search_cfg = search_cfg if search_cfg is not None else SearchConfig()
    cfg = cfg if cfg is not None else SamplerConfig()
    elements = [as_element(space, x) for x in vectors]
    if not elements or all(element_is_zero(x) for x in elements):
        raise DomainError("need at least one nonzero vector")
    n = len(elements)
    plans: dict[tuple, tuple[_HpradPlan, str]] = {}  # the plan and instance of each support
    held = 0  # entries of the panels the plans hold

    def evaluate(a: np.ndarray) -> RatioReport | None:
        """The report of sup-normalized coefficients a, or None when the
        polynomial is zero."""
        nonlocal held
        indices = np.flatnonzero(a)
        xs = [scale_element(elements[i], a[i]) for i in indices]
        keep = nonzero_elements(space, xs)  # DirichletPolynomial.support's rule
        xs = [x for x, nonzero in zip(xs, keep) if nonzero]
        ns = [int(i) + 1 for i in indices[keep]]
        if not ns:
            return None
        # A scaled L_r element keeps its exponents unless a coefficient
        # underflows to 0; its inner grid is part of the route.
        key = (tuple(ns), None if is_coordinate(space) else tuple(x.max_abs_exponents() for x in xs))
        plan, instance = plans.get(key, (None, None))
        if plan is None:
            D = DirichletPolynomial(space, dict(zip(ns, xs)))
            plan, instance = plans[key] = _HpradPlan(D, p, cfg), describe_instance(D, p)
            if 0 < plan.entries <= _CHUNK_BUDGET - held:
                held += plan.entries
                plan.hold()
        return _ratio_report(*plan.evaluate(xs, plain=True), instance)

    def restart_point(index: int) -> np.ndarray:
        if index == 0:
            return np.ones(n, dtype=np.complex128)
        bits = uniform_bits(cfg.seed, STREAM_SEARCH, 2, n, start=2 * index * n)
        mags = 0.2 + 0.8 * bits[0].astype(np.float64) * 2.0**-64
        phases = bits[1].astype(np.float64) * (2 * math.pi * 2.0**-64)
        return mags * np.exp(1j * phases)

    best_a: np.ndarray | None = None
    best: RatioReport | None = None
    for restart in range(search_cfg.restarts):
        a = _sup_normalize(restart_point(restart))
        evaluated = _sup_normalize(a)  # the coefficients the incumbent's report is of
        incumbent = evaluate(evaluated)
        if incumbent is None:
            continue
        step = search_cfg.initial_step
        for _ in range(search_cfg.iterations):
            improved = False
            for i in range(n):
                mag = abs(a[i])
                phase = math.atan2(a[i].imag, a[i].real)
                moves = [
                    (min(mag + step, 1.0), phase),
                    (max(mag - step, 0.0), phase),
                    (mag, phase + step),
                    (mag, phase - step),
                ]
                for new_mag, new_phase in moves:
                    candidate = a.copy()
                    candidate[i] = new_mag * complex(math.cos(new_phase), math.sin(new_phase))
                    candidate = _sup_normalize(candidate)
                    if candidate.tobytes() == evaluated.tobytes():
                        continue  # a move clipped at 0 or 1: the incumbent's report, no gain
                    report = evaluate(candidate)
                    if report is not None and report.ratio > incumbent.ratio:
                        a = evaluated = candidate
                        incumbent = report
                        improved = True
            if not improved:
                step *= search_cfg.step_decay
                if step < search_cfg.min_step:
                    break
        if best is None or incumbent.ratio > best.ratio:
            best = incumbent
            best_a = a
    assert best is not None and best_a is not None
    return SearchResult(coefficients=best_a, report=best)


def _type_witness(space: SpaceSpec, xs: Sequence, cfg: SamplerConfig | None) -> Estimate:
    """The type witness with the mode, stderr and quadrature error of its
    sign average, scaled by the same denominator.  The quadrature error of
    the denominator's norms adds its relative error to the witness's."""
    cfg = cfg if cfg is not None else SamplerConfig()
    elements = [as_element(space, x) for x in xs]
    if not elements or all(element_is_zero(x) for x in elements):
        raise DomainError("need at least one nonzero element")
    average = rademacher_average(elements, space, 2.0, cfg)
    norms = [space_norm(space, x) for x in elements]
    squares = sum(n.value**2 for n in norms)
    denominator = math.sqrt(squares)
    # first order: d sqrt(sum v^2) / sqrt(sum v^2) = sum v dv / sum v^2
    relative = sum(n.value * n.quad_error for n in norms) / squares
    value = average.value / denominator
    mode = MODE_QUADRATURE if relative and average.mode == MODE_EXACT else average.mode
    return Estimate(
        value=value,
        stderr=average.stderr / denominator,
        samples_used=average.samples_used,
        mode=mode,
        quad_error=average.quad_error / denominator + value * relative,
    )


def _cotype_witness(space: SpaceSpec, xs: Sequence, cfg: SamplerConfig | None) -> Estimate:
    """1 / the type witness; its relative errors carry through the inversion."""
    est = _type_witness(space, xs, cfg)
    value = 1.0 / est.value
    return Estimate(
        value=value,
        stderr=value * (est.stderr / est.value),
        samples_used=est.samples_used,
        mode=est.mode,
        quad_error=value * (est.quad_error / est.value),
    )


def type_constant_witness(
    space: SpaceSpec, xs: Sequence, cfg: SamplerConfig | None = None
) -> float:
    """(E ||sum eps_n x_n||^2)^(1/2) / (sum ||x_n||^2)^(1/2).

    Equals 1 in Hilbert space; grows like sqrt(n) for the l_1 basis. The
    returned defect is exact whenever sign enumeration is.
    """
    return _type_witness(space, xs, cfg).value


def cotype_constant_witness(
    space: SpaceSpec, xs: Sequence, cfg: SamplerConfig | None = None
) -> float:
    """(sum ||x_n||^2)^(1/2) / (E ||sum eps_n x_n||^2)^(1/2): mirror of the
    type witness; grows like sqrt(n) for the sup-norm basis."""
    return _cotype_witness(space, xs, cfg).value


@dataclass(frozen=True)
class PrimeApRow:
    length: int
    ap: PrimeAP | None
    lhs: Estimate | None
    rhs: Estimate | None
    ratio: float | None
    note: str = ""


def experiment_prime_ap(
    lengths: Sequence[int], bound: int, cfg: SamplerConfig | None = None
) -> list[PrimeApRow]:
    """For each length N: find a prime AP, compare sqrt(N) (the randomized
    side, exact for unimodular coefficients on distinct frequencies) with
    the kernel L1 norm (the plain norm after the measure-preserving
    substitution w -> w^step)."""
    rows: list[PrimeApRow] = []
    for length in lengths:
        length = int(length)
        if length == 1:
            one = Estimate.exact(1.0)
            rows.append(PrimeApRow(1, PrimeAP(2, 1, 1), one, one, 1.0))
            continue
        ap = prime_ap_search(length, bound)
        if ap is None:
            rows.append(
                PrimeApRow(length, None, None, None, None, note=f"no AP within {bound}")
            )
            continue
        lhs = Estimate.exact(math.sqrt(length))
        rhs = dirichlet_kernel_l1(length)
        rows.append(PrimeApRow(length, ap, lhs, rhs, lhs.value / rhs.value))
    return rows


@dataclass(frozen=True)
class LacunaryRow:
    n: int
    lhs: Estimate
    rhs: Estimate
    ratio: float


def experiment_lacunary_power(N: int, cfg: SamplerConfig | None = None) -> list[LacunaryRow]:
    """Compare sqrt(n) = L2 norm against the L1 norm of sum_{j<=n} w^j along
    the doubling ladder 1, 2, 4, ..., N (log vs sqrt growth)."""
    N = int(N)
    if N < 1:
        raise DomainError("N must be >= 1")
    ladder = []
    n = 1
    while n <= N:
        ladder.append(n)
        n *= 2
    if ladder[-1] != N:
        ladder.append(N)
    rows = []
    for n in ladder:
        lhs = Estimate.exact(math.sqrt(n))
        rhs = dirichlet_kernel_l1(n)
        rows.append(LacunaryRow(n=n, lhs=lhs, rhs=rhs, ratio=lhs.value / rhs.value))
    return rows


@dataclass(frozen=True)
class SummingReport:
    coefficients: np.ndarray
    sup_tail_norm: Estimate
    l2_lower_bound: float
    carleson_hunt_ratio: float
    lower_bound_ok: bool


def experiment_summing_basis(
    a: Sequence[complex], cfg: SamplerConfig | None = None
) -> SummingReport:
    """Estimate M = || sup_k |sum_{n>=k} a_n n^{-s}| ||_{H_2} by sampling the
    lifted tails on the polytorus.

    Reports M, the l2 lower bound (which M must dominate), and the
    empirical ratio M / l2 (bounded by an unspecified constant; reported,
    never asserted).
    """
    cfg = cfg if cfg is not None else SamplerConfig()
    a = np.asarray(list(a), dtype=np.complex128)
    if a.size == 0:
        raise DomainError("coefficient vector must be nonempty")
    m = a.size
    l2 = float(np.linalg.norm(a))
    if m == 1:
        est = Estimate(value=float(abs(a[0])), mode=MODE_EXACT)
        ratio = est.value / l2 if l2 > 0 else math.inf
        return SummingReport(a, est, l2, ratio, est.value >= l2)

    _, exps, _ = lift_arrays(scalar_polynomial(dict.fromkeys(range(1, m + 1), 1)))

    samples = cfg.samples
    chunk = max(64, _CHUNK_BUDGET // (2 * m))  # the multipliers and their tails
    moments = PowerMoments([2.0], mc=True)
    for lo in range(0, samples, chunk):
        count = min(chunk, samples - lo)
        mult = torus_characters(exps, cfg.seed, STREAM_SUMMING, lo, count) * a[None, :]
        tails = np.cumsum(mult[:, ::-1], axis=1)[:, ::-1]
        moments.add(np.abs(tails).max(axis=1))
    est = moments.estimates()[0]
    ok = est.value + 3 * est.stderr >= l2
    return SummingReport(a, est, l2, est.value / l2 if l2 > 0 else math.inf, ok)
