"""Dirichlet polynomials, the Bohr lift, and Hardy-norm evaluation.

A polynomial sum_n x_n n^{-s} lifts to the polytorus monomial sum
sum_n x_n z^{alpha(n)} by writing each frequency in prime exponents; its
H_p norm is the L_p average of the lifted function's pointwise norms over
independent uniform circle coordinates.  Evaluation modes: exact (Parseval
for p = 2 with a hilbertian target), tensor-grid quadrature (few variables),
Monte Carlo with counter-based sampling otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bohr import MultiIndex, factorize
from .errors import DomainError, ResourceError
from .sampling import (
    MODE_EXACT,
    MODE_MC,
    MODE_QUADRATURE,
    STREAM_TORUS,
    _CHUNK_BUDGET,
    Estimate,
    SamplerConfig,
    character_values,
    torus_characters,
)
from .spaces import (
    CombinationEvaluator,
    Element,
    HilbertSpace,
    SpaceSpec,
    as_element,
    element_is_zero,
    hilbert_norm,
    is_hilbertian,
    norm as space_norm,
    scale_element,
    zero_element,
)

QUADRATURE_MAX_VARIABLES = 4


@dataclass(frozen=True)
class DirichletPolynomial:
    """Finite map n -> x_n representing sum_n x_n n^{-s}."""

    space: SpaceSpec
    terms: Mapping[int, Element]

    def __post_init__(self):
        checked: dict[int, Element] = {}
        for n, x in self.terms.items():
            n = int(n)
            if n < 1:
                raise DomainError(f"frequency {n} must be >= 1")
            checked[n] = as_element(self.space, x)
        object.__setattr__(self, "terms", checked)

    def support(self) -> list[int]:
        return sorted(n for n, x in self.terms.items() if not element_is_zero(x))

    def nonzero_terms(self) -> list[tuple[int, Element]]:
        return [(n, self.terms[n]) for n in self.support()]

    def is_zero(self) -> bool:
        return not self.support()

    def scaled(self, c: complex) -> "DirichletPolynomial":
        return DirichletPolynomial(
            self.space, {n: scale_element(x, c) for n, x in self.terms.items()}
        )


def scalar_polynomial(coefficients: Mapping[int, complex]) -> DirichletPolynomial:
    """Scalar-valued polynomial, modeled in the one-dimensional Hilbert space."""
    return DirichletPolynomial(
        HilbertSpace(1), {int(n): np.array([c], dtype=np.complex128) for n, c in coefficients.items()}
    )


@dataclass(frozen=True)
class PolytorusPolynomial:
    """Finite map alpha -> x_alpha representing sum x_alpha z^alpha."""

    space: SpaceSpec
    terms: Mapping[MultiIndex, Element]
    variables: int


def coefficient(D: DirichletPolynomial, n: int) -> Element:
    """x_n, or the zero element when the term is absent."""
    n = int(n)
    if n < 1:
        raise DomainError("frequency must be >= 1")
    return D.terms.get(n, zero_element(D.space))


def partial_sum(D: DirichletPolynomial, N: int) -> DirichletPolynomial:
    """Restriction to frequencies n <= N."""
    N = int(N)
    if N < 1:
        raise DomainError("N must be >= 1")
    return DirichletPolynomial(D.space, {n: x for n, x in D.terms.items() if n <= N})


def vertical_translate(D: DirichletPolynomial, sigma: float) -> DirichletPolynomial:
    """Scale the term at n by n^{-sigma}."""
    if sigma < 0:
        raise DomainError("sigma must be >= 0")
    return DirichletPolynomial(
        D.space,
        {n: scale_element(x, float(n) ** (-sigma)) for n, x in D.terms.items()},
    )


def bohr_lift(D: DirichletPolynomial) -> PolytorusPolynomial:
    """Rewrite frequencies in prime exponents; bijective on supports."""
    lifted: dict[MultiIndex, Element] = {}
    variables = 0
    for n, x in D.terms.items():
        alpha = factorize(n)
        lifted[alpha] = x
        variables = max(variables, len(alpha))
    return PolytorusPolynomial(space=D.space, terms=lifted, variables=variables)


def lift_arrays(D: DirichletPolynomial) -> tuple[list[Element], np.ndarray, list[int]]:
    """(elements, exponent matrix (N, V), frequencies) for the nonzero terms."""
    pairs = D.nonzero_terms()
    ns = [n for n, _ in pairs]
    xs = [x for _, x in pairs]
    alphas = [factorize(n) for n in ns]
    variables = max((len(a) for a in alphas), default=0)
    exps = np.zeros((len(ns), max(variables, 1)), dtype=np.int64)
    for i, a in enumerate(alphas):
        for slot, e in a.pairs:
            exps[i, slot] = e
    return xs, exps[:, :variables] if variables else exps[:, :0], ns


def _mean_power(
    evaluator: CombinationEvaluator,
    multipliers: np.ndarray,
    p: float,
) -> tuple[float, float, int]:
    """Accumulate (mean g^p, mean g^{2p}, count) over rows of `multipliers`."""
    total = multipliers.shape[0]
    width = max(evaluator.grid_points, len(evaluator.xs))
    chunk = max(1, _CHUNK_BUDGET // max(width, 1))
    acc_p = 0.0
    acc_2p = 0.0
    for lo in range(0, total, chunk):
        g = evaluator.norms(multipliers[lo : lo + chunk].T)
        gp = g**p
        acc_p += float(gp.sum())
        acc_2p += float((gp**2).sum())
    return acc_p / total, acc_2p / total, total


def _grid_fractions(sizes: Sequence[int]) -> np.ndarray:
    """All tensor-grid angles as 64-bit fixed-point numerators."""
    axes = [np.arange(g, dtype=np.uint64) * np.uint64(2**64 // g) for g in sizes]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.reshape(-1) for m in mesh])


def _quadrature_norm(
    evaluator: CombinationEvaluator,
    exponents: np.ndarray,
    p: float,
    sizes: Sequence[int],
) -> float:
    multipliers = character_values(exponents, _grid_fractions(sizes))
    mean_p, _, _ = _mean_power(evaluator, multipliers, p)
    return mean_p ** (1.0 / p) if mean_p > 0 else 0.0


def _mc_norm(
    evaluator: CombinationEvaluator,
    exponents: np.ndarray,
    p: float,
    cfg: SamplerConfig,
    stream: int = STREAM_TORUS,
) -> Estimate:
    samples = cfg.samples
    width = max(evaluator.grid_points, len(evaluator.xs))
    chunk = max(64, _CHUNK_BUDGET // max(width, 1))
    acc_p = 0.0
    acc_2p = 0.0
    for lo in range(0, samples, chunk):
        count = min(chunk, samples - lo)
        multipliers = torus_characters(exponents, cfg.seed, stream, samples, lo, count)
        part_p, part_2p, _ = _mean_power(evaluator, multipliers, p)
        acc_p += part_p * count
        acc_2p += part_2p * count
    mean = acc_p / samples
    value = mean ** (1.0 / p) if mean > 0 else 0.0
    if samples < 2 or mean == 0:
        stderr = 0.0
    else:
        var = max(acc_2p / samples - mean**2, 0.0) * samples / (samples - 1)
        stderr = math.sqrt(var / samples) * value / (p * mean)
    return Estimate(value=value, stderr=stderr, samples_used=samples, mode=MODE_MC)


def _polytorus_norm(
    space: SpaceSpec,
    xs: list[Element],
    exponents: np.ndarray,
    p: float,
    cfg: SamplerConfig,
    method: str,
) -> Estimate:
    """Shared engine for H_p and circle norms of sum x_n * z^{E[n]}."""
    variables = exponents.shape[1]
    if method == "quadrature" or (
        method == "auto" and p == 2 and variables <= QUADRATURE_MAX_VARIABLES
    ):
        policy = cfg.grid_policy
        max_exp = [int(np.abs(exponents[:, j]).max()) for j in range(variables)]
        sizes = [policy.size_for(e) for e in max_exp]
        points = math.prod(sizes) if sizes else 1
        if points <= policy.max_points:
            evaluator = CombinationEvaluator(space, xs)
            if variables == 0:
                value = float(evaluator.norms(np.ones((len(xs), 1)))[0])
                return Estimate(value=value, mode=MODE_EXACT)
            value = _quadrature_norm(evaluator, exponents, p, sizes)
            halves = [max(g // 2, 1) for g in sizes]
            rough = _quadrature_norm(evaluator, exponents, p, halves)
            return Estimate(
                value=value,
                mode=MODE_QUADRATURE,
                quad_error=abs(value - rough),
                samples_used=points,
            )
        if method == "quadrature":
            raise ResourceError(
                f"quadrature grid of {points} points exceeds {policy.max_points}"
            )
    evaluator = CombinationEvaluator(space, xs)
    if variables == 0:
        value = float(evaluator.norms(np.ones((len(xs), 1)))[0])
        return Estimate(value=value, mode=MODE_EXACT)
    return _mc_norm(evaluator, exponents, p, cfg)


def hp_norm(
    D: DirichletPolynomial,
    p: float,
    cfg: SamplerConfig | None = None,
    method: str = "auto",
) -> Estimate:
    """Hardy norm of the polynomial; see module docstring for mode selection.

    `method` forces an evaluation route ("exact", "quadrature", "mc"); the
    default "auto" follows the selection rules.
    """
    if p < 1:
        raise DomainError("p must be >= 1")
    if method not in ("auto", "exact", "quadrature", "mc"):
        raise DomainError(f"unknown method {method!r}")
    cfg = cfg if cfg is not None else SamplerConfig()
    xs, exps, _ = lift_arrays(D)
    if not xs:
        return Estimate(value=0.0, mode=MODE_EXACT)
    if method in ("auto", "exact"):
        if len(xs) == 1:
            # |z^alpha| = 1, so the norm is the single coefficient's norm.
            return space_norm(D.space, xs[0])
        if p == 2 and is_hilbertian(D.space):
            value = math.sqrt(sum(hilbert_norm(D.space, x) ** 2 for x in xs))
            return Estimate(value=value, mode=MODE_EXACT)
    if method == "exact":
        raise DomainError("no exact mode for this space/p combination")
    return _polytorus_norm(D.space, xs, exps, p, cfg, method)


def circle_hp_norm(
    xs: Sequence[Element],
    space: SpaceSpec,
    p: float,
    cfg: SamplerConfig | None = None,
    method: str = "auto",
) -> Estimate:
    """Single-circle norm (integral over z of || sum_n x_n z^n ||^p)^(1/p)."""
    if p < 1:
        raise DomainError("p must be >= 1")
    cfg = cfg if cfg is not None else SamplerConfig()
    elements = [as_element(space, x) for x in xs]
    kept = [(i + 1, x) for i, x in enumerate(elements) if not element_is_zero(x)]
    if not kept:
        return Estimate(value=0.0, mode=MODE_EXACT)
    if method in ("auto", "exact"):
        if len(kept) == 1:
            return space_norm(space, kept[0][1])
        if p == 2 and is_hilbertian(space):
            value = math.sqrt(sum(hilbert_norm(space, x) ** 2 for _, x in kept))
            return Estimate(value=value, mode=MODE_EXACT)
    if method == "exact":
        raise DomainError("no exact mode for this space/p combination")
    exps = np.array([[n] for n, _ in kept], dtype=np.int64)
    if method == "auto":
        # One circle variable: trapezoid on a grid past twice the top degree
        # beats sampling whenever it fits the budget.
        top = int(exps.max())
        if cfg.grid_policy.size_for(top) <= cfg.grid_policy.max_points:
            method = "quadrature"
    return _polytorus_norm(space, [x for _, x in kept], exps, p, cfg, method)


def dirichlet_kernel_l1(N: int) -> Estimate:
    """(1/2pi) * integral of |sum_{n=1}^N e^{i n t}| dt, to <= 1e-8 absolute.

    The integrand is |sin(N t / 2) / sin(t / 2)|; adaptive quadrature is
    split at its zeros t = 2 pi k / N.
    """
    from scipy import integrate  # imported on use: slow to import, needed only here

    N = int(N)
    if N < 1:
        raise DomainError("N must be >= 1")
    if N == 1:
        return Estimate(value=1.0, mode=MODE_EXACT)

    def integrand(t: float) -> float:
        s = math.sin(t / 2)
        if abs(s) < 1e-14:
            return float(N)
        return abs(math.sin(N * t / 2) / s)

    breaks = [2 * math.pi * k / N for k in range(1, N // 2 + 1) if 2 * math.pi * k / N < math.pi]
    value, abserr, info = integrate.quad(
        integrand,
        0.0,
        math.pi,
        points=breaks or None,
        limit=max(100, 4 * N),
        epsabs=1e-12,
        epsrel=1e-12,
        full_output=True,
    )[:3]
    return Estimate(
        value=value / math.pi,
        mode=MODE_QUADRATURE,
        quad_error=abserr / math.pi,
        samples_used=int(info["neval"]),
    )
