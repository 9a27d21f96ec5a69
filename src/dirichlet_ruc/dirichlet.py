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
from .errors import DomainError, ResourceError, check_power
from .sampling import (
    MODE_EXACT,
    MODE_QUADRATURE,
    STREAM_TORUS,
    _CHUNK_BUDGET,
    Estimate,
    SamplerConfig,
    _grid_columns,
    _grid_sizes,
    _panel,
    torus_characters,
)
from .spaces import (
    Element,
    HilbertSpace,
    SpaceSpec,
    as_element,
    closed_form,
    combination_moments,
    element_is_zero,
    grid_moments,
    nonzero_elements,
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
        ns = list(self.terms)
        keep = nonzero_elements(self.space, [self.terms[n] for n in ns])
        return sorted(n for n, nonzero in zip(ns, keep) if nonzero)

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
    ns = list(D.terms)
    exps = _exponent_rows(ns)
    terms = {MultiIndex(row): D.terms[n] for n, row in zip(ns, exps)}
    return PolytorusPolynomial(space=D.space, terms=terms, variables=exps.shape[1])


def lift_arrays(D: DirichletPolynomial) -> tuple[list[Element], np.ndarray, list[int]]:
    """(elements, exponent matrix (N, V), frequencies) for the nonzero terms."""
    ns = D.support()
    return [D.terms[n] for n in ns], _exponent_rows(ns), ns


def _exponent_rows(ns: list[int]) -> np.ndarray:
    """The Bohr lift: row i holds the prime exponents of ns[i], over as many
    columns as the largest prime slot used."""
    alphas = [factorize(n) for n in ns]
    exps = np.zeros((len(ns), max(map(len, alphas), default=0)), dtype=np.int64)
    for i, alpha in enumerate(alphas):
        for slot, e in alpha.pairs:
            exps[i, slot] = e
    return exps


def _quadrature_grid(exponents: np.ndarray, p: float, cfg: SamplerConfig, method: str):
    """(columns, fine, half) of the grid on which `method` averages the H_p
    norm of sum x_n * z^{E[n]}, columns(lo, n) giving the characters at its
    points [lo, lo + n) as columns; None when the Monte Carlo panel is taken
    instead."""
    variables = np.count_nonzero(exponents.any(axis=0))
    if method == "quadrature" or (
        method == "auto" and p == 2 and variables <= QUADRATURE_MAX_VARIABLES
    ):
        policy = cfg.grid_policy
        used, sizes, halves = _grid_sizes(exponents, policy)
        points = math.prod(sizes)
        if points <= policy.max_points:
            return _grid_columns(used, sizes), sizes, halves
        if method == "quadrature":
            raise ResourceError(
                f"quadrature grid of {points} points exceeds {policy.max_points}"
            )
    return None


def _quadrature_norm(space: SpaceSpec, xs: list[Element], grid: tuple, p: float) -> Estimate:
    """The H_p norm on a _quadrature_grid: the outer grid's gap, plus a
    function space's inner one, is the error."""
    columns, fine, half = grid
    (est,), (rough,), _ = grid_moments(space, xs, columns, fine, half, [p])
    return Estimate(
        value=est.value,
        samples_used=est.samples_used,
        mode=MODE_QUADRATURE,
        quad_error=abs(est.value - rough.value) + est.quad_error,
    )


def _polytorus_norm(
    space: SpaceSpec,
    xs: list[Element],
    exponents: np.ndarray,
    p: float,
    cfg: SamplerConfig,
    method: str,
) -> Estimate:
    """Shared engine for H_p and circle norms of sum x_n * z^{E[n]}."""
    # The grid spans only the variables some term uses; the Monte Carlo
    # panel keeps every column, since its width fixes the counter stream.
    grid = _quadrature_grid(exponents, p, cfg, method)
    if grid is not None:
        return _quadrature_norm(space, xs, grid, p)

    def draw(lo: int, count: int) -> np.ndarray:
        return torus_characters(exponents, cfg.seed, STREAM_TORUS, lo, count, out=_panel(count, len(xs))).T

    return combination_moments(space, xs, draw, cfg.samples, [p], mc=True)[0]


def _closed_form(
    space: SpaceSpec, xs: list[Element], exponents: np.ndarray, p: float, method: str
) -> Estimate | None:
    """Check p and method, then give the norm of sum x_n z^{E[n]} (the x_n
    nonzero, the rows of E distinct) where spaces.closed_form holds and the
    method allows it: for "auto" and "exact", and for every method when no
    variable is left to average over (no terms, or the single term n = 1).
    None means a polytorus route has to run."""
    check_power("p", p)
    if method not in ("auto", "exact", "quadrature", "mc"):
        raise DomainError(f"unknown method {method!r}")
    closed = None
    if method in ("auto", "exact") or not exponents.any():
        closed = closed_form(space, xs, p)
    if closed is None and method == "exact":
        raise DomainError("no exact mode for this space/p combination")
    return closed


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
    xs, exps, _ = lift_arrays(D)
    closed = _closed_form(D.space, xs, exps, p, method)
    if closed is not None:
        return closed
    cfg = cfg if cfg is not None else SamplerConfig()
    return _polytorus_norm(D.space, xs, exps, p, cfg, method)


def circle_hp_norm(
    xs: Sequence[Element],
    space: SpaceSpec,
    p: float,
    cfg: SamplerConfig | None = None,
    method: str = "auto",
) -> Estimate:
    """Single-circle norm (integral over z of || sum_n x_n z^n ||^p)^(1/p)."""
    elements = [as_element(space, x) for x in xs]
    kept = [(i + 1, x) for i, x in enumerate(elements) if not element_is_zero(x)]
    exps = np.array([[n] for n, _ in kept], dtype=np.int64)
    closed = _closed_form(space, [x for _, x in kept], exps, p, method)
    if closed is not None:
        return closed
    cfg = cfg if cfg is not None else SamplerConfig()
    if method == "auto":
        # One circle variable: trapezoid on a grid past twice the top degree
        # beats sampling whenever it fits the budget.
        top = int(exps.max())
        if cfg.grid_policy.size_for(top) <= cfg.grid_policy.max_points:
            method = "quadrature"
    return _polytorus_norm(space, [x for _, x in kept], exps, p, cfg, method)


_KERNEL_NODES = (24, 20)  # Gauss-Legendre nodes per panel: reported rule, check rule
# Relative rounding error of the value beyond its n-term dot products, in
# ulps: each integrand value <= 12 (two sines of <= 4 ulps, their rounded
# arguments, the division), leggauss's weights 14 (sum |dw| / sum w for 24
# nodes, against 40-digit weights), the final sum and scaling 1; rounded up.
_KERNEL_ROUNDING_ULPS = 32


def _kernel_panels(N: int, nodes: int) -> float:
    """(1/pi) * integral over [0, pi] of |D_N(t)|, by a `nodes`-point
    Gauss-Legendre rule on each panel [2 pi k / N, 2 pi (k + 1) / N]; for
    odd N the last panel straddles pi and counts half (|D_N| is even about pi).

    On panel k, with t = 2 pi (k + u) / N and u = (1 + x) / 2, the integrand
    is sin(pi u) / sin(pi (k + u) / N): no argument grows with N.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    numerator = np.sin(0.5 * math.pi * (1.0 - np.abs(x)))  # sin(pi u), accurate at both ends
    scale = 0.5 * math.pi / N
    panels = (N + 1) // 2
    chunk = max(1, _CHUNK_BUDGET // nodes)
    sums = []
    for lo in range(0, panels, chunk):
        k = np.arange(lo, min(lo + chunk, panels), dtype=np.float64)
        values = (2.0 * k + 1.0)[:, None] + x[None, :]
        values *= scale
        np.sin(values, out=values)
        np.divide(numerator, values, out=values)
        sums.append(values @ w)
    sums = np.concatenate(sums)
    if N % 2:
        sums[-1] *= 0.5
    return math.fsum(sums.tolist()) / N


def dirichlet_kernel_l1(N: int) -> Estimate:
    """(1/2pi) * integral of |sum_{n=1}^N e^{i n t}| dt, to <= 1e-12 relative.

    The integrand |sin(N t / 2) / sin(t / 2)| is analytic between its zeros
    t = 2 pi k / N, so each panel takes a fixed Gauss-Legendre rule.
    quad_error is the gap to a coarser rule plus a rounding allowance, which
    bounds the error once the rules have converged (12 nodes suffice).
    """
    N = int(N)
    if N < 1:
        raise DomainError("N must be >= 1")
    if N == 1:
        return Estimate(value=1.0, mode=MODE_EXACT)
    fine, coarse = (_kernel_panels(N, nodes) for nodes in _KERNEL_NODES)
    rounding = (_KERNEL_NODES[0] + _KERNEL_ROUNDING_ULPS) * math.ulp(1.0) * fine
    return Estimate(
        value=fine,
        mode=MODE_QUADRATURE,
        quad_error=abs(fine - coarse) + rounding,
        samples_used=(N + 1) // 2 * sum(_KERNEL_NODES),
    )
