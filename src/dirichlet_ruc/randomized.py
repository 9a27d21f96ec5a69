"""Randomized norm averages: sign sums, rotations, Gaussians.

The workhorse is (E || sum_n c_n(omega) x_n ||^q)^(1/q) where c_n are
Rademacher signs, Steinhaus rotations, or Gaussians.  Sign averages are
exact up to `exact_cutoff`, Monte Carlo beyond: the exact mean runs over
all 2^m patterns but evaluates only half of them, since a pattern and its
negation give the same norm.  The sign average of an H_p norm, where it is
exact and its grid is cheaper than its Monte Carlo panel, runs on a
quadrature grid with one sign pattern per class of patterns that grid
rotations and negation carry into each other.  Rotations and Gaussians are
Monte Carlo with closed forms where moments make them available.  All
sampling is counter-based: identical configs give identical Estimates.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dirichlet import DirichletPolynomial, _quadrature_grid, _quadrature_norm, lift_arrays
from .errors import DomainError, UndefinedRatioError, check_power
from .sampling import (
    MODE_MC,
    MODE_QUADRATURE,
    STREAM_GAUSSIAN,
    STREAM_OUTER_SIGNS,
    STREAM_SIGNS,
    STREAM_STEINHAUS,
    STREAM_TORUS,
    _CHUNK_BUDGET,
    Estimate,
    PowerMoments,
    SamplerConfig,
    _grid_columns,
    _grid_sizes,
    _held_columns,
    _panel,
    combined_stderr,
    gaussian_samples,
    sign_samples,
    steinhaus_samples,
    torus_characters,
)
from .spaces import (
    _PATTERN_CHUNK,
    INNER_GRID,
    CombinationEvaluator,
    Element,
    SpaceSpec,
    _in_range,
    _inner_grid,
    _mirrored,
    _moment_chunk,
    as_element,
    closed_form,
    combination_moments,
    coordinate_norms,
    coordinate_norms_of_rows,
    element_is_zero,
    grid_moments,
    is_coordinate,
    is_hilbertian,
)


_PANEL_ENTRIES = 1 << 14  # least torus characters drawn at once in hprad_norm's Monte Carlo loop


def _family(space: SpaceSpec, xs: Sequence) -> list[Element]:
    if len(xs) == 0:
        raise DomainError("need at least one element")
    return [as_element(space, x) for x in xs]


def _sign_patterns(m: int, lo: int, hi: int) -> np.ndarray:
    """Columns of +-1 for pattern indices [lo, hi); bit j drives element j."""
    idx = np.arange(lo, hi, dtype=np.uint64)[None, :]
    bits = (idx >> np.arange(m, dtype=np.uint64)[:, None]) & np.uint64(1)
    return np.where(bits == 1, 1.0, -1.0)


def _sign_rule(
    m: int, cfg: SamplerConfig, samples: int, stream: int
) -> tuple[Callable[[int, int], np.ndarray], int, bool, bool]:
    """(draw, count, exact, mirrored) for an average over m signs: all 2^m
    patterns up to exact_cutoff, else `samples` draws from `stream`;
    draw(lo, n) gives columns [lo, lo + n) of the first `count`.  When
    mirrored, only patterns [0, 2^(m-1)) are evaluated and their negations
    mirrored in; m = 2 evaluates all 4, since gemm rounds a 2-column product
    unlike its 4-column tiles when the products are inexact."""
    exact = m <= cfg.exact_cutoff
    mirrored = exact and m > 2
    count = 1 << (m - mirrored) if exact else samples

    def draw(lo: int, n: int) -> np.ndarray:
        if exact:
            return _sign_patterns(m, lo, lo + n)
        return sign_samples(cfg.seed, stream, n, m, start=lo, out=_panel(n, m)).T

    return draw, count, exact, mirrored


def _sign_moments(
    space: SpaceSpec,
    xs: Sequence[Element],
    scale: np.ndarray | None,
    powers: Sequence[float],
    cfg: SamplerConfig,
) -> list[Estimate]:
    signs, count, exact, mirrored = _sign_rule(len(xs), cfg, cfg.samples, STREAM_SIGNS)
    scale_col = None if scale is None else np.asarray(scale, dtype=np.complex128)[:, None]

    def draw(lo: int, n: int) -> np.ndarray:
        return signs(lo, n) if scale_col is None else signs(lo, n) * scale_col

    return combination_moments(
        space, xs, draw, count, powers, not exact, mirrored, signs=exact and scale is None
    )


def rademacher_average(
    xs: Sequence, space: SpaceSpec, q: float, cfg: SamplerConfig | None = None
) -> Estimate:
    """(E || sum_n eps_n x_n ||^q)^(1/q) over independent random signs."""
    check_power("q", q)
    cfg = cfg if cfg is not None else SamplerConfig()
    elements = _family(space, xs)
    closed = closed_form(space, elements, q)
    if closed is not None:
        return closed
    return _sign_moments(space, elements, None, [q], cfg)[0]


def steinhaus_average(
    xs: Sequence, space: SpaceSpec, q: float, cfg: SamplerConfig | None = None
) -> Estimate:
    """Like rademacher_average with uniform unimodular multipliers (no exact
    enumeration; Monte Carlo except for moment closed forms)."""
    check_power("q", q)
    cfg = cfg if cfg is not None else SamplerConfig()
    elements = _family(space, xs)
    closed = closed_form(space, elements, q)
    if closed is not None:
        return closed
    m = len(elements)

    def draw(lo: int, n: int) -> np.ndarray:
        return steinhaus_samples(cfg.seed, STREAM_STEINHAUS, n, m, start=lo, out=_panel(n, m)).T

    return combination_moments(space, elements, draw, cfg.samples, [q], mc=True)[0]


def _gaussian_abs_moment(q: float, variant: str) -> float:
    """(E |g|^q)^(1/q) for a unit-variance Gaussian."""
    if variant == "complex":
        return math.gamma(1 + q / 2) ** (1.0 / q)
    return (2 ** (q / 2) * math.gamma((q + 1) / 2) / math.sqrt(math.pi)) ** (1.0 / q)


def gaussian_average(
    xs: Sequence,
    space: SpaceSpec,
    q: float,
    cfg: SamplerConfig | None = None,
    variant: str = "complex",
) -> Estimate:
    """Gaussian-multiplier average; `variant` picks complex (default) or real
    standard Gaussians (the latter exists for mean-absolute-value checks)."""
    check_power("q", q)
    if variant not in ("complex", "real"):
        raise DomainError(f"unknown gaussian variant {variant!r}")
    cfg = cfg if cfg is not None else SamplerConfig()
    elements = _family(space, xs)
    closed = closed_form(space, elements, q)
    if closed is not None:  # one element: |g| is not 1, only E |g|^2 is
        return closed.scaled(_gaussian_abs_moment(q, variant)) if len(elements) == 1 else closed
    m = len(elements)

    def draw(lo: int, n: int) -> np.ndarray:
        panel = _panel(n, m, np.complex128 if variant == "complex" else np.float64)
        return gaussian_samples(cfg.seed, STREAM_GAUSSIAN, n, m, variant, start=lo, out=panel).T

    return combination_moments(space, elements, draw, cfg.samples, [q], mc=True)[0]


def rad_norm(xs: Sequence, space: SpaceSpec, cfg: SamplerConfig | None = None) -> Estimate:
    """E || sum_n eps_n x_n ||: the q = 1 Rademacher average."""
    return rademacher_average(xs, space, 1.0, cfg)


def _diagonal_form(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """(U, d) for an integer matrix A = rows: U has determinant +-1, and
    U A W = diag(d) padded with zeros for some W of determinant +-1 (Euclid
    on rows, tracked in U, and on columns, not tracked).  Rows len(d), ...
    of U are then a basis of the integer left kernel of A."""
    a = [list(row) for row in rows]
    m, v = len(a), len(a[0])
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    d: list[int] = []
    for k in range(min(m, v)):
        while True:
            entries = [(abs(a[i][j]), i, j) for i in range(k, m) for j in range(k, v) if a[i][j]]
            if not entries:
                return u, d
            _, i, j = min(entries)  # the smallest entry left becomes the pivot
            a[k], a[i], u[k], u[i] = a[i], a[k], u[i], u[k]
            for row in a:
                row[k], row[j] = row[j], row[k]
            pivot = a[k][k]
            for i in range(k + 1, m):
                q = a[i][k] // pivot
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                u[i] = [x - q * y for x, y in zip(u[i], u[k])]
            for j in range(k + 1, v):
                q = a[k][j] // pivot
                for row in a[k:]:
                    row[j] -= q * row[k]
            if not any(a[i][k] for i in range(k + 1, m)) and not any(a[k][k + 1 :]):
                break  # remainders left: a smaller pivot, and another round
        d.append(a[k][k])
    return u, d


def _reduced_basis(vectors: Sequence[int]) -> list[int]:
    """Reduced echelon basis over F_2 of the span of bit-mask vectors: each
    basis vector's highest bit is set in no other basis vector."""
    basis: list[int] = []
    for v in vectors:
        for b in sorted(basis, reverse=True):
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    basis.sort()
    for j in range(len(basis)):
        for low in basis[:j]:
            if basis[j] >> (low.bit_length() - 1) & 1:
                basis[j] ^= low
    return basis


def _grid_cosets(exponents: np.ndarray, halves: Sequence[int]) -> np.ndarray:
    """(m, R) sign patterns, one per coset of H.{+1, -1} in {+1, -1}^m, the
    identity first; the cosets all have 2^m / R patterns.

    H holds the patterns eps_n = z^E[n](theta) of the rotations theta that
    map the grid of `halves`, and every grid refining it, onto itself:
    theta_j a multiple of 1 / halves[j].  Such a rotation, or a negation,
    leaves the grid average of || sum_n eps_n x_n z^E[n] ||^p unchanged.
    With halves[j] = 2^s_j, S = max s_j and A = E with column j scaled by
    2^(S - s_j), the pattern (-1)^b lies in H iff 2^(S-1) b = A t mod 2^S for
    an integer t.  With U A W = diag(d) from _diagonal_form, that holds iff
    (U b)_i is even for the rows i of U past d (the integer left kernel of E:
    the rotations of the whole torus) and for the i with 2^S | d_i (rotations
    whose denominators the grid lacks).  Those rows mod 2 span K, the
    orthogonal complement of H; the even-weight part K' of K is that of
    H.{+1, -1}.  A coset is a fibre of b -> (k . b) over a basis of K', and
    with the basis in reduced echelon form the patterns flipping only signs
    at its pivots meet each fibre once."""
    m = exponents.shape[0]
    top = max(h.bit_length() - 1 for h in halves)
    scaled = [[int(e) << (top - (h.bit_length() - 1)) for e, h in zip(row, halves)] for row in exponents]
    u, d = _diagonal_form(scaled)
    kept = [row for i, row in enumerate(u) if i >= len(d) or d[i] % (1 << top) == 0]
    basis = _reduced_basis([sum((x & 1) << n for n, x in enumerate(row)) for row in kept])
    odd = [b for b in basis if b.bit_count() & 1]
    even = [b ^ odd[0] if b.bit_count() & 1 else b for b in basis if not odd or b != odd[0]]
    pivots = [b.bit_length() - 1 for b in _reduced_basis(even)]
    index = np.arange(1 << len(pivots))
    signs = np.ones((m, index.size))
    for i, n in enumerate(pivots):
        signs[n, (index >> i) & 1 == 1] = -1.0
    return signs


def _grid_route(
    space: SpaceSpec, xs: list[Element], exponents: np.ndarray, cfg: SamplerConfig, evaluated: int
):
    """(used exponents, grid, half grid, coset patterns) when the sign average
    of an H_p norm takes the grid route, else None.  The grid must fit
    GridPolicy.max_points; its norms, (grid + half grid points) x cosets,
    must not outnumber the Monte Carlo loop's, samples x evaluated patterns;
    and the family stacked once per coset, cosets x rows x terms, must fit
    _CHUNK_BUDGET."""
    used, fine, half = _grid_sizes(exponents, cfg.grid_policy)
    if math.prod(fine) > cfg.grid_policy.max_points:
        return None
    signs = _grid_cosets(used, half)
    cosets = signs.shape[1]
    if (math.prod(fine) + math.prod(half)) * cosets > cfg.samples * evaluated:
        return None
    rows = space.d if is_coordinate(space) else math.prod(_inner_grid(xs, INNER_GRID)[1])
    if cosets * rows * len(xs) > _CHUNK_BUDGET:
        return None
    return used, fine, half, signs


def _grid_hprad(
    space: SpaceSpec, xs: list[Element], route: tuple, p: float, columns: Callable
) -> tuple[Estimate, Estimate, float]:
    """(hprad_norm, plain norm, the ratio's quadrature error) on the grid
    route, columns(lo, n) giving the characters at grid points [lo, lo + n)
    as columns: per coset pattern, the grid average of g^p on the grid and on
    its half grid, read from one pass over the grid.  The value is the mean
    over cosets of its p-th root and the plain norm the identity's; each
    errs by the gap between the two grids, and the ratio by |R - R_half|,
    plus in a function space |R - R_inner| with the half inner grid's."""
    _, fine, half, signs = route
    grid, rough, inner = grid_moments(space, xs, columns, fine, half, [p], patterns=signs)
    passes = [grid, rough] if inner is None else [grid, rough, inner]
    means = [float(np.mean([e.value for e in h])) for h in passes]

    def quadrature(value, value_half, value_inner):  # the half grid's gap plus the inner grid's
        error = abs(value - value_half) + value_inner
        return Estimate(value, samples_used=math.prod(fine), mode=MODE_QUADRATURE, quad_error=error)

    gap = math.inf  # the ratio's, undefined where a plain norm is not positive
    if all(h[0].value > 0 for h in passes):
        gap = sum(abs(means[0] / grid[0].value - v / h[0].value) for v, h in zip(means[1:], passes[1:]))
    numerator = quadrature(means[0], means[1], float(np.mean([e.quad_error for e in grid])))
    return numerator, quadrature(grid[0].value, rough[0].value, grid[0].quad_error), gap


def _coordinate_columns(
    columns: np.ndarray, matrix: np.ndarray, signs: np.ndarray, out: np.ndarray
):
    """Coordinate k of every (pattern, sample) combination, k = 0, 1, ...,
    given the (m, count) characters `columns` and the (patterns, m) real
    signs: one real gemm of the signs against the float64 view of the
    characters scaled by row k of `matrix`, (m, 2 count), read back as
    complex (patterns, count) from the leading entries of `out`.  A sign
    times a value is exact, so each entry has the bits of the complex gemm
    on complexified signs, whose imaginary products are zeros."""
    pairs = out[: signs.shape[0] * 2 * columns.shape[1]].reshape(signs.shape[0], -1)
    for coefficients in matrix:
        np.matmul(signs, (columns * coefficients[:, None]).view(np.float64), out=pairs)
        yield pairs.view(np.complex128)


class _HpradPlan:
    """hprad_norm of every family of nonzero elements on the support of D,
    given in support order, and for a ratio also its plain norm and the
    ratio's quadrature error: the lift, the closed-form check, the route, the
    outer sign patterns and the character panels of the passes (the grid's
    or the torus draws, and hp_norm's quadrature grid where the ratio takes
    it), found once from D.  A function space's route also depends on the
    family's inner grid, so every family evaluated must have D's.  Each pass
    draws its panel a chunk at a time unless the caller has the plan hold it."""

    def __init__(self, D: DirichletPolynomial, p: float, cfg: SamplerConfig):
        check_power("p", p)
        self.space, self.p, self.cfg = D.space, p, cfg
        self.xs, self.exponents, _ = lift_arrays(D)
        m = len(self.xs)
        # closed_form's cases for nonzero elements: none or one, or Parseval
        self.closed = m <= 1 or (p == 2 and is_hilbertian(self.space))
        self.route = self.grid = None
        self.entries = 0  # characters in the panels
        if self.closed:
            return
        draw, evaluated, exact, mirrored = _sign_rule(m, cfg, min(4096, cfg.samples), STREAM_OUTER_SIGNS)
        if exact:
            self.route = _grid_route(self.space, self.xs, self.exponents, cfg, evaluated)
        if self.route is not None:
            used, fine = self.route[:2]
            self.columns, self.points = _grid_columns(used, fine), math.prod(fine)
        else:
            exponents = self.exponents
            self.columns = lambda lo, n: torus_characters(exponents, cfg.seed, STREAM_TORUS, lo, n).T
            self.points = cfg.samples
            # (m, evaluated) real signs (a sampled draw comes complex); F
            # order would switch BLAS rounding
            self.outer = np.ascontiguousarray(draw(0, evaluated).real), exact, mirrored
            # hp_norm's quadrature (p = 2, few variables) gives a ratio's plain
            # norm far more accurately than one pattern of the Monte Carlo pass
            self.grid = _quadrature_grid(self.exponents, p, cfg, "auto")
        self.entries = (self.points + (0 if self.grid is None else math.prod(self.grid[1]))) * m

    def hold(self) -> None:
        """Draw the panels whole once; every pass then reads columns of them."""
        self.columns = _held_columns(self.columns, self.points)
        if self.grid is not None:
            columns, fine, half = self.grid
            self.grid = _held_columns(columns, math.prod(fine)), fine, half

    def evaluate(self, xs: list[Element], plain: bool) -> tuple[Estimate, Estimate | None, float | None]:
        """(hprad_norm, plain norm, the ratio's quadrature error).  Both are
        None where the Monte Carlo pass runs without `plain`; the error is
        also None where the two norms' errors propagate apart: for a closed
        form, and for hp_norm's quadrature grid under a Monte Carlo
        numerator."""
        if self.closed:
            closed = closed_form(self.space, xs, self.p)
            return closed, closed, None
        # the passes run on an in-range family; a ratio's error has no scale
        xs, factor = _in_range(self.space, xs, [self.p])
        if self.route is not None:
            numerator, denominator, quad_error = _grid_hprad(self.space, xs, self.route, self.p, self.columns)
        else:
            same = plain and self.grid is None
            numerator, denominator, quad_error = _mc_hprad(
                self.space, xs, self.p, self.cfg.samples, self.outer, self.columns, same
            )
            if plain and not same:
                denominator = _quadrature_norm(self.space, xs, self.grid, self.p)
        if factor != 1.0:
            numerator = numerator.scaled(factor)
            denominator = None if denominator is None else denominator.scaled(factor)
        return numerator, denominator, quad_error


def hprad_norm(
    D: DirichletPolynomial, p: float, cfg: SamplerConfig | None = None
) -> Estimate:
    """Expected H_p norm over random sign flips of the coefficients.

    Signs are enumerated exactly for supports up to exact_cutoff, sampled
    otherwise.  Where they are enumerated and the quadrature grid of the used
    variables costs no more norms than the Monte Carlo loop (_grid_route),
    the inner H_p norms are grid averages, one per coset of the sign
    patterns that grid rotations and negation carry into each other
    (_grid_cosets), and the half grid's gap is the error.  Otherwise inner
    H_p norms share one polytorus sample panel across all sign patterns
    (common random numbers); the stderr is the delta method's on that panel,
    combined with the pattern-sampling variance when signs are sampled.  The
    same plan (_HpradPlan) gives ruc_ratio its plain norm, the identity
    pattern's average, from either pass; alone, the Monte Carlo pass skips it.

    The Monte Carlo route evaluates every pattern, not one per coset of the
    whole torus: another pattern of a coset is its representative at a
    rotated sample, so the other patterns act as further torus samples
    rather than repeated work.  On supports of 10 and 12 terms with 2 and 8
    such cosets, one pattern per coset gave 6 to 17 times the variance x
    time of evaluating every pattern.
    """
    plan = _HpradPlan(D, p, cfg if cfg is not None else SamplerConfig())
    return plan.evaluate(plan.xs, plain=False)[0]


def _mc_hprad(
    space: SpaceSpec, xs: list[Element], p: float, samples: int, outer: tuple, draw_columns: Callable,
    plain: bool,
) -> tuple[Estimate, Estimate | None, float | None]:
    """hprad_norm off the grid route: one torus panel of `samples` draws,
    draw_columns(lo, n) giving draws [lo, lo + n) as columns, for every
    outer sign pattern (signs, exact, mirrored), and in a function space the
    half inner grid's gap as quad_error.  With `plain`, also the plain norm,
    the identity's average on that panel, and the ratio's gap to that on the
    half inner grid (0 in a coordinate space): enumerated, pattern 0 (all
    -1, the identity's norms bit for bit); sampled, an all-ones pattern
    after the sampled ones, outside their mean and variance."""
    m = len(xs)
    signs, exact_outer, mirrored = outer
    evaluated = signs.shape[1]
    patterns = evaluated << mirrored  # the negated half is mirrored in below
    identity = 0
    if plain and not exact_outer:
        signs, identity = np.column_stack([signs, np.ones(m)]), evaluated
    width = signs.shape[1]

    evaluator = CombinationEvaluator(space, xs)

    coordinate = is_coordinate(space)
    if coordinate:
        matrix = evaluator.matrix  # (d, m)
        d = matrix.shape[0]
        z_chunk = max(1, _PATTERN_CHUNK // max(patterns // 16, 1))
        sign_rows = np.ascontiguousarray(signs.T)  # (width, m)
        # one buffer for the gemms of every chunk: a fresh one per chunk
        # costs a page fault per 4 KiB written
        buffer = np.empty(width * 2 * min(z_chunk, samples))
    else:
        z_chunk = max(1, (1 << 22) // max(evaluator.grid_points * patterns, 1))
    # characters are drawn for many chunks at once; rows depend on their index alone
    panel_rows = z_chunk * -(-_PANEL_ENTRIES // (z_chunk * m))

    power_sums = np.zeros(evaluated)
    # the value's linearization h(z) = sum_k w_k g_k(z)^p, w_k its slope in
    # pattern k's mean of g^p at the first chunk's mean (0 where that is 0)
    linear, weights = PowerMoments([1.0], mc=True), None
    half_sums = np.zeros(evaluated)  # per pattern, on the half inner grid
    # the identity's norms, and in a function space those on the half inner grid
    plain_moments = []
    if plain:  # summed in the chunks of hp_norm's own pass
        chunk = _moment_chunk(evaluator)
        plain_moments = [PowerMoments([p], mc=True, chunk=chunk), PowerMoments([p], chunk=chunk)]
    for lo in range(0, samples, z_chunk):
        count = min(z_chunk, samples - lo)
        if lo % panel_rows == 0:
            panel = draw_columns(lo, min(panel_rows, samples - lo))  # (m, rows)
            if coordinate:
                columns = np.ascontiguousarray(panel)
        at = lo % panel_rows
        mult = panel[:, at : at + count].T  # (count, m)
        if coordinate:
            if count > 1 and d > 1:  # one gemm per coordinate, reduced as it arrives
                parts = _coordinate_columns(columns[:, at : at + count], matrix, sign_rows, buffer)
                g = np.ascontiguousarray(coordinate_norms_of_rows(space, parts).T)
            else:  # numpy would call gemv, which rounds unlike gemm: per-sample gemms
                combos = np.moveaxis((mult[:, None, :] * matrix[None, :, :]) @ signs, 1, 0)
                g = coordinate_norms(space, combos.reshape(d, -1))  # (count * width,)
            norms = [g]
        else:  # every (sample, pattern) coefficient column, sample-major
            half = np.empty(count * width)
            g = evaluator.norms((mult.T[:, :, None] * signs[:, None, :]).reshape(m, -1), half)
            half_sums += (half**p).reshape(count, -1)[:, :evaluated].sum(axis=0)
            norms = [g, half]
        for acc, values in zip(plain_moments, norms):
            acc.add(values.reshape(count, -1)[:, identity])
        g **= p  # in place, once the identity's norms are summed
        gp = g.reshape(count, -1)[:, :evaluated]
        sums = gp.sum(axis=0)
        power_sums += sums
        if weights is None:  # the mirrored half has the same means
            first = sums / count
            weights = np.power(first, 1.0 / p - 1.0, out=np.zeros(evaluated), where=first > 0)
            weights /= p * evaluated
        linear.add(gp @ weights)
    if mirrored:
        power_sums, half_sums = _mirrored(power_sums), _mirrored(half_sums)

    inner = (power_sums / samples) ** (1.0 / p)  # per pattern, (E_z g^p)^(1/p)
    value = float(inner.mean())
    quad_error = rough = 0.0
    if not coordinate:
        rough = float(((half_sums / samples) ** (1.0 / p)).mean())
        quad_error = abs(value - rough)
    denominator = gap = None
    if plain:
        moments, half_moments = plain_moments
        denominator = moments.estimates(None if coordinate else half_moments)[0]
        gap = 0.0  # the ratio's gap to that on the half inner grid
        if not coordinate:
            den_rough = half_moments.estimates()[0].value
            positive = denominator.value > 0 and den_rough > 0
            gap = abs(value / denominator.value - rough / den_rough) if positive else math.inf

    stderr = linear.estimates()[0].stderr
    if not exact_outer and patterns > 1:
        stderr = math.sqrt(stderr**2 + float(inner.var(ddof=1)) / patterns)
    return Estimate(value, stderr, samples, MODE_MC, quad_error), denominator, gap


def kahane_ratio(
    xs: Sequence, space: SpaceSpec, p: float, cfg: SamplerConfig | None = None
) -> float:
    """(E ||S||^p)^(1/p) / E ||S|| for S = sum eps_n x_n; >= 1 by Jensen."""
    check_power("p", p)
    cfg = cfg if cfg is not None else SamplerConfig()
    elements = _family(space, xs)
    if all(element_is_zero(x) for x in elements):
        raise UndefinedRatioError("all elements are zero")
    if len(elements) == 1:
        return 1.0
    est_p, est_1 = _sign_moments(space, elements, None, [p, 1.0], cfg)
    return est_p.value / est_1.value


class ContractionReport(NamedTuple):
    lhs: Estimate
    rhs: Estimate
    holds: bool


def contraction_check(
    xs: Sequence,
    a: Sequence[complex],
    space: SpaceSpec,
    cfg: SamplerConfig | None = None,
) -> ContractionReport:
    """Check E||sum eps_n a_n x_n|| <= (pi/2) E||sum eps_n x_n|| for |a_n| <= 1.

    Both sides share the same sign patterns (common random numbers); `holds`
    allows 3x the combined stderr of slack in sampled mode.
    """
    cfg = cfg if cfg is not None else SamplerConfig()
    elements = _family(space, xs)
    a = np.asarray(list(a), dtype=np.complex128)
    if a.shape != (len(elements),):
        raise DomainError("coefficient count must match element count")
    if not np.abs(a).max() <= 1 + 1e-12:  # NaN and infinities fail too
        raise DomainError("coefficients must be finite with max |a_n| <= 1")
    lhs = _sign_moments(space, elements, a, [1.0], cfg)[0]
    base = _sign_moments(space, elements, None, [1.0], cfg)[0]
    rhs = base.scaled(math.pi / 2)
    holds = lhs.value <= rhs.value + 3 * combined_stderr(lhs, rhs) + 1e-12
    return ContractionReport(lhs=lhs, rhs=rhs, holds=holds)
