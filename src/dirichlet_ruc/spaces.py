"""Norm oracles for the finite-dimensional complex spaces in play.

Coordinate spaces (power-mean, Hilbert, sup) have exact norms.  L_r models
on a k-torus are represented by trigonometric polynomials and integrated on
the polytorus's grid rule (sampling._grid_sizes) under INNER_GRID, with
the half grid, read from the grid's own moduli, as the reported error
(norm doubles the grid: NORM_GRID); for r = 2 the grid rule makes the
quadrature exact (Parseval).

Every average of norm powers over a panel of multipliers runs through
combination_moments; closed_form gives the averages that need none.  A
pass whose family would raise a power past the float range runs on the
family scaled by a power of two, and scales its Estimates back (_in_range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .bohr import TorusPoint
from .errors import ArityError, DomainError, ResourceError, ShapeError
from .sampling import (
    MODE_EXACT, MODE_QUADRATURE, _CHUNK_BUDGET, _WORKSPACE, Estimate, GridPolicy, PowerMoments,
    _grid_sizes, _half_points,
)

INNER_GRID = GridPolicy(factor=8, min_size=64, max_points=1 << 22)
NORM_GRID = GridPolicy(factor=16, min_size=128, max_points=1 << 22)  # norm: INNER_GRID is its half

_PATTERN_CHUNK = 1 << 13  # multiplier columns per block in a coordinate space
# panel entries (multipliers) and product values per column block of a
# Monte Carlo pass in a coordinate space (512 KiB of complex): its draws and
# products are held in the thread's workspace and stay in cache
_PANEL_BLOCK = 1 << 15
# product values per column block of a function-space norms call (4 MiB of
# complex), set by measurement: glibc sizes its mmap threshold from the
# largest block freed, and smaller blocks left more later allocations
# faulting their pages afresh
_BLOCK_VALUES = 1 << 18
# bits: a pass rescales a family whose largest modulus, raised to a power in
# play, would leave [2^-512, 2^512] (_in_range); the other half of the
# float range is room for the sums and the spread of the norms
_POWER_RANGE = 512


@dataclass(frozen=True)
class SequenceSpace:
    """l_r^d; r may be math.inf (then identical to SupSpace)."""

    r: float
    d: int

    def __post_init__(self):
        if not self.r >= 1:
            raise DomainError("sequence space needs r >= 1")
        if self.d < 1:
            raise DomainError("dimension must be >= 1")


@dataclass(frozen=True)
class HilbertSpace:
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("dimension must be >= 1")


@dataclass(frozen=True)
class SupSpace:
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("dimension must be >= 1")


@dataclass(frozen=True)
class FunctionLr:
    """L_r of the k-torus, restricted to trigonometric polynomials."""

    r: float
    k: int

    def __post_init__(self):
        if not (1 <= self.r < math.inf):
            raise DomainError("function space needs 1 <= r < inf")
        if self.k < 1:
            raise DomainError("torus dimension must be >= 1")


SpaceSpec = Union[SequenceSpace, HilbertSpace, SupSpace, FunctionLr]


class TrigPolynomial:
    """Finite sum c_beta * w^beta over beta in Z^k (exponents any sign)."""

    __slots__ = ("k", "coeffs")

    def __init__(self, coeffs: Mapping[Sequence[int], complex], k: int):
        if k < 1:
            raise DomainError("torus dimension must be >= 1")
        self.k = int(k)
        store: dict[tuple[int, ...], complex] = {}
        for key, c in coeffs.items():
            key = tuple(int(e) for e in (key if isinstance(key, (tuple, list)) else (key,)))
            if len(key) > self.k:
                raise ShapeError(f"exponent {key} has more than {self.k} variables")
            key = key + (0,) * (self.k - len(key))
            c = complex(c)
            if c != 0:
                store[key] = store.get(key, 0) + c
        self.coeffs = {k_: v for k_, v in store.items() if v != 0}

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        if not isinstance(other, TrigPolynomial) or other.k != self.k:
            return NotImplemented
        merged = dict(self.coeffs)
        for key, c in other.coeffs.items():
            merged[key] = merged.get(key, 0) + c
        return TrigPolynomial(merged, self.k)

    def __sub__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        return self + (-1) * other

    def __mul__(self, scalar: complex) -> "TrigPolynomial":
        return TrigPolynomial({k: scalar * c for k, c in self.coeffs.items()}, self.k)

    __rmul__ = __mul__

    def __neg__(self) -> "TrigPolynomial":
        return (-1) * self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TrigPolynomial)
            and self.k == other.k
            and self.coeffs == other.coeffs
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, w: Sequence) -> complex:
        """Pointwise value with exact per-term angle reduction."""
        if len(w) < self.k:
            raise ArityError(f"need {self.k} coordinates, got {len(w)}")
        points = [TorusPoint.coerce(z) for z in w[: self.k]]
        total = 0j
        for beta, c in self.coeffs.items():
            angle = Fraction(0)
            for exp, point in zip(beta, points):
                if exp:
                    angle += point.pow(exp).turns
            total += c * TorusPoint(angle).value()
        return total

    def l2_norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def max_abs_exponents(self) -> tuple[int, ...]:
        if not self.coeffs:
            return (0,) * self.k
        return tuple(
            max(abs(beta[j]) for beta in self.coeffs) for j in range(self.k)
        )


Element = Union[np.ndarray, TrigPolynomial]


def is_coordinate(space: SpaceSpec) -> bool:
    return isinstance(space, (SequenceSpace, HilbertSpace, SupSpace))


def is_hilbertian(space: SpaceSpec) -> bool:
    """True when the norm comes from an inner product (Parseval applies)."""
    if isinstance(space, HilbertSpace):
        return True
    if isinstance(space, SequenceSpace):
        return space.r == 2 or space.d == 1
    if isinstance(space, SupSpace):
        return space.d == 1
    return space.r == 2


def zero_element(space: SpaceSpec) -> Element:
    if is_coordinate(space):
        return np.zeros(space.d, dtype=np.complex128)
    return TrigPolynomial({}, space.k)


def as_element(space: SpaceSpec, x) -> Element:
    """Coerce x into the representation `space` expects, or raise ShapeError."""
    if is_coordinate(space):
        arr = np.asarray(x, dtype=np.complex128).reshape(-1)
        if arr.shape != (space.d,):
            raise ShapeError(f"expected {space.d} coordinates, got {arr.shape}")
        return arr
    if isinstance(x, TrigPolynomial):
        if x.k != space.k:
            raise ShapeError(f"expected {space.k} torus variables, got {x.k}")
        return x
    if isinstance(x, Mapping):
        return TrigPolynomial(x, space.k)
    raise ShapeError(f"cannot interpret {type(x).__name__} as an L_r element")


def element_is_zero(x: Element) -> bool:
    if isinstance(x, TrigPolynomial):
        return x.is_zero()
    return bool(np.all(x == 0))


def nonzero_elements(space: SpaceSpec, xs: Sequence[Element]) -> np.ndarray:
    """Which of xs are nonzero, by element_is_zero's rule: for coordinate
    elements one test over their stacked rows."""
    if is_coordinate(space) and len(xs):
        return (np.stack(xs) != 0).any(axis=1)
    return np.array([not element_is_zero(x) for x in xs], dtype=bool)


def scale_element(x: Element, c: complex) -> Element:
    return c * x if isinstance(x, TrigPolynomial) else np.asarray(x) * c


def _largest_modulus(xs: Sequence[Element]) -> float:
    if not len(xs) or isinstance(xs[0], TrigPolynomial):
        return max((abs(c) for x in xs for c in x.coeffs.values()), default=0.0)
    return np.abs(np.concatenate(xs)).max()


def _in_range(space: SpaceSpec, xs: Sequence[Element], powers: Sequence[float]):
    """(xs scaled by 2^-e, 2^e), e decided once per pass from the family's
    largest modulus M: the norm raises moduli to its own power r, and the
    average raises norms to each q, and to 2q for a Monte Carlo variance.
    When some M^power would pass 2^+-_POWER_RANGE, the family is brought to
    M in [1/2, 1) and a pass's Estimates are scaled back by 2^e; otherwise
    e = 0 and xs are returned as they are, bit for bit."""
    e = math.frexp(_largest_modulus(xs))[1]  # 0 for 0, inf and nan
    r = getattr(space, "r", 2.0 if isinstance(space, HilbertSpace) else 1.0)
    power = max(r if r < math.inf else 1.0, 2.0 * max(powers, default=0.0))
    if abs(e) * power <= _POWER_RANGE:
        return xs, 1.0
    e = max(-1020, min(e, 1020))  # 2^e and 2^-e both finite, for a subnormal M too
    return [scale_element(x, math.ldexp(1.0, -e)) for x in xs], math.ldexp(1.0, e)


def _rescaled(estimates: list[Estimate], factor: float) -> list[Estimate]:
    return estimates if factor == 1.0 else [est.scaled(factor) for est in estimates]


def hilbert_norm(space: SpaceSpec, x: Element) -> float:
    """Exact norm for hilbertian spaces (modulus / l2 / Parseval)."""
    if not is_hilbertian(space):
        raise DomainError("space is not hilbertian")
    if isinstance(x, TrigPolynomial):
        return x.l2_norm()
    return float(np.linalg.norm(np.asarray(x)))


def _same(values: np.ndarray) -> np.ndarray:
    return values


def _coordinate_rule(space: SpaceSpec):
    """(term, combine, root) of a coordinate norm: the norm of v is
    root(combine over k of term(|v_k|))."""
    if isinstance(space, HilbertSpace) or (isinstance(space, SequenceSpace) and space.r == 2):
        return (lambda mags: mags**2), np.add, np.sqrt
    if isinstance(space, SupSpace) or space.r == math.inf:
        return _same, np.maximum, _same
    r = space.r
    if r == 1:
        return _same, np.add, _same
    return (lambda mags: mags**r), np.add, (lambda total: total ** (1.0 / r))


def coordinate_norms(
    space: SpaceSpec, combos: np.ndarray, axis: int = 0, moduli: np.ndarray | None = None
) -> np.ndarray:
    """Norms under the space's norm of the vectors along `axis` of combos,
    such as the columns of a (d, m) matrix; |combos| is written into
    `moduli`, a float array of combos' shape, when it is given."""
    term, combine, root = _coordinate_rule(space)
    return root(combine.reduce(term(np.abs(combos, out=moduli)), axis=axis))


def coordinate_norms_of_rows(space: SpaceSpec, rows: Iterable[np.ndarray]) -> np.ndarray:
    """Norms of the vectors whose coordinate k holds rows[k], entry by entry.

    Each row is reduced as it arrives, so a caller may reuse one buffer for
    every row.  numpy reduces axis 0 of a C-ordered (d, N) array row after
    row when N > 1, so for rows of more than one entry this equals
    coordinate_norms of the stacked rows bit for bit.
    """
    term, combine, root = _coordinate_rule(space)
    total = None
    for row in rows:
        part = term(np.abs(row))
        total = part if total is None else combine(total, part, out=total)
    return root(total)


def _inner_grid(xs: Sequence[TrigPolynomial], policy: GridPolicy):
    """(used, fine, half) of _grid_sizes for the exponents of every term of
    the L_r elements xs: the quadrature grid of the family, sized for the
    union of their supports, or ResourceError past policy.max_points."""
    # Python ints: any exponent is sized exactly, and a huge one refused
    terms = [beta for x in xs for beta in x.coeffs]
    exponents = np.array(terms or [(0,) * xs[0].k], dtype=object)
    used, fine, half = _grid_sizes(exponents, policy)
    if math.prod(fine) > policy.max_points:
        raise ResourceError(
            f"function-space grid of {math.prod(fine)} points exceeds budget {policy.max_points}"
        )
    return used, fine, half


def _grid_values(xs: Sequence[TrigPolynomial], used: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """(grid_points, len(xs)) complex values on the tensor grid of `sizes`,
    given the used exponent columns of _inner_grid, one row per term.

    Exponents reduce mod the per-variable grid size before exponentiation,
    so 2**60-style exponents are evaluated exactly.
    """
    out = np.zeros((math.prod(sizes), len(xs)), dtype=np.complex128)
    terms = [(col, c) for col, x in enumerate(xs) for c in x.coeffs.values()]
    for (col, c), row in zip(terms, used.tolist()):
        factors = [np.exp(2j * math.pi * ((e % g * np.arange(g)) % g) / g) for e, g in zip(row, sizes)]
        grid = reduce(np.multiply.outer, factors) if factors else np.ones(1)  # or a constant term
        out[:, col] += c * grid.reshape(-1)
    return out


class CombinationEvaluator:
    """Batch norms of linear combinations of a fixed family x_1..x_N.

    norms(C) returns the column norms of sum_n C[n, m] * x_n.  Coordinate
    spaces use one (d, N) matrix; function spaces are pre-evaluated on the
    tensor quadrature grid that `grid_policy` sizes for the union support,
    and norms(C, half) also writes the norms on its half grid into `half`,
    read from the grid's own moduli.  With `patterns`, an (N, R) array of
    signs, every column is taken under each pattern eps_k, as the norm of
    sum_n eps_k[n] C[n, m] x_n: the R families eps_k x are stacked, so one
    product evaluates them all, and column m under pattern k gives norm
    m * R + k.  In a function space the columns are evaluated a column
    block of about _BLOCK_VALUES product values at a time (_column_blocks);
    in a coordinate space the product and its moduli are the workspace's.
    """

    def __init__(
        self,
        space: SpaceSpec,
        xs: Sequence[Element],
        grid_policy: GridPolicy = INNER_GRID,
        patterns: np.ndarray | None = None,
    ):
        if len(xs) == 0:
            raise DomainError("need at least one element")
        self.space = space
        self.xs = [as_element(space, x) for x in xs]
        if is_coordinate(space):
            self._matrix = np.column_stack(self.xs)
            self._grid = None
        else:
            used, self._grid, self._half = _inner_grid(self.xs, grid_policy)
            self._matrix = _grid_values(self.xs, used, self._grid)
        self.patterns = 1 if patterns is None else patterns.shape[1]
        self._stacked = self._matrix
        if patterns is not None:
            stacked = patterns.T[:, None, :] * self._matrix[None, :, :]
            self._stacked = stacked.reshape(-1, len(self.xs))

    @property
    def grid_points(self) -> int:
        return 0 if self._grid is None else math.prod(self._grid)

    @property
    def matrix(self) -> np.ndarray:
        """(d, N) coordinate matrix or (grid_points, N) grid values."""
        return self._matrix

    def norms(self, coefficients: np.ndarray, half: np.ndarray | None = None) -> np.ndarray:
        c = np.asarray(coefficients, dtype=np.complex128)
        if c.ndim == 1:
            c = c[:, None]
        if c.shape[0] != len(self.xs):
            raise ShapeError(
                f"expected {len(self.xs)} coefficient rows, got {c.shape[0]}"
            )
        if self._grid is None:
            shape = (self.patterns, self._stacked.shape[0] // self.patterns, c.shape[1])
            product = _WORKSPACE.take("product", shape, np.complex128)
            np.matmul(self._stacked, c, out=product.reshape(-1, c.shape[1]))
            moduli = _WORKSPACE.take("moduli", shape)
            return coordinate_norms(self.space, product, axis=1, moduli=moduli).T.reshape(-1)
        r, rows, groups = self.space.r, self._stacked.shape[0], self.patterns
        blocks = _column_blocks(c.shape[1], rows)
        size = rows * max(hi - lo for lo, hi in blocks)
        # one product and one moduli buffer for every block of the call
        values, mags = np.empty(size, dtype=np.complex128), np.empty(size)
        norms = np.empty(c.shape[1] * groups)
        for lo, hi in blocks:
            n = rows * (hi - lo)
            product = np.matmul(self._stacked, c[:, lo:hi], out=values[:n].reshape(rows, -1))
            powers = np.abs(product, out=mags[:n].reshape(rows, -1))
            powers **= r
            powers = powers.reshape(groups, -1, hi - lo)  # (patterns, grid points, columns)
            norms[lo * groups : hi * groups] = (powers.mean(axis=1) ** (1.0 / r)).T.reshape(-1)
            if half is not None:  # a strided view: a copy of its rows raised peak RSS
                grid = powers.reshape(groups, *self._grid, -1)
                points = grid[(slice(None), *_half_points(self._grid, self._half))]
                means = points.mean(axis=tuple(range(1, points.ndim - 1)))
                half[lo * groups : hi * groups] = (means ** (1.0 / r)).T.reshape(-1)
        return norms


def _column_blocks(columns: int, rows: int, values: int | None = None) -> list[tuple[int, int]]:
    """[lo, hi) column ranges of `columns` columns of `rows` values each
    (a function-space norms call's product rows, a Monte Carlo pass's
    multipliers): about `values` values each (default _BLOCK_VALUES), and
    at most max(values, 8 * rows) + rows, the last block with a joined
    1-column remainder.  A column's norm is the same in any block
    when every block but the last is a multiple of 8 columns wide, so that
    BLAS column tails fall on the same columns, and no block has 1 column
    unless the call has 1: numpy sends a 1-column product to gemv and sums
    a 1-column mean pairwise, and both round differently."""
    width = max(8, (_BLOCK_VALUES if values is None else values) // rows // 8 * 8)
    bounds = [*range(0, columns, width), columns]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]  # the 1-column remainder joins the block before it
    return list(zip(bounds[:-1], bounds[1:]))


def _sign_chunks(matrix: np.ndarray, first: np.ndarray, count: int):
    """matrix @ patterns, chunk by chunk, for sign patterns [0, count) of the
    m columns x_k of `matrix`, given the first chunk of 2^b patterns: pattern
    i is column i of the (m, 2^m) matrix whose entry (k, i) is +1 where bit k
    of i is set, else -1, and a chunk holds 2^b consecutive patterns.

    Within a chunk the low b bits take every value in order and the high bits
    are fixed, so every chunk is U = X[:, :b] @ S_b, one gemm for all of them,
    plus +-x_k for k = b, ..., m - 1, added one at a time in index order.
    A sign times x is exact, so each sum is the gemm's own when the BLAS
    kernel accumulates its inner dimension in order (see the README).  The
    chunks are yielded in one buffer, each overwriting the last."""
    chunk = first.shape[1]
    low = chunk.bit_length() - 1
    base = matrix[:, :low] @ first[:low]
    out = np.empty_like(base)
    for lo in range(0, count, chunk):
        for k in range(low, matrix.shape[1]):
            add = np.add if lo >> k & 1 else np.subtract
            add(base if k == low else out, matrix[:, k, None], out=out)
        yield out


def _mirrored(values: np.ndarray) -> np.ndarray:
    """Values over sign patterns [0, 2h), given those over [0, h) on the last
    axis, where 2h = 2^m: pattern 2^m - 1 - i negates pattern i, and
    ||-v|| = ||v|| bit for bit, so the second half is the first reversed."""
    return np.concatenate([values, values[..., ::-1]], axis=-1)


def combination_moments(
    space: SpaceSpec,
    xs: Sequence[Element],
    draw: Callable[[int, int], np.ndarray],
    count: int,
    powers: Sequence[float],
    mc: bool = False,
    mirrored: bool = False,
    patterns: np.ndarray | None = None,
    signs: bool = False,
) -> list[Estimate]:
    """Estimates of (E g^q)^(1/q) for each q, g the norm of sum_n c_n x_n,
    sharing one pass over the multiplier columns c = draw(lo, n), lo in
    [0, count), a chunk at a time.

    Chunks hold _PATTERN_CHUNK norms in a coordinate space, and
    _CHUNK_BUDGET grid values in a function space, where the same columns on
    the half grid give the quadrature error.  A Monte Carlo pass in a
    coordinate space draws and evaluates each chunk in column blocks of
    about _PANEL_BLOCK multipliers and as many product values
    (_column_blocks over max(d, N) rows), in buffers held by the thread's
    workspace; its powers are still summed a chunk at a time, and
    draw(lo, n) may hand out a view of the workspace's "panel" buffer.
    With `patterns`, an (N, R) array of signs, every column is taken under
    each pattern (see CombinationEvaluator), point-major, and each
    pattern's powers are summed on their own: one Estimate per power and
    pattern, power-major.  With
    `mirrored` the columns are sign patterns [0, count) of 2 * count: sums
    still run over chunks of all the patterns in pattern order, so a single
    chunk is extended by its reverse, and with several chunks the reverse of
    chunk c is chunk C - 1 - c, whose sums are added after the evaluated ones.
    With `signs` the columns are the sign patterns of _sign_chunks, lo the
    first pattern's index; in a coordinate space whose columns span several
    chunks, only the first chunk is drawn (see _sign_chunks).
    """
    xs, factor = _in_range(space, xs, powers)
    moments, _ = _moment_pass(space, xs, draw, count, powers, mc, mirrored, patterns, signs)
    return _rescaled(moments[0].estimates(moments[1] if len(moments) > 1 else None), factor)


def grid_moments(
    space: SpaceSpec,
    xs: Sequence[Element],
    draw: Callable[[int, int], np.ndarray],
    fine: Sequence[int],
    half: Sequence[int],
    powers: Sequence[float],
    patterns: np.ndarray | None = None,
) -> tuple[list[Estimate], list[Estimate], list[Estimate] | None]:
    """combination_moments over the points of the tensor grid of `fine`,
    draw(lo, n) giving points [lo, lo + n), and over its half grid of
    `half`, from one pass: the half grid's norms are read out of the fine
    grid's chunks, and summed in the chunks a pass of their own would take,
    so its Estimates (values alone) are those of such a pass bit for bit.
    The third list holds a function space's Estimates on its half inner
    grid (values alone), None in a coordinate space."""
    mask = np.zeros(fine, dtype=bool)
    mask[_half_points(fine, half)] = True
    xs, factor = _in_range(space, xs, powers)
    moments, rough = _moment_pass(space, xs, draw, mask.size, powers, patterns=patterns, coarse=mask.ravel())
    inner = moments[1] if len(moments) > 1 else None
    return (
        _rescaled(moments[0].estimates(inner), factor),
        _rescaled(rough.estimates(), factor),
        None if inner is None else _rescaled(inner.estimates(), factor),
    )


def _moment_chunk(evaluator: CombinationEvaluator) -> int:
    """Columns per chunk of a pass over one pattern: _PATTERN_CHUNK norms in
    a coordinate space, _CHUNK_BUDGET grid values in a function space."""
    if is_coordinate(evaluator.space):
        return _PATTERN_CHUNK
    return max(1, _CHUNK_BUDGET // evaluator.grid_points)


def _moment_pass(
    space: SpaceSpec,
    xs: Sequence[Element],
    draw: Callable[[int, int], np.ndarray],
    count: int,
    powers: Sequence[float],
    mc: bool = False,
    mirrored: bool = False,
    patterns: np.ndarray | None = None,
    signs: bool = False,
    coarse: np.ndarray | None = None,
) -> tuple[list[PowerMoments], PowerMoments | None]:
    """The one chunk loop of combination_moments and grid_moments: the
    power sums of the evaluator's norms (and of a function space's half
    inner grid), and of the coarse columns' norms."""
    evaluator = CombinationEvaluator(space, xs, patterns=patterns)
    groups = evaluator.patterns
    moments = [PowerMoments(powers, mc, groups)]
    if not is_coordinate(space):
        moments.append(PowerMoments(powers, groups=groups))
    chunk = max(1, _moment_chunk(evaluator) // groups)
    # the coarse columns' norms, summed in the chunks of the coarse grid's own pass
    rough = None if coarse is None else PowerMoments(powers, groups=groups, chunk=chunk)
    several = mirrored and 2 * count > chunk  # all the patterns span several chunks
    late = []  # (moments, reversed chunk's moments) of the mirrored chunks
    summed = None  # the chunks' combinations, when built from the first chunk's
    if signs and is_coordinate(space) and patterns is None and count > chunk:
        summed = _sign_chunks(evaluator.matrix, draw(0, chunk), count)
    blocked = mc and is_coordinate(space)
    for lo in range(0, count, chunk):
        n = min(chunk, count - lo)
        half = None if is_coordinate(space) else np.empty(n * groups)
        if blocked:
            with _WORKSPACE.holding():
                g = _WORKSPACE.take("norms", (n * groups,))
                # rows: the panel's (N) or the product's (d), whichever is more
                for a, b in _column_blocks(n, max(evaluator.matrix.shape), _PANEL_BLOCK):
                    g[a * groups : b * groups] = evaluator.norms(draw(lo + a, b - a))
        elif summed is None:
            g = evaluator.norms(draw(lo, n), half)
        else:
            g = coordinate_norms(space, next(summed))
        if rough is not None:
            rough.add(g.reshape(n, groups)[coarse[lo : lo + n]])
        for g, acc in zip((g, half), moments):
            if several:
                tail = PowerMoments(powers)
                tail.add(g[::-1].copy())  # a strided power may round unlike a contiguous one
                late.append((acc, tail))
            elif mirrored:
                g = _mirrored(g)
            acc.add(g)
    for acc, tail in reversed(late):
        acc.merge(tail)
    return moments, rough


def norm(space: SpaceSpec, x) -> Estimate:
    """Norm oracle; exact for coordinate spaces, quadrature for L_r models."""
    (x,), factor = _in_range(space, [as_element(space, x)], [])
    if is_coordinate(space):
        value = float(coordinate_norms(space, np.asarray(x)[:, None])[0])
        return Estimate(value=value, mode=MODE_EXACT).scaled(factor)
    if x.is_zero():
        return Estimate(value=0.0, mode=MODE_EXACT)
    evaluator = CombinationEvaluator(space, [x], NORM_GRID)
    rough = np.empty(1)
    value = float(evaluator.norms(np.ones(1), rough)[0])
    return Estimate(
        value=value,
        mode=MODE_QUADRATURE,
        quad_error=abs(value - float(rough[0])),
        samples_used=evaluator.grid_points,
    ).scaled(factor)


def closed_form(space: SpaceSpec, xs: Sequence[Element], q: float) -> Estimate | None:
    """(E ||sum_n c_n x_n||^q)^(1/q) where it has a closed form: 0 when every
    x_n is zero, ||x_1|| for a single element (|c_1| = 1: a sign, a rotation,
    a character), and Parseval at q = 2 in a hilbertian space (orthonormal
    c_n: independent with mean 0 and E |c_n|^2 = 1, or distinct characters).
    None means an average has to run."""
    if all(element_is_zero(x) for x in xs):
        return Estimate(value=0.0, mode=MODE_EXACT)
    if len(xs) == 1:
        return norm(space, xs[0])
    if q == 2 and is_hilbertian(space):
        xs, factor = _in_range(space, xs, [q])
        value = math.sqrt(sum(hilbert_norm(space, x) ** 2 for x in xs))
        return Estimate(value=value, mode=MODE_EXACT).scaled(factor)
    return None


def summing_combination(a: Sequence[complex]) -> tuple[np.ndarray, float]:
    """Assemble sum_n a_n s_n (s_n = e_1 + ... + e_n) in the sup-norm space.

    Coordinate i of the combination is the tail sum a_i + ... + a_m, so the
    norm has the closed form sup_k |sum_{n=k}^m a_n|; the returned value is
    exactly the SupSpace norm of the returned vector.
    """
    a = np.asarray(list(a), dtype=np.complex128)
    if a.size == 0:
        raise DomainError("coefficient vector must be nonempty")
    tails = np.cumsum(a[::-1])[::-1]
    # Same kernel as norm() so the closed form matches it bit for bit.
    value = float(coordinate_norms(SupSpace(a.size), tails[:, None])[0])
    return tails, value


def trig_eval(x: TrigPolynomial, w: Sequence) -> complex:
    """Value of a trigonometric polynomial at a torus point."""
    return x.evaluate(w)
