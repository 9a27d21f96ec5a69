"""Estimates, sampler configuration, and counter-based random streams.

All Monte Carlo draws are pure functions of (seed, stream, counter): sample
i never depends on how many samples were drawn before it, so results are
identical no matter how work is partitioned.  The generator is a SplitMix64
finalizer applied to structured counters, vectorized over numpy uint64
(overflow wraps mod 2**64, which is exactly the arithmetic we want).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError

MODE_EXACT = "exact"
MODE_QUADRATURE = "quadrature"
MODE_MC = "mc"

# Stream tags keep independent uses of one seed from colliding.
STREAM_TORUS = 1
STREAM_SIGNS = 2
STREAM_STEINHAUS = 3
STREAM_GAUSSIAN = 4
STREAM_OUTER_SIGNS = 5
STREAM_SEARCH = 6
STREAM_SUMMING = 7

_CHUNK_BUDGET = 1 << 21  # complex entries per matmul block, and in a search's held panels


@dataclass(frozen=True)
class Estimate:
    """A numeric result with its provenance.

    stderr is Monte Carlo noise only (zero unless mode == "mc");
    quad_error is the grid-refinement error estimate of quadrature mode.
    """

    value: float
    stderr: float = 0.0
    samples_used: int = 0
    mode: str = MODE_EXACT
    quad_error: float = 0.0

    def __post_init__(self):
        if self.mode not in (MODE_EXACT, MODE_QUADRATURE, MODE_MC):
            raise DomainError(f"unknown estimate mode {self.mode!r}")
        if self.mode != MODE_MC and self.stderr != 0.0:
            raise DomainError("stderr must be 0 outside mc mode")

    @property
    def uncertainty(self) -> float:
        return self.stderr + self.quad_error

    def scaled(self, factor: float) -> "Estimate":
        factor = abs(factor)
        return Estimate(
            value=self.value * factor,
            stderr=self.stderr * factor,
            samples_used=self.samples_used,
            mode=self.mode,
            quad_error=self.quad_error * factor,
        )

    @classmethod
    def exact(cls, value: float) -> "Estimate":
        return cls(value=float(value))


def combined_stderr(*estimates: Estimate) -> float:
    return math.sqrt(sum(e.uncertainty**2 for e in estimates))


@dataclass(frozen=True)
class GridPolicy:
    """Per-variable quadrature grid sizing: factor * max|exponent|, floored.

    Sizes are rounded up to powers of two so grid angles embed exactly in
    the 64-bit fixed-point representation.  min_size >= 3 gives every
    variable at least 4 points, so the half grid that the reported error
    compares against has at least 2: a grid of 1 point has no fixed-point
    step, and on one of 2 every character is +-1, so a 1-point half grid
    reads the same sign-pattern mean and reports an error of 0.
    max_points = 0 refuses every grid.
    """

    factor: int = 4
    min_size: int = 16
    max_points: int = 1 << 21

    def __post_init__(self):
        if self.factor < 1 or self.min_size < 3 or self.max_points < 0:
            raise DomainError("grid policy needs factor >= 1, min_size >= 3 and max_points >= 0")

    def size_for(self, max_abs_exponent: int) -> int:
        raw = max(self.factor * int(max_abs_exponent), self.min_size)
        return 1 << (raw - 1).bit_length()


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    samples: int = 100_000
    exact_cutoff: int = 20
    grid_policy: GridPolicy = field(default_factory=GridPolicy)

    def __post_init__(self):
        if self.samples < 1:
            raise DomainError("samples must be >= 1")
        if not 0 <= self.exact_cutoff <= 24:
            raise DomainError("exact_cutoff must lie in [0, 24]")


_U64 = np.uint64
_MASK = (1 << 64) - 1
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_BLOCK = 1 << 14  # words per cache-sized block of the RNG and the torus exponential
_TURN = 2 * math.pi * 2.0**-64  # radians per fixed-point unit


class _Workspace(threading.local):
    """The block-sized buffers of Monte Carlo passes, one set per thread.

    While a pass holds them (`holding`), take(name, shape, dtype) returns a
    view of the thread's buffer `name`, grown to the largest request and
    kept across blocks, chunks and calls, so its pages fault once instead of
    on every chunk; a name's view is dead once the name is taken again.
    Otherwise take returns a fresh array, so held panels, exact and grid
    passes keep their own memory."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}
        self.held = False

    @contextmanager
    def holding(self):
        before, self.held = self.held, True
        try:
            yield
        finally:
            self.held = before

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        if not self.held:
            return np.empty(shape, dtype)
        size = math.prod(shape) * np.dtype(dtype).itemsize
        buffer = self.buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self.buffers[name] = np.empty(size, np.uint8)
        return buffer[:size].view(dtype).reshape(shape)


_WORKSPACE = _Workspace()


def _words(count: int, width: int) -> np.ndarray:
    """The workspace's (count, width) buffer for a draw's counter words."""
    return _WORKSPACE.take("words", (count, width), np.uint64)


def _panel(count: int, width: int, dtype=np.complex128) -> np.ndarray:
    """The workspace's (count, width) buffer for a pass's multipliers."""
    return _WORKSPACE.take("panel", (count, width), dtype)


def _mix64(x: np.ndarray, scratch: np.ndarray) -> None:
    """SplitMix64 finalizer, in place; scratch is a buffer of x's shape."""
    np.right_shift(x, _U64(30), out=scratch)
    x ^= scratch
    x *= _MIX1
    np.right_shift(x, _U64(27), out=scratch)
    x ^= scratch
    x *= _MIX2
    np.right_shift(x, _U64(31), out=scratch)
    x ^= scratch


def _stream_key(seed: int, stream: int) -> np.uint64:
    base = ((int(seed) * int(_GOLDEN)) ^ (int(stream) * 0xD1B54A32D192ED03)) & _MASK
    key = np.array([base], dtype=np.uint64)
    _mix64(key, np.empty_like(key))
    return key[0]


def uniform_bits(
    seed: int,
    stream: int,
    count: int,
    width: int,
    start: int = 0,
    columns: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """(count, width) array of uniform uint64 words, indexed by counter.

    Word (i, j) hashes counter (start + i) * width + j.  With `columns`, only
    those columns are drawn: a (count, len(columns)) array whose every word
    equals the matching word of the full draw.  A word doubles as a uniform
    torus angle in 64-bit fixed point (turns * 2**64).  The words are
    written into `out` (C-contiguous uint64) when it is given.
    """
    cols = np.arange(width, dtype=np.uint64) if columns is None else np.asarray(columns, np.uint64)
    rows = np.arange(start, start + count, dtype=np.uint64)
    rows *= _U64(width)
    words = np.empty((count, cols.size), dtype=np.uint64) if out is None else out
    np.add(rows[:, None], cols[None, :], out=words)  # the counters
    key = _stream_key(seed, stream)
    flat = words.reshape(-1)
    scratch = _WORKSPACE.take("mix", (min(_BLOCK, flat.size),), np.uint64)
    for lo in range(0, flat.size, _BLOCK):
        block = flat[lo : lo + _BLOCK]
        block *= _GOLDEN
        block += key
        _mix64(block, scratch[: block.size])
    return words


def sign_samples(
    seed: int, stream: int, count: int, width: int, start: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """Uniform +-1 of shape (count, width): floats, or written into `out`,
    float or complex, as 2 b - 1 for the top bit b of each word (exact)."""
    bits = uniform_bits(seed, stream, count, width, start, out=_words(count, width))
    bits >>= _U64(63)
    out = np.empty((count, width)) if out is None else out
    np.multiply(bits, 2.0, out=out)
    out -= 1.0
    return out


def gaussian_samples(
    seed: int,
    stream: int,
    count: int,
    width: int,
    variant: str = "complex",
    start: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unit-variance Gaussians: complex (E|g|^2 = 1) or real N(0, 1), by
    Box-Muller from the words of 2 * width columns; written into `out`
    (C-contiguous, complex or float by variant) when it is given."""
    if variant not in ("complex", "real"):
        raise DomainError(f"unknown gaussian variant {variant!r}")
    bits = uniform_bits(seed, stream, count, 2 * width, start, out=_words(count, 2 * width))
    radius = _WORKSPACE.take("radius", (count, width))
    radius[...] = bits[:, :width]  # (w + 1) 2^-64 in (0, 1]: no log(0)
    radius += 1.0
    radius *= 2.0**-64
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    if variant == "real":
        g = np.empty((count, width)) if out is None else out
        g[...] = bits[:, width:]
        g *= _TURN
        np.cos(g, out=g)
        g *= radius
        return g
    angles = _WORKSPACE.take("angles", (count, width), np.uint64)
    angles[...] = bits[:, width:]  # contiguous: a strided input is copied whole
    z = fixed_point_to_complex(angles, out=out)
    z *= radius
    z *= math.sqrt(0.5)
    return z


# e^{2 pi i w / 2^64} = T[w >> (64 - B)] * e^{i phi}, phi the angle of the low
# 64 - B bits, below 2 pi / 2^B: the table holds the 2^B roots of unity (from
# the same expression np.exp(1j * w * _TURN) as the words they stand for), and
# cos phi, sin phi are Taylor series to phi^4, phi^5 (truncation < 1e-19).
_TABLE_BITS = 12
_LOW_BITS = 64 - _TABLE_BITS
_ROOTS = np.exp(1j * ((np.arange(1 << _TABLE_BITS, dtype=np.uint64) << _U64(_LOW_BITS)) * _TURN))


def fixed_point_to_complex(numerators: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e^{2 pi i w / 2^64} for uint64 words w, as complex128 of their shape,
    written into `out` (C-contiguous) when it is given.

    Only the 2^_TABLE_BITS table entries come from libm; every other step is
    one correctly rounded IEEE + or x on float64 (no fused multiply-add, no
    complex multiply), so the CPU can change no other bit.  Words whose low
    64 - _TABLE_BITS bits are zero, the angles of every quadrature grid of at
    most 2^_TABLE_BITS points per variable, get their table entry unchanged.
    Worked one cache-sized block at a time: beside the output it allocates a
    few blocks of scratch, and a contiguous copy of a strided input."""
    words = np.asarray(numerators, dtype=np.uint64)
    out = np.empty(words.shape, dtype=np.complex128) if out is None else out
    words, flat = words.reshape(-1), out.reshape(-1)
    n = min(_BLOCK, words.size)
    phi, phi2, cos, sin = _WORKSPACE.take("phases", (4, n))  # one allocation: four would fragment the heap
    for lo in range(0, words.size, _BLOCK):
        w = words[lo : lo + _BLOCK]
        k = w.size
        f, f2, c, s, z = phi[:k], phi2[:k], cos[:k], sin[:k], flat[lo : lo + k]
        bits = c.view(np.uint64)  # the top, then the low bits, before cos
        np.right_shift(w, _U64(_LOW_BITS), out=bits)
        np.take(_ROOTS, bits.view(np.int64), out=z, mode="wrap")  # in range: no check, no buffer
        np.bitwise_and(w, _U64((1 << _LOW_BITS) - 1), out=bits)
        np.multiply(bits.view(np.int64), _TURN, out=f)  # exact int64 -> float64, one rounding
        np.multiply(f, f, out=f2)
        np.multiply(f2, 1 / 24, out=c)  # cos = 1 + f2 (-1/2 + f2 / 24)
        c -= 0.5
        c *= f2
        c += 1.0
        np.multiply(f2, 1 / 120, out=s)  # sin = f + f f2 (-1/6 + f2 / 120)
        s -= 1 / 6
        s *= f2
        s *= f
        s += f
        re, im = z.real, z.imag  # (re + i im)(c + i s), one rounding per step
        np.multiply(im, s, out=f2)
        np.multiply(re, s, out=f)
        re *= c
        re -= f2
        im *= c
        im += f
    return out


def steinhaus_samples(
    seed: int, stream: int, count: int, width: int, start: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    words = uniform_bits(seed, stream, count, width, start, out=_words(count, width))
    return fixed_point_to_complex(words, out=out)


def character_values(
    exponents: np.ndarray, fractions: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate monomials z^alpha at fixed-point torus samples.

    exponents: (terms, variables) integer matrix (any sign / magnitude).
    fractions: (samples, variables) uint64 fixed-point angle numerators.
    Returns C-ordered (samples, terms) complex multipliers of modulus 1.
    Only the nonzero exponents are added.  The angle accumulation is exact
    uint64 arithmetic mod 2**64 (one turn), so neither the skipped zeros nor
    the order of the adds can change a byte of the result.  The sums run one
    cache-sized block of samples at a time, each product through one scratch
    row, and are written transposed into the words: beside the angles, the
    words and the output, nothing of the panel's size is allocated.  The
    output is written into `out` (C-contiguous) when it is given.
    """
    angles = _WORKSPACE.take("angles", fractions.shape[::-1], np.uint64)
    np.copyto(angles, fractions.T)  # a contiguous row per variable
    samples, terms = fractions.shape[0], exponents.shape[0]
    nonzero = [
        (t, j, _U64(int(exponents[t, j]) & _MASK))
        for t, j in zip(*(axis.tolist() for axis in np.nonzero(exponents)))
    ]
    words = _WORKSPACE.take("character words", (samples, terms), np.uint64)
    n = min(_BLOCK, samples)
    sums = _WORKSPACE.take("block sums", (terms, n), np.uint64)
    row = _WORKSPACE.take("row", (n,), np.uint64)
    for lo in range(0, samples, _BLOCK):
        k = min(_BLOCK, samples - lo)
        acc, product = sums[:, :k], row[:k]
        acc.fill(0)
        for t, j, e in nonzero:
            np.multiply(angles[j, lo : lo + k], e, out=product)
            acc[t] += product
        words[lo : lo + k] = acc.T
    del angles, sums, row  # before the output is allocated
    return fixed_point_to_complex(words, out=out)


def torus_characters(
    exponents: np.ndarray, seed: int, stream: int, start: int, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Rows [start, start + count) of the panel of z^alpha at the torus
    draws of (seed, stream), one row per draw and one column per term.

    Only the variables some term uses are drawn: their counters, and so their
    words, are those of the full (samples, variables) draw, and an unused
    variable contributes exponent 0, so the bytes are those of the full panel.
    Rows are pure functions of their index, so a chunk and the same rows of a
    panel drawn whole agree bit for bit.  The panel is written into `out`
    (C-contiguous) when it is given."""
    used = np.flatnonzero(exponents.any(axis=0))
    words = _words(count, used.size)
    fractions = uniform_bits(seed, stream, count, exponents.shape[1], start, columns=used, out=words)
    return character_values(exponents[:, used], fractions, out=out)


def grid_characters(
    exponents: np.ndarray, sizes: Sequence[int], start: int, count: int
) -> np.ndarray:
    """Rows [start, start + count) of the (points, terms) panel of z^alpha at
    the tensor grid of `sizes` (one size per column of `exponents`, C order,
    the last variable fastest)."""
    steps = [_U64(2**64 // g) for g in sizes]  # grid angles in 64-bit fixed point
    index = np.arange(start, start + count, dtype=np.uint64)
    fractions = np.empty((count, len(sizes)), dtype=np.uint64)
    for j in reversed(range(len(sizes))):
        fractions[:, j] = index % _U64(sizes[j]) * steps[j]
        index //= _U64(sizes[j])
    return character_values(exponents, fractions)


def _grid_sizes(exponents: np.ndarray, policy: GridPolicy):
    """(used, fine, half): the exponent columns of the variables some term
    uses, and the sizes of the quadrature grid and of its half grid on them.
    Both tori size their grids here: the polytorus of a lift, and the
    k-torus of a function space's elements."""
    used = exponents[:, np.abs(exponents).max(axis=0) > 0]
    fine = [policy.size_for(int(top)) for top in np.abs(used).max(axis=0)]
    return used, fine, [max(g // 2, 1) for g in fine]


def _half_points(fine: Sequence[int], half: Sequence[int]) -> tuple[slice, ...]:
    """Index of the half grid's points in an array shaped like the grid of
    `fine` (C order): half point i is fine point i * (fine // half) in each
    variable, whose fixed-point angle words are the same."""
    return tuple(slice(None, None, f // h) for f, h in zip(fine, half))


def _grid_columns(exponents: np.ndarray, sizes: Sequence[int]):
    """draw(lo, n) giving the multipliers z^E[t] at points [lo, lo + n) of the
    tensor grid of `sizes` as columns."""

    def draw(lo: int, n: int) -> np.ndarray:
        return grid_characters(exponents, sizes, lo, n).T

    return draw


def _held_columns(draw, points: int):
    """draw(lo, n) reading views (not to be written) of draw's points [0,
    points), drawn whole once: a column depends on its index alone."""
    panel = draw(0, points)
    return lambda lo, n: panel[:, lo : lo + n]


class PowerMoments:
    """Running sums of g^q over norm values g, one per power q and column
    group, turned into Estimates of (E g^q)^(1/q).

    Values come point-major: value i belongs to group i % groups, and each
    group is averaged on its own.  In Monte Carlo mode
    the sums of g^q - c and (g^q - c)^2 are kept too, c the first chunk's
    mean, for the stderr alone: with c near the mean, the variance of nearly
    constant norms does not cancel.  Every norm average reports through here,
    so there is one value rule, mean^(1/q) or 0, and one delta-method stderr,
    sqrt(var / n) * value / (q * mean) with var the unbiased variance of g^q,
    infinite from a single draw.
    """

    def __init__(self, powers: Sequence[float], mc: bool = False, groups: int = 1, chunk: int = 0):
        self.powers = tuple(powers)
        self.mc = mc
        self.groups = groups
        self.chunk = chunk
        self.sums = np.zeros((len(self.powers), groups))
        self.shifts = np.zeros_like(self.sums)
        self.shifted = np.zeros_like(self.sums)
        self.squares = np.zeros_like(self.sums)
        self.count = 0  # values per group
        self.pending = np.empty(0)  # values not summed until their chunk is full

    def add(self, g: np.ndarray) -> None:
        """Sum the powers of g's values; with `chunk`, in chunks of that many
        points whatever sizes g comes in, so the sums are those of such adds."""
        if not self.chunk:
            return self._sum(g)
        self.pending = np.concatenate([self.pending, g.reshape(-1)])
        size = self.chunk * self.groups
        while self.pending.size >= size:
            self._sum(self.pending[:size])
            self.pending = self.pending[size:]

    def _sum(self, g: np.ndarray) -> None:
        for i, q in enumerate(self.powers):
            gq = (g**q).reshape(-1, self.groups)
            self.sums[i] += gq.sum(axis=0)
            if self.mc:
                if self.count == 0:
                    self.shifts[i] = gq.mean(axis=0)
                gq -= self.shifts[i]
                self.shifted[i] += gq.sum(axis=0)
                gq *= gq
                self.squares[i] += gq.sum(axis=0)
        self.count += g.size // self.groups

    def merge(self, other: "PowerMoments") -> None:
        """Add the sums of another accumulator of the same powers (not in
        Monte Carlo mode)."""
        self.sums += other.sums
        self.count += other.count

    def estimates(self, rough: "PowerMoments | None" = None) -> list[Estimate]:
        """One Estimate per power and group, power-major: mc mode with the
        delta-method stderr in Monte Carlo mode, else quadrature when `rough`
        holds the same sums on a coarser grid (the gap between the two values
        is the error), else exact.  A last part chunk is summed first."""
        if self.pending.size:
            self._sum(self.pending)
            self.pending = self.pending[:0]
        n = self.count
        mode = MODE_MC if self.mc else MODE_QUADRATURE if rough is not None else MODE_EXACT
        coarse = None if rough is None else rough.estimates()
        out = []
        for i, q in enumerate(self.powers):
            for k in range(self.groups):
                mean = float(self.sums[i, k]) / n
                value = mean ** (1.0 / q) if mean > 0 else 0.0
                stderr = math.inf if self.mc and n < 2 else 0.0  # one draw shows no spread
                if self.mc and n > 1 and mean > 0:
                    shifted = float(self.shifted[i, k])
                    var = max(float(self.squares[i, k]) - shifted * shifted / n, 0.0) / (n - 1)
                    stderr = math.sqrt(var / n) * value / (q * mean)
                quad_error = 0.0
                if coarse is not None:
                    quad_error = abs(value - coarse[i * self.groups + k].value)
                out.append(Estimate(value, stderr, n, mode, quad_error))
        return out
