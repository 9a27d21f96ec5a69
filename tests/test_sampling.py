import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_ruc import (
    DirichletPolynomial,
    DomainError,
    Estimate,
    GridPolicy,
    SamplerConfig,
    SupSpace,
    dirichlet,
    hp_norm,
    sampling,
)
from dirichlet_ruc.dirichlet import lift_arrays
from dirichlet_ruc.sampling import (
    character_values,
    fixed_point_to_complex,
    gaussian_samples,
    sign_samples,
    steinhaus_samples,
    torus_characters,
    uniform_bits,
)

def test_estimate_invariants():
    Estimate(value=1.0, mode="exact")
    Estimate(value=1.0, stderr=0.1, mode="mc", samples_used=10)
    Estimate(value=1.0, mode="quadrature", quad_error=0.01)
    with pytest.raises(DomainError):
        Estimate(value=1.0, stderr=0.1, mode="exact")
    with pytest.raises(DomainError):
        Estimate(value=1.0, stderr=0.1, mode="quadrature")
    with pytest.raises(DomainError):
        Estimate(value=1.0, mode="bogus")


def test_estimate_scaled():
    est = Estimate(value=2.0, stderr=0.5, mode="mc", samples_used=4)
    scaled = est.scaled(-3)
    assert scaled.value == 6.0 and scaled.stderr == 1.5 and scaled.mode == "mc"


def test_sampler_config_validation():
    SamplerConfig(seed=1, samples=1, exact_cutoff=0)
    with pytest.raises(DomainError):
        SamplerConfig(samples=0)
    with pytest.raises(DomainError):
        SamplerConfig(exact_cutoff=25)


def test_grid_policy_power_of_two():
    policy = GridPolicy(factor=4, min_size=16)
    assert policy.size_for(0) == 16
    assert policy.size_for(5) == 32
    assert policy.size_for(100) == 512


def test_streams_are_decorrelated():
    a = uniform_bits(7, 1, 100, 2)
    b = uniform_bits(7, 2, 100, 2)
    assert not np.array_equal(a, b)
    assert not np.array_equal(uniform_bits(7, 1, 100, 2), uniform_bits(8, 1, 100, 2))


def test_sign_samples_are_balanced():
    signs = sign_samples(3, 2, 20_000, 1)
    assert set(np.unique(signs)) == {-1.0, 1.0}
    assert abs(signs.mean()) < 0.02


def test_steinhaus_samples_unimodular():
    z = steinhaus_samples(3, 5, 1000, 2)
    assert np.allclose(np.abs(z), 1.0, atol=1e-12)


def test_gaussian_moments():
    g = gaussian_samples(11, 4, 200_000, 1, variant="complex")
    assert abs((np.abs(g) ** 2).mean() - 1.0) < 0.02
    r = gaussian_samples(11, 4, 200_000, 1, variant="real")
    assert abs((r**2).mean() - 1.0) < 0.02
    assert abs(r.mean()) < 0.01


# --- sparse character engine: bytes equal to the all-variables draw and loop


def _character_values_all_variables(exponents, fractions, **kwargs):
    """character_values as it was before the sparse engine: one add over the
    whole (samples, terms) accumulator per variable, zero exponents included."""
    samples = fractions.shape[0]
    terms, variables = exponents.shape
    exp_u64 = np.asarray(
        [[int(e) & ((1 << 64) - 1) for e in row] for row in exponents], dtype=np.uint64
    ).reshape(terms, variables)
    acc = np.zeros((samples, terms), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(variables):
            acc += fractions[:, j : j + 1] * exp_u64[None, :, j]
    return fixed_point_to_complex(acc, **kwargs)


def _character_values_per_exponent(exponents, fractions):
    """character_values as it was before the blocked engine: a fresh product
    row for each nonzero exponent, added into a (terms, samples) sum that is
    then copied transposed."""
    angles = np.ascontiguousarray(fractions.T)
    acc = np.zeros((exponents.shape[0], fractions.shape[0]), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for t, j in zip(*(axis.tolist() for axis in np.nonzero(exponents))):
            acc[t] += angles[j] * np.uint64(int(exponents[t, j]) & ((1 << 64) - 1))
    return fixed_point_to_complex(acc.T.copy())


def _dense_torus_characters(exponents, seed, stream, start, count, **kwargs):
    fractions = uniform_bits(seed, stream, count, exponents.shape[1], start)
    return _character_values_all_variables(exponents, fractions, **kwargs)


_EXPONENT = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.integers(2**62 - 4, 2**62 + 4),
    st.integers(-(2**62) - 4, -(2**62) + 4),
)


@st.composite
def exponent_matrices(draw, max_terms=6, max_variables=9):
    terms = draw(st.integers(1, max_terms))
    variables = draw(st.integers(0, max_variables))
    entries = draw(st.lists(_EXPONENT, min_size=terms * variables, max_size=terms * variables))
    exps = np.array(entries, dtype=np.int64).reshape(terms, variables)
    if draw(st.booleans()):
        exps[draw(st.integers(0, terms - 1))] = 0  # the n = 1 term
    if variables and draw(st.booleans()):
        exps[:, draw(st.integers(0, variables - 1))] = 0  # a variable no term uses
    return exps


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    stream=st.integers(1, 7),
    count=st.integers(0, 40),
    width=st.integers(1, 300),
    start=st.integers(0, 2**40),
    data=st.data(),
)
def test_uniform_bits_columns_equal_full_draw_columns(seed, stream, count, width, start, data):
    columns = np.array(
        data.draw(st.lists(st.integers(0, width - 1), max_size=12)), dtype=np.int64
    )
    part = uniform_bits(seed, stream, count, width, start, columns=columns)
    full = uniform_bits(seed, stream, count, width, start)
    assert part.shape == (count, len(columns)) and part.dtype == np.uint64
    assert part.tobytes() == full[:, columns].tobytes()


@settings(max_examples=80, deadline=None)
@given(exps=exponent_matrices(), seed=st.integers(0, 2**31), samples=st.integers(0, 50))
def test_character_values_match_all_variables_loop_bitwise(exps, seed, samples):
    fractions = uniform_bits(seed, 1, samples, exps.shape[1])
    got = character_values(exps, fractions)
    assert got.dtype == np.complex128 and got.flags.c_contiguous
    assert got.shape == (samples, len(exps))
    assert got.tobytes() == _character_values_all_variables(exps, fractions).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    exps=exponent_matrices(),
    seed=st.integers(0, 2**31),
    samples=st.one_of(st.integers(0, 40), st.integers(sampling._BLOCK - 2, 2 * sampling._BLOCK + 2)),
)
def test_character_values_match_per_exponent_loop_bitwise(exps, seed, samples):
    # uint64 sums are exact mod 2^64: blocks and a scratch row change no byte.
    fractions = uniform_bits(seed, 1, samples, exps.shape[1])
    got = character_values(exps, fractions)
    assert got.tobytes() == _character_values_per_exponent(exps, fractions).tobytes()


def test_character_values_allocates_nothing_of_panel_size(monkeypatch):
    # Peak before the exponential: the angles, the words, and block-sized
    # scratch (0.63 MiB above the first two here).  The per-exponent loop
    # held a product row of the panel's length per exponent and a transposed
    # copy of all the words (2.0 MiB above them).
    exps = np.array([[1, 2, 0], [3, 0, 1], [0, 5, 7], [2, 2, 2]], dtype=np.int64)
    fractions = uniform_bits(8, 1, 1 << 16, 3)
    peaks = []
    exponential = sampling.fixed_point_to_complex

    def probe(words, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return exponential(words, **kwargs)

    monkeypatch.setattr(sampling, "fixed_point_to_complex", probe)
    tracemalloc.start()
    try:
        character_values(exps, fractions)
    finally:
        tracemalloc.stop()
    words = fractions.shape[0] * len(exps) * 8
    scratch = (len(exps) + 1) * sampling._BLOCK * 8
    assert peaks[0] <= fractions.nbytes + words + scratch + 4096


@settings(max_examples=40, deadline=None)
@given(
    exps=exponent_matrices(),
    seed=st.integers(0, 2**31),
    samples=st.integers(1, 60),
    data=st.data(),
)
def test_torus_characters_match_the_dense_draw_and_the_whole_panel_bitwise(exps, seed, samples, data):
    start = data.draw(st.integers(0, samples - 1))
    count = data.draw(st.integers(1, samples - start))
    chunk = torus_characters(exps, seed, 1, start, count)
    whole = torus_characters(exps, seed, 1, 0, samples)[start : start + count]
    dense = _dense_torus_characters(exps, seed, 1, start, count)
    assert chunk.flags.c_contiguous
    assert chunk.tobytes() == whole.tobytes() == dense.tobytes()


def test_gapped_sparse_support_matches_dense_path_and_draws_used_columns(monkeypatch):
    D = DirichletPolynomial(
        SupSpace(3), {2: [1.0, 0.5j, -1], 7: [0.25, 1, 2j], 4999: [-0.5, 0.75, 1]}
    )
    _, exps, _ = lift_arrays(D)
    assert exps.shape == (3, 669)  # 4999 is the 669th prime
    cfg = SamplerConfig(seed=17, samples=3000)
    with monkeypatch.context() as patched:
        patched.setattr(dirichlet, "torus_characters", _dense_torus_characters)
        dense = hp_norm(D, 1.0, cfg, method="mc")
    drawn = []

    def counted(*args, **kwargs):
        words = uniform_bits(*args, **kwargs)
        drawn.append(words.shape)
        return words

    monkeypatch.setattr(sampling, "uniform_bits", counted)
    sparse = hp_norm(D, 1.0, cfg, method="mc")
    assert sparse.mode == "mc" and sparse == dense
    assert drawn == [(3000, 3)]  # only the columns of the primes 2, 7 and 4999


# --- the torus exponential and the counter RNG


def _uniform_bits_expression(seed, stream, count, width, start=0, columns=None):
    """uniform_bits as one out-of-place numpy expression (a SplitMix64
    finalizer over golden-ratio strides of the counters)."""
    u64 = np.uint64
    cols = np.arange(width, dtype=u64) if columns is None else np.asarray(columns, u64)
    counters = np.arange(start, start + count, dtype=u64)[:, None] * u64(width) + cols[None, :]
    base = ((seed * 0x9E3779B97F4A7C15) ^ (stream * 0xD1B54A32D192ED03)) & ((1 << 64) - 1)

    def mix(x):
        x = (x ^ (x >> u64(30))) * u64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> u64(27))) * u64(0x94D049BB133111EB)
        return x ^ (x >> u64(31))

    with np.errstate(over="ignore"):
        return mix(mix(np.array([base], dtype=u64)) + counters * u64(0x9E3779B97F4A7C15))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    stream=st.integers(1, 7),
    count=st.integers(0, 40),
    width=st.integers(1, 600),
    start=st.integers(0, 2**40),
    data=st.data(),
)
def test_uniform_bits_equal_the_out_of_place_expression(seed, stream, count, width, start, data):
    columns = data.draw(
        st.none() | st.lists(st.integers(0, width - 1), max_size=12).map(np.array)
    )
    got = uniform_bits(seed, stream, count, width, start, columns=columns)
    want = _uniform_bits_expression(seed, stream, count, width, start, columns)
    assert got.dtype == np.uint64 and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


_TURN = 2 * np.pi * 2.0**-64
_LOW_BITS = 64 - sampling._TABLE_BITS


def _grid_words(bits):
    return np.arange(1 << bits, dtype=np.uint64) << np.uint64(64 - bits)


def test_torus_exponential_is_exp_on_grid_words_bitwise():
    # Every word with zero low bits: the angles of the power-of-two quadrature
    # grids, down to 2^-12 turn, keep the bytes of np.exp(1j * angle).
    words = np.concatenate([_grid_words(sampling._TABLE_BITS), _grid_words(3)])
    want = np.exp(1j * (words.astype(np.float64) * _TURN))
    assert fixed_point_to_complex(words).tobytes() == want.tobytes()


def _torus_oracle(words):
    """e^{2 pi i w / 2^64} in extended precision: the word and 2 pi are exact
    to 64 bits, and cosl, sinl are accurate to an ulp of that."""
    turn = np.longdouble("6.283185307179586476925286766559005768") / np.longdouble(2.0**64)
    angles = words.astype(np.longdouble) * turn
    return np.cos(angles), np.sin(angles)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="no extended precision")
def test_torus_exponential_error_is_below_1e15_of_an_extended_precision_oracle():
    rng = np.random.default_rng(2024)
    grid = _grid_words(sampling._TABLE_BITS)
    words = np.concatenate([
        rng.integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False),
        np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
        grid - np.uint64(1),
        grid + np.uint64(1),
        grid + np.uint64((1 << _LOW_BITS) - 1),
    ])
    z = fixed_point_to_complex(words)
    cos, sin = _torus_oracle(words)
    error = np.maximum(np.abs(z.real - cos), np.abs(z.imag - sin)).astype(np.float64)
    assert error.max() <= 1e-15


@settings(max_examples=25, deadline=None)
@given(
    size=st.sampled_from([1, 2, 3]).flatmap(
        lambda k: st.integers(k * sampling._BLOCK - 3, k * sampling._BLOCK + 3)
    ),
    seed=st.integers(0, 2**31),
    data=st.data(),
)
def test_torus_exponential_bytes_do_not_depend_on_blocks_or_strides(size, seed, data):
    words = uniform_bits(seed, 1, size, 1).ravel()
    whole = fixed_point_to_complex(words)
    assert whole.shape == words.shape and whole.flags.c_contiguous
    cut = data.draw(st.integers(0, size))
    parts = np.concatenate([fixed_point_to_complex(words[:cut]), fixed_point_to_complex(words[cut:])])
    assert parts.tobytes() == whole.tobytes()
    step = data.draw(st.integers(2, 5))
    assert fixed_point_to_complex(words[::step]).tobytes() == whole[::step].tobytes()
    width = data.draw(st.integers(1, 9))
    table = words[: size // (2 * width) * 2 * width].reshape(-1, 2 * width)
    right = fixed_point_to_complex(table[:, width:])  # a strided view, as in gaussian_samples
    assert right.tobytes() == fixed_point_to_complex(table)[:, width:].tobytes()


def test_gaussian_samples_build_on_the_torus_exponential():
    bits = uniform_bits(5, 4, 300, 6)
    radius = np.sqrt(-2.0 * np.log((bits[:, :3].astype(np.float64) + 1.0) * 2.0**-64))
    want = radius * fixed_point_to_complex(bits[:, 3:]) * np.sqrt(0.5)
    assert gaussian_samples(5, 4, 300, 3).tobytes() == want.tobytes()
    real = radius * np.cos(bits[:, 3:].astype(np.float64) * _TURN)
    assert gaussian_samples(5, 4, 300, 3, variant="real").tobytes() == real.tobytes()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Beside its output, each holds a few cache-sized blocks of scratch only.


def test_uniform_bits_works_in_place():
    bits, peak = _traced_peak(uniform_bits, 3, 1, 20_000, 17)
    assert peak <= 2.2 * bits.nbytes


def test_torus_exponential_works_in_place():
    words = uniform_bits(3, 1, 20_000, 16)
    z, peak = _traced_peak(fixed_point_to_complex, words)
    assert peak <= 1.3 * z.nbytes
