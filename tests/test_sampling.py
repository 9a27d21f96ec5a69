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
    panel_scope,
    sign_samples,
    steinhaus_samples,
    torus_characters,
    uniform_bits,
)

EXPS = np.array([[0, 0], [1, 0], [0, 1], [2, 1], [-1, 3]], dtype=np.int64)


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


@pytest.fixture
def character_calls(monkeypatch):
    """Number of character_values calls made through the sampling module."""
    calls = []

    def counted(exponents, fractions):
        calls.append(fractions.shape[0])
        return character_values(exponents, fractions)

    monkeypatch.setattr(sampling, "character_values", counted)
    return calls


def test_memoized_panel_rows_equal_fresh_chunks_bitwise():
    with panel_scope():
        for start, count in [(0, 64), (64, 100), (164, 1), (165, 835)]:
            rows = torus_characters(EXPS, 11, 1, 1000, start, count)
            fresh = character_values(EXPS, uniform_bits(11, 1, count, 2, start=start))
            assert rows.tobytes() == fresh.tobytes()


def test_panel_scope_is_dropped_on_exit_and_on_error(character_calls):
    assert sampling._PANELS.get() is None
    with panel_scope():
        torus_characters(EXPS, 1, 1, 100, 0, 10)
        assert len(sampling._PANELS.get()) == 1
    assert sampling._PANELS.get() is None
    with pytest.raises(RuntimeError):
        with panel_scope():
            torus_characters(EXPS, 1, 1, 100, 0, 10)
            raise RuntimeError("boom")
    assert sampling._PANELS.get() is None
    # Outside a scope each call draws only its own chunk.
    torus_characters(EXPS, 1, 1, 100, 0, 10)
    torus_characters(EXPS, 1, 1, 100, 10, 10)
    assert character_calls == [100, 100, 10, 10]


def test_nested_scopes_share_one_panel(character_calls):
    with panel_scope():
        outer = torus_characters(EXPS, 2, 1, 500, 0, 500)
        with panel_scope():
            inner = torus_characters(EXPS, 2, 1, 500, 100, 50)
        assert sampling._PANELS.get() is not None  # the inner exit kept the memo
        again = torus_characters(EXPS, 2, 1, 500, 0, 500)
    assert character_calls == [500]
    assert np.shares_memory(outer, inner) and np.shares_memory(outer, again)
    # Other exponents, seed, stream or sample count make another panel.
    with panel_scope():
        for exps, seed, stream, samples in [
            (EXPS, 2, 1, 500), (EXPS[:4], 2, 1, 500), (EXPS, 3, 1, 500), (EXPS, 2, 4, 500),
            (EXPS, 2, 1, 499),
        ]:
            torus_characters(exps, seed, stream, samples, 0, 10)
    assert character_calls == [500, 500, 500, 500, 500, 499]


def test_panel_memo_stays_within_chunk_budget(monkeypatch, character_calls):
    monkeypatch.setattr(sampling, "_CHUNK_BUDGET", 2 * 100 * len(EXPS))
    with panel_scope():
        torus_characters(EXPS, 1, 1, 300, 0, 30)  # 300 rows exceed the budget
        assert not sampling._PANELS.get()
        for seed in (1, 2, 1, 3, 1):
            torus_characters(EXPS, seed, 1, 100, 0, 10)
            memo = sampling._PANELS.get()
            assert sum(v.size for v in memo.values()) <= sampling._CHUNK_BUDGET
        assert len(memo) == 2
    # Two panels fit: seeds 1 and 2 are kept, seed 3 is drawn chunk by chunk.
    assert character_calls == [30, 100, 100, 10]


# --- sparse character engine: bytes equal to the all-variables draw and loop


def _character_values_all_variables(exponents, fractions):
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
    return fixed_point_to_complex(acc)


def _dense_torus_characters(exponents, seed, stream, samples, start, count):
    fractions = uniform_bits(seed, stream, count, exponents.shape[1], start)
    return _character_values_all_variables(exponents, fractions)


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
    samples=st.integers(1, 60),
    data=st.data(),
)
def test_torus_characters_same_bytes_in_and_out_of_scope(exps, seed, samples, data):
    start = data.draw(st.integers(0, samples - 1))
    count = data.draw(st.integers(1, samples - start))
    outside = torus_characters(exps, seed, 1, samples, start, count)
    with panel_scope():
        inside = torus_characters(exps, seed, 1, samples, start, count)
    dense = _dense_torus_characters(exps, seed, 1, samples, start, count)
    assert outside.flags.c_contiguous and inside.flags.c_contiguous
    assert outside.tobytes() == inside.tobytes() == dense.tobytes()


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
