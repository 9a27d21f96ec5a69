"""The power-moment engine: one value rule and one delta-method stderr behind
every norm average, checked against numpy on the estimators' own draws."""

import math
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_ruc import (
    DirichletPolynomial,
    Estimate,
    FunctionLr,
    HilbertSpace,
    SamplerConfig,
    SequenceSpace,
    SupSpace,
    TrigPolynomial,
    circle_hp_norm,
    constants,
    experiment_summing_basis,
    gaussian_average,
    hp_norm,
    hprad_norm,
    rad_norm,
    rademacher_average,
    randomized,
    scalar_polynomial,
    spaces,
    steinhaus_average,
)
from dirichlet_ruc.dirichlet import lift_arrays
from dirichlet_ruc.sampling import (
    STREAM_GAUSSIAN,
    STREAM_SIGNS,
    STREAM_STEINHAUS,
    STREAM_SUMMING,
    STREAM_TORUS,
    PowerMoments,
    gaussian_samples,
    sign_samples,
    steinhaus_samples,
    torus_characters,
)
from dirichlet_ruc.randomized import _gaussian_abs_moment
from dirichlet_ruc.spaces import CombinationEvaluator, closed_form, coordinate_norms, norm as space_norm

from conftest import HALF_INNER_GRID

SAMPLES = 3000


def _delta_method(g, q):
    """(value, stderr) of (E g^q)^(1/q) from the draws g, in plain numpy."""
    gq = np.asarray(g, dtype=np.float64) ** q
    mean = gq.mean()
    value = mean ** (1.0 / q)
    return value, math.sqrt(gq.var(ddof=1) / gq.size) * value / (q * mean)


def _vectors(rng, d, m):
    return [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(m)]


def test_power_moments_value_rule_and_modes():
    g = np.array([1.0, 2.0, 0.5, 3.0])
    exact = PowerMoments([1.0, 3.0])
    exact.add(g[:3])
    exact.add(g[3:])
    first, third = exact.estimates()
    assert (first.value, third.value) == (g.sum() / 4, (float((g**3).sum()) / 4) ** (1 / 3))
    assert (first.mode, first.stderr, first.quad_error, first.samples_used) == ("exact", 0.0, 0.0, 4)
    coarse = PowerMoments([1.0, 3.0])
    coarse.add(np.array([1.0, 2.5]))
    rough = [est.value for est in coarse.estimates()]
    assert [e.mode for e in exact.estimates(coarse)] == ["quadrature"] * 2
    assert [e.quad_error for e in exact.estimates(coarse)] == [
        abs(first.value - rough[0]), abs(third.value - rough[1])
    ]
    zero = PowerMoments([2.0], mc=True)
    zero.add(np.zeros(5))
    assert zero.estimates() == [Estimate(0.0, 0.0, 5, "mc", 0.0)]
    single = PowerMoments([2.0], mc=True)
    single.add(np.array([3.0]))
    assert single.estimates() == [Estimate(3.0, math.inf, 1, "mc", 0.0)]  # one draw shows no spread


def test_power_moments_merge_adds_sums_and_counts():
    g = np.arange(1.0, 9.0)
    whole = PowerMoments([2.0])
    whole.add(g[:4])
    tail = PowerMoments([2.0])
    tail.add(g[4:])
    whole.merge(tail)
    assert whole.count == 8
    assert whole.sums == [float((g[:4] ** 2).sum()) + float((g[4:] ** 2).sum())]


def test_power_moments_stderr_is_the_delta_method():
    rng = np.random.default_rng(40)
    g = rng.random(1001) * 3
    for q in (1.0, 2.0, 3.5):
        moments = PowerMoments([q], mc=True)
        for lo in range(0, g.size, 100):
            moments.add(g[lo : lo + 100])
        est = moments.estimates()[0]
        value, stderr = _delta_method(g, q)
        assert est.mode == "mc" and est.samples_used == g.size
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.stderr == pytest.approx(stderr, rel=1e-12) and est.stderr > 0


def test_hp_norm_mc_stderr_from_its_own_draws():
    rng = np.random.default_rng(41)
    space = SupSpace(3)
    D = DirichletPolynomial(space, dict(zip([2, 3, 5, 6, 12], _vectors(rng, 3, 5))))
    cfg = SamplerConfig(seed=4, samples=SAMPLES)
    est = hp_norm(D, 1.5, cfg, method="mc")
    xs, exps, _ = lift_arrays(D)
    multipliers = torus_characters(exps, cfg.seed, STREAM_TORUS, 0, SAMPLES)
    value, stderr = _delta_method(CombinationEvaluator(space, xs).norms(multipliers.T), 1.5)
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12) and est.stderr > 0


MULTIPLIER_CASES = ["steinhaus", "gaussian", "gaussian real", "rademacher"]


@pytest.mark.parametrize("kind", MULTIPLIER_CASES)
def test_multiplier_average_stderr_from_its_own_draws(kind):
    rng = np.random.default_rng(42 + MULTIPLIER_CASES.index(kind))
    m, q = 6, 2.5
    space = SequenceSpace(3.0, 4) if kind == "steinhaus" else SupSpace(4)
    xs = _vectors(rng, 4, m)
    cfg = SamplerConfig(seed=8, samples=SAMPLES, exact_cutoff=3)
    if kind == "steinhaus":
        est = steinhaus_average(xs, space, q, cfg)
        multipliers = steinhaus_samples(cfg.seed, STREAM_STEINHAUS, SAMPLES, m)
    elif kind == "rademacher":  # 6 signs past exact_cutoff 3: sampled
        est = rademacher_average(xs, space, q, cfg)
        multipliers = sign_samples(cfg.seed, STREAM_SIGNS, SAMPLES, m)
    else:
        variant = kind.split()[-1] if " " in kind else "complex"
        est = gaussian_average(xs, space, q, cfg, variant)
        multipliers = gaussian_samples(cfg.seed, STREAM_GAUSSIAN, SAMPLES, m, variant)
    value, stderr = _delta_method(CombinationEvaluator(space, xs).norms(multipliers.T), q)
    assert (est.mode, est.samples_used) == ("mc", SAMPLES)
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12) and est.stderr > 0


def test_summing_experiment_stderr_from_its_own_draws():
    a = np.array([1.0, -0.5, 0.25j, 1.0, 0.5 - 0.5j])
    cfg = SamplerConfig(seed=6, samples=SAMPLES)
    est = experiment_summing_basis(a, cfg).sup_tail_norm
    _, exps, _ = lift_arrays(scalar_polynomial(dict.fromkeys(range(1, a.size + 1), 1)))
    multipliers = torus_characters(exps, cfg.seed, STREAM_SUMMING, 0, SAMPLES) * a
    tails = np.cumsum(multipliers[:, ::-1], axis=1)
    value, stderr = _delta_method(np.abs(tails).max(axis=1), 2.0)
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12) and est.stderr > 0


def _trig_family(rng, m, k=1):
    family = []
    for _ in range(m):
        keys = {tuple(int(e) for e in rng.integers(-3, 4, size=k)) for _ in range(2)}
        family.append(TrigPolynomial({key: complex(*rng.standard_normal(2)) for key in keys}, k))
    return family


def _every_average():
    rng = np.random.default_rng(43)
    cfg = SamplerConfig(seed=9, samples=SAMPLES, exact_cutoff=8)
    sup = SupSpace(3)
    D = DirichletPolynomial(sup, dict(zip([2, 3, 5, 6, 12], _vectors(rng, 3, 5))))
    small = DirichletPolynomial(sup, dict(zip([2, 3, 4], _vectors(rng, 3, 3))))
    function = FunctionLr(1.5, 1)
    signs = _vectors(rng, 3, 10)
    estimates = {
        "hp_norm mc": hp_norm(D, 3.0, cfg),
        "hp_norm quadrature": hp_norm(small, 2.0, cfg),
        "hp_norm FunctionLr mc": hp_norm(
            DirichletPolynomial(function, dict(zip([2, 3, 5], _trig_family(rng, 3)))), 1.0, cfg
        ),
        "steinhaus": steinhaus_average(signs[:6], sup, 3.0, cfg),
        "gaussian": gaussian_average(signs[:6], sup, 1.0, cfg),
        "sampled signs": rademacher_average(signs[:9], sup, 3.0, cfg),
        "exact signs": rademacher_average(signs[:8], sup, 1.0, cfg),
        "exact signs FunctionLr": rad_norm(_trig_family(rng, 7), function, cfg),
        "sampled signs FunctionLr": rad_norm(_trig_family(rng, 9), function, cfg),
        "summing": experiment_summing_basis([1, -1j, 0.5, 1], cfg).sup_tail_norm,
    }
    return estimates


def test_shrinking_the_chunks_leaves_every_estimate_in_place(monkeypatch):
    before = _every_average()
    monkeypatch.setattr(spaces, "_CHUNK_BUDGET", 1 << 9)
    monkeypatch.setattr(spaces, "_PATTERN_CHUNK", 8)
    monkeypatch.setattr(constants, "_CHUNK_BUDGET", 0)
    after = _every_average()
    for name, est in before.items():
        moved = after[name]
        assert (moved.mode, moved.samples_used) == (est.mode, est.samples_used), name
        assert moved.value == pytest.approx(est.value, rel=1e-12), name
        assert moved.stderr == pytest.approx(est.stderr, rel=1e-12), name
        assert moved.quad_error == pytest.approx(est.quad_error, abs=1e-12 * est.value), name
    assert before["sampled signs"].stderr > 0 and before["exact signs FunctionLr"].quad_error > 0


def test_function_space_sign_average_memory_is_bounded_by_the_chunk_budget():
    # 2^11 patterns on a 64 x 64 grid: the 2^10 evaluated ones in one block
    # would hold 4096 x 1024 complex values (64 MiB) and their moduli; blocks
    # of _CHUNK_BUDGET grid values hold half of that, and the moduli replace
    # the complex values before their powers are taken in place.
    rng = np.random.default_rng(44)
    family = _trig_family(rng, 11, k=2)
    space = FunctionLr(1.0, 2)
    assert CombinationEvaluator(space, family).grid_points == 4096
    tracemalloc.start()
    try:
        est = rad_norm(family, space, SamplerConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (est.mode, est.samples_used) == ("quadrature", 1 << 11)
    assert peak < 28 * spaces._CHUNK_BUDGET  # 56 MiB: 24 bytes per grid value, plus slack


def test_function_space_chunks_hold_chunk_budget_grid_values(monkeypatch):
    evaluated = []
    sign_patterns = randomized._sign_patterns

    def recorded(m, lo, hi):
        evaluated.append((lo, hi))
        return sign_patterns(m, lo, hi)

    monkeypatch.setattr(randomized, "_sign_patterns", recorded)
    rng = np.random.default_rng(45)
    space = FunctionLr(1.0, 2)
    for m, ranges in ((10, [(0, 512)]), (11, [(0, 512), (512, 1024)])):
        family = _trig_family(rng, m, k=2)
        assert CombinationEvaluator(space, family).grid_points == 4096
        evaluated.clear()
        rad_norm(family, space, SamplerConfig())
        assert evaluated == ranges  # 2^21 grid values per chunk
    evaluated.clear()
    rad_norm(_vectors(rng, 2, 15), HilbertSpace(2), SamplerConfig())
    # coordinate spaces: _PATTERN_CHUNK, and the second chunk built from the first
    assert evaluated == [(0, 8192)]


CLOSED_FORMS = {
    "all zero": (SupSpace(2), [np.zeros(2), np.zeros(2)], 3.0),
    "one element": (SequenceSpace(3.0, 2), [np.array([1.0, 2j])], 1.5),
    "one element FunctionLr": (
        FunctionLr(1.0, 1), [TrigPolynomial({(1,): 1.0, (-2,): 0.5j}, 1)], 1.0
    ),
    "q = 2 Hilbert": (
        HilbertSpace(2), [np.array([1.0, 2j]), np.array([-1.0, 0.5]), np.array([0.25, 0])], 2.0
    ),
}


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_every_average_returns_the_one_closed_form(name):
    space, xs, q = CLOSED_FORMS[name]
    expected = closed_form(space, xs, q)
    if name == "all zero":
        assert expected == Estimate(value=0.0)
    elif name.startswith("one element"):
        assert expected == space_norm(space, xs[0])
    else:
        assert expected.mode == "exact"
        assert expected.value == pytest.approx(math.sqrt(5 + 1.25 + 0.0625), rel=1e-15)
    cfg = SamplerConfig(seed=3, samples=200)
    D = DirichletPolynomial(space, {n + 2: x for n, x in enumerate(xs)})
    assert hp_norm(D, q, cfg) == expected
    assert circle_hp_norm(xs, space, q, cfg) == expected
    assert hprad_norm(D, q, cfg) == expected
    assert rademacher_average(xs, space, q, cfg) == expected
    assert steinhaus_average(xs, space, q, cfg) == expected
    for variant in ("complex", "real"):  # one Gaussian multiplier scales the norm
        factor = _gaussian_abs_moment(q, variant) if len(xs) == 1 else 1.0
        assert gaussian_average(xs, space, q, cfg, variant) == expected.scaled(factor)


def test_closed_form_is_none_where_an_average_has_to_run():
    xs = [np.array([1.0, 2j]), np.array([-1.0, 0.5])]
    assert closed_form(SupSpace(2), xs, 2.0) is None
    assert closed_form(HilbertSpace(2), xs, 1.0) is None


def test_function_space_hp_norm_mc_reports_its_half_grid_gap():
    rng = np.random.default_rng(47)
    space = FunctionLr(1.5, 1)
    D = DirichletPolynomial(space, dict(zip([2, 3, 5], _trig_family(rng, 3))))
    cfg = SamplerConfig(seed=5, samples=SAMPLES)
    est = hp_norm(D, 1.0, cfg, method="mc")
    xs, exps, _ = lift_arrays(D)
    columns = torus_characters(exps, cfg.seed, STREAM_TORUS, 0, SAMPLES).T
    value, stderr = _delta_method(CombinationEvaluator(space, xs).norms(columns), 1.0)
    rough = _delta_method(CombinationEvaluator(space, xs, HALF_INNER_GRID).norms(columns), 1.0)[0]
    assert (est.mode, est.samples_used) == ("mc", SAMPLES)
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12)
    assert est.quad_error == pytest.approx(abs(value - rough), rel=1e-9) and est.quad_error > 0


def test_quadrature_grid_is_drawn_a_chunk_at_a_time():
    # 32 * 32 * 16 * 16 = 2^18 grid points over the primes 2, 3, 5, 7: the
    # whole grid's angles and multipliers at once took 76 MiB.
    rng = np.random.default_rng(46)
    ns = [256, 243, 5, 7, 35]
    D = DirichletPolynomial(SupSpace(2), dict(zip(ns, _vectors(rng, 2, len(ns)))))
    tracemalloc.start()
    try:
        est = hp_norm(D, 1.0, SamplerConfig(), method="quadrature")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (est.mode, est.samples_used) == ("quadrature", 1 << 18)
    assert peak < 8 * 2**20


@pytest.mark.parametrize("q", [1.0, 3.0])
def test_monte_carlo_stderr_of_nearly_constant_norms_matches_two_pass(q):
    # Norms 1.2732 +- 1.2e-4, as on tests/fixtures/function_l1.json: the
    # one-pass variance squares / n - mean^2 lost about 8 digits (4.0e-8
    # relative on that fixture); sums shifted by the first chunk's mean keep
    # them.
    rng = np.random.default_rng(7)
    g = 1.2732 + 1.2e-4 * rng.standard_normal(500)
    moments = PowerMoments([q], mc=True)
    for lo, hi in ((0, 64), (64, 300), (300, 500)):
        moments.add(g[lo:hi])
    est = moments.estimates()[0]
    gq = g**q
    n = gq.size
    mean = math.fsum(gq) / n
    var = math.fsum((gq - mean) ** 2) / (n - 1)
    value = mean ** (1.0 / q)
    assert est.value == pytest.approx(value, rel=1e-14)
    two_pass = math.sqrt(var / n) * value / (q * mean)
    assert est.stderr == pytest.approx(two_pass, rel=1e-12, abs=0)


# --- Monte Carlo passes in coordinate spaces: column blocks, held buffers


def _one_product_per_chunk(space, xs, draw, count, q):
    """A Monte Carlo pass in a coordinate space as it ran before column
    blocks: each chunk of _PATTERN_CHUNK columns drawn whole, as a fresh
    panel, and evaluated by one product."""
    matrix = np.column_stack(xs)
    moments = PowerMoments([q], mc=True)
    for lo in range(0, count, spaces._PATTERN_CHUNK):
        c = np.asarray(draw(lo, min(spaces._PATTERN_CHUNK, count - lo)), dtype=np.complex128)
        moments.add(coordinate_norms(space, (matrix @ c)[None], axis=1).T.reshape(-1))
    return moments.estimates()[0]


def _monte_carlo_call(kind, space, xs, q, cfg):
    """(the library's Estimate, the one-product-per-chunk rule's) for one of
    the four Monte Carlo averages of a coordinate space."""
    m = len(xs)
    if kind == "hp_norm":
        D = DirichletPolynomial(space, dict(zip(range(2, m + 2), xs)))
        lifted, exps, _ = lift_arrays(D)
        draw = lambda lo, n: torus_characters(exps, cfg.seed, STREAM_TORUS, lo, n).T  # noqa: E731
        return hp_norm(D, q, cfg, method="mc"), _one_product_per_chunk(space, lifted, draw, cfg.samples, q)
    if kind == "steinhaus":
        est = steinhaus_average(xs, space, q, cfg)
        draw = lambda lo, n: steinhaus_samples(cfg.seed, STREAM_STEINHAUS, n, m, start=lo).T  # noqa: E731
    elif kind == "gaussian":
        est = gaussian_average(xs, space, q, cfg)
        draw = lambda lo, n: gaussian_samples(cfg.seed, STREAM_GAUSSIAN, n, m, start=lo).T  # noqa: E731
    else:
        assert m > cfg.exact_cutoff  # sampled signs
        est = rademacher_average(xs, space, q, cfg)
        draw = lambda lo, n: sign_samples(cfg.seed, STREAM_SIGNS, n, m, start=lo).T  # noqa: E731
    return est, _one_product_per_chunk(space, xs, draw, cfg.samples, q)


MONTE_CARLO_KINDS = ["hp_norm", "steinhaus", "gaussian", "rademacher"]


@st.composite
def _monte_carlo_cases(draw):
    kind = draw(st.sampled_from(MONTE_CARLO_KINDS))
    d = draw(st.integers(1, 16))  # a product taller than the panel sets the blocks
    spaces_of_d = [HilbertSpace(d), SupSpace(d), SequenceSpace(1.0, d), SequenceSpace(3.0, d)]
    space = draw(st.sampled_from(spaces_of_d))
    m = draw(st.integers(2, 12))
    q = draw(st.sampled_from([1.0, 3.0]))
    budget = draw(st.sampled_from([8, 64, 100, 256]))  # panel entries per block, patched small
    width = max(8, budget // max(d, m) // 8 * 8)
    samples = draw(st.sampled_from([1, 7, 8, 9, width - 1, width + 1, 8191, 8193, 20_000]))
    seed = draw(st.integers(0, 2**31))
    return kind, space, m, q, budget, samples, seed


@settings(max_examples=60, deadline=None)
@given(_monte_carlo_cases())
def test_blocked_monte_carlo_passes_equal_one_product_per_chunk_bitwise(case):
    kind, space, m, q, budget, samples, seed = case
    rng = np.random.default_rng(seed)
    xs = _vectors(rng, space.d, m)
    cfg = SamplerConfig(seed=seed, samples=max(samples, 1), exact_cutoff=1)
    with mock.patch.object(spaces, "_PANEL_BLOCK", budget):
        est, expected = _monte_carlo_call(kind, space, xs, q, cfg)
    assert (est.mode, est.samples_used) == ("mc", cfg.samples)
    assert est.value.hex() == expected.value.hex()
    assert est.stderr.hex() == expected.stderr.hex()


def _workload_calls(seed):
    """The four Monte Carlo averages on 24 vectors in SupSpace(8), 20,000
    samples, as the mc_norms benchmark runs them."""
    rng = np.random.default_rng(seed)
    space = SupSpace(8)
    xs = _vectors(rng, 8, 24)
    cfg = SamplerConfig(seed=seed, samples=20_000)  # 24 signs: sampled
    D = DirichletPolynomial(space, dict(zip(range(2, 26), xs)))
    return [
        lambda: hp_norm(D, 3.0, cfg, method="mc"),
        lambda: steinhaus_average(xs, space, 1.0, cfg),
        lambda: gaussian_average(xs, space, 3.0, cfg),
        lambda: rademacher_average(xs, space, 1.0, cfg),
    ]


def test_warm_monte_carlo_passes_allocate_less_than_a_mib():
    # Each chunk's panel, words and products were fresh arrays of several
    # MiB, whose pages faulted afresh in every chunk; the thread's workspace
    # now holds block-sized buffers across chunks and calls.
    calls = _workload_calls(61)
    for call in calls:
        call()
    for call in calls:
        tracemalloc.start()
        try:
            est = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.mode == "mc"
        assert peak <= 1 << 20


def test_threads_draw_into_their_own_workspaces(monkeypatch):
    monkeypatch.setattr(spaces, "_PANEL_BLOCK", 1 << 10)  # many blocks: many switches between threads
    seeds = [71, 72, 73, 74]
    serial = [[call() for call in _workload_calls(seed)] for seed in seeds]
    results = [None] * len(seeds)

    def run(i):
        results[i] = [call() for call in _workload_calls(seeds[i])]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(seeds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 120
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial
