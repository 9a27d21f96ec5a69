"""The power-moment engine: one value rule and one delta-method stderr behind
every norm average, checked against numpy on the estimators' own draws."""

import math
import tracemalloc

import numpy as np
import pytest

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
from dirichlet_ruc.spaces import CombinationEvaluator, closed_form, norm as space_norm

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
    assert single.estimates() == [Estimate(3.0, 0.0, 1, "mc", 0.0)]


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
