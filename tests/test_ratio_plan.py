"""The ratio plan behind ruc_ratio and ruc_constant_search: built once per
support, it gives every family on that support the report a fresh ruc_ratio
would, and the grid pass reads its half grid out of the full grid's pass."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_ruc import (
    DirichletPolynomial,
    FunctionLr,
    GridPolicy,
    HilbertSpace,
    SamplerConfig,
    SearchConfig,
    SequenceSpace,
    SupSpace,
    TrigPolynomial,
    constants,
    randomized,
    ruc_constant_search,
    hp_norm,
    hprad_norm,
    ruc_ratio,
    sampling,
    spaces,
)
from dirichlet_ruc.constants import _ratio_report, _sup_normalize, describe_instance
from dirichlet_ruc.dirichlet import lift_arrays
from dirichlet_ruc.sampling import _grid_columns, _grid_sizes
from dirichlet_ruc.randomized import _HpradPlan, _grid_cosets
from dirichlet_ruc.spaces import CombinationEvaluator, combination_moments, grid_moments, scale_element

from conftest import HALF_INNER_GRID

SMOOTH = [n for n in range(1, 41) if n // math.gcd(n, 2**5 * 3**3 * 5**2) == 1]  # 2, 3, 5 only
NO_GRID = GridPolicy(max_points=0)
SPACES = [SupSpace(3), SequenceSpace(1.0, 2), SequenceSpace(3.0, 3), FunctionLr(1.0, 1), FunctionLr(3.0, 1)]


def _element(space, rng):
    if isinstance(space, FunctionLr):
        coeffs = {(int(k),): complex(*rng.standard_normal(2)) for k in rng.integers(-3, 4, size=3)}
        return TrigPolynomial(coeffs, 1)
    return rng.standard_normal(space.d) + 1j * rng.standard_normal(space.d)


@st.composite
def two_families(draw):
    """A space, a support of 2 to 5 smooth frequencies, and two families on it."""
    space = draw(st.sampled_from(SPACES))
    m = draw(st.integers(2, 5))
    ns = draw(st.lists(st.sampled_from(SMOOTH), min_size=m, max_size=m, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    elements = [_element(space, rng) for _ in ns]
    polys = []
    for _ in range(2):
        a = rng.uniform(0.1, 1, m) * np.exp(2j * np.pi * rng.uniform(size=m))
        polys.append(DirichletPolynomial(space, {n: scale_element(x, c) for n, x, c in zip(ns, elements, a)}))
    return polys


@pytest.mark.parametrize("policy", [GridPolicy(), NO_GRID], ids=["grid", "mc"])
@settings(max_examples=12, deadline=None)
@given(polys=two_families(), p=st.sampled_from([1.0, 3.0]))
def test_plan_evaluation_equals_a_fresh_ruc_ratio(policy, polys, p):
    first, second = polys
    cfg = SamplerConfig(seed=3, samples=300, grid_policy=policy)
    plan = _HpradPlan(first, p, cfg)
    xs, _, _ = lift_arrays(second)
    report = _ratio_report(*plan.evaluate(xs, plain=True), describe_instance(first, p))
    assert report == ruc_ratio(second, p, cfg)
    if policy == NO_GRID:
        assert report.numerator.mode == "mc"


def _previous_search(space, vectors, p, search_cfg, cfg):
    """ruc_constant_search as it ran with one ruc_ratio per candidate."""
    elements = [np.asarray(x, dtype=np.complex128) for x in vectors]
    n = len(elements)

    def evaluate(a):
        a = _sup_normalize(a)
        D = DirichletPolynomial(
            space, {i + 1: scale_element(x, a[i]) for i, x in enumerate(elements) if a[i] != 0}
        )
        return None if D.is_zero() else ruc_ratio(D, p, cfg)

    def restart_point(index):
        if index == 0:
            return np.ones(n, dtype=np.complex128)
        bits = sampling.uniform_bits(cfg.seed, sampling.STREAM_SEARCH, 2, n, start=2 * index * n)
        mags = 0.2 + 0.8 * bits[0].astype(np.float64) * 2.0**-64
        phases = bits[1].astype(np.float64) * (2 * math.pi * 2.0**-64)
        return mags * np.exp(1j * phases)

    best_a = best = None
    for restart in range(search_cfg.restarts):
        a = _sup_normalize(restart_point(restart))
        incumbent = evaluate(a)
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
                    report = evaluate(candidate)
                    if report is not None and report.ratio > incumbent.ratio:
                        a = _sup_normalize(candidate)
                        incumbent = report
                        improved = True
            if not improved:
                step *= search_cfg.step_decay
                if step < search_cfg.min_step:
                    break
        if best is None or incumbent.ratio > best.ratio:
            best, best_a = incumbent, a
    return best_a, best


FAMILY = [np.array(v) for v in ([1, 2j, 0, 1], [0.5, -1, 1j, 0], [1, 1, 1, 1], [2, 0, -1j, 1])]
# From all ones, 3 sweeps of step 1/8 never zero a coefficient: one support.
ONE_SUPPORT = SearchConfig(restarts=1, iterations=3, initial_step=0.125)
SEARCHES = {
    "grid": (SamplerConfig(seed=9, samples=700), ONE_SUPPORT),
    "mc": (SamplerConfig(seed=9, samples=700, grid_policy=NO_GRID), ONE_SUPPORT),
    # A magnitude step of 1/2 takes a unit coefficient to 1/2, then to 0.
    "shrinking": (SamplerConfig(seed=9, samples=700), SearchConfig(restarts=2, iterations=3, initial_step=0.5)),
}


def _count_plans(monkeypatch):
    built = []
    original = constants._HpradPlan

    def counted(D, p, cfg):
        built.append(tuple(D.support()))
        return original(D, p, cfg)

    monkeypatch.setattr(constants, "_HpradPlan", counted)
    return built


@pytest.mark.parametrize("case", list(SEARCHES))
def test_search_equals_one_ruc_ratio_per_candidate(monkeypatch, case):
    cfg, search_cfg = SEARCHES[case]
    built = _count_plans(monkeypatch)
    result = ruc_constant_search(SupSpace(4), FAMILY, 1.0, search_cfg, cfg)
    built = built.copy()  # the search's plans, not those of the ruc_ratio calls below
    a, report = _previous_search(SupSpace(4), FAMILY, 1.0, search_cfg, cfg)
    assert result.coefficients.tobytes() == a.tobytes()
    assert result.report == report
    assert len(built) == len(set(built))  # one plan per support
    assert (len(built) > 1) == (case == "shrinking")
    assert report.numerator.mode == ("mc" if case == "mc" else "quadrature")


@pytest.mark.parametrize("case", ["grid", "shrinking"])
def test_search_routes_each_support_once(monkeypatch, case):
    cfg, search_cfg = SEARCHES[case]
    built = _count_plans(monkeypatch)
    cosets = []
    original = randomized._grid_cosets

    def counted(exponents, halves):
        cosets.append(exponents.tobytes())
        return original(exponents, halves)

    monkeypatch.setattr(randomized, "_grid_cosets", counted)
    ruc_constant_search(SupSpace(4), FAMILY, 1.0, search_cfg, cfg)
    assert len(cosets) == len(set(cosets)) == len(built)


def _half_grid_cases():
    rng = np.random.default_rng(21)
    for space in [SupSpace(3), SequenceSpace(3.0, 3), FunctionLr(1.0, 1), FunctionLr(3.0, 1)]:
        for support in ([1, 2, 3], [2, 3, 5, 6], [1, 2, 4, 8, 9], [3, 5, 15, 25, 27, 30]):
            xs = [_element(space, rng) for _ in support]
            yield pytest.param(space, support, xs, id=f"{space}-{len(support)}")


@pytest.mark.parametrize("space, support, xs", list(_half_grid_cases()))
@pytest.mark.parametrize("p", [1.0, 3.0])
@pytest.mark.parametrize("cosets", [False, True], ids=["plain", "cosets"])
def test_half_grid_read_from_the_fine_pass_equals_its_own_pass(space, support, xs, p, cosets):
    D = DirichletPolynomial(space, dict(zip(support, xs)))
    xs, exps, _ = lift_arrays(D)
    used, fine, half = _grid_sizes(exps, GridPolicy())
    patterns = _grid_cosets(used, half) if cosets else None
    points = math.prod(fine)
    grid, rough, _ = grid_moments(space, xs, _grid_columns(used, fine), fine, half, [p], patterns=patterns)
    assert grid == combination_moments(space, xs, _grid_columns(used, fine), points, [p], patterns=patterns)
    alone = combination_moments(space, xs, _grid_columns(used, half), math.prod(half), [p], patterns=patterns)
    assert [e.value for e in rough] == [e.value for e in alone]


def _denominator_cases():
    for space in (
        SupSpace(3), SequenceSpace(1.0, 3), SequenceSpace(3.0, 2), HilbertSpace(3), FunctionLr(1.0, 1)
    ):
        for signs in ("enumerated", "sampled"):
            yield pytest.param(space, signs, id=f"{space}-{signs}")


@pytest.mark.parametrize("p", [1.0, 3.0])
@pytest.mark.parametrize("space, signs", list(_denominator_cases()))
def test_monte_carlo_denominator_is_hp_norm_from_the_same_pass(monkeypatch, space, signs, p):
    rng = np.random.default_rng(31)
    D = DirichletPolynomial(space, {n: _element(space, rng) for n in [2, 3, 5, 6, 10]})
    coordinate = not isinstance(space, FunctionLr)
    # Past one chunk of hp_norm's own pass: 8192 samples in a coordinate
    # space, 2^15 grid values (512 samples of 64 points) in a function space.
    monkeypatch.setattr(spaces, "_CHUNK_BUDGET", 1 << 15)
    monkeypatch.setattr(randomized, "_CHUNK_BUDGET", 1 << 15)
    cfg = SamplerConfig(
        seed=5, samples=9000 if coordinate else 1300, grid_policy=NO_GRID,
        exact_cutoff=20 if signs == "enumerated" else 3,
    )
    calls = _counting_character_values(monkeypatch)
    report = ruc_ratio(D, p, cfg)
    assert report.numerator.mode == report.denominator.mode == "mc"
    assert len(calls) > 1 or not coordinate  # a lone ratio draws its panel a chunk at a time
    plain = hp_norm(D, p, cfg, method="mc")
    assert report.denominator.samples_used == plain.samples_used == cfg.samples
    assert report.denominator.value == pytest.approx(plain.value, rel=4e-16, abs=0)
    assert report.denominator.stderr == pytest.approx(plain.stderr, rel=1e-12, abs=0)
    assert report.denominator.quad_error == pytest.approx(plain.quad_error, rel=1e-9, abs=1e-15)
    if coordinate:
        assert report.quad_error == 0.0
    else:  # the gap to the ratio on the half inner grid, from the same pass

        def half_grid(space, xs):
            return CombinationEvaluator(space, xs, HALF_INNER_GRID)

        monkeypatch.setattr(randomized, "CombinationEvaluator", half_grid)
        rough = ruc_ratio(D, p, cfg)
        assert report.quad_error == pytest.approx(abs(report.ratio - rough.ratio), rel=0, abs=1e-13)
        assert report.quad_error > 0


@pytest.mark.parametrize("space", [SupSpace(3), SequenceSpace(3.0, 3), FunctionLr(1.0, 1)])
def test_sampled_signs_at_p2_keep_the_quadrature_denominator(monkeypatch, space):
    # Sampled signs refuse the grid route, but at p = 2 on 3 variables
    # hp_norm's rule takes its grid: that denominator is kept, far more
    # accurate than one pattern's share of the Monte Carlo panel.
    rng = np.random.default_rng(41)
    family = [_element(space, rng) for _ in range(3)]
    D = DirichletPolynomial(space, dict(zip([2, 3, 5], family)))
    cfg = SamplerConfig(seed=7, samples=400, exact_cutoff=2)
    report = ruc_ratio(D, 2.0, cfg)
    assert report.denominator == hp_norm(D, 2.0, cfg)
    assert report.denominator.mode == "quadrature" and report.quad_error is None
    assert report.numerator == hprad_norm(D, 2.0, cfg)
    assert report.numerator.mode == "mc"
    search_cfg = SearchConfig(restarts=1, iterations=2)
    held = []
    hold = _HpradPlan.hold

    def counted(plan):
        held.append(plan.entries)
        hold(plan)

    monkeypatch.setattr(_HpradPlan, "hold", counted)
    kept = ruc_constant_search(space, family, 2.0, search_cfg, cfg)
    assert held and held[0] > cfg.samples * 3  # the torus panel and the grid
    monkeypatch.setattr(constants, "_CHUNK_BUDGET", 0)
    drawn = ruc_constant_search(space, family, 2.0, search_cfg, cfg)
    assert drawn.coefficients.tobytes() == kept.coefficients.tobytes()
    assert drawn.report == kept.report


def _counting_character_values(monkeypatch):
    calls = []
    original = sampling.character_values

    def counted(exponents, fractions, **kwargs):
        calls.append((fractions.shape[0], exponents.tobytes()))
        return original(exponents, fractions, **kwargs)

    monkeypatch.setattr(sampling, "character_values", counted)
    return calls


def test_search_holds_panels_within_the_chunk_budget(monkeypatch):
    # The "shrinking" search meets several supports; with room for one
    # 700-row panel of 4 terms, only the first support's plan holds it.
    cfg, search_cfg = SEARCHES["shrinking"]
    cfg = replace(cfg, grid_policy=NO_GRID)
    calls = _counting_character_values(monkeypatch)
    unbounded = ruc_constant_search(SupSpace(4), FAMILY, 1.0, search_cfg, cfg)
    supports = len(set(calls))
    assert len(calls) == supports > 1  # every plan holds its panel: one draw per support
    held = []
    hold = randomized._HpradPlan.hold

    def counted(plan):
        held.append(plan.entries)
        hold(plan)

    monkeypatch.setattr(randomized._HpradPlan, "hold", counted)
    monkeypatch.setattr(constants, "_CHUNK_BUDGET", 700 * 4 + 699)
    calls.clear()
    bounded = ruc_constant_search(SupSpace(4), FAMILY, 1.0, search_cfg, cfg)
    assert held == [700 * 4]  # the first support's, all four terms
    assert len(set(calls)) == supports and calls.count(calls[0]) == 1
    assert len(calls) > supports  # the other supports draw theirs in every evaluation
    assert bounded.coefficients.tobytes() == unbounded.coefficients.tobytes()
    assert bounded.report == unbounded.report
