"""hprad_norm's grid route: one sign pattern per coset of the patterns that
grid rotations and negation carry into each other, the work rule that picks
the route, and ratios whose plain norm comes from the same pass."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_ruc import (
    DirichletPolynomial,
    DomainError,
    FunctionLr,
    GridPolicy,
    SamplerConfig,
    SearchConfig,
    SequenceSpace,
    SupSpace,
    TrigPolynomial,
    constants,
    hp_norm,
    hprad_norm,
    randomized,
    ruc_constant_search,
    ruc_ratio,
    rud_ratio,
    sampling,
)
from dirichlet_ruc.dirichlet import lift_arrays
from dirichlet_ruc.sampling import _grid_columns, _grid_sizes
from dirichlet_ruc.randomized import _grid_cosets, _grid_hprad

SMOOTH = [n for n in range(1, 41) if n // math.gcd(n, 2**5 * 3**3 * 5**2) == 1]  # 2, 3, 5 only


def _family(rng, d, m):
    return [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(m)]


def _column_norms(space, v):
    if isinstance(space, SupSpace):
        return np.abs(v).max(axis=0)
    return (np.abs(v) ** space.r).sum(axis=0) ** (1.0 / space.r)


def _pattern_means(D, p, sizes):
    """Per sign pattern (bit n set: eps_n = -1), (mean over the tensor grid of
    `sizes` of || sum_n eps_n x_n z^E[n] ||^p)^(1/p), with the characters
    from exact integer angles."""
    xs, exps, _ = lift_arrays(D)
    used = exps[:, exps.any(axis=0)]
    turn = math.lcm(*sizes)
    axes = np.meshgrid(*[np.arange(g) * (turn // g) for g in sizes], indexing="ij")
    points = np.stack([a.reshape(-1) for a in axes], axis=1)  # (points, V) in 1/turn
    chars = np.exp(2j * np.pi * ((points @ used.T) % turn) / turn)  # (points, m)
    X = np.column_stack(xs)
    m = len(xs)
    out = []
    for b in range(1 << m):
        eps = np.array([-1.0 if b >> n & 1 else 1.0 for n in range(m)])
        g = _column_norms(D.space, X @ (eps[:, None] * chars.T))
        out.append(float(np.mean(g**p)) ** (1.0 / p))
    return np.array(out)


def _reduced(D, p, sizes, halves):
    """(hprad value, plain norm) of the coset-reduced average on the grid of
    `sizes`, with the cosets of the rotations of the grid of `halves`."""
    xs, exps, _ = lift_arrays(D)
    used = exps[:, exps.any(axis=0)]
    route = (used, sizes, sizes, _grid_cosets(used, halves))
    numerator, denominator, _ = _grid_hprad(D.space, xs, route, p, _grid_columns(used, sizes))
    return numerator.value, denominator.value


@st.composite
def grid_supports(draw):
    m = draw(st.integers(2, 8))
    ns = draw(st.lists(st.sampled_from(SMOOTH), min_size=m, max_size=m, unique=True))
    space = draw(st.sampled_from([SupSpace(3), SequenceSpace(1.0, 2), SequenceSpace(3.0, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    return DirichletPolynomial(space, dict(zip(ns, _family(rng, space.d, m))))


@settings(max_examples=30, deadline=None)
@given(D=grid_supports(), p=st.sampled_from([1.0, 3.0]))
def test_coset_reduced_grid_averages_equal_full_enumeration(D, p):
    _, exps, _ = lift_arrays(D)
    _, fine, half = _grid_sizes(exps, GridPolicy())
    assert len(fine) <= 3
    for sizes in (fine, half):
        full = _pattern_means(D, p, sizes)
        value, plain = _reduced(D, p, sizes, half)
        assert value == pytest.approx(float(full.mean()), rel=1e-12, abs=0)
        assert plain == pytest.approx(float(full[0]), rel=1e-12, abs=0)


def test_function_space_grid_route_equals_mean_of_pattern_norms():
    # L_1 of the circle: the coset average equals the mean over all 8 sign
    # patterns of hp_norm on the same grid, each with its inner half grid.
    space = FunctionLr(1.0, 1)
    terms = {2: {(1,): 1, (2,): 0.5j}, 3: {(0,): 1, (-1,): 0.3}, 6: {(1,): -0.7, (0,): 0.2j}}
    D = DirichletPolynomial(space, {n: TrigPolynomial(c, 1) for n, c in terms.items()})
    cfg = SamplerConfig(seed=1, samples=2000)
    est = hprad_norm(D, 1.0, cfg)
    assert est.mode == "quadrature"
    values, errors = [], []
    for b in range(8):
        flipped = {n: (-1 if b >> k & 1 else 1) * x for k, (n, x) in enumerate(D.terms.items())}
        norm = hp_norm(DirichletPolynomial(space, flipped), 1.0, cfg, method="quadrature")
        values.append(norm.value)
        errors.append(norm.quad_error)
    assert est.value == pytest.approx(float(np.mean(values)), rel=1e-12)
    assert est.quad_error <= max(errors) + 1e-12


def test_rotations_off_the_half_grid_are_not_merged():
    # 24 = 2^3 3 and 54 = 2 3^3: flipping the sign of one of them alone takes
    # a rotation by 1/16 of a turn, on the 16 x 16 grid but not its 8 x 8 half.
    rng = np.random.default_rng(3)
    D = DirichletPolynomial(SupSpace(3), dict(zip([1, 24, 54], _family(rng, 3, 3))))
    _, exps, _ = lift_arrays(D)
    used, fine, half = _grid_sizes(exps, GridPolicy())
    assert (fine, half) == ([16, 16], [8, 8])
    assert _grid_cosets(used, fine).shape == (3, 1)
    assert _grid_cosets(used, half).shape == (3, 2)
    on_fine = _pattern_means(D, 1.0, fine)
    on_half = _pattern_means(D, 1.0, half)
    assert np.ptp(on_fine) <= 1e-12 * on_fine[0]
    distinct = np.unique(np.round(on_half / on_half[0], 9))
    assert len(distinct) == 2
    # hprad_norm reduces with the half grid's cosets, so both grids stay exact.
    assert hprad_norm(D, 1.0, SamplerConfig()).value == pytest.approx(on_fine.mean(), rel=1e-12)


def _trig_family(rng, k, m):
    keys = [tuple(int(e) for e in rng.integers(-2, 3, size=k)) for _ in range(2)]
    return [TrigPolynomial({key: complex(*rng.standard_normal(2)) for key in keys}, k) for _ in range(m)]


@pytest.mark.parametrize("space", [SupSpace(3), FunctionLr(1.0, 1), FunctionLr(3.0, 1)], ids=repr)
@pytest.mark.parametrize("p", [1.0, 3.0])
@pytest.mark.parametrize(
    "support", [[1, 2, 3], [1, 3], [2, 3, 5]], ids=["1,2,3", "1,3", "primes"]
)
def test_single_coset_ratio_is_exactly_one(support, p, space):
    # In a function space R is 1 on the half inner grid too: its gap is 0.
    rng = np.random.default_rng(len(support))
    if isinstance(space, SupSpace):
        xs = _family(rng, 3, len(support))
    else:
        xs = _trig_family(rng, space.k, len(support))
    D = DirichletPolynomial(space, dict(zip(support, xs)))
    _, exps, _ = lift_arrays(D)
    used, _, half = _grid_sizes(exps, GridPolicy())
    assert _grid_cosets(used, half).shape[1] == 1
    report = ruc_ratio(D, p, SamplerConfig(seed=1, samples=4000))
    assert (report.ratio, report.quad_error) == (1.0, 0.0)
    assert report.numerator == report.denominator
    assert report.numerator.mode == "quadrature" and report.numerator.stderr == 0.0
    assert rud_ratio(D, p, SamplerConfig(seed=1, samples=4000)).quad_error == 0.0


def test_old_search_winner_is_a_single_coset():
    # The ruc_search_summing golden once reported 1.0034 +- 0.0020 on these
    # coefficients: support {1, 3}, whose four sign patterns form one coset.
    a = [complex(0.8775825618903728, -0.479425538604203), 0, complex(0.8775825618903728, 0.479425538604203)]
    family = [np.array([1, 0, 0]), np.array([1, 1, 0]), np.array([1, 1, 1])]
    terms = {n + 1: a[n] * family[n] for n in range(3) if a[n] != 0}
    D = DirichletPolynomial(SupSpace(3), terms)
    assert sorted(D.support()) == [1, 3]
    assert ruc_ratio(D, 2.0, SamplerConfig(seed=7, samples=400)).ratio == 1.0


def _summing3():
    rng = np.random.default_rng(5)
    return DirichletPolynomial(SupSpace(3), dict(zip([1, 2, 3], _family(rng, 3, 3))))


def test_work_rule_boundary():
    # Grids of 16 x 16 and 8 x 8 points, one coset: 320 columns against
    # samples x 4 evaluated patterns (m = 3 mirrors half of the 8).
    D = _summing3()
    at = hprad_norm(D, 1.0, SamplerConfig(seed=2, samples=80))
    assert (at.mode, at.samples_used, at.stderr) == ("quadrature", 256, 0.0)
    below = hprad_norm(D, 1.0, SamplerConfig(seed=2, samples=79))
    assert (below.mode, below.samples_used) == ("mc", 79)
    # A grid past max_points keeps the Monte Carlo route however cheap.
    capped = SamplerConfig(seed=2, samples=4000, grid_policy=GridPolicy(max_points=255))
    assert hprad_norm(D, 1.0, capped).mode == "mc"
    # So does a sampled outer average.
    sampled = SamplerConfig(seed=2, samples=4000, exact_cutoff=2)
    assert hprad_norm(D, 1.0, sampled).mode == "mc"


def test_stacked_family_must_fit_the_chunk_budget(monkeypatch):
    # One coset x 3 coordinates x 3 terms: 9 stacked entries.
    D = _summing3()
    cfg = SamplerConfig(seed=2, samples=4000)
    monkeypatch.setattr(randomized, "_CHUNK_BUDGET", 9)
    assert hprad_norm(D, 1.0, cfg).mode == "quadrature"
    monkeypatch.setattr(randomized, "_CHUNK_BUDGET", 8)
    assert hprad_norm(D, 1.0, cfg).mode == "mc"


def test_exact_signs_shaped_support_keeps_monte_carlo():
    # Ten terms on four primes: the 16^4 grid fits max_points, but 32 or more
    # cosets of 69632 grid points outnumber 1000 samples x 512 patterns.
    rng = np.random.default_rng(8)
    support = [2, 3, 4, 5, 6, 7, 8, 9, 10, 12]
    D = DirichletPolynomial(SupSpace(8), dict(zip(support, _family(rng, 8, 10))))
    _, exps, _ = lift_arrays(D)
    used, fine, half = _grid_sizes(exps, GridPolicy())
    assert math.prod(fine) <= GridPolicy().max_points
    assert _grid_cosets(used, half).shape[1] >= 32
    est = hprad_norm(D, 1.0, SamplerConfig(seed=4, samples=1000))
    assert est.mode == "mc" and est.stderr > 0 and est.samples_used == 1000


def _counting_character_values(monkeypatch):
    calls = []
    original = sampling.character_values

    def counted(exponents, fractions, **kwargs):
        calls.append(fractions.shape[0])
        return original(exponents, fractions, **kwargs)

    monkeypatch.setattr(sampling, "character_values", counted)
    return calls


SUMMING4 = [np.concatenate([np.ones(k + 1), np.zeros(3 - k)]) for k in range(4)]
# From all ones, 3 sweeps of step 1/8 never zero a coefficient: all 49
# evaluations have the support {1, 2, 3, 4}, on a 16 x 16 grid.
STEP_CFG = SearchConfig(restarts=1, iterations=3, initial_step=0.125)


def test_search_builds_each_grid_once(monkeypatch):
    calls = _counting_character_values(monkeypatch)
    result = ruc_constant_search(SupSpace(4), SUMMING4, 1, STEP_CFG, SamplerConfig(seed=9, samples=700))
    assert calls == [256]  # the grid once; the half grid is read from its pass
    assert result.report.numerator.mode == "quadrature"


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_grid_search_identical_with_panel_memo_bypassed(monkeypatch, p):
    family = [np.array(v) for v in ([1, 2j, 0], [0.5, -1, 1j], [1, 1, 1], [2, 0, -1j])]
    cfg = SamplerConfig(seed=17, samples=900)
    scfg = SearchConfig(restarts=2, iterations=3)
    shared = ruc_constant_search(SupSpace(3), family, p, scfg, cfg)
    assert shared.report.quad_error is not None  # the grid route ran
    calls = _counting_character_values(monkeypatch)
    monkeypatch.setattr(constants, "_CHUNK_BUDGET", 0)  # no panel is held: every chunk drawn afresh
    fresh = ruc_constant_search(SupSpace(3), family, p, scfg, cfg)
    assert len(calls) > 20
    assert shared.coefficients.tobytes() == fresh.coefficients.tobytes()
    assert shared.report == fresh.report


def test_grid_ratio_agrees_with_monte_carlo_ratio():
    # {1, ..., 6}: 64 patterns in 4 cosets on a 16^3 grid.
    rng = np.random.default_rng(11)
    D = DirichletPolynomial(SupSpace(4), dict(zip(range(1, 7), _family(rng, 4, 6))))
    _, exps, _ = lift_arrays(D)
    used, _, half = _grid_sizes(exps, GridPolicy())
    assert _grid_cosets(used, half).shape[1] == 4
    grid = ruc_ratio(D, 1.0, SamplerConfig(seed=3, samples=4000))
    mc = ruc_ratio(D, 1.0, SamplerConfig(seed=3, samples=4000, grid_policy=GridPolicy(max_points=0)))
    assert grid.numerator.mode == "quadrature" and mc.numerator.mode == "mc"
    relative = math.hypot(
        mc.numerator.stderr / mc.numerator.value, mc.denominator.stderr / mc.denominator.value
    )
    slack = 4 * mc.ratio * relative + 2 * grid.quad_error
    assert abs(grid.ratio - mc.ratio) <= slack


# {1, 2, 3, 4} uses one variable with exponents up to 2 and one with exponent 1.
SMALL_GRID_FAMILY = {1: [1, 0, 0], 2: [1, 1, 0], 3: [1, 1, 1], 4: [0.5, -1, 1j]}


@pytest.mark.parametrize(
    "factor, min_size, max_points", [(1, 1, 1 << 21), (1, 2, 1 << 21), (0, 16, 1 << 21), (4, 16, -1)]
)
def test_grid_policy_refuses_grids_that_crash_or_report_no_error(factor, min_size, max_points):
    # min_size 1 gave a 1-point grid, whose fixed-point step overflowed; 2 gave
    # a 2-point grid whose 1-point half grid reported a quad_error of 0.
    with pytest.raises(DomainError):
        GridPolicy(factor=factor, min_size=min_size, max_points=max_points)


def test_smallest_grid_policy_reports_a_quadrature_error():
    D = DirichletPolynomial(SupSpace(3), SMALL_GRID_FAMILY)
    policy = GridPolicy(factor=1, min_size=3)
    assert _grid_sizes(lift_arrays(D)[1], policy)[1:] == ([4, 4], [2, 2])
    assert GridPolicy(max_points=0).max_points == 0  # refusing every grid stays valid
    cfg = SamplerConfig(seed=3, samples=4000, grid_policy=policy)
    for p in (1.0, 3.0):
        ratio = ruc_ratio(D, p, cfg)
        for est in (hprad_norm(D, p, cfg), hp_norm(D, p, cfg, method="quadrature"), ratio.numerator):
            assert est.mode == "quadrature" and est.samples_used == 16 and est.quad_error > 0, p
        assert ratio.quad_error > 0
