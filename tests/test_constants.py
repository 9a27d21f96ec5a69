import math
from dataclasses import replace

import numpy as np
import pytest

from dirichlet_ruc import (
    DirichletPolynomial,
    DomainError,
    Estimate,
    FunctionLr,
    GridPolicy,
    HilbertSpace,
    SamplerConfig,
    SearchConfig,
    SequenceSpace,
    SupSpace,
    TrigPolynomial,
    UndefinedRatioError,
    cotype_constant_witness,
    dirichlet_kernel_l1,
    experiment_lacunary_power,
    experiment_prime_ap,
    experiment_summing_basis,
    hp_norm,
    hprad_norm,
    primes_up_to,
    rademacher_average,
    ruc_constant_search,
    ruc_ratio,
    rud_ratio,
    scalar_polynomial,
    summing_combination,
    type_constant_witness,
)
from dirichlet_ruc import norm as space_norm
from dirichlet_ruc import constants, randomized, sampling

CFG = SamplerConfig(seed=13, samples=2000)
# Refuses every quadrature grid, so hprad_norm takes its Monte Carlo route.
NO_GRID = GridPolicy(max_points=0)


def summing_family(m):
    return [np.concatenate([np.ones(k + 1), np.zeros(m - k - 1)]) for k in range(m)]


def test_ruc_ratio_hilbert_is_one():
    D = DirichletPolynomial(HilbertSpace(3), {2: [1, 0, 1], 5: [0, 2, 0]})
    rep = ruc_ratio(D, 2, CFG)
    assert rep.ratio == 1.0
    assert rep.numerator.mode == "exact" and rep.denominator.mode == "exact"
    assert rud_ratio(D, 2, CFG).ratio == 1.0


def test_ruc_ratio_scalar_is_one():
    D = scalar_polynomial({1: 1, 2: -2, 6: 1j})
    assert ruc_ratio(D, 2, CFG).ratio == 1.0


def test_ruc_rud_reciprocal():
    D = DirichletPolynomial(SupSpace(3), {n + 1: x for n, x in enumerate(summing_family(3))})
    a = ruc_ratio(D, 1, CFG)
    b = rud_ratio(D, 1, CFG)
    assert a.ratio * b.ratio == pytest.approx(1.0, abs=1e-15)
    assert a.numerator == b.denominator and a.denominator == b.numerator


def test_ruc_ratio_zero_polynomial():
    with pytest.raises(UndefinedRatioError):
        ruc_ratio(scalar_polynomial({}), 2, CFG)


def test_ruc_ratio_summing_combination():
    element, _ = summing_combination([1, -1, 1])
    D = DirichletPolynomial(SupSpace(3), {n + 1: x for n, x in enumerate(summing_family(3))})
    rep = ruc_ratio(D, 2, CFG)
    slack = 3 * (rep.numerator.uncertainty + rep.denominator.uncertainty)
    assert rep.ratio >= 1 - slack - 0.05


def test_scale_invariance_exact_modes():
    D = DirichletPolynomial(HilbertSpace(2), {2: [1, 0], 3: [0, 1]})
    a = ruc_ratio(D, 2, CFG)
    b = ruc_ratio(D.scaled(2.5 - 0.3j), 2, CFG)
    assert a.ratio == b.ratio and a.numerator.mode == "exact"


def _rotation_cases():
    """The 2.5 - 0.3j case, then a unimodular rotation on every route of the
    denominator: the grid's same pass, the Monte Carlo pass with enumerated
    or sampled signs, and hp_norm's grid under sampled signs (p = 2)."""
    D = DirichletPolynomial(SupSpace(3), {1: [1, 0, 0], 2: [1, 1, 0], 3: [1, 1, 1]})
    yield pytest.param(D, 2.5 - 0.3j, 1.0, CFG, id="sup-2.5-0.3j")
    routes = {
        "grid": SamplerConfig(seed=11, samples=2000),
        "mc-enumerated": SamplerConfig(seed=11, samples=400, grid_policy=NO_GRID),
        "mc-sampled": SamplerConfig(seed=11, samples=400, exact_cutoff=2, grid_policy=NO_GRID),
        "quadrature-denominator": SamplerConfig(seed=11, samples=400, exact_cutoff=2),
    }
    rng = np.random.default_rng(19)
    for space in (SupSpace(3), SequenceSpace(1.0, 3), SequenceSpace(3.0, 2), FunctionLr(1.0, 1)):
        if isinstance(space, FunctionLr):
            xs = [TrigPolynomial({(k,): complex(*rng.standard_normal(2)) for k in (-1, 0, 2)}, 1) for _ in range(4)]
        else:
            xs = [rng.standard_normal(space.d) + 1j * rng.standard_normal(space.d) for _ in range(4)]
        D = DirichletPolynomial(space, dict(zip([2, 3, 5, 6], xs)))
        for p in (1.0, 2.0, 3.0):
            for route, cfg in routes.items():
                yield pytest.param(D, np.exp(0.7j), p, cfg, id=f"{space}-p{p:g}-{route}")


@pytest.mark.parametrize("D, scale, p, cfg", list(_rotation_cases()))
def test_scale_invariance_mc_shared_seed(D, scale, p, cfg):
    a = ruc_ratio(D, p, cfg)
    b = ruc_ratio(D.scaled(scale), p, cfg)
    slack = 3 * (
        a.numerator.uncertainty / a.denominator.value
        + b.numerator.uncertainty / b.denominator.value
    )
    # shared panels leave only float-rounding differences, far below 3 sigma
    assert abs(a.ratio - b.ratio) <= max(slack, 1e-12)
    assert b.ratio == pytest.approx(a.ratio, rel=1e-13, abs=0)


def test_search_hilbert_stays_at_one():
    result = ruc_constant_search(
        HilbertSpace(2),
        [np.array([1, 0]), np.array([0, 1])],
        2,
        SearchConfig(restarts=1, iterations=3),
        CFG,
    )
    assert result.report.ratio == 1.0


def test_search_dominates_all_ones_start():
    family = summing_family(5)
    cfg = SamplerConfig(seed=13, samples=600)
    result = ruc_constant_search(
        SupSpace(5), family, 2, SearchConfig(restarts=2, iterations=6), cfg
    )
    all_ones = ruc_ratio(
        DirichletPolynomial(SupSpace(5), {n + 1: x for n, x in enumerate(family)}), 2, cfg
    )
    assert result.report.ratio >= all_ones.ratio - 1e-12
    assert np.abs(result.coefficients).max() == pytest.approx(1.0)


def test_search_deterministic():
    family = summing_family(3)
    cfg = SamplerConfig(seed=5, samples=300)
    scfg = SearchConfig(restarts=2, iterations=4)
    a = ruc_constant_search(SupSpace(3), family, 2, scfg, cfg)
    b = ruc_constant_search(SupSpace(3), family, 2, scfg, cfg)
    assert a.report == b.report
    assert np.array_equal(a.coefficients, b.coefficients)


def _counting_character_values(monkeypatch):
    calls = []
    original = sampling.character_values

    def counted(exponents, fractions, **kwargs):
        calls.append(fractions.shape[0])
        return original(exponents, fractions, **kwargs)

    monkeypatch.setattr(sampling, "character_values", counted)
    return calls


def test_search_draws_each_support_panel_once(monkeypatch):
    calls = _counting_character_values(monkeypatch)
    family = summing_family(4)
    cfg = SamplerConfig(seed=9, samples=700, grid_policy=NO_GRID)
    # From all ones, 3 sweeps of step 1/8 never zero a coefficient: every one
    # of the 49 evaluations has the same 4-term support, so one panel.
    scfg = SearchConfig(restarts=1, iterations=3, initial_step=0.125)
    ruc_constant_search(SupSpace(4), family, 1, scfg, cfg)
    assert calls == [700]


def test_ruc_ratio_raises_on_a_non_positive_denominator(monkeypatch):
    seen = []
    original = randomized._mc_hprad

    def negative_denominator(*args):
        numerator, denominator, quad_error = original(*args)
        seen.append(denominator.value)
        return numerator, Estimate(value=-1.0), quad_error

    monkeypatch.setattr(randomized, "_mc_hprad", negative_denominator)
    D = DirichletPolynomial(SupSpace(2), {2: [1, 0.5], 3: [0.25, 1]})
    with pytest.raises(UndefinedRatioError):
        ruc_ratio(D, 1, SamplerConfig(seed=13, samples=2000, grid_policy=NO_GRID))
    assert len(seen) == 1 and seen[0] > 0  # the same pass gave the denominator
    with pytest.raises(UndefinedRatioError):
        ruc_ratio(scalar_polynomial({}), 1, CFG)


def _close(scaled: Estimate, unit: Estimate, scale: float) -> bool:
    """scaled is unit times scale to 1e-13 relative; a quad_error, the gap
    between two close values, to 1e-13 of the value."""
    return (
        scaled.mode == unit.mode
        and scaled.value == pytest.approx(unit.value * scale, rel=1e-13)
        and scaled.stderr == pytest.approx(unit.stderr * scale, rel=1e-13)
        and scaled.quad_error == pytest.approx(unit.quad_error * scale, rel=0, abs=1e-13 * scaled.value)
    )


@pytest.mark.parametrize("scale", [1e-120, 1e200])
@pytest.mark.parametrize("policy", [GridPolicy(), NO_GRID], ids=["grid", "mc"])
def test_norms_of_tiny_and_huge_families_scale_with_them(policy, scale):
    # At p = 3 the p-th powers of 1e-120 underflow and those of 1e200
    # overflow: every norm read 0 or inf, the ratios raised
    # UndefinedRatioError or read nan.  Each pass now brings such a family
    # to a largest modulus near 1 and scales its Estimates back.
    unit = {2: [1, 0], 3: [0, 1], 6: [1, 1]}
    cfg = SamplerConfig(seed=1, samples=2000, grid_policy=policy)
    results = {}
    for s in (1.0, scale):
        D = DirichletPolynomial(SupSpace(2), {n: np.array(x) * s for n, x in unit.items()})
        family = [np.array(x) * s for x in unit.values()]
        results[s] = (
            hp_norm(D, 3, cfg),
            hprad_norm(D, 3, cfg),
            rademacher_average(family, SupSpace(2), 3, cfg),
            space_norm(SequenceSpace(3, 2), np.array([s, s])),
            ruc_ratio(D, 3, cfg),
            rud_ratio(D, 3, cfg),
        )
    *estimates, ruc, rud = results[scale]
    *units, unit_ruc, unit_rud = results[1.0]
    assert all(math.isfinite(e.value) and e.value > 0 for e in estimates)
    for scaled, reference in zip(estimates, units):
        assert _close(scaled, reference, scale), (scaled, reference)
    for report, reference in ((ruc, unit_ruc), (rud, unit_rud)):
        assert report.ratio == pytest.approx(reference.ratio, rel=1e-13)
        assert _close(report.numerator, reference.numerator, scale)
        assert _close(report.denominator, reference.denominator, scale)


@pytest.mark.parametrize(
    "r, p, scale",
    # 1e-8 is in range for every power but the Monte Carlo variance's 2p = 20
    [(3.0, 3, 1e-120), (3.0, 3, 1e200), (1.0, 10, 1e-8)],
)
def test_function_space_norms_of_tiny_and_huge_families_scale_with_them(r, p, scale):
    unit = [TrigPolynomial({(0,): 1.0, (1,): 0.5j}, 1), TrigPolynomial({(2,): 1.0, (-1,): -0.25}, 1)]
    space = FunctionLr(r, 1)
    cfg = SamplerConfig(seed=1, samples=400)
    mc = replace(cfg, grid_policy=NO_GRID)  # p != 2: the ratio's denominator is the same pass's
    results = {}
    for s in (1.0, scale):
        family = [s * x for x in unit]
        D = DirichletPolynomial(space, dict(zip([2, 3], family)))
        results[s] = (
            space_norm(space, family[0]),
            rademacher_average(family, space, p, cfg),
            hp_norm(D, p, cfg),
            hprad_norm(D, p, mc),
            ruc_ratio(D, p, cfg),
            ruc_ratio(D, p, mc),
            rud_ratio(D, p, mc),
        )
    *estimates, grid_ruc, ruc, rud = results[scale]
    *units, unit_grid_ruc, unit_ruc, unit_rud = results[1.0]
    for scaled, reference in zip(estimates, units):
        assert _close(scaled, reference, scale), (scaled, reference)
    for report, reference in ((grid_ruc, unit_grid_ruc), (ruc, unit_ruc), (rud, unit_rud)):
        assert report.ratio == pytest.approx(reference.ratio, rel=1e-13)
        # the gap between two close ratios, free of the family's scale
        assert report.quad_error == pytest.approx(reference.quad_error, rel=0, abs=1e-13 * report.ratio)
        assert _close(report.numerator, reference.numerator, scale)
        assert _close(report.denominator, reference.denominator, scale)


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_search_identical_with_panel_memo_bypassed(monkeypatch, p):
    family = [np.array(v) for v in ([1, 2j, 0], [0.5, -1, 1j], [1, 1, 1], [2, 0, -1j])]
    cfg = SamplerConfig(seed=17, samples=900, grid_policy=NO_GRID)
    scfg = SearchConfig(restarts=2, iterations=3)
    shared = ruc_constant_search(SupSpace(3), family, p, scfg, cfg)
    calls = _counting_character_values(monkeypatch)
    monkeypatch.setattr(constants, "_CHUNK_BUDGET", 0)  # no panel is held: every chunk drawn afresh
    fresh = ruc_constant_search(SupSpace(3), family, p, scfg, cfg)
    assert len(calls) > 20
    assert shared.coefficients.tobytes() == fresh.coefficients.tobytes()
    assert shared.report == fresh.report


@pytest.mark.parametrize(
    "field, bad, good",
    [
        ("initial_step", [math.inf, math.nan, 0.0, -0.5], [1e-300, 0.5, 4.0]),
        ("step_decay", [0.0, -0.5, 1.0 + 2**-52, math.inf, math.nan], [1e-300, 0.5, 1.0]),
        ("min_step", [-1e-300, math.inf, -math.inf, math.nan], [0.0, 1e-3, 2.0]),
    ],
)
def test_search_config_rejects_steps_the_loop_cannot_take(field, bad, good):
    for value in bad:
        with pytest.raises(DomainError, match=field):
            SearchConfig(**{field: value})
    for value in good:
        assert getattr(SearchConfig(**{field: value}), field) == value


def test_search_rejects_degenerate():
    with pytest.raises(DomainError):
        ruc_constant_search(HilbertSpace(2), [np.zeros(2)], 2, SearchConfig(), CFG)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_type_cotype_witnesses(n):
    basis = np.eye(n)
    assert abs(type_constant_witness(SequenceSpace(1, n), basis, CFG) - math.sqrt(n)) <= 1e-12
    assert abs(cotype_constant_witness(SupSpace(n), basis, CFG) - math.sqrt(n)) <= 1e-12
    assert abs(type_constant_witness(HilbertSpace(n), basis, CFG) - 1.0) <= 1e-12
    assert abs(cotype_constant_witness(HilbertSpace(n), basis, CFG) - 1.0) <= 1e-12


def test_witness_single_vector():
    assert type_constant_witness(SupSpace(2), [[1, 1]], CFG) == 1.0
    assert cotype_constant_witness(SupSpace(2), [[1, 1]], CFG) == 1.0
    with pytest.raises(DomainError):
        type_constant_witness(SupSpace(2), [[0, 0]], CFG)


def test_experiment_prime_ap_rows():
    rows = experiment_prime_ap([1, 3, 10], 3000, CFG)
    assert rows[0].ratio == 1.0
    assert (rows[1].ap.start, rows[1].ap.step) == (3, 2)
    assert (rows[2].ap.start, rows[2].ap.step) == (199, 210)
    assert rows[2].lhs.value == math.sqrt(10)
    assert rows[2].ratio > rows[1].ratio


def test_experiment_prime_ap_not_found_is_reported():
    rows = experiment_prime_ap([7], 100, CFG)
    assert rows[0].ap is None and rows[0].ratio is None
    assert "no AP" in rows[0].note


def test_experiment_lacunary_rows():
    rows = experiment_lacunary_power(64, CFG)
    assert [r.n for r in rows] == [1, 2, 4, 8, 16, 32, 64]
    assert rows[0].ratio == 1.0
    assert rows[1].ratio == pytest.approx(math.pi * math.sqrt(2) / 4, abs=1e-9)
    assert rows[-1].ratio > rows[1].ratio


def test_experiment_summing_basis():
    rep = experiment_summing_basis([1], CFG)
    assert rep.sup_tail_norm.value == 1.0 and rep.sup_tail_norm.mode == "exact"
    rep = experiment_summing_basis([1, 1], SamplerConfig(seed=3, samples=20_000))
    assert rep.sup_tail_norm.value + 3 * rep.sup_tail_norm.stderr >= math.sqrt(2)
    rep8 = experiment_summing_basis(np.ones(8), SamplerConfig(seed=3, samples=20_000))
    assert rep8.lower_bound_ok
    assert math.isfinite(rep8.carleson_hunt_ratio)
    with pytest.raises(DomainError):
        experiment_summing_basis([], CFG)


def test_zero_prefix_regression():
    # Prepending zero coefficients must not move the ratio beyond tolerance.
    family = summing_family(4)
    base = DirichletPolynomial(SupSpace(4), {n + 1: x for n, x in enumerate(family)})
    padded = DirichletPolynomial(
        SupSpace(4), {n + 3: x for n, x in enumerate(family)}
    )
    cfg = SamplerConfig(seed=29, samples=4000)
    r1 = ruc_ratio(base, 2, cfg)
    r2 = ruc_ratio(padded, 2, cfg)
    slack = 3 * (
        r1.numerator.uncertainty
        + r1.denominator.uncertainty
        + r2.numerator.uncertainty
        + r2.denominator.uncertainty
    )
    assert abs(r1.ratio - r2.ratio) <= slack + 0.05


def _example_family(N):
    """w1^n for prime n, w2^(2^n) otherwise, inside L_1 of the 2-torus."""
    table = primes_up_to(max(N, 2))
    family = []
    for n in range(1, N + 1):
        if table.is_prime(n):
            family.append(TrigPolynomial({(n, 0): 1.0}, 2))
        else:
            family.append(TrigPolynomial({(0, 2**n): 1.0}, 2))
    return family


def test_function_valued_family_construction():
    family = _example_family(12)
    assert family[1].coeffs == {(2, 0): (1 + 0j)}  # x_2 = w1^2
    assert family[3].coeffs == {(0, 16): (1 + 0j)}  # x_4 = w2^16
    assert family[11].coeffs == {(0, 4096): (1 + 0j)}  # x_12 = w2^4096
    space = FunctionLr(1, 2)
    from dirichlet_ruc import norm

    assert norm(space, family[11]).value == pytest.approx(1.0, abs=1e-12)


def test_function_valued_smoke_ratio():
    family = _example_family(5)
    space = FunctionLr(1, 2)
    D = DirichletPolynomial(space, {n + 1: x for n, x in enumerate(family)})
    cfg = SamplerConfig(seed=2, samples=60)
    est = hp_norm(D, 2, cfg)
    assert est.value > 0
    rep = ruc_ratio(D, 2, cfg)
    assert 0.25 <= rep.ratio <= 4.0


def test_kernel_values_reused_by_experiments():
    rows = experiment_lacunary_power(4, CFG)
    assert rows[1].rhs.value == dirichlet_kernel_l1(2).value


def test_witness_floats_keep_their_formula_bit_for_bit():
    rng = np.random.default_rng(60)
    cfg = SamplerConfig(seed=3, samples=700)
    trig = [TrigPolynomial({(1,): 1.0, (-2,): 0.5j}, 1), TrigPolynomial({(3,): 1 - 1j}, 1)]
    for space, xs in [
        (SupSpace(3), [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(22)]),
        (SequenceSpace(1.5, 2), [rng.standard_normal(2) for _ in range(6)]),
        (FunctionLr(1.5, 1), trig),
    ]:
        average = rademacher_average(xs, space, 2.0, cfg).value
        denominator = math.sqrt(sum(space_norm(space, x).value ** 2 for x in xs))
        assert type_constant_witness(space, xs, cfg) == average / denominator
        assert cotype_constant_witness(space, xs, cfg) == 1.0 / (average / denominator)
