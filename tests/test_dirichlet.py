import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dirichlet_ruc import (
    DirichletPolynomial,
    DomainError,
    Estimate,
    FunctionLr,
    GridPolicy,
    HilbertSpace,
    ResourceError,
    SamplerConfig,
    SequenceSpace,
    SupSpace,
    bohr_lift,
    circle_hp_norm,
    coefficient,
    dirichlet_kernel_l1,
    factorize,
    hp_norm,
    index_of,
    partial_sum,
    scalar_polynomial,
    vertical_translate,
)
from dirichlet_ruc.dirichlet import lift_arrays
from dirichlet_ruc.spaces import norm as space_norm

from conftest import assert_close, random_polynomial


def test_coefficient_examples():
    D = scalar_polynomial({2: 3})
    assert coefficient(D, 2)[0] == 3
    assert coefficient(D, 5)[0] == 0
    D2 = DirichletPolynomial(HilbertSpace(2), {6: [1, 2]})
    assert np.allclose(coefficient(D2, 6), [1, 2])


def test_partial_sum():
    D = scalar_polynomial({2: 1, 3: 1, 5: 1})
    assert partial_sum(D, 3).support() == [2, 3]
    assert partial_sum(D, 5).support() == [2, 3, 5]
    assert partial_sum(D, 1).is_zero()


def test_vertical_translate():
    D = scalar_polynomial({2: 1, 10: 1})
    assert vertical_translate(D, 0).terms[2][0] == 1
    shifted = vertical_translate(D, 1)
    assert shifted.terms[2][0] == 0.5
    assert shifted.terms[10][0] == pytest.approx(0.1)
    with pytest.raises(DomainError):
        vertical_translate(D, -0.5)


def test_bohr_lift_examples():
    lift = bohr_lift(scalar_polynomial({6: 1}))
    assert list(lift.terms) == [(1, 1)]
    assert lift.variables == 2
    lift = bohr_lift(scalar_polynomial({1: 1}))
    assert list(lift.terms) == [()]
    assert lift.variables == 0
    lift = bohr_lift(scalar_polynomial({8: 1, 5: 1}))
    assert sorted(lift.terms) == [(0, 0, 1), (3,)]
    assert lift.variables == 3


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(1, 10**6), st.booleans(), max_size=8))
def test_lift_round_trips_random_supports(zeros):
    # zeros[n]: whether the term at n is the zero element
    space = HilbertSpace(2)
    D = DirichletPolynomial(space, {n: [0, 0] if zero else [n, 1j] for n, zero in zeros.items()})
    lift = bohr_lift(D)
    assert sorted(index_of(alpha) for alpha in lift.terms) == sorted(zeros)  # zero elements too
    assert all(x is D.terms[index_of(alpha)] for alpha, x in lift.terms.items())
    xs, exps, ns = lift_arrays(D)
    assert ns == sorted(n for n, zero in zeros.items() if not zero)
    assert all(x is D.terms[n] for x, n in zip(xs, ns)) and len(xs) == len(ns)
    alphas = [list(factorize(n)) for n in ns]
    width = max(map(len, alphas), default=0)
    assert exps.shape == (len(ns), width)
    for row, alpha in zip(exps, alphas):
        assert row.tolist() == alpha + [0] * (width - len(alpha))


def test_hp_norm_parseval_examples():
    D = scalar_polynomial({1: 1, 2: 1, 3: 1, 4: 1})
    est = hp_norm(D, 2)
    assert est.value == 2.0 and est.mode == "exact"
    D2 = DirichletPolynomial(HilbertSpace(2), {2: [1, 0], 3: [0, 1]})
    assert hp_norm(D2, 2).value == pytest.approx(math.sqrt(2), abs=1e-14)


def test_hp_norm_p1_matches_quadrature_oracle():
    # || 1 + 2^{-s} ||_{H_1} lifts to (1/2pi) integral |1 + e^{it}| dt = 4/pi.
    oracle, _ = integrate.quad(lambda t: abs(1 + np.exp(1j * t)), 0, 2 * math.pi)
    oracle /= 2 * math.pi
    D = scalar_polynomial({1: 1, 2: 1})
    est = hp_norm(D, 1, SamplerConfig(seed=3, samples=100_000))
    assert est.mode == "mc"
    assert abs(est.value - oracle) <= 4 * est.stderr


def test_hp_norm_zero_and_domain():
    assert hp_norm(scalar_polynomial({}), 2).value == 0.0
    with pytest.raises(DomainError):
        hp_norm(scalar_polynomial({2: 1}), 0.5)


def test_hp_norm_single_term_is_coefficient_norm():
    D = DirichletPolynomial(SupSpace(3), {7: [1, -2, 0.5]})
    for p in (1, 2, 3.5):
        assert hp_norm(D, p).value == 2.0


def test_isometry_exact_vs_quadrature(rng):
    # p = 2 scalar: Parseval against the independent lifted-grid quadrature.
    cfg = SamplerConfig(seed=1)
    smooth = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16])  # <= 4 prime slots
    for _ in range(20):
        support = rng.choice(smooth, size=int(rng.integers(1, 7)), replace=False)
        D = scalar_polynomial(
            {
                int(n): complex(rng.standard_normal(), rng.standard_normal())
                for n in support
            }
        )
        exact = hp_norm(D, 2, cfg)
        quad = hp_norm(D, 2, cfg, method="quadrature")
        assert abs(exact.value - quad.value) <= 1e-10


def test_hp_monotone_in_p(rng):
    cfg = SamplerConfig(seed=17, samples=20_000)
    for _ in range(10):
        D = random_polynomial(rng, SupSpace(3), max_terms=6, max_frequency=20)
        e1 = hp_norm(D, 1, cfg, method="mc")
        e2 = hp_norm(D, 2, cfg, method="mc")
        e4 = hp_norm(D, 4, cfg, method="mc")
        assert e1.value <= e2.value + 3 * (e1.stderr + e2.stderr) + 1e-12
        assert e2.value <= e4.value + 3 * (e2.stderr + e4.stderr) + 1e-12


def test_coefficient_contractivity(rng):
    cfg = SamplerConfig(seed=23, samples=20_000)
    for _ in range(10):
        space = SequenceSpace(1.5, 3)
        D = random_polynomial(rng, space, max_terms=6, max_frequency=30)
        est = hp_norm(D, 1, cfg)
        for n in D.support():
            cn = space_norm(space, coefficient(D, n)).value
            assert cn <= est.value + 3 * est.stderr


def test_rotation_invariance_exact(rng):
    D = DirichletPolynomial(
        HilbertSpace(2),
        {2: [1, 2], 3: [0.5, -1], 7: [1j, 0]},
    )
    base = hp_norm(D, 2).value
    phases = np.exp(2j * math.pi * rng.random(3))
    rotated = DirichletPolynomial(
        HilbertSpace(2),
        {n: lam * np.asarray(x) for lam, (n, x) in zip(phases, sorted(D.terms.items()))},
    )
    assert hp_norm(rotated, 2).value == base


def test_circle_hp_norm_examples():
    # scalars: p = 2 is the l2 aggregate
    xs = [np.array([a]) for a in (1, 2, 2)]
    assert circle_hp_norm(xs, HilbertSpace(1), 2).value == 3.0
    # a single vector is rotation-invariant for every p
    assert circle_hp_norm([np.array([3, 4])], HilbertSpace(2), 1.5).value == 5.0
    # all-ones, N = 2, p = 1: same 4/pi constant
    est = circle_hp_norm([np.array([1.0]), np.array([1.0])], HilbertSpace(1), 1)
    assert est.mode == "quadrature"
    assert abs(est.value - 4 / math.pi) <= max(3 * est.quad_error, 1e-3)
    with pytest.raises(DomainError):
        circle_hp_norm(xs, HilbertSpace(1), 0.9)


@pytest.mark.parametrize("norm", ["hp_norm", "circle_hp_norm"])
def test_hp_and_circle_norms_share_one_closed_form_prologue(norm):
    # Terms x_n at n = 1, 2, ... for circle_hp_norm and at n = 2, 3, ... for hp_norm.
    space = SequenceSpace(3.0, 2)
    xs = [np.array([1.0, 2j]), np.array([0.0, 0.0]), np.array([-1.0, 0.5])]

    def run(elements, p, method="auto", target=space):
        if norm == "circle_hp_norm":
            return circle_hp_norm(elements, target, p, SamplerConfig(seed=2, samples=500), method)
        D = DirichletPolynomial(target, {n + 2: x for n, x in enumerate(elements)})
        return hp_norm(D, p, SamplerConfig(seed=2, samples=500), method)

    for bad in ("bogus", "Exact", ""):
        with pytest.raises(DomainError, match="unknown method"):
            run(xs, 1.0, bad)
    with pytest.raises(DomainError, match="p must be >= 1"):
        run(xs, 0.5)
    assert run([xs[1]], 1.0) == run([], 3.0) == Estimate(value=0.0)
    assert run(xs[:2], 1.5) == space_norm(space, xs[0])  # one nonzero term
    parseval = run(xs, 2.0, "exact", HilbertSpace(2))
    assert parseval == Estimate(value=math.sqrt(1 + 4 + 1 + 0.25))
    with pytest.raises(DomainError, match="no exact mode"):
        run(xs, 1.0, "exact")
    assert run(xs, 1.0, "mc").mode == "mc"


def test_circle_hp_norm_hilbert_aggregate(rng):
    xs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(5)]
    est = circle_hp_norm(xs, HilbertSpace(3), 2)
    expected = math.sqrt(sum(float(np.linalg.norm(x)) ** 2 for x in xs))
    assert abs(est.value - expected) <= 1e-10


def test_dirichlet_kernel_examples():
    assert dirichlet_kernel_l1(1).value == 1.0
    est = dirichlet_kernel_l1(2)
    assert_close(est.value, 4 / math.pi, 1e-8, "kernel N=2")
    v10 = dirichlet_kernel_l1(10).value
    assert 1 < v10 < math.sqrt(10)
    with pytest.raises(DomainError):
        dirichlet_kernel_l1(0)


def test_dirichlet_kernel_error_budget():
    for N in (2, 17, 256):
        est = dirichlet_kernel_l1(N)
        assert est.mode == "quadrature"
        assert est.quad_error <= 1e-8


def test_dirichlet_kernel_against_sum_oracle():
    # Independent oracle: integrate |sum e^{int}| directly, not the sin ratio.
    for N in (3, 5, 8):
        def f(t, N=N):
            return abs(sum(np.exp(1j * n * t) for n in range(1, N + 1)))

        oracle, _ = integrate.quad(f, 0, 2 * math.pi, limit=200)
        oracle /= 2 * math.pi
        assert_close(dirichlet_kernel_l1(N).value, oracle, 1e-7, f"kernel N={N}")


def _kernel_l1_without_quadrature(N: int) -> float:
    """L1(N) = (1/pi) sum over panels of |F(t_{j+1}) - F(t_j)|, where
    F(t) = sum_k sin(k t) / k over k = (N-1)/2, (N-1)/2 - 1, ..., -(N-1)/2
    (the k = 0 term is t) is an antiderivative of the kernel, whose sign is
    constant between its zeros t_j = 2 pi j / N.  With k = h / 2 and
    t = pi q / N, sin(k t) = sin(pi h q / (2N)): the integer h q is reduced
    mod 4N, the angle folded into [0, pi/2], and each F summed by fsum."""
    period = 4 * N
    r = np.arange(period)
    folded = np.minimum(r % (2 * N), 2 * N - r % (2 * N))
    sines = np.where(r < 2 * N, 1.0, -1.0) * np.sin(math.pi * folded / (2 * N))
    h = np.arange(N - 1, 0, -2)  # the k > 0; each pairs with -k
    qs = list(range(0, N + 1, 2)) + ([N] if N % 2 else [])
    F = []
    for block in np.array_split(np.array(qs), max(1, len(qs) * len(h) // 2**18)):
        terms = 4.0 * sines[np.outer(block, h) % period] / h
        for q, row in zip(block.tolist(), terms):
            F.append(math.fsum(row.tolist() + ([math.pi * q / N] if N % 2 else [])))
    return math.fsum(abs(b - a) for a, b in zip(F, F[1:])) / math.pi


def test_kernel_oracle_closed_forms():
    assert _kernel_l1_without_quadrature(2) == 4 / math.pi
    assert _kernel_l1_without_quadrature(3) == pytest.approx(
        1 / 3 + 2 * math.sqrt(3) / math.pi, rel=2.3e-16
    )


def test_dirichlet_kernel_error_bounds_the_true_error():
    for N in [*range(2, 401), 1000, 4001]:
        est = dirichlet_kernel_l1(N)
        oracle = _kernel_l1_without_quadrature(N)
        assert abs(est.value - oracle) <= est.quad_error <= 1e-12 * est.value, N


def test_function_space_polynomial_norms():
    # Vector coefficients living in L_1 of the circle.
    space = FunctionLr(1, 1)
    D = DirichletPolynomial(space, {1: {(0,): 1}, 2: {(1,): 1}})
    est = hp_norm(D, 2, SamplerConfig(seed=4, samples=400))
    # E_z || 1 + w z ||_{L1(w)}^2: the inner norm is constant 4/pi by rotation
    assert abs(est.value - 4 / math.pi) <= 3 * (est.stderr + est.quad_error) + 2e-2


def test_quadrature_grid_budget_holds_at_its_boundary():
    # Frequencies 2, 3, 6: two variables of top exponent 1, a 16 x 16 grid.
    D = DirichletPolynomial(SupSpace(2), {2: [1, 0.5], 3: [0.25, -1], 6: [1j, 1]})
    at = SamplerConfig(seed=5, samples=400, grid_policy=GridPolicy(max_points=256))
    est = hp_norm(D, 2, at)
    assert (est.mode, est.samples_used) == ("quadrature", 256)
    below = SamplerConfig(seed=5, samples=400, grid_policy=GridPolicy(max_points=255))
    est = hp_norm(D, 2, below)
    assert (est.mode, est.samples_used) == ("mc", 400)
    with pytest.raises(ResourceError):
        hp_norm(D, 2, below, method="quadrature")


def test_quadrature_grid_spans_only_the_variables_in_use():
    # Frequencies 2 and 5 lift to columns 0 and 2; column 1 (the prime 3) is
    # unused, so the grid is 16 x 16, not 16 x 16 x 16.
    x, y = np.array([1, 0.5]), np.array([0.25, -1])
    D = DirichletPolynomial(SupSpace(2), {2: x, 5: y})
    est = hp_norm(D, 2, SamplerConfig(seed=5, samples=400), method="quadrature")
    assert (est.mode, est.samples_used) == ("quadrature", 256)
    z = np.exp(2j * np.pi * np.arange(16) / 16)
    values = np.abs(x[:, None, None] * z[:, None] + y[:, None, None] * z[None, :]).max(axis=0)
    assert est.value == pytest.approx(math.sqrt(np.mean(values**2)), rel=1e-12)
    # Frequency 11 lifts to column 4: five columns, two in use, within
    # QUADRATURE_MAX_VARIABLES, so auto takes the grid.
    D = DirichletPolynomial(SupSpace(2), {2: x, 11: y})
    est = hp_norm(D, 2, SamplerConfig(seed=5, samples=400))
    assert (est.mode, est.samples_used) == ("quadrature", 256)
