"""Exact H_4 norms in Hilbert space, and the Monte Carlo stderrs against them.

On the Bohr lift, ||F(z)||^2 = sum_{a,b} <x_a, x_b> z^(alpha(a) - alpha(b)),
and alpha(a) - alpha(b) depends on the rational a/b alone.  Parseval then
gives E ||F||^4 = sum_r |sum_{a/b = r} <x_a, x_b>|^2.  Flipping signs turns
each pairing into eps_a eps_b <x_a, x_b>, so hprad_norm at p = 4 is exact in
2^m patterns of O(m^2) each.
"""

import math

import numpy as np
import pytest

from dirichlet_ruc import DirichletPolynomial, GridPolicy, HilbertSpace, SamplerConfig, hp_norm, hprad_norm

SPACE = HilbertSpace(2)
# Refuses every quadrature grid, so hprad_norm takes its Monte Carlo route.
NO_GRID = GridPolicy(max_points=0)


def _fourth_powers(ns, xs, signs):
    """E_z ||sum_n eps_n x_n z^alpha(n)||^4 for each row eps of `signs`."""
    m = len(ns)
    X = np.array(xs, dtype=np.complex128)
    gram = X @ X.conj().T
    ratios = {}
    for a in range(m):
        for b in range(m):
            g = math.gcd(ns[a], ns[b])
            ratios.setdefault((ns[a] // g, ns[b] // g), []).append(a * m + b)
    groups = np.zeros((m * m, len(ratios)))
    for r, pairs in enumerate(ratios.values()):
        groups[pairs, r] = 1.0
    pairings = (signs[:, :, None] * signs[:, None, :] * gram).reshape(len(signs), -1)
    return (np.abs(pairings @ groups) ** 2).sum(axis=1)


def exact_h4(ns, xs):
    return float(_fourth_powers(ns, xs, np.ones((1, len(ns))))[0] ** 0.25)


def exact_hprad4(ns, xs):
    index = np.arange(1 << len(ns))[:, None]
    signs = np.where((index >> np.arange(len(ns))) & 1, 1.0, -1.0)
    return float((_fourth_powers(ns, xs, signs) ** 0.25).mean())


def _family(ns, seed):
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in ns]
    return xs, DirichletPolynomial(SPACE, dict(zip(ns, xs)))


@pytest.mark.parametrize("ns", [[2, 3, 4, 6, 9], [2, 3, 5, 6, 10, 15], [1, 2, 4, 8], [2, 3, 4, 6, 8, 9, 12]], ids=str)
def test_quadrature_routes_match_the_exact_h4_norms(ns):
    xs, D = _family(ns, 0)
    rad = hprad_norm(D, 4.0, SamplerConfig())
    plain = hp_norm(D, 4.0, SamplerConfig(), method="quadrature")
    assert (rad.mode, plain.mode) == ("quadrature", "quadrature")
    truth = exact_hprad4(ns, xs)
    assert abs(rad.value - truth) <= 4 * math.ulp(truth)
    truth = exact_h4(ns, xs)
    assert abs(plain.value - truth) <= 4 * math.ulp(truth)


def _z_scores(estimates, truth):
    return np.array([(est.value - truth) / est.stderr for est in estimates])


COVERAGE_NS = [2, 3, 4, 5, 6, 7]
SEEDS = range(300)


def _assert_normal_coverage(z):
    # a normal statistic leaves |z| > 3 in 0.27% of seeds; the 10-block
    # stderr hprad_norm took before, a t_9 read as normal, left 5 of 300
    assert (np.abs(z) > 3).sum() <= 3
    assert 0.85 <= z.std(ddof=1) <= 1.15


def test_monte_carlo_hprad_stderr_covers_the_exact_value():
    xs, D = _family(COVERAGE_NS, 0)
    estimates = [hprad_norm(D, 4.0, SamplerConfig(seed=s, samples=1000, grid_policy=NO_GRID)) for s in SEEDS]
    assert {est.mode for est in estimates} == {"mc"}
    # the mean z near -0.2 is the bias of the mean of p-th roots, left as it is
    _assert_normal_coverage(_z_scores(estimates, exact_hprad4(COVERAGE_NS, xs)))


def test_monte_carlo_hp_norm_stderr_covers_the_exact_value():
    xs, D = _family(COVERAGE_NS, 0)
    estimates = [hp_norm(D, 4.0, SamplerConfig(seed=s, samples=1000), method="mc") for s in SEEDS]
    _assert_normal_coverage(_z_scores(estimates, exact_h4(COVERAGE_NS, xs)))
