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
    HilbertSpace,
    SamplerConfig,
    SequenceSpace,
    ShapeError,
    SupSpace,
    SearchConfig,
    TrigPolynomial,
    UndefinedRatioError,
    circle_hp_norm,
    contraction_check,
    gaussian_average,
    hp_norm,
    hprad_norm,
    kahane_ratio,
    rad_norm,
    rademacher_average,
    randomized,
    ruc_constant_search,
    ruc_ratio,
    rud_ratio,
    scalar_polynomial,
    spaces,
    steinhaus_average,
)
from dirichlet_ruc.dirichlet import lift_arrays
from dirichlet_ruc.sampling import (
    STREAM_OUTER_SIGNS,
    STREAM_TORUS,
    PowerMoments,
    character_values,
    combined_stderr,
    sign_samples,
    uniform_bits,
)
from dirichlet_ruc.spaces import CombinationEvaluator, coordinate_norms, is_coordinate

from conftest import HALF_INNER_GRID, random_instances

H1 = HilbertSpace(1)
CFG = SamplerConfig(seed=7, samples=30_000)
# Refuses every quadrature grid, so hprad_norm takes its Monte Carlo route.
NO_GRID = GridPolicy(max_points=0)


def test_rademacher_examples():
    # enumeration of the four patterns: (|2| + 0 + 0 + |2|) / 4 = 1
    est = rademacher_average([[1], [1]], H1, 1, CFG)
    assert est.value == 1.0 and est.mode == "exact"
    xs = [np.array([1, 2, 0]), np.array([0, 1, 1])]
    est = rademacher_average(xs, HilbertSpace(3), 2, CFG)
    assert est.value == pytest.approx(math.sqrt(7), abs=1e-14)
    assert rademacher_average([[3, -4]], HilbertSpace(2), 3.5, CFG).value == 5.0


def test_rademacher_domain_errors():
    with pytest.raises(DomainError):
        rademacher_average([[1]], H1, 0.5, CFG)
    with pytest.raises(ShapeError):
        rademacher_average([[1], [1, 2]], H1, 1, CFG)


def test_rademacher_mc_mode(rng):
    xs = [[1.0]] * 25  # beyond the default exact cutoff of 20
    est = rademacher_average(xs, H1, 1, SamplerConfig(seed=3, samples=20_000))
    assert est.mode == "mc" and est.stderr > 0
    # E|sum of 25 signs| for fair coins = 25 * C(24,12) / 2^24
    exact = 25 * math.comb(24, 12) / 2**24
    assert abs(est.value - exact) <= 4 * est.stderr


def test_steinhaus_examples():
    assert steinhaus_average([[3, 4]], HilbertSpace(2), 1, CFG).value == 5.0
    xs = [np.array([1, 0]), np.array([0, 2])]
    assert steinhaus_average(xs, HilbertSpace(2), 2, CFG).value == pytest.approx(
        math.sqrt(5), abs=1e-14
    )
    est = steinhaus_average([[1], [1]], H1, 2, CFG)
    assert est.value == pytest.approx(math.sqrt(2), abs=1e-14)


def test_steinhaus_mc_against_moment():
    # E |z1 + z2| for independent rotations = 4/pi (mean length of the sum).
    est = steinhaus_average([[1], [1]], H1, 1, SamplerConfig(seed=5, samples=60_000))
    assert est.mode == "mc"
    assert abs(est.value - 4 / math.pi) <= 4 * est.stderr


def test_gaussian_examples():
    est = gaussian_average([[2]], H1, 1, CFG, variant="real")
    assert est.value == pytest.approx(2 * math.sqrt(2 / math.pi), abs=1e-14)
    assert gaussian_average([[3, 4]], HilbertSpace(2), 2, CFG).value == 5.0
    zero = gaussian_average([[0], [0]], H1, 2, CFG)
    assert zero.value == 0.0 and zero.mode == "exact"


def test_gaussian_mc_mean_modulus():
    # E |g| = Gamma(1.5) for a unit-variance complex gaussian.
    est = gaussian_average([[1, 0], [0, 0]], HilbertSpace(2), 1, SamplerConfig(seed=9, samples=60_000))
    assert est.mode == "mc"
    assert abs(est.value - math.gamma(1.5)) <= 4 * est.stderr


def test_rad_norm_is_q1():
    xs = [[1], [1], [1]]
    assert rad_norm(xs, H1, CFG).value == rademacher_average(xs, H1, 1, CFG).value


def test_hprad_examples():
    D = DirichletPolynomial(HilbertSpace(2), {2: [1, 0], 3: [0, 1], 7: [1, 1]})
    assert hprad_norm(D, 2, CFG).value == hp_norm(D, 2, CFG).value
    Ds = scalar_polynomial({1: 1, 2: 2, 3: -1})
    assert hprad_norm(Ds, 2, CFG).value == pytest.approx(math.sqrt(6), abs=1e-14)
    single = DirichletPolynomial(SupSpace(2), {5: [2, -1]})
    assert hprad_norm(single, 3, CFG).value == 2.0


def test_hprad_two_stage_close_to_enumerated_truth():
    # Sup-space, p = 1, two terms with disjoint frequencies 2 and 3:
    # inner H_1 norm is E_z |a z1 +- b z2| with the sign absorbed by z,
    # so hprad equals the plain H_1 norm here; check the estimator agrees.
    cfg = SamplerConfig(seed=21, samples=20_000)
    D = DirichletPolynomial(SupSpace(2), {2: [1, 0.5], 3: [0.25, 1]})
    two_stage = hprad_norm(D, 1, cfg)
    plain = hp_norm(D, 1, cfg, method="mc")
    assert abs(two_stage.value - plain.value) <= 3 * (two_stage.stderr + plain.stderr)


def _hprad_full_enumeration(D, p, cfg):
    """(value, stderr) of hprad_norm as computed before the half-pattern
    kernel: all 2^m sign patterns (or the sampled ones), one batched product
    per chunk of torus samples, and the delta method's stderr from the
    linearization h over every pattern's column."""
    xs, exps, _ = lift_arrays(D)
    m = len(xs)
    exact_outer = m <= cfg.exact_cutoff
    patterns = 1 << m if exact_outer else min(4096, cfg.samples)
    if exact_outer:
        idx = np.arange(patterns, dtype=np.uint64)[None, :]
        bits = (idx >> np.arange(m, dtype=np.uint64)[:, None]) & np.uint64(1)
        signs = np.where(bits == 1, 1.0, -1.0)
    else:
        signs = sign_samples(cfg.seed, STREAM_OUTER_SIGNS, patterns, m).T
    samples = cfg.samples
    evaluator = CombinationEvaluator(D.space, xs)
    coordinate = is_coordinate(D.space)
    if coordinate:
        matrix = np.column_stack(evaluator.xs)
        z_chunk = max(1, (1 << 13) // max(patterns // 16, 1))
    else:
        grid = evaluator.matrix
        z_chunk = max(1, (1 << 22) // max(grid.shape[0] * patterns, 1))
    power_sums = np.zeros(patterns)
    linear, weights = PowerMoments([1.0], mc=True), None
    for lo in range(0, samples, z_chunk):
        count = min(z_chunk, samples - lo)
        fractions = uniform_bits(cfg.seed, STREAM_TORUS, count, exps.shape[1], start=lo)
        mult = character_values(exps, fractions)
        if coordinate:
            combos = (mult[:, None, :] * matrix[None, :, :]) @ signs
            g = coordinate_norms(
                D.space, np.moveaxis(combos, 1, 0).reshape(combos.shape[1], -1)
            ).reshape(count, patterns)
        else:
            coeff = mult[:, :, None] * signs[None, :, :]
            values = np.tensordot(grid, coeff, axes=([1], [1]))
            g = (np.abs(values) ** D.space.r).mean(axis=0) ** (1.0 / D.space.r)
        gp = g**p
        sums = gp.sum(axis=0)
        power_sums += sums
        if weights is None:  # slopes of the mean over patterns at the first chunk's means
            first = sums / count
            weights = np.array([y ** (1.0 / p - 1.0) / (p * patterns) if y > 0 else 0.0 for y in first])
        linear.add(gp @ weights)
    inner = (power_sums / samples) ** (1.0 / p)
    stderr = linear.estimates()[0].stderr
    if not exact_outer and patterns > 1:
        stderr = math.sqrt(stderr**2 + float(inner.var(ddof=1)) / patterns)
    return float(inner.mean()), stderr


def _assert_full_enumeration(est, D, p, cfg, label=None):
    """The value bit for bit; the stderr to rounding, as the reference sums
    h over all 2^m patterns where the kernel sums over half of them."""
    value, stderr = _hprad_full_enumeration(D, p, cfg)
    assert est.value == value, label
    assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0), label


def _guard_polynomial(space, m, rng):
    support = sorted(int(n) for n in rng.choice(np.arange(2, 40), m, replace=False))
    if isinstance(space, FunctionLr):
        xs = []
        for _ in range(m):
            keys = {tuple(int(e) for e in rng.integers(-2, 3, size=space.k)) for _ in range(2)}
            xs.append(TrigPolynomial({k: complex(*rng.standard_normal(2)) for k in keys}, space.k))
    else:
        xs = [rng.standard_normal(space.d) + 1j * rng.standard_normal(space.d) for _ in range(m)]
    return DirichletPolynomial(space, dict(zip(support, xs)))


GUARD_SPACES = [
    SupSpace(4),
    SequenceSpace(1.0, 3),
    SequenceSpace(3.0, 5),
    SequenceSpace(3.0, 1),  # a unit dimension takes the per-sample product path
    SequenceSpace(2.0, 3),
    SupSpace(12),
    HilbertSpace(4),
    FunctionLr(1.0, 1),
]


@pytest.mark.parametrize("samples", [129, 1])
@pytest.mark.parametrize("space", GUARD_SPACES, ids=repr)
def test_hprad_half_patterns_match_full_enumeration_bitwise(space, samples):
    # 129 samples leave one-row chunks (m = 10) next to full ones (m <= 9).
    rng = np.random.default_rng(515)
    for m in range(2, 11):
        D = _guard_polynomial(space, m, rng)
        for p in (1.0, 3.0):
            cfg = SamplerConfig(seed=m, samples=samples, grid_policy=NO_GRID)
            est = hprad_norm(D, p, cfg)
            _assert_full_enumeration(est, D, p, cfg, (m, p))


@pytest.mark.parametrize("space", [SupSpace(4), SequenceSpace(3.0, 1), FunctionLr(3.0, 2)], ids=repr)
def test_hprad_sampled_outer_matches_previous_loop_bitwise(space):
    rng = np.random.default_rng(516)
    D = _guard_polynomial(space, 7, rng)
    cfg = SamplerConfig(seed=3, samples=300, exact_cutoff=5)
    est = hprad_norm(D, 1.0, cfg)
    _assert_full_enumeration(est, D, 1.0, cfg)


def test_hprad_off_the_grid_route_reports_its_inner_grid_error(monkeypatch):
    # Per sign pattern, the torus average of the norms on the half inner
    # grid; the error is the gap between the two means over the patterns.
    space = FunctionLr(1.0, 1)
    D = DirichletPolynomial(space, dict(zip([2, 3, 5, 6], _trig_family(space, 4, np.random.default_rng(519)))))
    cfg = SamplerConfig(seed=1, samples=2000, grid_policy=NO_GRID)
    est = hprad_norm(D, 1.0, cfg)
    assert est.mode == "mc" and est.quad_error > 0
    _assert_full_enumeration(est, D, 1.0, cfg)
    assert hp_norm(D, 1.0, cfg, method="mc").quad_error > 0  # as the plain norm's does

    def half_grid(space, xs):
        return CombinationEvaluator(space, xs, HALF_INNER_GRID)

    monkeypatch.setattr(randomized, "CombinationEvaluator", half_grid)
    rough = hprad_norm(D, 1.0, cfg)
    assert est.quad_error == pytest.approx(abs(est.value - rough.value), rel=0, abs=1e-13)


def _sign_moments_full_enumeration(space, xs, scale, powers, chunk=1 << 13):
    """(value, quad_error) per power of the exact sign moments as computed
    before the half-pattern kernel: all 2^m patterns, chunk by chunk."""
    m = len(xs)
    total = 1 << m
    full = CombinationEvaluator(space, xs)
    half = None if is_coordinate(space) else CombinationEvaluator(space, xs, HALF_INNER_GRID)
    acc = np.zeros(len(powers))
    acc_half = np.zeros(len(powers))
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.uint64)[None, :]
        bits = (idx >> np.arange(m, dtype=np.uint64)[:, None]) & np.uint64(1)
        block = np.where(bits == 1, 1.0, -1.0)
        if scale is not None:
            block = block * np.asarray(scale, dtype=np.complex128)[:, None]
        g = full.norms(block)
        g_half = half.norms(block) if half is not None else None
        for i, q in enumerate(powers):
            acc[i] += float((g**q).sum())
            if g_half is not None:
                acc_half[i] += float((g_half**q).sum())
    out = []
    for i, q in enumerate(powers):
        mean = float(acc[i]) / total
        value = mean ** (1.0 / q) if mean > 0 else 0.0
        quad_error = 0.0
        if half is not None:
            half_mean = acc_half[i] / total
            quad_error = abs(value - (half_mean ** (1.0 / q) if half_mean > 0 else 0.0))
        out.append((value, quad_error))
    return out


def _assert_sign_averages_match_full_enumeration(space, xs, rng, chunk=1 << 13):
    """rademacher_average, kahane_ratio, contraction_check and rad_norm equal
    their values under full enumeration bit for bit."""
    cfg = SamplerConfig(seed=1, samples=64)
    m = len(xs)
    label = (space, m)
    rad = rademacher_average(xs, space, 3.0, cfg)
    assert (rad.value, rad.quad_error, rad.samples_used) == (
        *_sign_moments_full_enumeration(space, xs, None, [3.0], chunk)[0], 1 << m
    ), label
    first, mean = _sign_moments_full_enumeration(space, xs, None, [2.0, 1.0], chunk)
    assert kahane_ratio(xs, space, 2.0, cfg) == first[0] / mean[0], label
    assert rad_norm(xs, space, cfg).value == mean[0], label
    a = rng.random(m) * np.exp(2j * math.pi * rng.random(m))
    report = contraction_check(xs, a, space, cfg)
    lhs = _sign_moments_full_enumeration(space, xs, a, [1.0], chunk)[0]
    assert (report.lhs.value, report.lhs.quad_error) == lhs, label
    assert report.rhs.value == mean[0] * (math.pi / 2), label


def _vector_family(space, m, rng):
    return [rng.standard_normal(space.d) + 1j * rng.standard_normal(space.d) for _ in range(m)]


def _trig_family(space, m, rng):
    xs = []
    for _ in range(m):
        keys = {tuple(int(e) for e in rng.integers(-2, 3, size=space.k)) for _ in range(2)}
        xs.append(TrigPolynomial({k: complex(*rng.standard_normal(2)) for k in keys}, space.k))
    return xs


SIGN_GUARD_SPACES = [
    space(d)
    for d in (1, 8, 11)  # d = 1 runs gemv, the others gemm
    for space in (
        SupSpace,
        lambda d: SequenceSpace(1.0, d),
        lambda d: SequenceSpace(2.0, d),
        lambda d: SequenceSpace(3.0, d),
        HilbertSpace,
    )
]


@pytest.mark.parametrize("space", SIGN_GUARD_SPACES, ids=repr)
def test_sign_averages_half_patterns_match_full_enumeration_bitwise(space):
    # m = 14 and 15 span two and four chunks of 8192 patterns.
    rng = np.random.default_rng(520)
    for m in range(2, 16):
        _assert_sign_averages_match_full_enumeration(space, _vector_family(space, m, rng), rng)


@pytest.mark.parametrize("space", [FunctionLr(1.0, 2), FunctionLr(3.0, 2)], ids=repr)
def test_function_space_sign_averages_match_full_enumeration_bitwise(space):
    rng = np.random.default_rng(521)
    for m in range(2, 10):
        _assert_sign_averages_match_full_enumeration(space, _trig_family(space, m, rng), rng)


@pytest.mark.parametrize(
    "space", [SupSpace(3), SequenceSpace(3.0, 1), HilbertSpace(9), FunctionLr(1.0, 2)], ids=repr
)
def test_sign_averages_mirror_many_small_chunks_bitwise(space, monkeypatch):
    # Chunks of 8 patterns: m = 4..8 mirror 1 to 16 chunks past the evaluated half.
    monkeypatch.setattr(spaces, "_PATTERN_CHUNK", 8)
    rng = np.random.default_rng(522)
    for m in range(2, 9):
        if isinstance(space, FunctionLr):  # chunks of a function space hold grid values
            xs = _trig_family(space, m, rng)
            budget = 8 * CombinationEvaluator(space, xs).grid_points
            monkeypatch.setattr(spaces, "_CHUNK_BUDGET", budget)
        else:
            xs = _vector_family(space, m, rng)
        _assert_sign_averages_match_full_enumeration(space, xs, rng, chunk=8)


@pytest.mark.parametrize(
    "m, ranges",
    [
        (2, [(0, 4)]),  # all four: a 2-column gemm rounds unlike the 4-column tiles
        (3, [(0, 4)]),  # the smallest halved m
        (13, [(0, 4096)]),  # the largest single chunk
        (14, [(0, 8192)]),  # the first of two chunks; the second is its mirror
        (15, [(0, 8192), (8192, 16384)]),
    ],
)
def test_sign_moments_evaluate_half_of_the_patterns(m, ranges, monkeypatch):
    evaluated = []
    columns = []  # norms taken per call, over both passes
    sign_patterns = randomized._sign_patterns
    norms = spaces.coordinate_norms

    def recorded(m, lo, hi):
        evaluated.append((lo, hi))
        return sign_patterns(m, lo, hi)

    def counted(space, combos, axis=0, **kwargs):
        columns.append(combos.shape[-1])
        return norms(space, combos, axis, **kwargs)

    monkeypatch.setattr(randomized, "_sign_patterns", recorded)
    monkeypatch.setattr(spaces, "coordinate_norms", counted)
    rng = np.random.default_rng(523)
    space = SequenceSpace(3.0, 2)
    xs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(m)]
    a = rng.random(m) * np.exp(2j * math.pi * rng.random(m))
    cfg = SamplerConfig(seed=1, samples=64, exact_cutoff=m)
    report = contraction_check(xs, a, space, cfg)
    # The scaled patterns are drawn chunk by chunk; of the plain ones only the
    # first chunk is, and the others are built from it (spaces._sign_chunks).
    assert evaluated == ranges + ranges[:1]
    assert columns == [hi - lo for lo, hi in ranges] * 2  # half of the 2^m patterns per pass
    assert (report.lhs.mode, report.lhs.samples_used) == ("exact", 1 << m)
    assert report.lhs.value == _sign_moments_full_enumeration(space, xs, a, [1.0])[0][0]
    assert report.rhs.value == (
        _sign_moments_full_enumeration(space, xs, None, [1.0])[0][0] * (math.pi / 2)
    )


PROPERTY_SPACES = [
    space(d)
    for d in (2, 8, 16)
    for space in (SupSpace, lambda d: SequenceSpace(1.0, d), lambda d: SequenceSpace(3.0, d), HilbertSpace)
]


@settings(max_examples=12, deadline=None)
@given(
    space=st.sampled_from(PROPERTY_SPACES),
    m=st.integers(12, 17),  # 13 low bits: m >= 15 builds chunks from the first
    p=st.sampled_from([1.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
    order=st.randoms(use_true_random=False),
)
def test_exact_sign_kernels_match_full_enumeration_and_ignore_term_order(space, m, p, seed, order):
    rng = np.random.default_rng(seed)
    xs = _vector_family(space, m, rng)
    cfg = SamplerConfig(seed=1, samples=64)
    rad = rademacher_average(xs, space, p, cfg)
    (value, _), (mean, _) = _sign_moments_full_enumeration(space, xs, None, [p, 1.0])
    assert rad.value == value
    assert kahane_ratio(xs, space, p, cfg) == value / mean
    # a permutation moves terms between the low bits, in the product, and
    # the high ones, added chunk by chunk
    shuffled = list(xs)
    order.shuffle(shuffled)
    assert rademacher_average(shuffled, space, p, cfg).value == pytest.approx(value, rel=1e-12)


@st.composite
def _hprad_cases(draw):
    """(space, m, p, samples): sample counts at, and one off, a multiple of
    the Monte Carlo loop's chunk or of its character panel."""
    space = draw(st.sampled_from(PROPERTY_SPACES))
    m = draw(st.integers(3, 12))
    chunk = max(1, (1 << 13) // max((1 << m) // 16, 1))  # samples per gemm
    panel = chunk * -(-randomized._PANEL_ENTRIES // (chunk * m))  # samples per character draw
    edge = draw(st.sampled_from([chunk, 2 * chunk, panel]))
    samples = max(1, edge + draw(st.integers(-1, 1)))
    return space, m, draw(st.sampled_from([1.0, 3.0])), samples


@settings(max_examples=12, deadline=None)
@given(case=_hprad_cases(), seed=st.integers(0, 2**32 - 1))
def test_hprad_real_gemm_matches_full_enumeration_bitwise(case, seed):
    space, m, p, samples = case
    D = _guard_polynomial(space, m, np.random.default_rng(seed))
    cfg = SamplerConfig(seed=seed, samples=samples, grid_policy=NO_GRID)
    est = hprad_norm(D, p, cfg)
    _assert_full_enumeration(est, D, p, cfg)


def test_rademacher_average_enumerates_up_to_exact_cutoff():
    rng = np.random.default_rng(517)
    space = SequenceSpace(1.0, 3)
    xs = [rng.standard_normal(3) for _ in range(5)]
    cfg = SamplerConfig(seed=4, samples=500, exact_cutoff=4)
    at = rademacher_average(xs[:4], space, 3.0, cfg)
    assert (at.mode, at.samples_used, at.stderr) == ("exact", 16, 0.0)
    past = rademacher_average(xs, space, 3.0, cfg)
    assert (past.mode, past.samples_used) == ("mc", 500) and past.stderr > 0


def test_one_draw_reports_an_infinite_stderr():
    # one draw shows no spread: a stderr of 0 would claim an exact value
    rng = np.random.default_rng(520)
    space = SupSpace(3)
    xs = _vector_family(space, 5, rng)
    D = DirichletPolynomial(space, dict(zip([2, 3, 5, 6, 7], xs)))
    one = SamplerConfig(seed=1, samples=1, grid_policy=NO_GRID)
    sampled = SamplerConfig(seed=1, samples=1, exact_cutoff=2, grid_policy=NO_GRID)
    for est in (
        hp_norm(D, 1.0, one, method="mc"),
        steinhaus_average(xs, space, 1.0, one),
        hprad_norm(D, 1.0, one),  # every sign pattern, one torus draw
        hprad_norm(D, 1.0, sampled),  # one sampled pattern
    ):
        assert (est.mode, est.samples_used, est.stderr) == ("mc", 1, math.inf)
        assert math.isfinite(est.value) and est.value > 0


def test_hprad_enumerates_up_to_exact_cutoff(monkeypatch):
    outer_draws = []

    def recorded(seed, stream, count, width, start=0, **kwargs):
        if stream == STREAM_OUTER_SIGNS:
            outer_draws.append((count, width))
        return sign_samples(seed, stream, count, width, start, **kwargs)

    monkeypatch.setattr(randomized, "sign_samples", recorded)
    rng = np.random.default_rng(518)
    space = SupSpace(3)
    D = _guard_polynomial(space, 5, rng)
    cfg = SamplerConfig(seed=9, samples=256, exact_cutoff=4)
    at_terms = dict(list(D.terms.items())[:4])
    at = hprad_norm(DirichletPolynomial(space, at_terms), 1.0, cfg)
    assert at.mode == "mc" and outer_draws == []
    # Enumerated: the mean over all 16 sign patterns of the inner H_1 norms,
    # each taken on the same torus panel.
    inner = []
    for pattern in range(16):
        signs = [1 if pattern >> j & 1 else -1 for j in range(4)]
        flipped = {n: s * x for s, (n, x) in zip(signs, at_terms.items())}
        inner.append(hp_norm(DirichletPolynomial(space, flipped), 1.0, cfg, method="mc").value)
    assert at.value == pytest.approx(float(np.mean(inner)), rel=1e-12)
    past = hprad_norm(D, 1.0, cfg)
    assert past.mode == "mc" and outer_draws == [(256, 5)]


def test_hprad_zero():
    assert hprad_norm(scalar_polynomial({}), 2, CFG).value == 0.0


def test_kahane_examples():
    assert kahane_ratio([[5]], H1, 2, CFG) == 1.0
    assert kahane_ratio([[1], [1]], H1, 2, CFG) == pytest.approx(math.sqrt(2), abs=1e-14)
    pair = kahane_ratio(np.eye(2), HilbertSpace(2), 2, CFG)
    assert 1.0 <= pair <= math.sqrt(2)
    with pytest.raises(UndefinedRatioError):
        kahane_ratio([[0], [0]], H1, 2, CFG)


def test_kahane_jensen_lower_bound():
    for space, xs in random_instances(101, 40):
        ratio = kahane_ratio(xs, space, 2, SamplerConfig(seed=1, samples=512))
        assert ratio >= 1 - 1e-9


def test_contraction_examples():
    rep = contraction_check([[1], [1]], [1, 1], H1, CFG)
    assert rep.holds
    assert rep.lhs.value == pytest.approx(rep.rhs.value * 2 / math.pi, abs=1e-12)
    rep = contraction_check([[1], [1]], [0, 0], H1, CFG)
    assert rep.lhs.value == 0.0 and rep.holds
    rep = contraction_check([[1], [1]], [1, 1j], H1, CFG)
    assert rep.lhs.value == pytest.approx(math.sqrt(2), abs=1e-12)
    assert rep.lhs.value <= math.pi / 2
    with pytest.raises(DomainError):
        contraction_check([[1], [1]], [1, 1.5], H1, CFG)


NON_FINITE = [math.nan, math.inf, -math.inf]


def _power_entry_points():
    """Every public entry point that takes a norm power, as power -> call."""
    xs = [np.array([1.0, 0.5j]), np.array([-0.25, 1.0]), np.array([1.0, 1.0])]
    space = SupSpace(2)
    D = DirichletPolynomial(space, dict(zip([2, 3, 6], xs)))
    cfg = SamplerConfig(seed=1, samples=200)
    return {
        "hp_norm": lambda p: hp_norm(D, p, cfg),
        "hp_norm mc": lambda p: hp_norm(D, p, cfg, method="mc"),
        "circle_hp_norm": lambda p: circle_hp_norm(xs, space, p, cfg),
        "hprad_norm": lambda p: hprad_norm(D, p, cfg),
        "ruc_ratio": lambda p: ruc_ratio(D, p, cfg),
        "rud_ratio": lambda p: rud_ratio(D, p, cfg),
        "ruc_constant_search": lambda p: ruc_constant_search(space, xs, p, SearchConfig(1, 1), cfg),
        "rademacher_average": lambda q: rademacher_average(xs, space, q, cfg),
        "steinhaus_average": lambda q: steinhaus_average(xs, space, q, cfg),
        "gaussian_average": lambda q: gaussian_average(xs, space, q, cfg),
        "kahane_ratio": lambda p: kahane_ratio(xs, space, p, cfg),
    }


@pytest.mark.parametrize("power", NON_FINITE, ids=repr)
@pytest.mark.parametrize("entry", list(_power_entry_points()))
def test_non_finite_powers_are_refused(entry, power):
    # NaN passed `p < 1` everywhere: hp_norm read 0.0 +- 0 in mc mode and
    # kahane_ratio at inf read below 1
    with pytest.raises(DomainError, match="must be >= 1 and finite"):
        _power_entry_points()[entry](power)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)], ids=repr)
def test_contraction_refuses_non_finite_coefficients(bad):
    # A NaN coefficient passed max |a_n| <= 1 and the check reported holds=True
    with pytest.raises(DomainError, match="finite"):
        contraction_check([[1], [1]], [1, bad], H1, CFG)


def test_contraction_random_suite(rng):
    cfg = SamplerConfig(seed=2, samples=512)
    for space, xs in random_instances(555, 100):
        m = len(xs)
        mags = rng.random(m)
        phases = np.exp(2j * math.pi * rng.random(m))
        rep = contraction_check(xs, mags * phases, space, cfg)
        assert rep.holds


def test_exact_mode_determinism():
    xs = [[1, 2], [3, -1], [0, 1]]
    a = rademacher_average(xs, SupSpace(2), 1, CFG)
    b = rademacher_average(xs, SupSpace(2), 1, CFG)
    assert a == b and a.mode == "exact"


def test_mc_reproducibility_and_partition_independence():
    cfg = SamplerConfig(seed=99, samples=5000)
    xs = [[1.0]] * 25
    a = rademacher_average(xs, H1, 1, cfg)
    b = rademacher_average(xs, H1, 1, cfg)
    assert a == b
    # counter-based streams: one draw of 10 rows == two disjoint draws
    whole = uniform_bits(99, 2, 10, 3)
    parts = np.vstack([uniform_bits(99, 2, 6, 3, start=0), uniform_bits(99, 2, 4, 3, start=6)])
    assert np.array_equal(whole, parts)


def test_sign_flip_symmetry():
    xs = [np.array([1.0, 2.0]), np.array([-1.0, 0.5]), np.array([0.0, 1.0])]
    flipped = [xs[0], -xs[1], xs[2]]
    a = rademacher_average(xs, SequenceSpace(1, 2), 1, CFG)
    b = rademacher_average(flipped, SequenceSpace(1, 2), 1, CFG)
    assert a == b


def test_jensen_chain_suite():
    cfg = SamplerConfig(seed=31, samples=2000)
    for space, xs in random_instances(202, 200):
        e1 = rademacher_average(xs, space, 1, cfg)
        e2 = rademacher_average(xs, space, 2, cfg)
        e4 = rademacher_average(xs, space, 4, cfg)
        assert e1.value <= e2.value + 3 * combined_stderr(e1, e2) + 1e-12
        assert e2.value <= e4.value + 3 * combined_stderr(e2, e4) + 1e-12


def test_rad_equivalence_envelope(rng):
    # hprad / rad ratio stays within the contraction-Kahane envelope.
    cfg = SamplerConfig(seed=43, samples=1200)
    for space, xs in random_instances(303, 20, max_terms=6, max_dim=4):
        D = DirichletPolynomial(space, {n + 1: x for n, x in enumerate(xs)})
        denom = rad_norm(xs, space, cfg)
        for p in (1.0, 2.0, 4.0):
            numer = hprad_norm(D, p, cfg)
            ratio = numer.value / denom.value
            assert 0.25 <= ratio <= 4.0, (space, len(xs), p, ratio)
