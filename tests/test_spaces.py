import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate

import dirichlet_ruc
from dirichlet_ruc import (
    DirichletPolynomial,
    DomainError,
    FunctionLr,
    GridPolicy,
    ResourceError,
    HilbertSpace,
    SequenceSpace,
    ShapeError,
    SupSpace,
    SamplerConfig,
    TrigPolynomial,
    hp_norm,
    hprad_norm,
    norm,
    rad_norm,
    ruc_ratio,
    summing_combination,
    trig_eval,
)
from dirichlet_ruc import spaces
from dirichlet_ruc.errors import ArityError
from dirichlet_ruc.sampling import _half_points
from dirichlet_ruc.spaces import (
    INNER_GRID,
    NORM_GRID,
    CombinationEvaluator,
    _column_blocks,
    _inner_grid,
    as_element,
    coordinate_norms,
    coordinate_norms_of_rows,
    is_hilbertian,
)

from conftest import HALF_INNER_GRID, assert_close


def test_norm_examples():
    assert norm(SequenceSpace(1, 3), [1, 1, 1]).value == 3.0
    assert norm(SupSpace(3), [1, -2, 1]).value == 2.0
    assert norm(HilbertSpace(2), [3, 4]).value == 5.0


def test_function_l1_norm_of_one_plus_w():
    # Independent oracle: (1/2pi) * integral |1 + e^{it}| dt.
    oracle, err = integrate.quad(lambda t: abs(1 + np.exp(1j * t)), 0, 2 * math.pi)
    oracle /= 2 * math.pi
    assert_close(oracle, 4 / math.pi, 1e-9, "oracle vs closed form")
    est = norm(FunctionLr(1, 1), {(0,): 1, (1,): 1})
    assert est.mode == "quadrature"
    assert abs(est.value - 4 / math.pi) <= max(3 * est.quad_error, 1e-3)


def test_space_validation():
    with pytest.raises(DomainError):
        SequenceSpace(0.5, 3)
    with pytest.raises(DomainError):
        FunctionLr(1, 0)
    with pytest.raises(ShapeError):
        norm(HilbertSpace(3), [1, 2])


def test_homogeneity_exact_spaces(rng):
    spaces = [SequenceSpace(1, 4), SequenceSpace(2.5, 4), HilbertSpace(4), SupSpace(4)]
    for i in range(200):
        space = spaces[i % len(spaces)]
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c = complex(rng.standard_normal(), rng.standard_normal())
        lhs = norm(space, c * x).value
        rhs = abs(c) * norm(space, x).value
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_homogeneity_function_space(rng):
    space = FunctionLr(1.5, 2)
    for _ in range(20):
        coeffs = {
            (int(rng.integers(-3, 4)), int(rng.integers(-3, 4))): complex(
                rng.standard_normal(), rng.standard_normal()
            )
            for _ in range(3)
        }
        x = TrigPolynomial(coeffs, 2)
        c = complex(rng.standard_normal(), rng.standard_normal())
        ex = norm(space, x)
        ecx = norm(space, c * x)
        tol = abs(c) * ex.quad_error + ecx.quad_error + 1e-9
        assert abs(ecx.value - abs(c) * ex.value) <= tol


def test_triangle_inequality(rng):
    spaces = [SequenceSpace(1, 3), SequenceSpace(3, 3), SupSpace(3), HilbertSpace(3)]
    for i in range(200):
        space = spaces[i % len(spaces)]
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        nx, ny, nxy = norm(space, x), norm(space, y), norm(space, x + y)
        slack = 3 * (nx.uncertainty + ny.uncertainty + nxy.uncertainty) + 1e-12
        assert nxy.value <= nx.value + ny.value + slack


def test_triangle_inequality_function_space(rng):
    space = FunctionLr(1, 1)
    for _ in range(20):
        x = TrigPolynomial({(int(rng.integers(-4, 5)),): 1.0 + 0.3j, (1,): 0.5}, 1)
        y = TrigPolynomial({(int(rng.integers(-4, 5)),): complex(rng.standard_normal()), (0,): 1}, 1)
        nx, ny, nxy = norm(space, x), norm(space, y), norm(space, x + y)
        slack = 3 * (nx.uncertainty + ny.uncertainty + nxy.uncertainty) + 1e-9
        assert nxy.value <= nx.value + ny.value + slack


def test_function_l2_is_parseval(rng):
    space = FunctionLr(2, 2)
    for _ in range(25):
        coeffs = {
            (int(rng.integers(-5, 6)), int(rng.integers(-5, 6))): complex(
                rng.standard_normal(), rng.standard_normal()
            )
            for _ in range(4)
        }
        x = TrigPolynomial(coeffs, 2)
        est = norm(space, x)
        assert abs(est.value - x.l2_norm()) <= 1e-10


def test_summing_combination_examples():
    _, value = summing_combination([1, 1, 1])
    assert value == 3.0
    element, value = summing_combination([1, -1, 1])
    assert value == 1.0
    assert np.allclose(element, [1, 0, 1])
    assert summing_combination([1])[1] == 1.0
    with pytest.raises(DomainError):
        summing_combination([])


def test_summing_combination_matches_sup_norm(rng):
    for _ in range(50):
        m = int(rng.integers(1, 9))
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        element, value = summing_combination(a)
        assert value == norm(SupSpace(m), element).value


def test_trig_eval_examples():
    assert trig_eval(TrigPolynomial({(0,): 1}, 1), (0.3 + 0.9539392014169456j,)) == 1
    assert abs(trig_eval(TrigPolynomial({(1,): 1}, 1), (-1,)) + 1) < 1e-12
    value = trig_eval(TrigPolynomial({(1,): 1, (-1,): 1}, 1), (1j,))
    assert abs(value) < 1e-12
    with pytest.raises(ArityError):
        trig_eval(TrigPolynomial({(1, 1): 1}, 2), (1j,))


def test_evaluator_matches_single_norms(rng):
    space = SequenceSpace(1.5, 3)
    xs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(4)]
    ev = CombinationEvaluator(space, xs)
    coeff = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    combo = sum(c * x for c, x in zip(coeff, xs))
    assert abs(ev.norms(coeff[:, None])[0] - norm(space, combo).value) < 1e-10


def test_is_hilbertian():
    assert is_hilbertian(HilbertSpace(3))
    assert is_hilbertian(SequenceSpace(2, 5))
    assert is_hilbertian(SequenceSpace(7, 1))
    assert is_hilbertian(FunctionLr(2, 2))
    assert not is_hilbertian(SupSpace(2))
    assert not is_hilbertian(FunctionLr(1, 1))


def test_as_element_function_space():
    x = as_element(FunctionLr(1, 2), {(1,): 2.0})
    assert isinstance(x, TrigPolynomial) and x.coeffs == {(1, 0): 2.0}
    with pytest.raises(ShapeError):
        as_element(FunctionLr(1, 1), {(1, 2): 1.0})


@st.composite
def coordinate_rows(draw):
    """A coordinate space of dimension d and a (d, count, patterns) complex
    array of more than one vector, with huge, infinite and NaN coordinates
    among the ordinary ones."""
    d = draw(st.integers(1, 12))
    space = draw(
        st.sampled_from(
            [SupSpace(d), HilbertSpace(d)]
            + [SequenceSpace(r, d) for r in (1.0, 1.5, 2.0, 3.0, math.inf)]
        )
    )
    count, patterns = draw(
        st.tuples(st.integers(1, 4), st.integers(1, 5)).filter(lambda s: s[0] * s[1] > 1)
    )
    parts = st.one_of(
        st.floats(-4, 4),
        st.sampled_from([0.0, 1e300, -1e-300, math.inf, -math.inf, math.nan]),
    )
    entries = st.builds(complex, parts, parts)
    combos = draw(arrays(np.complex128, (d, count, patterns), elements=entries))
    return space, combos


@settings(max_examples=100, deadline=None)
@given(case=coordinate_rows())
def test_norms_of_rows_match_coordinate_norms_bitwise(case):
    # Reducing coordinate by coordinate, as hprad_norm does, gives the bits of
    # the reduction over axis 0 of the stacked (d, N > 1) matrix.
    space, combos = case
    d, count, patterns = combos.shape
    with np.errstate(over="ignore", invalid="ignore"):
        want = coordinate_norms(space, combos.reshape(d, -1)).reshape(count, patterns)
        got = coordinate_norms_of_rows(space, iter(combos))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _old_function_grid(max_exponents, scale=1):
    """The function-space grid rule before it ran through the polytorus's:
    per variable 1 point when constant, else max(8 e, 64) * scale rounded up
    to a power of two; None past 2^22 points in all."""
    sizes = []
    for e in max_exponents:
        raw = int(max(8 * e, 64) * scale)
        sizes.append(1 if e == 0 else 1 << (max(raw, 1) - 1).bit_length())
    return None if math.prod(sizes) > 1 << 22 else sizes


def _grid_or_none(polys, policy):
    try:
        return _inner_grid(polys, policy)
    except ResourceError:
        return None


@st.composite
def _trig_families(draw):
    k = draw(st.integers(1, 3))
    constant = draw(st.lists(st.booleans(), min_size=k, max_size=k))  # variables no term uses
    exponent = st.integers(-300, 300)
    key = st.tuples(*[st.just(0) if c else exponent for c in constant])
    polys = draw(st.lists(st.dictionaries(key, st.just(1.0), max_size=4), min_size=1, max_size=3))
    return [TrigPolynomial(p, k) for p in polys]


@settings(max_examples=200, deadline=None)
@given(_trig_families())
def test_inner_grid_sizes_are_the_old_rule(polys):
    tops = [max((abs(b[j]) for p in polys for b in p.coeffs), default=0) for j in range(polys[0].k)]
    kept = [j for j, e in enumerate(tops) if e]

    def on_used(sizes):
        return None if sizes is None else [sizes[j] for j in kept]

    for policy, scale in ((INNER_GRID, 1), (NORM_GRID, 2)):
        grid = _grid_or_none(polys, policy)
        assert (grid is None) == (_old_function_grid(tops, scale) is None)
        if grid is not None:
            used, fine, half = grid
            assert fine == on_used(_old_function_grid(tops, scale))
            assert half == on_used(_old_function_grid(tops, scale / 2))
            assert used.shape == (sum(len(p.coeffs) for p in polys) or 1, len(kept))


@pytest.mark.parametrize(
    "policy, top", [(INNER_GRID, 1 << 19), (NORM_GRID, 1 << 18)], ids=["inner", "norm"]
)
def test_inner_grid_budget_boundary(policy, top, monkeypatch):
    assert _inner_grid([TrigPolynomial({(top,): 1.0}, 1)], policy)[1] == [1 << 22]
    assert _inner_grid([TrigPolynomial({(-top, 0): 1.0}, 2)], policy)[1] == [1 << 22]
    over = TrigPolynomial({(top + 1,): 1.0}, 1)
    with pytest.raises(ResourceError):
        _inner_grid([over], policy)

    def built(*args):
        raise AssertionError("grid values built past the budget")

    monkeypatch.setattr(spaces, "_grid_values", built)
    with pytest.raises(ResourceError):
        if policy is NORM_GRID:
            norm(FunctionLr(1.0, 1), over)
        else:
            CombinationEvaluator(FunctionLr(1.0, 1), [over])
    with pytest.raises(ResourceError):  # an exponent past int64 is refused as well
        _inner_grid([TrigPolynomial({(1 << 70,): 1.0}, 1)], policy)


def _random_trig(rng, k, terms=4, top=5):
    keys = [tuple(int(e) for e in rng.integers(-top, top + 1, size=k)) for _ in range(terms)]
    return TrigPolynomial({key: complex(*rng.standard_normal(2)) for key in keys}, k)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("r", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("signs", [False, True], ids=["plain", "patterns"])
def test_half_inner_grid_read_from_the_fine_pass_equals_its_own_pass(k, r, signs):
    rng = np.random.default_rng(100 * k + int(2 * r))
    space = FunctionLr(r, k)
    xs = [_random_trig(rng, k) for _ in range(3)]
    patterns = np.array([[1.0, -1.0], [1.0, 1.0], [1.0, -1.0]]) if signs else None
    columns = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    fine = CombinationEvaluator(space, xs, patterns=patterns)
    half = np.empty(5 * fine.patterns)
    values = fine.norms(columns, half)
    alone = CombinationEvaluator(space, xs, HALF_INNER_GRID, patterns=patterns)
    assert fine.grid_points == alone.grid_points << k
    expected = alone.norms(columns)
    if k <= 2:
        assert half.tobytes() == expected.tobytes()
    else:
        np.testing.assert_allclose(half, expected, rtol=1e-15, atol=0)
    assert values.tobytes() == fine.norms(columns).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_norm_reads_its_error_from_one_pass(k):
    rng = np.random.default_rng(7 + k)
    space = FunctionLr(1.5, k)
    x = _random_trig(rng, k)
    est = norm(space, x)
    value = CombinationEvaluator(space, [x], NORM_GRID).norms(np.ones(1))[0]
    rough = CombinationEvaluator(space, [x]).norms(np.ones(1))[0]
    assert est.value == value
    assert est.samples_used == CombinationEvaluator(space, [x], NORM_GRID).grid_points
    if k <= 2:
        assert est.quad_error == abs(value - rough)
    else:  # each norm within 1e-15 relative of its own pass
        assert est.quad_error == pytest.approx(abs(value - rough), rel=0, abs=2e-15 * value)


def _one_product_norms(evaluator, c, half=None):
    """CombinationEvaluator.norms in a function space as one product over
    every column, the rule before column blocks."""
    r = evaluator.space.r
    mags = np.abs(evaluator._stacked @ c)
    mags **= r
    powers = mags.reshape(evaluator.patterns, -1, c.shape[1])
    if half is not None:
        grid = powers.reshape(evaluator.patterns, *evaluator._grid, -1)
        rows = grid[(slice(None), *_half_points(evaluator._grid, evaluator._half))]
        half[:] = (rows.mean(axis=tuple(range(1, rows.ndim - 1))) ** (1.0 / r)).T.reshape(-1)
    return (powers.mean(axis=1) ** (1.0 / r)).T.reshape(-1)


@st.composite
def _blocked_cases(draw):
    k = draw(st.sampled_from([1, 2, 3]))
    r = draw(st.sampled_from([1.0, 1.5, 3.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    signs = draw(st.booleans())
    with_half = draw(st.booleans())
    budget = draw(st.sampled_from([1, 8, 12, 16, 20, 24]))  # rows per block before the width rule
    count = draw(st.sampled_from(["1", "2", "w-1", "w", "w+1", "3w+1"]))
    min_size = draw(st.sampled_from([4, 8]))  # small grids keep k = 3 within a few MiB
    return k, r, seed, signs, with_half, budget, count, min_size


@settings(max_examples=200, deadline=None)
@given(_blocked_cases())
def test_blocked_norms_equal_one_product_bitwise(case):
    k, r, seed, signs, with_half, budget, count, min_size = case
    rng = np.random.default_rng(seed)
    xs = [_random_trig(rng, k, top=2) for _ in range(3)]
    patterns = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]) if signs else None
    evaluator = CombinationEvaluator(FunctionLr(r, k), xs, GridPolicy(2, min_size), patterns)
    rows = evaluator.patterns * evaluator.grid_points
    width = max(8, budget // 8 * 8)
    columns = {"1": 1, "2": 2, "w-1": width - 1, "w": width, "w+1": width + 1, "3w+1": 3 * width + 1}[count]
    c = rng.standard_normal((3, columns)) + 1j * rng.standard_normal((3, columns))
    expected_half = np.empty(columns * evaluator.patterns)
    expected = _one_product_norms(evaluator, c, expected_half if with_half else None)
    half = np.empty(columns * evaluator.patterns) if with_half else None
    with mock.patch.object(spaces, "_BLOCK_VALUES", budget * rows):
        assert len(_column_blocks(columns, rows)) == max(1, (columns - 1) // width)  # w + 1 is one block
        values = evaluator.norms(c, half)
    assert values.tobytes() == expected.tobytes()
    if with_half:
        assert half.tobytes() == expected_half.tobytes()


@pytest.mark.parametrize("rows", [1, 7, 3000, 4096, 1 << 15, 1 << 17, 1 << 20])
@pytest.mark.parametrize("columns", [1, 2, 8, 9, 63, 64, 65, 129, 512, 1000])
def test_column_blocks_keep_the_bit_rules(rows, columns):
    blocks = _column_blocks(columns, rows)
    widths = [hi - lo for lo, hi in blocks]
    assert blocks[0][0] == 0 and blocks[-1][1] == columns
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    assert all(w % 8 == 0 for w in widths[:-1])  # BLAS column tails on the same columns
    assert 1 not in widths or widths == [1]  # no gemv and no pairwise 1-column mean
    width = max(8, spaces._BLOCK_VALUES // rows // 8 * 8)
    assert width * rows <= max(spaces._BLOCK_VALUES, 8 * rows)
    assert max(widths[:-1], default=0) <= width and widths[-1] <= width + 1  # + a joined remainder
    assert max(widths) * rows <= max(spaces._BLOCK_VALUES, 8 * rows) + rows


def _exact_signs_family(m, seed=0):
    """A family shaped like the exact_signs workload's FunctionLr(1, 2) op:
    three exponents in [-3, 3]^2 per element, normal complex coefficients."""
    rng = np.random.default_rng(seed)
    polys = []
    for _ in range(m):
        keys = {tuple(int(e) for e in rng.integers(-3, 4, size=2)) for _ in range(3)}
        polys.append(TrigPolynomial({key: complex(*rng.standard_normal(2)) for key in keys}, 2))
    return polys


def test_rad_norm_on_a_function_space_adds_little_resident_memory():
    # One 512-column product over 4096 grid points took 32 MiB of complex
    # values and 16 MiB of moduli, and the process grew by about 50 MiB.
    # The peak is VmHWM, the high-water mark of the process's own pages:
    # ru_maxrss carries the launching process's peak through fork and exec.
    code = (
        "def peak():\n"
        "    return int(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')).split()[1])\n"
        "import numpy as np\n"
        "from dirichlet_ruc import FunctionLr, SamplerConfig, TrigPolynomial, rad_norm\n"
        "rng = np.random.default_rng(0)\n"
        "family = []\n"
        "for _ in range(10):\n"
        "    keys = {tuple(int(e) for e in rng.integers(-3, 4, size=2)) for _ in range(3)}\n"
        "    family.append(TrigPolynomial({key: complex(*rng.standard_normal(2)) for key in keys}, 2))\n"
        "before = peak()\n"
        "assert rad_norm(family, FunctionLr(1.0, 2), SamplerConfig()).mode == 'quadrature'\n"
        "print(peak() - before)\n"
    )
    src = str(Path(dirichlet_ruc.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 20 * 1024  # KiB


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _function_polynomial(support):
    return DirichletPolynomial(FunctionLr(1.0, 2), dict(zip(support, _exact_signs_family(len(support), 1))))


@pytest.mark.parametrize(
    "name, call",
    [
        ("rad_norm", lambda: rad_norm(_exact_signs_family(10), FunctionLr(1.0, 2), SamplerConfig())),
        ("hp_norm_mc", lambda: hp_norm(
            _function_polynomial([2, 3, 5, 7]), 1.0, SamplerConfig(seed=1, samples=2000), method="mc")),
        ("hprad_norm_off_the_grid", lambda: hprad_norm(
            _function_polynomial([2, 3, 5, 7]), 1.0, SamplerConfig(seed=1, samples=400))),
        ("ruc_ratio_on_the_grid", lambda: ruc_ratio(
            _function_polynomial([2, 3, 4, 6]), 1.0, SamplerConfig(seed=1, samples=400))),
    ],
)
def test_function_space_averages_stay_within_a_few_blocks(name, call):
    # Each makes norms calls of 2^21 product values, which took about 48 MiB
    # as one product; in blocks of 2^18 values they take about 9 MiB.
    assert _traced_peak(call) <= 16 * 1024 * 1024
