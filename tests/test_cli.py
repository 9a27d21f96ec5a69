import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dirichlet_ruc
from dirichlet_ruc import ValidationError, parse_problem, serialize_problem

from conftest import run_cli

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def fix(name: str) -> str:
    return str(FIXTURES / name)


GOLDEN_COMMANDS = {
    "bohr_factorize": ["bohr", "factorize", "12"],
    "bohr_index_of": ["bohr", "index-of", "2", "1"],
    "bohr_primes": ["bohr", "primes", "10"],
    "bohr_ap": ["bohr", "ap", "--length", "5", "--bound", "100"],
    "norm_hilbert4": ["norm", "--input", fix("hilbert4.json")],
    "norm_hilbert4_mc": ["norm", "--input", fix("hilbert4.json"), "--method", "mc"],
    "norm_hilbert4_json": ["norm", "--input", fix("hilbert4.json"), "--format", "json"],
    "norm_function_l1": ["norm", "--input", fix("function_l1.json")],
    "circle_norm_l2pair": ["circle-norm", "--input", fix("l2pair.json")],
    "rad_norm_summing": ["rad-norm", "--input", fix("sup_summing3.json")],
    "hprad_norm_summing": ["hprad-norm", "--input", fix("sup_summing3.json")],
    "ruc_ratio_summing": ["ruc-ratio", "--input", fix("sup_summing3.json")],
    "ruc_search_summing": [
        "ruc-search", "--input", fix("sup_summing3.json"),
        "--restarts", "1", "--iterations", "2",
    ],
    # The same problem with every grid refused: the Monte Carlo route.
    "ruc_ratio_summing_mc": ["ruc-ratio", "--input", fix("sup_summing3_mc.json")],
    "ruc_search_summing_mc": [
        "ruc-search", "--input", fix("sup_summing3_mc.json"),
        "--restarts", "1", "--iterations", "2",
    ],
    # Sampled signs refuse the ratio's grid route while hp_norm's grid fits:
    # the numerator is Monte Carlo, the denominator quadrature.
    "ruc_ratio_summing_sampled": ["ruc-ratio", "--input", fix("sup_summing3_sampled.json")],
    "ruc_search_summing_sampled": [
        "ruc-search", "--input", fix("sup_summing3_sampled.json"),
        "--restarts", "1", "--iterations", "2",
    ],
    # FunctionLr(1.5, 2): every averaged norm spans several column blocks
    "rad_norm_function_lr2": ["rad-norm", "--input", fix("function_lr2.json")],
    "norm_function_lr2_mc": ["norm", "--input", fix("function_lr2.json"), "--method", "mc"],
    "hprad_norm_function_lr2": ["hprad-norm", "--input", fix("function_lr2.json")],
    "ruc_ratio_function_lr2": ["ruc-ratio", "--input", fix("function_lr2.json")],
    # the same family with every polytorus grid refused: the Monte Carlo routes
    "hprad_norm_function_lr2_mc": ["hprad-norm", "--input", fix("function_lr2_mc.json")],
    "ruc_ratio_function_lr2_mc": ["ruc-ratio", "--input", fix("function_lr2_mc.json")],
    "type_witness_l2pair": ["type-witness", "--input", fix("l2pair.json")],
    "cotype_witness_l2pair": ["cotype-witness", "--input", fix("l2pair.json")],
    "experiment_prime_ap": [
        "experiment", "prime-ap", "--lengths", "3..10", "--bound", "3000", "--seed", "7",
    ],
    "experiment_lacunary": ["experiment", "lacunary", "--max-n", "16"],
    "experiment_summing": [
        "experiment", "summing", "--coeffs", "1,1,1,1", "--seed", "7", "--samples", "2000",
    ],
    "experiment_kernel": ["experiment", "kernel", "--ns", "1,2,8"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_outputs(name, monkeypatch):
    monkeypatch.delenv("DIRICHLET_RUC_SEED", raising=False)
    argv = GOLDEN_COMMANDS[name]
    code1, out1, err1 = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == 0, err1
    assert out1 == out2, f"{name} not byte-stable across runs"
    golden_path = GOLDEN / f"{name}.txt"
    if os.environ.get("UPDATE_GOLDENS"):
        golden_path.write_text(out1)
    assert golden_path.exists(), f"missing golden file {golden_path}"
    assert out1 == golden_path.read_text(), f"{name} drifted from golden file"


def test_factorize_golden_cell():
    code, out, _ = run_cli(["bohr", "factorize", "12"])
    assert code == 0
    assert out.splitlines()[1] == "12,2 1"


def test_norm_hilbert4_value():
    code, out, _ = run_cli(["norm", "--input", fix("hilbert4.json")])
    assert code == 0
    header, row = out.splitlines()[:2]
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["value"]) == 2.0
    assert cells["value_mode"] == "exact"


def test_experiment_prime_ap_has_199_210():
    code, out, _ = run_cli(
        ["experiment", "prime-ap", "--lengths", "3..10", "--bound", "3000", "--seed", "7"]
    )
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    last = dict(zip(header, lines[-1].split(",")))
    assert last["N"] == "10" and last["start"] == "199" and last["step"] == "210"


@pytest.mark.parametrize(
    "fixture", ["bad_duplicate.json", "bad_complex.json", "bad_r.json"]
)
def test_malformed_fixtures_exit_2(fixture):
    code, out, err = run_cli(["norm", "--input", fix(fixture)])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_grid_policy_below_the_smallest_grid_exits_2(tmp_path):
    problem = json.loads((FIXTURES / "sup_summing3.json").read_text())
    problem["sampler"]["grid"] = {"factor": 1, "min_size": 2}  # valid under schema v1
    path = tmp_path / "min_size_2.json"
    path.write_text(json.dumps(problem))
    for command in ("hprad-norm", "ruc-ratio"):
        code, out, err = run_cli([command, "--input", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "min_size >= 3" in err and "Traceback" not in err


def test_zero_polynomial_ratio_exits_2(tmp_path):
    problem = json.loads((FIXTURES / "sup_summing3.json").read_text())
    for term in problem["terms"]:
        term["x"] = [[0, 0]] * 3
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(problem))
    # ruc-ratio let UndefinedRatioError (a ZeroDivisionError) escape as a traceback
    for command in ("ruc-ratio", "ruc-search", "type-witness"):
        code, out, err = run_cli([command, "--input", str(path)])
        assert (code, out) == (2, ""), command
        assert err.startswith("error:") and "Traceback" not in err, command
    assert run_cli(["ruc-ratio", "--input", str(path)])[2] == "error: zero polynomial\n"


def _sup_family(scale):
    return {
        "schema": 1, "space": {"variant": "Sup", "d": 2}, "p": 3,
        "terms": [
            {"n": 2, "x": [[scale, 0], [0, 0]]},
            {"n": 3, "x": [[0, 0], [scale, 0]]},
            {"n": 6, "x": [[scale, 0], [scale, 0]]},
        ],
    }


def _first_row(out):
    header, row = out.splitlines()[:2]
    return dict(zip(header.split(","), row.split(",")))


def test_ratio_of_underflowing_norms_is_the_unit_ratio(tmp_path):
    # At p = 3 the p-th powers of 1e-120 underflow: every norm read 0, and
    # ruc-ratio and ruc-search exited 2 (a ZeroDivisionError before that).
    rows = {}
    for scale in (1, 1e-120):
        path = tmp_path / f"family_{scale}.json"
        path.write_text(json.dumps(_sup_family(scale)))
        for command in ("ruc-ratio", "ruc-search", "hprad-norm"):
            code, out, err = run_cli([command, "--input", str(path)])
            assert code == 0, err
            rows[scale, command] = _first_row(out)
    for command, ratio in (("ruc-ratio", "ratio"), ("ruc-search", "best_ratio")):
        tiny, unit = rows[1e-120, command], rows[1, command]
        assert float(tiny[ratio]) == pytest.approx(float(unit[ratio]), rel=1e-13)
        assert float(tiny["numerator"]) == pytest.approx(float(unit["numerator"]) * 1e-120, rel=1e-13)
    tiny, unit = rows[1e-120, "hprad-norm"], rows[1, "hprad-norm"]
    assert float(tiny["value"]) == pytest.approx(float(unit["value"]) * 1e-120, rel=1e-13)


@pytest.mark.parametrize(
    "old, new",
    [
        ("[[1, 0], [1, 0], [0, 0]]", "[[1e400, 0], [1, 0], [0, 0]]"),
        ('"variant": "Sup", "d": 3', '"variant": "Sequence", "r": 1e400, "d": 3'),
    ],
    ids=["coefficient", "r"],
)
def test_numbers_past_the_float_range_exit_2(tmp_path, old, new):
    text = (FIXTURES / "sup_summing3.json").read_text()
    assert old in text
    path = tmp_path / "huge.json"
    path.write_text(text.replace(old, new))
    with pytest.raises(ValidationError, match="invalid JSON: 1e400"):
        parse_problem(text.replace(old, new))  # Python's json reads them as +-inf
    for argv in (["norm"], ["type-witness"], ["ruc-search", "--p", "1"]):
        code, out, err = run_cli(argv + ["--input", str(path)])
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: invalid JSON: 1e400"), argv


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_p_exits_2(tmp_path, literal):
    text = (FIXTURES / "sup_summing3.json").read_text().replace('"p": 2', f'"p": {literal}')
    path = tmp_path / "p.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match="invalid JSON"):
        parse_problem(text)  # Python's json reads these, 1e400 as inf; JSON has no such numbers
    for argv in (
        ["norm", "--input", str(path)],
        ["norm", "--input", fix("sup_summing3.json"), f"--p={float(literal)}"],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:"), argv


def test_validation_error_pointers():
    with pytest.raises(ValidationError) as info:
        parse_problem((FIXTURES / "bad_duplicate.json").read_bytes())
    assert info.value.pointer == "/terms/1/n"
    with pytest.raises(ValidationError) as info:
        parse_problem((FIXTURES / "bad_complex.json").read_bytes())
    assert "/terms/0/x" in info.value.pointer
    with pytest.raises(ValidationError) as info:
        parse_problem((FIXTURES / "bad_r.json").read_bytes())
    assert "/space" in info.value.pointer


def test_unknown_subcommand_exit_2():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def test_parse_rejects_small_p_and_bad_bytes():
    with pytest.raises(ValidationError) as info:
        parse_problem(
            b'{"schema":1,"space":{"variant":"Hilbert","d":1},"p":0.5,"terms":[]}'
        )
    assert info.value.pointer == "/p"
    with pytest.raises(ValidationError):
        parse_problem(b"\xff\xfe not json")


def test_csv_numeric_cells_carry_mode_and_stderr():
    for argv in (
        ["norm", "--input", fix("hilbert4.json")],
        ["experiment", "kernel", "--ns", "1,2"],
        ["ruc-ratio", "--input", fix("sup_summing3.json")],
    ):
        code, out, _ = run_cli(argv)
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert any(c.endswith("_mode") for c in header)
        assert any(c.endswith("_stderr") for c in header)


def test_parse_examples():
    problem = parse_problem(
        b'{"schema":1,"space":{"variant":"Hilbert","d":1},"p":2,'
        b'"terms":[{"n":2,"x":[[3,0]]}]}'
    )
    assert problem.polynomial.terms[2][0] == 3
    empty = parse_problem(
        b'{"schema":1,"space":{"variant":"Hilbert","d":1},"terms":[]}'
    )
    assert empty.polynomial.is_zero()


def test_parse_serialize_roundtrip():
    for name in ("hilbert4.json", "sup_summing3.json", "function_l1.json"):
        first = parse_problem((FIXTURES / name).read_bytes())
        data = serialize_problem(first)
        second = parse_problem(json.dumps(data).encode())
        assert serialize_problem(second) == data
        assert second.polynomial.space == first.polynomial.space
        assert sorted(second.polynomial.terms) == sorted(first.polynomial.terms)
        assert second.sampler == first.sampler


def test_env_seed_fallback(monkeypatch):
    # file has no explicit sampler seed -> env variable drives sampling
    body = (
        '{"schema":1,"space":{"variant":"Sup","d":2},"p":1,'
        '"terms":[{"n":2,"x":[[1,0],[0,0]]},{"n":3,"x":[[0,0],[1,0]]},'
        '{"n":5,"x":[[1,0],[1,0]]}]}'
    )
    path = FIXTURES / "tmp_env_seed.json"
    path.write_text(body)
    try:
        code, via_env, _ = run_cli(
            ["norm", "--input", str(path)], env={"DIRICHLET_RUC_SEED": "123"},
            monkeypatch=monkeypatch,
        )
        assert code == 0
        monkeypatch.delenv("DIRICHLET_RUC_SEED")
        code, via_flag, _ = run_cli(["norm", "--input", str(path), "--seed", "123"])
        assert via_env == via_flag
        code, default_seed, _ = run_cli(["norm", "--input", str(path)])
        assert default_seed != via_env
    finally:
        path.unlink()


def test_plot_output(tmp_path):
    target = tmp_path / "chart.svg"
    code, _, _ = run_cli(
        ["experiment", "lacunary", "--max-n", "8", "--plot", str(target)]
    )
    assert code == 0
    body = target.read_text()
    assert body.startswith("<svg") and "polyline" in body


def test_plot_without_points_writes_no_chart(tmp_path):
    # No 8-term AP of primes fits below 50, so no row has a ratio to plot.
    target = tmp_path / "chart.svg"
    argv = ["experiment", "prime-ap", "--lengths", "8", "--bound", "50"]
    _, plain, _ = run_cli(argv)
    code, out, err = run_cli([*argv, "--plot", str(target)])
    assert code == 0 and out == plain
    assert not target.exists()
    assert len(err.splitlines()) == 1 and "not written" in err


def test_json_format_is_valid_json():
    code, out, _ = run_cli(["norm", "--input", fix("hilbert4.json"), "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["value"] == 2.0


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(dirichlet_ruc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


def test_cli_import_leaves_scipy_and_jsonschema_unloaded():
    # The runtime needs neither: they serve the tests as references only.
    done = _run_python(
        "import sys, dirichlet_ruc.cli; "
        "print(sorted(m for m in ('scipy', 'jsonschema') if m in sys.modules))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_kernel_and_problem_commands_run_without_scipy_and_jsonschema():
    argvs = [
        ["experiment", "kernel", "--ns", "2,8"],
        ["experiment", "prime-ap", "--lengths", "3..5", "--bound", "100"],
        ["experiment", "lacunary", "--max-n", "8"],
        ["norm", "--input", fix("hilbert4.json")],
    ]
    done = _run_python(
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['jsonschema'] = None  # makes their import fail\n"
        "from dirichlet_ruc import cli\n"
        f"for argv in {argvs!r}:\n"
        "    assert cli.run(argv) == 0, argv\n"
    )
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == (1 + 2) + (1 + 3) + (1 + 4) + (1 + 1)  # headers, rows


def _valid_problem() -> dict:
    return {
        "schema": 1,
        "space": {"variant": "FunctionLr", "r": 1.5, "k": 2},
        "p": 2,
        "terms": [
            {"n": 1, "x": [[1, 0], {"exponents": [0, 1], "c": [1, 0]}]},
            {"n": 3, "x": [[0.5, 0.25]]},
        ],
        "coefficients": [[1, 0], [0, 1]],
        "sampler": {
            "seed": 3, "samples": 10, "exact_cutoff": 4,
            "grid": {"factor": 2, "min_size": 4, "max_points": 64},
        },
    }


def _single_faults(doc: dict):
    """One mutation at a time of every node of doc: dropped, replaced by a
    bool, 1.0, 0.5, a value past every bound, a 1- or 3-element pair, an
    object; and every object given an extra key."""

    def nodes(node, path=()):
        yield path, node
        if not isinstance(node, (dict, list)):
            return
        children = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in children:
            yield from nodes(child, path + (key,))

    drop = object()

    def edited(path, value):
        copy = json.loads(json.dumps(doc))
        parent = copy
        for key in path[:-1]:
            parent = parent[key]
        if value is drop:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return copy

    for path, node in list(nodes(doc))[1:]:
        for value in (drop, True, 1.0, 0.5, -1, 25, "x", [1], [1, 2, 3], {}):
            yield edited(path, value)
        if isinstance(node, dict):
            yield edited(path + ("extra",), 1)
    yield edited(("extra",), 1)


def test_schema_validator_matches_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    from dirichlet_ruc.serialization import PROBLEM_SCHEMA, _check_schema

    reference = jsonschema.Draft202012Validator(PROBLEM_SCHEMA)
    documents = [json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))]
    documents += [_valid_problem(), *_single_faults(_valid_problem())]
    rejected = 0
    for doc in documents:
        want = jsonschema.exceptions.best_match(reference.iter_errors(doc))
        if want is not None:
            want = ("/" + "/".join(str(part) for part in want.absolute_path), want.message)
            rejected += 1
        try:
            _check_schema(doc)
            got = None
        except ValidationError as exc:
            got = (exc.pointer, exc.message)
        assert got == want, json.dumps(doc)
    assert rejected > 300 and len(documents) - rejected > 50  # both outcomes well covered


def _witness_rows(tmp_path, space, xs, samples=1500):
    """type-witness and cotype-witness JSON rows, plus the library's sign
    average and denominator, for the family xs (terms n = 1, 2, ...)."""
    problem = {
        "schema": 1,
        "space": space,
        "p": 2,
        "terms": [{"n": n + 1, "x": x} for n, x in enumerate(xs)],
        "sampler": {"seed": 5, "samples": samples},
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(problem))
    rows = []
    for command in ("type-witness", "cotype-witness"):
        code, out, err = run_cli([command, "--input", str(path), "--format", "json"])
        assert code == 0, err
        (row,) = json.loads(out)
        rows.append(row)
    parsed = parse_problem(path.read_bytes())
    elements = [x for _, x in sorted(parsed.polynomial.terms.items())]
    average = dirichlet_ruc.rademacher_average(elements, parsed.polynomial.space, 2.0, parsed.sampler)
    return rows, average


def _vectors(rng, count, d):
    return [[[float(v.real), float(v.imag)] for v in rng.standard_normal(d) + 1j * rng.standard_normal(d)]
            for _ in range(count)]


def test_witness_past_exact_cutoff_reports_its_mc_stderr(tmp_path):
    # 22 vectors: the sign average is sampled, so the witness carries its stderr
    rows, average = _witness_rows(tmp_path, {"variant": "Sup", "d": 3},
                                  _vectors(np.random.default_rng(30), 22, 3))
    type_row, cotype_row = rows
    assert average.mode == "mc" and average.stderr > 0
    assert type_row["witness_mode"] == cotype_row["witness_mode"] == "mc"
    relative = average.stderr / average.value
    assert type_row["witness_stderr"] > 0
    assert type_row["witness_stderr"] / type_row["witness"] == pytest.approx(relative, rel=1e-12)
    assert cotype_row["witness_stderr"] / cotype_row["witness"] == pytest.approx(relative, rel=1e-12)
    assert cotype_row["witness"] == 1.0 / type_row["witness"]


def test_witness_of_a_large_hilbert_family_is_exact(tmp_path):
    # Parseval gives the sign average in closed form at any length
    rows, average = _witness_rows(tmp_path, {"variant": "Hilbert", "d": 4},
                                  _vectors(np.random.default_rng(31), 22, 4))
    assert average.mode == "exact"
    for row in rows:
        assert row["witness_mode"] == "exact"
        assert row["witness_stderr"] == 0.0 and row["witness_quad_error"] == 0.0
        assert row["witness"] == pytest.approx(1.0, abs=1e-12)


def test_witness_of_a_function_space_family_is_quadrature(tmp_path):
    xs = [
        [{"exponents": [0], "c": [1, 0]}, {"exponents": [2], "c": [0.5, 0.25]}],
        [{"exponents": [1], "c": [1, -1]}],
        [{"exponents": [3], "c": [0.75, 0]}, {"exponents": [-1], "c": [0, 1]}],
    ]
    rows, average = _witness_rows(tmp_path, {"variant": "FunctionLr", "r": 1.5, "k": 1}, xs)
    assert average.mode == "quadrature" and average.quad_error > 0
    type_row, cotype_row = rows
    assert type_row["witness_mode"] == cotype_row["witness_mode"] == "quadrature"
    # the denominator's norms are quadratures too: their relative error adds
    parsed = parse_problem((tmp_path / "family.json").read_bytes()).polynomial
    norms = [dirichlet_ruc.spaces.norm(parsed.space, x) for x in parsed.terms.values()]
    assert max(n.quad_error for n in norms) > 0
    from_norms = sum(n.value * n.quad_error for n in norms) / sum(n.value**2 for n in norms)
    assert from_norms > 0.2 * average.quad_error / average.value
    relative = average.quad_error / average.value + from_norms
    assert type_row["witness_quad_error"] / type_row["witness"] == pytest.approx(relative, rel=1e-12)
    assert cotype_row["witness_quad_error"] / cotype_row["witness"] == pytest.approx(relative, rel=1e-12)
    assert type_row["witness_stderr"] == cotype_row["witness_stderr"] == 0.0


def test_witness_command_evaluates_the_sign_average_once(tmp_path, monkeypatch):
    calls = []
    average = dirichlet_ruc.constants.rademacher_average

    def counted(*args, **kwargs):
        calls.append(args)
        return average(*args, **kwargs)

    monkeypatch.setattr(dirichlet_ruc.constants, "rademacher_average", counted)
    for command in ("type-witness", "cotype-witness"):
        calls.clear()
        code, _, err = run_cli([command, "--input", fix("l2pair.json")])
        assert code == 0, err
        assert len(calls) == 1


def test_ratio_cells_keep_monte_carlo_and_quadrature_errors_apart():
    from dirichlet_ruc.cli import ratio_cells
    from dirichlet_ruc.sampling import Estimate

    num = Estimate(value=2.0, stderr=0.02, samples_used=100, mode="mc")
    den = Estimate(value=4.0, mode="quadrature", quad_error=0.08)
    cells = ratio_cells("r", num, den, 0.5)
    assert cells["r_stderr"] == pytest.approx(0.5 * 0.01, rel=1e-15)
    assert cells["r_quad_error"] == pytest.approx(0.5 * 0.02, rel=1e-15)
    assert cells["r_mode"] == "mc"
    both = Estimate(value=4.0, stderr=0.04, samples_used=100, mode="mc", quad_error=0.08)
    cells = ratio_cells("r", num, both, 0.5)
    assert cells["r_stderr"] == pytest.approx(0.5 * np.hypot(0.01, 0.01), rel=1e-15)
    assert cells["r_quad_error"] == pytest.approx(0.5 * 0.02, rel=1e-15)
    # A ratio taken on one grid pass brings its own quadrature error.
    grid = Estimate(value=2.0, mode="quadrature", quad_error=0.1)
    cells = ratio_cells("r", grid, grid, 1.0, quad_error=0.0)
    assert (cells["r"], cells["r_stderr"], cells["r_quad_error"]) == (1.0, 0.0, 0.0)


def test_single_coset_ratio_cells_read_exactly_one():
    code, out, _ = run_cli(["ruc-ratio", "--input", fix("sup_summing3.json")])
    assert code == 0
    header, row = out.splitlines()[:2]
    cells = dict(zip(header.split(","), row.split(",")))
    assert (cells["ratio"], cells["ratio_stderr"], cells["ratio_quad_error"]) == ("1.0", "0.0", "0.0")
    assert cells["numerator"] == cells["denominator"]
