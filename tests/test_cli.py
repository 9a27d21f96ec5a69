import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_json_format_is_valid_json():
    code, out, _ = run_cli(["norm", "--input", fix("hilbert4.json"), "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["value"] == 2.0


def test_cli_import_leaves_scipy_and_jsonschema_unloaded():
    # Both load on first use (the Dirichlet kernel, a problem file), so
    # commands that need neither do not pay for importing them.
    src = str(Path(dirichlet_ruc.__file__).resolve().parents[1])
    code = (
        "import sys, dirichlet_ruc.cli; "
        "print(sorted(m for m in ('scipy', 'jsonschema') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
