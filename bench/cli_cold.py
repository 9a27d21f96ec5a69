"""The cli_cold workload: `python -m dirichlet_ruc.cli` in a fresh interpreter.

A cycle is the fixed list of invocations in COMMANDS.  Problem files are
written from the workload seed into a temporary directory inside the
checkout, and every command's arguments are drawn from the same seed.
Traced invocations run bench/cli_traced.py instead, which imports the CLI,
installs the span wrappers and calls the same `cli.run`.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref
from workloads import Checks, Op, op_rng

BENCH_DIR = Path(__file__).resolve().parent

COMMANDS = [
    "bohr-factorize",
    "bohr-ap",
    "experiment-kernel",
    "experiment-prime-ap",
    "experiment-lacunary",
    "experiment-summing",
    "norm-sup",
    "ruc-ratio",
    "rad-norm",
    "type-witness",
]

_PRIMES = ref.primes_below(1 << 20)


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _problem(rng, variant: dict, terms: int, dim: int, p: float, samples: int) -> dict:
    ns = sorted(int(n) for n in rng.choice(np.arange(1, 31), terms, replace=False))
    return {
        "schema": 1,
        "space": variant,
        "p": p,
        "terms": [
            {"n": n, "x": [_pair(complex(*rng.standard_normal(2))) for _ in range(dim)]}
            for n in ns
        ],
        "sampler": {"seed": int(rng.integers(0, 2**31)), "samples": samples},
    }


def _elements(problem: dict) -> tuple[np.ndarray, list[int]]:
    """(d, terms) coordinate matrix in frequency order, and the frequencies."""
    terms = sorted(problem["terms"], key=lambda t: t["n"])
    X = np.array([[complex(*c) for c in t["x"]] for t in terms]).T
    return X, [t["n"] for t in terms]


def _rows(stdout: bytes) -> list[dict]:
    return json.loads(stdout.decode())


def _kernel_rows_ok(c: Checks, rows, column: str) -> None:
    for row in rows:
        c.agree(f"kernel L1({row['N']})", row[column], row[f"{column}_quad_error"],
                ref.kernel_l1(int(row["N"])), 0.0, z=1.0, rel=1e-7)


class CliCold:
    """Builds problem files and the invocation list; records each child's
    peak RSS (ru_maxrss from wait4) and, when traced, its span export."""

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.env.pop("DIRICHLET_RUC_SEED", None)
        rng = op_rng(seed, "cli_files", 0)
        self.problems = {
            "sup": _problem(rng, {"variant": "Sup", "d": 4}, 8, 4, 1.0, 4000),
            "lr": _problem(rng, {"variant": "Sequence", "r": 1.5, "d": 4}, 8, 4, 2.0, 1000),
        }
        for name, problem in self.problems.items():
            (workdir / f"{name}.json").write_text(json.dumps(problem))
        self.child_maxrss_kib: list[int] = []
        self.exports: dict[int, dict] = {}

    def _invoke(self, i: int, argv: list[str], traced: bool) -> tuple[int, bytes]:
        if traced:
            spans_path = self.workdir / f"spans-{i}.json"
            cmd = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "dirichlet_ruc.cli", *argv]
        with open(self.workdir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env,
                                    cwd=self.workdir)
            out = proc.stdout.read()
            proc.stdout.close()
            # wait4 rather than wait(): it returns this child's own peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_maxrss_kib.append(usage.ru_maxrss)
        if traced and proc.returncode == 0:
            self.exports[i] = json.loads(spans_path.read_text())
            spans_path.unlink()
        return proc.returncode, out

    def op(self, i: int, traced: bool = False) -> Op:
        name = COMMANDS[i % len(COMMANDS)]
        rng = op_rng(self.seed, "cli_cold", i)
        seed_args = ["--seed", str(int(rng.integers(0, 2**31)))]
        fmt = ["--format", "json"]

        if name == "bohr-factorize":
            n = int(rng.integers(2, 10**6))
            argv = ["bohr", "factorize", str(n), *fmt]

            def check(rows, c):
                want = " ".join(map(str, ref.prime_exponents(n, _PRIMES)))
                c.require(rows == [{"n": n, "exponents": want}], f"factorize {n}: {rows}")

        elif name == "bohr-ap":
            length, bound = int(rng.integers(5, 7)), int(rng.integers(2000, 3001))
            argv = ["bohr", "ap", "--length", str(length), "--bound", str(bound), *fmt]

            def check(rows, c):
                row, = rows
                terms = [row["start"] + k * row["step"] for k in range(length)]
                c.require(row["found"] and all(map(ref.is_prime, terms)) and terms[-1] <= bound,
                          f"bohr ap: {row}")

        elif name == "experiment-kernel":
            ns = sorted(int(n) for n in rng.choice(np.arange(4, 65), 4, replace=False))
            argv = ["experiment", "kernel", "--ns", ",".join(map(str, ns)), *fmt]

            def check(rows, c):
                c.require([r["N"] for r in rows] == ns, f"kernel rows {rows}")
                _kernel_rows_ok(c, rows, "l1")

        elif name == "experiment-prime-ap":
            top, bound = int(rng.integers(6, 9)), int(rng.integers(3000, 4001))
            argv = ["experiment", "prime-ap", "--lengths", f"3..{top}", "--bound", str(bound), *fmt]

            def check(rows, c):
                c.require([r["N"] for r in rows] == list(range(3, top + 1)), f"prime-ap rows {rows}")
                for r in rows:
                    if r["start"] == "":
                        continue
                    terms = [r["start"] + k * r["step"] for k in range(r["N"])]
                    c.require(all(map(ref.is_prime, terms)) and terms[-1] <= bound, f"AP {r}")
                    c.agree(f"sqrt({r['N']})", r["lhs"], 0.0, math.sqrt(r["N"]), rel=1e-15)
                _kernel_rows_ok(c, [r for r in rows if r["start"] != ""], "rhs")

        elif name == "experiment-lacunary":
            max_n = int(rng.integers(32, 97))
            argv = ["experiment", "lacunary", "--max-n", str(max_n), *fmt]

            def check(rows, c):
                for r in rows:
                    c.agree(f"sqrt({r['N']})", r["lhs"], 0.0, math.sqrt(r["N"]), rel=1e-15)
                _kernel_rows_ok(c, rows, "rhs")

        elif name == "experiment-summing":
            coeffs = [round(float(v), 3) for v in rng.uniform(-1, 1, 6)]
            # "--coeffs=" form: a list starting with "-0.3," would read as an option.
            argv = ["experiment", "summing", "--coeffs=" + ",".join(map(str, coeffs)),
                    "--samples", "4000", *seed_args, *fmt]

            def check(rows, c):
                row, = rows
                l2 = math.sqrt(sum(a * a for a in coeffs))
                c.agree("summing l2", row["l2_lower_bound"], 0.0, l2, rel=1e-12)
                c.require(row["lower_bound_ok"] is True, f"summing lower bound: {row}")
                c.require(row["sup_tail_norm"] <= sum(abs(a) for a in coeffs) + 1e-12,
                          f"summing above triangle bound: {row}")

        elif name == "norm-sup":
            argv = ["norm", "--input", "sup.json", "--p", "1", *seed_args, *fmt]
            X, ns = _elements(self.problems["sup"])
            ref_rng = np.random.default_rng([self.seed & 0xFFFFFFFF, i, 0x5EF])

            def check(rows, c):
                row, = rows
                value, se = ref.hp_norm_mc(X, ref.exponent_matrix(ns, _PRIMES), math.inf, 1.0,
                                           4000, ref_rng)
                c.agree("norm sup", row["value"], row["value_stderr"], value, se)

        elif name == "ruc-ratio":
            argv = ["ruc-ratio", "--input", "sup.json", *seed_args, *fmt]
            X, ns = _elements(self.problems["sup"])
            ref_rng = np.random.default_rng([self.seed & 0xFFFFFFFF, i, 0x5EF])

            def check(rows, c):
                row, = rows
                exps = ref.exponent_matrix(ns, _PRIMES)
                num, num_se = ref.hprad_mc(X, exps, math.inf, 1.0, 4000, ref_rng)
                den, den_se = ref.hp_norm_mc(X, exps, math.inf, 1.0, 4000, ref_rng)
                c.agree("ruc numerator", row["numerator"], row["numerator_stderr"], num, num_se)
                c.agree("ruc denominator", row["denominator"], row["denominator_stderr"], den, den_se)
                c.agree("ruc ratio", row["ratio"], 0.0, row["numerator"] / row["denominator"], rel=1e-12)

        elif name == "rad-norm":
            argv = ["rad-norm", "--input", "sup.json", *fmt]
            X, _ = _elements(self.problems["sup"])

            def check(rows, c):
                row, = rows
                c.agree("rad-norm", row["value"], 0.0, ref.exact_sign_moments(X, math.inf, [1.0])[0])

        else:  # type-witness
            argv = ["type-witness", "--input", "lr.json", *fmt]
            X, _ = _elements(self.problems["lr"])

            def check(rows, c):
                row, = rows
                top = ref.exact_sign_moments(X, 1.5, [2.0])[0]
                bottom = math.sqrt(float((ref.column_norms(1.5, X) ** 2).sum()))
                c.agree("type witness", row["witness"], 0.0, top / bottom)

        def call():
            return self._invoke(i, argv, traced)

        def check_output(result, c: Checks):
            code, stdout = result
            c.require(code == 0, f"{' '.join(argv)}: exit code {code}")
            check(_rows(stdout), c)

        return Op(name, call, check_output)
