"""Batch command-line interface.

Subcommands parse a JSON problem file (or inline arguments), run the
requested computation, and write CSV (default) or JSON to stdout.  Output
is byte-stable for a fixed seed.  Exit codes: 0 success, 2 validation or
usage error (diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import bohr, constants, dirichlet, randomized
from .errors import UndefinedRatioError, ValidationError
from .sampling import Estimate, SamplerConfig
from .serialization import parse_problem

SEED_ENV_VAR = "DIRICHLET_RUC_SEED"


def _parse_int_list(text: str) -> list[int]:
    """Accept '3..10' (inclusive range) or '3,5,7' or a single integer."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_complex_list(text: str) -> list[complex]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(complex(part))
        except ValueError as exc:
            raise ValidationError(f"bad complex literal {part!r}") from exc
    if not out:
        raise ValidationError("empty coefficient list")
    return out


def _format_number(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, complex):
        return repr(value)[1:-1] if repr(value).startswith("(") else repr(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def estimate_cells(prefix: str, est: Estimate | None) -> dict:
    if est is None:
        return {
            prefix: "",
            f"{prefix}_stderr": "",
            f"{prefix}_quad_error": "",
            f"{prefix}_mode": "",
        }
    return {
        prefix: est.value,
        f"{prefix}_stderr": est.stderr,
        f"{prefix}_quad_error": est.quad_error,
        f"{prefix}_mode": est.mode,
    }


_MODE_RANK = {"exact": 0, "quadrature": 1, "mc": 2}


def ratio_cells(
    prefix: str, num: Estimate, den: Estimate, ratio: float, quad_error: float | None = None
) -> dict:
    """Cells of num / den.  The Monte Carlo and the quadrature errors of the
    two propagate separately, to first order; a ratio taken on one grid pass
    brings its own quad_error."""

    def propagated(error) -> float:
        rel = 0.0
        for est in (num, den):
            if est.value != 0:
                rel += (error(est) / est.value) ** 2
        return abs(ratio) * rel**0.5

    mode = max((num.mode, den.mode), key=lambda m: _MODE_RANK[m])
    return {
        prefix: ratio,
        f"{prefix}_stderr": propagated(lambda est: est.stderr),
        f"{prefix}_quad_error": (
            propagated(lambda est: est.quad_error) if quad_error is None else quad_error
        ),
        f"{prefix}_mode": mode,
    }


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def emit(rows: list[dict], columns: list[str], fmt: str, out) -> None:
    if fmt == "json":
        payload = [{c: _jsonable(row.get(c, "")) for c in columns} for row in rows]
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_number(row.get(c, "")) for c in columns])


def write_line_chart(path: str, xs, ys, xlabel: str, ylabel: str) -> None:
    """Minimal deterministic SVG line chart (ratio vs N)."""
    width, height, margin = 480, 320, 48
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def sx(x):
        return margin + (x - x0) / xspan * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / yspan * (height - 2 * margin)

    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="2"/>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {height / 2:.0f})">{ylabel}</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="10">{x0:g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" text-anchor="end" '
        f'font-size="10">{x1:g}</text>',
        f'<text x="{margin - 4}" y="{height - margin}" text-anchor="end" '
        f'font-size="10">{y0:.4g}</text>',
        f'<text x="{margin - 4}" y="{margin + 4}" text-anchor="end" '
        f'font-size="10">{y1:.4g}</text>',
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _resolve_sampler(
    args, file_sampler: SamplerConfig | None, file_fields: frozenset[str] = frozenset()
) -> SamplerConfig:
    """Seed precedence: --seed flag, then an explicit file value, then the
    DIRICHLET_RUC_SEED environment variable, then 0."""
    cfg = file_sampler if file_sampler is not None else SamplerConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    elif "seed" not in file_fields:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            cfg = replace(cfg, seed=int(env))
    if getattr(args, "samples", None) is not None:
        cfg = replace(cfg, samples=args.samples)
    return cfg


def _load_problem(args):
    with open(args.input, "rb") as fh:
        problem = parse_problem(fh.read())
    cfg = _resolve_sampler(args, problem.sampler, problem.sampler_fields)
    p = args.p if getattr(args, "p", None) is not None else problem.p
    return problem, p, cfg


def _ordered_elements(problem):
    return [x for _, x in sorted(problem.polynomial.terms.items())]


def _cmd_bohr(args, out) -> int:
    if args.verb == "factorize":
        alpha = bohr.factorize(args.n)
        emit(
            [{"n": args.n, "exponents": " ".join(str(e) for e in alpha)}],
            ["n", "exponents"],
            args.format,
            out,
        )
    elif args.verb == "index-of":
        alpha = bohr.MultiIndex(args.exponents)
        emit(
            [{"exponents": " ".join(str(e) for e in alpha), "n": bohr.index_of(alpha)}],
            ["exponents", "n"],
            args.format,
            out,
        )
    elif args.verb == "primes":
        table = bohr.primes_up_to(args.limit)
        emit([{"p": p} for p in table], ["p"], args.format, out)
    else:
        ap = bohr.prime_ap_search(args.length, args.bound)
        row = {
            "length": args.length,
            "found": ap is not None,
            "start": ap.start if ap else "",
            "step": ap.step if ap else "",
        }
        emit([row], ["length", "found", "start", "step"], args.format, out)
    return 0


def _single_estimate_command(args, out, compute) -> int:
    problem, p, cfg = _load_problem(args)
    est = compute(problem, p, cfg)
    row = {"p": p, **estimate_cells("value", est), "samples": est.samples_used}
    emit([row], list(row), args.format, out)
    return 0


def _ratio_command(args, out, orientation) -> int:
    problem, p, cfg = _load_problem(args)
    report = orientation(problem.polynomial, p, cfg)
    row = {
        "p": p,
        **estimate_cells("numerator", report.numerator),
        **estimate_cells("denominator", report.denominator),
        **ratio_cells(
            "ratio", report.numerator, report.denominator, report.ratio, report.quad_error
        ),
        "instance": report.instance,
    }
    emit([row], list(row), args.format, out)
    return 0


def _cmd_ruc_search(args, out) -> int:
    problem, p, cfg = _load_problem(args)
    search_cfg = constants.SearchConfig(
        restarts=args.restarts, iterations=args.iterations
    )
    result = constants.ruc_constant_search(
        problem.polynomial.space, _ordered_elements(problem), p, search_cfg, cfg
    )
    report = result.report
    coeff_text = ";".join(
        f"{float(z.real)!r}{'+' if z.imag >= 0 else ''}{float(z.imag)!r}j"
        for z in map(complex, result.coefficients)
    )
    row = {
        "p": p,
        **estimate_cells("numerator", report.numerator),
        **estimate_cells("denominator", report.denominator),
        **ratio_cells(
            "best_ratio", report.numerator, report.denominator, report.ratio, report.quad_error
        ),
        "coefficients": coeff_text,
        "note": "lower bound from finite search",
    }
    emit([row], list(row), args.format, out)
    return 0


def _cmd_witness(args, out, which) -> int:
    problem, _, cfg = _load_problem(args)
    est = which(problem.polynomial.space, _ordered_elements(problem), cfg)
    cells = estimate_cells("witness", est)
    emit([cells], list(cells), args.format, out)
    return 0


def _estimate_columns(prefix: str) -> list[str]:
    return list(estimate_cells(prefix, None))


def _summing_reports(args) -> list:
    if not args.coeffs and not args.input:
        raise ValidationError("experiment summing needs --coeffs or --input")
    cfg = _resolve_sampler(args, None)
    if args.input:
        problem, _, cfg = _load_problem(args)
        if problem.coefficients is not None:
            coeffs = list(problem.coefficients)
        else:
            coeffs = [complex(x[0]) for x in _ordered_elements(problem)]
    else:
        coeffs = _parse_complex_list(args.coeffs)
    return [constants.experiment_summing_basis(coeffs, cfg)]


@dataclass(frozen=True)
class _Experiment:
    compute: Callable  # args -> results
    row: Callable  # one result -> one output row
    columns: list[str]
    plot: Callable  # results -> (xs, ys, xlabel, ylabel)


_SQRT_OVER_L1 = (*_estimate_columns("lhs"), *_estimate_columns("rhs"), *_estimate_columns("ratio"))

_EXPERIMENTS = {
    "prime-ap": _Experiment(
        compute=lambda args: constants.experiment_prime_ap(
            _parse_int_list(args.lengths), args.bound
        ),
        row=lambda r: {
            "N": r.length,
            "start": r.ap.start if r.ap else "",
            "step": r.ap.step if r.ap else "",
            **estimate_cells("lhs", r.lhs),
            **estimate_cells("rhs", r.rhs),
            **(
                ratio_cells("ratio", r.lhs, r.rhs, r.ratio)
                if r.ratio is not None
                else estimate_cells("ratio", None)
            ),
            "note": r.note,
        },
        columns=["N", "start", "step", *_SQRT_OVER_L1, "note"],
        plot=lambda rs: (
            [r.length for r in rs if r.ratio is not None],
            [r.ratio for r in rs if r.ratio is not None],
            "N",
            "sqrt(N) / L1(N)",
        ),
    ),
    "lacunary": _Experiment(
        compute=lambda args: constants.experiment_lacunary_power(args.max_n),
        row=lambda r: {
            "N": r.n,
            **estimate_cells("lhs", r.lhs),
            **estimate_cells("rhs", r.rhs),
            **ratio_cells("ratio", r.lhs, r.rhs, r.ratio),
        },
        columns=["N", *_SQRT_OVER_L1],
        plot=lambda rs: ([r.n for r in rs], [r.ratio for r in rs], "N", "sqrt(N) / L1(N)"),
    ),
    "summing": _Experiment(
        compute=_summing_reports,
        row=lambda r: {
            "m": len(r.coefficients),
            **estimate_cells("sup_tail_norm", r.sup_tail_norm),
            "l2_lower_bound": r.l2_lower_bound,
            "carleson_hunt_ratio": r.carleson_hunt_ratio,
            "lower_bound_ok": r.lower_bound_ok,
        },
        columns=[
            "m", *_estimate_columns("sup_tail_norm"),
            "l2_lower_bound", "carleson_hunt_ratio", "lower_bound_ok",
        ],
        plot=lambda rs: (
            [len(r.coefficients) for r in rs], [r.carleson_hunt_ratio for r in rs], "m", "M / l2(a)"
        ),
    ),
    "kernel": _Experiment(
        compute=lambda args: [
            (n, dirichlet.dirichlet_kernel_l1(n)) for n in _parse_int_list(args.ns)
        ],
        row=lambda r: {"N": r[0], **estimate_cells("l1", r[1])},
        columns=["N", *_estimate_columns("l1")],
        plot=lambda rs: ([n for n, _ in rs], [e.value for _, e in rs], "N", "L1(N)"),
    ),
}


def _cmd_experiment(args, out, err) -> int:
    experiment = _EXPERIMENTS[args.kind]
    results = experiment.compute(args)
    emit([experiment.row(r) for r in results], experiment.columns, args.format, out)
    if args.plot:
        xs, *chart = experiment.plot(results)
        if xs:
            write_line_chart(args.plot, xs, *chart)
        else:
            print(f"note: no row has a value to plot; {args.plot} not written", file=err)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichlet-ruc",
        description="Hardy norms of Dirichlet polynomials and randomized averages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True, with_p=False):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--threads", type=int, default=None, help="accepted and ignored")
        if with_input:
            p.add_argument("--input", required=True, help="problem JSON file")
        if with_p:
            p.add_argument("--p", type=float, default=None)

    p_bohr = sub.add_parser("bohr", help="prime-exponent utilities")
    bohr_sub = p_bohr.add_subparsers(dest="verb", required=True)
    pf = bohr_sub.add_parser("factorize")
    pf.add_argument("n", type=int)
    add_common(pf, with_input=False)
    pi = bohr_sub.add_parser("index-of")
    pi.add_argument("exponents", type=int, nargs="+")
    add_common(pi, with_input=False)
    pp = bohr_sub.add_parser("primes")
    pp.add_argument("limit", type=int)
    add_common(pp, with_input=False)
    pa = bohr_sub.add_parser("ap")
    pa.add_argument("--length", type=int, required=True)
    pa.add_argument("--bound", type=int, required=True)
    add_common(pa, with_input=False)

    for name, with_p in [
        ("norm", True),
        ("circle-norm", True),
        ("rad-norm", False),
        ("hprad-norm", True),
        ("ruc-ratio", True),
        ("ruc-search", True),
        ("type-witness", False),
        ("cotype-witness", False),
    ]:
        cmd = sub.add_parser(name)
        add_common(cmd, with_input=True, with_p=with_p)
        if name == "norm":
            cmd.add_argument("--method", choices=["auto", "exact", "quadrature", "mc"], default="auto")
        if name == "ruc-search":
            cmd.add_argument("--restarts", type=int, default=2)
            cmd.add_argument("--iterations", type=int, default=12)

    p_exp = sub.add_parser("experiment")
    exp_sub = p_exp.add_subparsers(dest="kind", required=True)
    pe = exp_sub.add_parser("prime-ap")
    pe.add_argument("--lengths", required=True, help="e.g. 3..10 or 3,5,7")
    pe.add_argument("--bound", type=int, required=True)
    pe.add_argument("--plot", default=None, help="write an SVG line chart")
    add_common(pe, with_input=False)
    pl = exp_sub.add_parser("lacunary")
    pl.add_argument("--max-n", type=int, required=True)
    pl.add_argument("--plot", default=None)
    add_common(pl, with_input=False)
    ps = exp_sub.add_parser("summing")
    ps.add_argument("--coeffs", default=None, help="e.g. 1,-1,1 or 1+2j,0.5")
    ps.add_argument("--plot", default=None)
    add_common(ps, with_input=False)
    ps.add_argument("--input", default=None, help="problem JSON file (optional)")
    pk = exp_sub.add_parser("kernel")
    pk.add_argument("--ns", required=True, help="e.g. 8,16,32 or 2..64")
    pk.add_argument("--plot", default=None)
    add_common(pk, with_input=False)
    return parser


def run(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        if args.command == "bohr":
            return _cmd_bohr(args, out)
        if args.command == "norm":
            return _single_estimate_command(
                args,
                out,
                lambda pr, p, cfg: dirichlet.hp_norm(pr.polynomial, p, cfg, method=args.method),
            )
        if args.command == "circle-norm":
            return _single_estimate_command(
                args,
                out,
                lambda pr, p, cfg: dirichlet.circle_hp_norm(
                    _ordered_elements(pr), pr.polynomial.space, p, cfg
                ),
            )
        if args.command == "rad-norm":
            return _single_estimate_command(
                args,
                out,
                lambda pr, p, cfg: randomized.rad_norm(
                    _ordered_elements(pr), pr.polynomial.space, cfg
                ),
            )
        if args.command == "hprad-norm":
            return _single_estimate_command(
                args,
                out,
                lambda pr, p, cfg: randomized.hprad_norm(pr.polynomial, p, cfg),
            )
        if args.command == "ruc-ratio":
            return _ratio_command(args, out, constants.ruc_ratio)
        if args.command == "ruc-search":
            return _cmd_ruc_search(args, out)
        if args.command == "type-witness":
            return _cmd_witness(args, out, constants._type_witness)
        if args.command == "cotype-witness":
            return _cmd_witness(args, out, constants._cotype_witness)
        if args.command == "experiment":
            return _cmd_experiment(args, out, err)
        raise ValidationError(f"unknown command {args.command!r}")
    except (ValueError, UndefinedRatioError, OverflowError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
