"""Benchmark for dirichlet_ruc: seeded workloads run as a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  One
client in one process sends the next op only after the previous one
returned.  Ops come in fixed cycles (see workloads.py and cli_cold.py); a
run keeps starting ops until S seconds have passed and then finishes the
cycle it is in, so every run measures whole cycles.

--trace 0 prints the end-to-end metrics.  setup_s is the median of three
fresh processes that import, build the inputs and run one warm-up op.
Times are calibrated against a fixed numpy kernel timed between ops, which
cancels the host's speed drift (see speed.py); raw times are printed too.
--trace 1 runs the loop untraced for S/2 seconds, then the same ops again
traced, checks that both produced bit-identical outputs, and prints
per-layer metrics (per op of the traced pass) and the tracing overhead.  Every op's output is
checked after the loop; a raised exception counts as a failed op.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  The environment, every metric and the
spans go to .bench_out/ in the checkout.  See bench/METRICS.md.
"""

import os
import sys

# Pinned before numpy loads; one BLAS thread, at or below nproc, for steady timings.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("DIRICHLET_RUC_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from speed import SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("search", "mc_norms", "exact_signs", "cli_cold")
SETUP_PROBES = 3
WARMUP_CYCLE = 1 << 30  # the warm-up op is slot 0 of this (never timed) cycle
P90_MIN_OPS = 100


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ref-scale", type=float, default=1.0,
                        help="multiply every reference value (shows the checks fail)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


def import_library():
    package = SRC / "dirichlet_ruc"
    if not (package / "__init__.py").is_file():
        die(f"no library sources at {package}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import dirichlet_ruc

    if Path(dirichlet_ruc.__file__).resolve().parent != package.resolve():
        die(f"imported {dirichlet_ruc.__file__}, not the checkout's {package}")


class Workload:
    """make_op(i, traced) -> Op, the cycle length, and one warm-up op."""

    def __init__(self, name: str, seed: int, workdir: Path):
        import_library()
        self.name, self.seed, self.cold = name, seed, None
        if name == "cli_cold":
            from cli_cold import COMMANDS, CliCold

            self.cold = CliCold(seed, workdir, SRC)
            self.make_op = self.cold.op
            self.cycle = len(COMMANDS)
        else:
            import workloads

            build, self.cycle = workloads.WORKLOADS[name]
            self.make_op = lambda i, traced=False: build(seed, i)

    def warm_up(self):
        """One untimed op: slot 0 of a far-away cycle, or for search a single
        ruc_ratio, the unit a search op repeats."""
        if self.name == "search":
            from workloads import search_warmup

            search_warmup(self.seed)
        else:
            self.make_op(WARMUP_CYCLE * self.cycle).call()
        if self.cold is not None:
            self.cold.child_maxrss_kib.clear()


class Record:
    __slots__ = ("op", "result", "error", "start", "end")

    def __init__(self, op, result, error, start, end):
        self.op, self.result, self.error, self.start, self.end = op, result, error, start, end


class Phase:
    """Records of one closed-loop pass with each op's calibrated time."""

    def __init__(self, records, speed):
        self.records = records
        self.raw = [r.end - r.start for r in records]
        self.factors = [speed.factor(r.start, r.end) for r in records]
        self.latencies = [t * f for t, f in zip(self.raw, self.factors)]

    def rate(self) -> float:
        """Ops per calibrated second of op time."""
        return len(self.records) / sum(self.latencies)


def closed_loop(work: Workload, seconds: float, traced: bool = False, count: int | None = None):
    """Run ops back to back until `seconds` have passed and the cycle is
    whole, or, given `count`, run exactly ops 0 .. count - 1.  The speed
    kernel runs between ops, outside their timings."""
    speed = SpeedProbe()
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    while (i < count) if count is not None else (time.perf_counter() < deadline or i % work.cycle):
        speed.maybe_sample()
        op = work.make_op(i, traced)
        start = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        records.append(Record(op, result, error, start, time.perf_counter()))
        i += 1
    speed.sample()
    return Phase(records, speed)


def check_records(records, ref_scale: float) -> list[str]:
    from workloads import CheckFailed, Checks

    checks = Checks(ref_scale)
    failures = []
    for i, rec in enumerate(records):
        if rec.error is not None:
            failures.append(f"op {i} ({rec.op.kind}) raised: {rec.error}")
            continue
        try:
            rec.op.check(rec.result, checks)
        except CheckFailed as exc:
            failures.append(f"op {i} ({rec.op.kind}) check failed: {exc}")
        except Exception:
            failures.append(f"op {i} ({rec.op.kind}) check raised: {traceback.format_exc(limit=3)}")
    return failures


def setup_probe_seconds(args, speed) -> tuple[float, float]:
    """(raw, calibrated) wall time from spawning a fresh process to its
    first timed op; the speed kernel runs just before and just after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    speed.bracket()
    start, spawned = time.perf_counter(), time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    end = time.perf_counter()
    speed.bracket()
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    raw = float(proc.stdout.split()[-1]) - spawned
    return raw, raw * speed.factor(start, end)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def last_level_cache() -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, "unknown")
    for index in base.glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "last_level_cache": last_level_cache(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "loop": "closed, 1 client, 1 process, no worker pools",
    }


def emit(args, env, metrics, extra_lines, attempted, failed, failures, payload):
    print("env " + json.dumps(env, sort_keys=True))
    for line in extra_lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    for message in failures[:10]:
        print(message, file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {**result, "env": env, "failures": failures, **payload}, indent=1))
    print(json.dumps(result))


def run_end_to_end(args, work: Workload, env):
    phase = closed_loop(work, args.seconds)
    records, latencies = phase.records, phase.latencies
    if work.cold is not None:
        peak_kib = max(work.cold.child_maxrss_kib)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = check_records(records, args.ref_scale)
    speed = SpeedProbe()
    probes = [setup_probe_seconds(args, speed) for _ in range(SETUP_PROBES)]
    n = len(records)
    fail_ratio = len(failures) / n
    metrics = {
        "throughput_ops_per_s": (phase.rate(), "ops/s"),
        "latency_s.p50": (statistics.median(latencies), "s"),
        "setup_s": (statistics.median(c for _, c in probes), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
        "pass_ratio": (1.0 - fail_ratio, "1"),
    }
    p90 = (f"metric latency_s.p90 {statistics.quantiles(latencies, n=10, method='inclusive')[8]!r} s"
           if n >= P90_MIN_OPS
           else f"note latency_s.p90 not reported: {n} ops < {P90_MIN_OPS}")
    extra = [
        f"note ops {n} in {n // work.cycle} cycles of {work.cycle}, op time {sum(phase.raw):.3f} s",
        p90,
        f"metric fail_ratio {fail_ratio!r} 1",
        f"note uncalibrated: throughput {n / sum(phase.raw)!r} ops/s, "
        f"latency p50 {statistics.median(phase.raw)!r} s, "
        f"setup {statistics.median(r for r, _ in probes)!r} s",
    ]
    payload = {"latencies_raw_s": phase.raw, "speed_factors": phase.factors,
               "kinds": [r.op.kind for r in records], "setup_probes_raw_calibrated_s": probes}
    emit(args, env, metrics, extra, n, len(failures), failures, payload)


def cli_child_metrics(work: Workload, records):
    """Span exports of the traced CLI children, and the per-invocation
    medians of import time and of time outside import and cli.run."""
    exports, imports, process = [], [], []
    for i, rec in enumerate(records):
        export = work.cold.exports.get(i)
        if export is None:  # the child failed; counted by the checks
            continue
        run_span = next(s for s in export["spans"] if s[0] == "cli.run")
        exports.append(export)
        imports.append(export["import_s"])
        process.append((rec.end - rec.start) - export["import_s"] - (run_span[2] - run_span[1]))
    return exports, {
        "cli.import_s": (statistics.median(imports) if imports else 0.0, "s"),
        "cli.process_s": (statistics.median(process) if process else 0.0, "s"),
    }


def run_traced(args, work: Workload, env):
    from workloads import fingerprint

    plain_phase = closed_loop(work, args.seconds / 2)
    plain = plain_phase.records
    tracer = Tracer()
    if work.cold is None:
        tracer.install()
    try:
        traced_phase = closed_loop(work, 0, traced=True, count=len(plain))
    finally:
        tracer.uninstall()
    traced = traced_phase.records
    failures = check_records(plain, args.ref_scale)
    for i, rec in enumerate(traced):
        if rec.error is not None:
            failures.append(f"traced op {i} ({rec.op.kind}) raised: {rec.error}")
        elif fingerprint(rec.result) != fingerprint(plain[i].result):
            failures.append(f"traced op {i} ({rec.op.kind}) output differs from the untraced run")
    if work.cold is None:
        exports = [tracer.export()]
        cli_metrics = {"cli.import_s": (0.0, "s"), "cli.process_s": (0.0, "s")}
    else:
        exports, cli_metrics = cli_child_metrics(work, traced)
    metrics = layer_metrics(exports, len(traced))
    metrics.update(cli_metrics)
    plain_rate, traced_rate = plain_phase.rate(), traced_phase.rate()
    metrics["trace.overhead_ops_per_s"] = (plain_rate - traced_rate, "ops/s")
    metrics["trace.overhead_share"] = (1.0 - traced_rate / plain_rate, "1")
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(exports))
    extra = [
        f"note untraced {len(plain)} ops at {plain_rate!r} ops/s, "
        f"traced {len(traced)} ops at {traced_rate!r} ops/s",
    ]
    emit(args, env, dict(sorted(metrics.items())), extra, len(plain) + len(traced),
         len(failures), failures, {})


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, so that the speed
    kernel runs on the core that runs the ops."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main():
    args = parse_args()
    if args.seconds < 0:
        die("--seconds must be >= 0")
    if not args.setup_probe:
        pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        work = Workload(args.workload, args.seed, workdir)
        work.warm_up()
        if args.setup_probe:
            print(repr(time.monotonic()))
            return
        env = environment()
        if args.trace:
            run_traced(args, work, env)
        else:
            run_end_to_end(args, work, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
