"""Span and counter recording around dirichlet_ruc's public functions.

The benchmark installs wrappers from here; nothing under src/ knows about
them.  A wrapper is rebound in every loaded dirichlet_ruc module that holds
the original function by name (a `from .sampling import character_values`
copy included), so calls between modules are traced too.  Spans (name,
start, end, parent, error) stay in memory until the run writes them out.

Bookkeeping that is not a plain clock read (hashing sample panels, shape
arithmetic) is timed and removed from the span clock, so it does not show
up in any layer's self time; it does still slow the traced run, which is
why the tracing overhead is reported.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import defaultdict

# (module, attribute) pairs; "Class.method" names are wrapped on the class.
TARGETS = [
    ("bohr", "factorize"),
    ("bohr", "prime_ap_search"),
    ("dirichlet", "lift_arrays"),
    ("dirichlet", "hp_norm"),
    ("dirichlet", "dirichlet_kernel_l1"),
    ("sampling", "uniform_bits"),
    ("sampling", "character_values"),
    ("spaces", "CombinationEvaluator.norms"),
    ("spaces", "coordinate_norms"),
    ("randomized", "hprad_norm"),
    ("randomized", "rademacher_average"),
    ("randomized", "steinhaus_average"),
    ("randomized", "gaussian_average"),
    ("randomized", "kahane_ratio"),
    ("randomized", "contraction_check"),
    ("constants", "ruc_ratio"),
    ("constants", "ruc_constant_search"),
    ("serialization", "parse_problem"),
    ("cli", "run"),
]

AVERAGES = [
    "randomized.rademacher_average",
    "randomized.steinhaus_average",
    "randomized.gaussian_average",
    "randomized.kahane_ratio",
    "randomized.contraction_check",
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, raised]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.panel_keys: set[str] = set()
        self._excluded = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, False]
            tracer.spans.append(span)
            tracer.stack.append(index)
            span[1] = tracer.now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = tracer.now()
                tracer.stack.pop()
            if count is not None:
                started = time.perf_counter()
                count(tracer, args, kwargs, result)
                tracer._excluded += time.perf_counter() - started
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every target in every loaded dirichlet_ruc module."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "dirichlet_ruc" or key.startswith("dirichlet_ruc."))
        ]
        for module_name, attr in TARGETS:
            module = sys.modules.get(f"dirichlet_ruc.{module_name}")
            if module is None:
                continue
            name = f"{module_name}.{attr}"
            count = _COUNTERS.get(name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, count))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "panel_keys": sorted(self.panel_keys),
        }


# Counters, computed from arguments and results after the call returns.

def _count_uniform_bits(tracer, args, kwargs, result):
    tracer.counters["sampling.uniform_bits.words"] += result.size


def _count_character_values(tracer, args, kwargs, result):
    exponents = args[0] if args else kwargs["exponents"]
    fractions = args[1] if len(args) > 1 else kwargs["fractions"]
    entries = result.shape[0] * result.shape[1]
    tracer.counters["sampling.character_values.entries"] += entries
    tracer.counters["sampling.character_values.var_entries"] += entries * exponents.shape[1]
    # Panels are counter-based draws, so the exponents plus a strided sample
    # of the fraction rows identify a panel without hashing all of it.
    digest = hashlib.blake2b(digest_size=16)
    rows = fractions[:: max(1, fractions.shape[0] // 64)]
    for array in (exponents, rows, fractions[-1:]):
        digest.update(repr((array.shape, array.dtype.str)).encode())
        digest.update(array.tobytes())
    digest.update(repr(fractions.shape).encode())
    tracer.panel_keys.add(digest.hexdigest())


def _count_norms(tracer, args, kwargs, result):
    rows, terms = args[0].matrix.shape
    tracer.counters["spaces.CombinationEvaluator.norms.columns"] += result.size
    tracer.counters["spaces.matmul.flops"] += 8 * rows * terms * result.size


def _count_hp_norm(tracer, args, kwargs, result):
    tracer.counters[f"dirichlet.route.{result.mode}"] += 1


def _count_kernel(tracer, args, kwargs, result):
    tracer.counters["dirichlet.dirichlet_kernel_l1.neval"] += result.samples_used


def _count_hprad(tracer, args, kwargs, result):
    from dirichlet_ruc.sampling import SamplerConfig
    from dirichlet_ruc.spaces import is_hilbertian

    D, p = args[0], args[1]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    cfg = cfg if cfg is not None else SamplerConfig()
    m = len(D.support())
    if m <= 1 or (p == 2 and is_hilbertian(D.space)):
        return  # delegated to hp_norm, no sign patterns
    patterns = 1 << m if m <= cfg.exact_cutoff else min(4096, cfg.samples)
    tracer.counters["randomized.hprad_norm.pattern_samples"] += patterns * cfg.samples


def _count_ruc_ratio(tracer, args, kwargs, result):
    if any(tracer.spans[i][0] == "constants.ruc_constant_search" for i in tracer.stack):
        tracer.counters["constants.ruc_constant_search.evals"] += 1


_COUNTERS = {
    "sampling.uniform_bits": _count_uniform_bits,
    "sampling.character_values": _count_character_values,
    "spaces.CombinationEvaluator.norms": _count_norms,
    "dirichlet.hp_norm": _count_hp_norm,
    "dirichlet.dirichlet_kernel_l1": _count_kernel,
    "randomized.hprad_norm": _count_hprad,
    "constants.ruc_ratio": _count_ruc_ratio,
}


def span_totals(spans) -> dict[str, list[float]]:
    """name -> [calls, self seconds, errors]; self time is a span's duration
    minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0])
    for index, (name, start, end, parent, raised) in enumerate(spans):
        row = totals[name]
        row[0] += 1
        row[1] += (end - start) - child_time[index]
        row[2] += int(raised)
    return totals


def layer_metrics(exports: list[dict], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per op of the traced phase, from one or more
    exported tracers (one per process)."""
    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0])
    counters: dict[str, float] = defaultdict(float)
    keys: set[str] = set()
    for export in exports:
        for name, row in span_totals(export["spans"]).items():
            for k in range(3):
                totals[name][k] += row[k]
        for name, value in export["counters"].items():
            counters[name] += value
        keys.update(export["panel_keys"])

    def calls(name):
        return totals[name][0] / ops

    def self_s(name):
        return totals[name][1] / ops

    out: dict[str, tuple[float, str]] = {}
    for name in ("bohr.factorize", "dirichlet.lift_arrays", "dirichlet.hp_norm",
                 "sampling.uniform_bits", "sampling.character_values",
                 "spaces.CombinationEvaluator.norms", "spaces.coordinate_norms",
                 "randomized.hprad_norm", "constants.ruc_ratio",
                 "serialization.parse_problem"):
        out[f"{name}.calls"] = (calls(name), "calls/op")
        out[f"{name}.self_s"] = (self_s(name), "s/op")
    for name in ("bohr.prime_ap_search", "dirichlet.dirichlet_kernel_l1", "cli.run"):
        out[f"{name}.self_s"] = (self_s(name), "s/op")
    for mode in ("exact", "quadrature", "mc"):
        out[f"dirichlet.route.{mode}"] = (counters[f"dirichlet.route.{mode}"] / ops, "calls/op")
    per_op = [
        ("dirichlet.dirichlet_kernel_l1.neval", "evals/op"),
        ("sampling.uniform_bits.words", "words/op"),
        ("sampling.character_values.entries", "entries/op"),
        ("sampling.character_values.var_entries", "entries/op"),
        ("spaces.CombinationEvaluator.norms.columns", "columns/op"),
        ("spaces.matmul.flops", "flop/op"),
        ("randomized.hprad_norm.pattern_samples", "samples/op"),
    ]
    for name, unit in per_op:
        out[name] = (counters[name] / ops, unit)
    cv_calls = totals["sampling.character_values"][0]
    out["sampling.panel.unique_ratio"] = (len(keys) / cv_calls if cv_calls else 0.0, "1")
    out["randomized.averages.self_s"] = (sum(totals[n][1] for n in AVERAGES) / ops, "s/op")
    searches = totals["constants.ruc_constant_search"][0]
    out["constants.ruc_constant_search.evals_per_op"] = (
        counters["constants.ruc_constant_search.evals"] / searches if searches else 0.0,
        "evals/op",
    )
    for module_name, attr in TARGETS:
        name = f"{module_name}.{attr}"
        out[f"{name}.errors"] = (totals[name][2], "count")
    return out
