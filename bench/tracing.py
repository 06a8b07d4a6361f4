"""Per-layer tracing from outside the program.

Tracer.install() replaces each layer's public function with a timing
wrapper in every singquad namespace that holds it (the defining module,
every module that imported it by name, and the package), and
uninstall() puts the originals back.  Each wrapper records calls,
failures, inclusive durations and self time (its duration minus that of
the traced calls it made).  Nothing inside singquad is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
from time import perf_counter

# (module, function) of every traced layer; the layer name drops "singquad."
LAYERS = (
    ("singquad.gauss_rule", "compute_rule"),
    ("singquad.gauss_rule", "apply_rule"),
    ("singquad.error_predictor", "leading_term"),
    ("singquad.error_predictor", "power_case_leading"),
    ("singquad.error_predictor", "log_case_leading"),
    ("singquad.error_predictor", "recommend_n"),
    ("singquad.error_predictor", "psi0_solve"),
    ("singquad.error_predictor", "coefficient_bounds"),
    ("singquad.error_predictor", "log_envelope_constants"),
    ("singquad.reference_oracle", "exact_integral"),
    ("singquad.singularity_model", "jump"),
    ("singquad.singularity_model", "phase"),
    ("singquad.corrected_quadrature", "corrected_integral"),
    ("singquad.experiments", "run_sweep"),
    ("singquad.experiments", "report"),
    ("singquad.experiments", "write_csv"),
    ("singquad.cli", "main"),
)
# layers that can raise on valid input, directly or through a callee
CAN_FAIL = {"gauss_rule.compute_rule", "error_predictor.leading_term",
            "error_predictor.recommend_n", "error_predictor.psi0_solve",
            "reference_oracle.exact_integral",
            "corrected_quadrature.corrected_integral",
            "experiments.run_sweep", "cli.main"}
# layers whose arguments feed a counter (sizes built, sizes ranked, bytes)
_COUNTED = {"gauss_rule.compute_rule", "error_predictor.recommend_n",
            "experiments.write_csv"}
# counted only, for the oracle's adaptive path
SPLIT = ("singquad.reference_oracle", "split_adaptive_integral")


def layer_name(module: str, func: str) -> str:
    return f"{module.removeprefix('singquad.')}.{func}"


class Tracer:
    def __init__(self):
        self.stats = {layer_name(m, f): {"calls": 0, "failed": 0, "self_s": 0.0,
                                         "durations": []}
                      for m, f in LAYERS}
        self.extra = {"rule_sizes_seen": set(), "build_nodes": 0, "build_s": 0.0,
                      "recommend_sizes": 0, "split_calls": 0, "csv_bytes": 0}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # --------------------------------------------------------- wrappers

    def _after(self, name: str, bound: dict, dt: float) -> None:
        ex = self.extra
        if name == "gauss_rule.compute_rule":
            if bound["n"] not in ex["rule_sizes_seen"]:
                ex["rule_sizes_seen"].add(bound["n"])
                ex["build_nodes"] += bound["n"]
                ex["build_s"] += dt
        elif name == "error_predictor.recommend_n":
            ex["recommend_sizes"] += bound["n_max"] - bound["n_min"] + 1
        else:
            ex["csv_bytes"] += os.path.getsize(bound["path"])

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        sig = inspect.signature(fn) if name in _COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat["calls"] += 1
                stat["self_s"] += dt - child
                stat["durations"].append(dt)
                if not ok:
                    stat["failed"] += 1
                elif sig is not None:
                    self._after(name, sig.bind(*args, **kwargs).arguments, dt)
        return traced

    def _count_split(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.extra["split_calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        if self._patches:
            return
        targets = []
        for m, f in LAYERS:
            original = getattr(importlib.import_module(m), f)
            targets.append((original, self._wrap(layer_name(m, f), original)))
        split = getattr(importlib.import_module(SPLIT[0]), SPLIT[1])
        targets.append((split, self._count_split(split)))
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if name == "singquad" or name.startswith("singquad.")]
        for original, wrapper in targets:
            for mod in namespaces:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # --------------------------------------------------------- results

    def dump(self) -> dict:
        """Raw counters, for a child process to hand to its parent."""
        extra = dict(self.extra, rule_sizes_seen=len(self.extra["rule_sizes_seen"]))
        return {"stats": self.stats, "extra": extra}

    @staticmethod
    def merge(dumps: list[dict]) -> dict:
        out = {"stats": {}, "extra": {}}
        for d in dumps:
            for name, st in d["stats"].items():
                acc = out["stats"].setdefault(
                    name, {"calls": 0, "failed": 0, "self_s": 0.0, "durations": []})
                for key in ("calls", "failed", "self_s"):
                    acc[key] += st[key]
                acc["durations"] += st["durations"]
            for key, val in d["extra"].items():
                out["extra"][key] = out["extra"].get(key, 0) + val
        return out


def layer_metrics(dump: dict, import_s: float, overhead_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from raw counters."""
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name, st in dump["stats"].items():
        put(f"{name}.calls", st["calls"], "count")
        put(f"{name}.self_s", st["self_s"], "s")
        p50 = statistics.median(st["durations"]) * 1e6 if st["durations"] else 0.0
        put(f"{name}.call_us_p50", p50, "us")
        if name in CAN_FAIL:
            put(f"{name}.failed", st["failed"], "count")
    ex = dump["extra"]
    put("gauss_rule.compute_rule.builds", ex["rule_sizes_seen"], "count")
    put("gauss_rule.compute_rule.nodes_per_s",
        ex["build_nodes"] / ex["build_s"] if ex["build_s"] else 0.0, "1/s")
    rec_s = sum(dump["stats"]["error_predictor.recommend_n"]["durations"])
    put("error_predictor.recommend_n.sizes_per_s",
        ex["recommend_sizes"] / rec_s if rec_s else 0.0, "1/s")
    put("reference_oracle.exact_integral.split_adaptive.calls",
        ex["split_calls"], "count")
    put("experiments.write_csv.bytes", ex["csv_bytes"], "bytes")
    put("process.import_s", import_s, "s")
    put("trace.overhead_s", overhead_s, "s")
    return m
