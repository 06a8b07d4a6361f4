#!/usr/bin/env python3
"""Benchmark of singquad: three workloads, closed loop, one client.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is sweep_cold, corrected_warm, plan_scan, or all (each of the
three in a fresh child, one after the other).  Run it from the
repository root.  A run repeats whole rounds of one seeded set of
operations until S seconds of loop time have passed (fresh-process
set-up probes, taken between operations, do not count), then checks
every output against reference.py.  It prints one line per metric (name, value, unit) and, as
its last line, a JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 gives the end-to-end metrics; --trace 1
alternates traced and untraced rounds and gives the per-layer metrics.
README.md in this directory explains the workloads and the metrics.
"""

import os

# one BLAS thread in this process and, through the environment, its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import inputs  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("sweep_cold", "corrected_warm", "plan_scan")
IMPORT_EVERY_S = 0.75      # loop time between fresh-process import probes
WARM_EVERY_S = 2.0         # loop time between fresh-process rule-build probes
PROBES_PER_SWEEP = 6       # import probes after each sweep_cold operation
CHILD_TIMEOUT_S = 150


# ----------------------------------------------------------------- helpers

def child_env() -> dict:
    return dict(os.environ, PYTHONPATH="src")


def probe(mode: str, *args: str) -> float:
    """Elapsed seconds reported by a fresh probe.py process."""
    out = subprocess.run([sys.executable, str(BENCH / "probe.py"), mode, *args],
                         cwd=ROOT, env=child_env(), capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(out.stdout.splitlines()[-1])["elapsed_s"]


class SetupProbes:
    """Fresh-process set-up times, sampled all through a run.

    The speed of a shared host drifts over seconds to minutes, so probes
    taken in one burst measure one moment of it.  due() takes one probe
    every `every` seconds of loop time, so the samples cover the whole
    run.  `spent` is the time the probes took; the loop leaves it out of
    its round walls and of its length.
    """

    def __init__(self, mode: str, args=(), every: float = math.inf):
        self.mode, self.args, self.every = mode, tuple(args), every
        self.samples: list[float] = []
        self.spent = 0.0
        self.next_s = 0.0

    def take(self) -> None:
        t0 = perf_counter()
        self.samples.append(probe(self.mode, *self.args))
        self.spent += perf_counter() - t0

    def due(self, loop_s: float) -> None:
        if loop_s >= self.next_s:
            self.take()
            self.next_s += self.every

    def median(self) -> float:
        return statistics.median(self.samples)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def rounds(round_fn, seconds: float, trace: bool, setup: SetupProbes):
    """Whole rounds until `seconds` of loop time have passed; at least one.

    round_fn(traced) runs one round.  With trace, rounds come in
    (traced, untraced) pairs so that the two sums give the overhead.
    Set-up probes, taken after a round or inside it, count neither in
    the round walls nor in the loop time.
    Returns the untraced and the traced round walls.
    """
    plain, traced = [], []
    start, spent0 = perf_counter(), setup.spent

    def loop_s() -> float:
        return perf_counter() - start - (setup.spent - spent0)

    while True:
        for on in ((True, False) if trace else (False,)):
            t0, spent = perf_counter(), setup.spent
            round_fn(on)
            (traced if on else plain).append(
                perf_counter() - t0 - (setup.spent - spent))
            setup.due(loop_s())
        if loop_s() >= seconds:
            return plain, traced


def end_to_end(setup_s: float, walls: list[float], op_s: list[float],
               peak_rss_mb: float, digits: list[float],
               gains: list[float]) -> dict:
    def m(value, unit):
        return {"value": value, "unit": unit}
    return {
        "setup_s": m(setup_s, "s"),
        "wall_s": m(statistics.median(walls), "s"),
        "ops_per_s": m(len(op_s) / sum(walls), "1/s"),
        "op_p50_ms": m(statistics.median(op_s) * 1e3, "ms"),
        "op_p99_ms": m(percentile(op_s, 0.99) * 1e3, "ms"),
        "peak_rss_mb": m(peak_rss_mb, "MB"),
        "digits_gained_p50": m(statistics.median(digits), "digits"),
        "recommend_gain_digits": m(statistics.median(gains), "digits"),
    }


def ranking_gain(scaled_true: list[float], scaled_pred: list[float],
                 top: int) -> float:
    """log10 of the median |scaled true error| over all sizes divided by
    the median over the `top` sizes with the smallest |scaled prediction|."""
    order = sorted(range(len(scaled_pred)), key=lambda i: abs(scaled_pred[i]))
    best = [abs(scaled_true[i]) for i in order[:top]]
    return math.log10(statistics.median(map(abs, scaled_true))
                      / statistics.median(best))


class FirstRound:
    """Keeps the first round's outputs and counts later rounds that differ,
    so memory does not grow with the number of rounds."""

    def __init__(self):
        self.outputs = None
        self.rounds = 0
        self.differ = 0

    def add(self, outputs) -> None:
        if self.outputs is None:
            self.outputs = outputs
        elif outputs != self.outputs:
            self.differ += 1
        self.rounds += 1

    def problems(self) -> list[str]:
        if self.differ:
            return [f"{self.differ} of {self.rounds} rounds differ from the first"]
        return []


class Outcome:
    """What a workload hands back to main()."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.problems: list[str] = []
        self.metrics: dict = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures[what] = self.failures.get(what, 0) + 1


# -------------------------------------------------------------- sweep_cold

def sweep_cold(seed: int, seconds: float, trace: bool) -> Outcome:
    """Fresh `python -m singquad.cli` processes over n = 10..600."""
    import reference as ref
    out = Outcome()
    specs = inputs.sweep_specs(seed)
    work = OUT / "sweep_cold"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup = SetupProbes("import")
    op_s, stdouts, dumps, csvs = [], [], [], FirstRound()

    def one_round(traced: bool) -> None:
        r, blobs = csvs.rounds, []
        for i, (_, args) in enumerate(specs):
            csv = work / f"r{r}-{i}.csv"
            if traced:
                dump = work / f"r{r}-{i}.trace.json"
                cmd = [sys.executable, str(BENCH / "probe.py"), "cli", str(dump)]
            else:
                cmd = [sys.executable, "-m", "singquad.cli"]
            t0 = perf_counter()
            proc = subprocess.run(cmd + args + ["--out", str(csv)], cwd=ROOT,
                                  env=child_env(), capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            dt = perf_counter() - t0
            for _ in range(PROBES_PER_SWEEP):
                setup.take()
            out.attempted += 1
            if proc.returncode != 0:
                out.fail(f"{' '.join(args)}: exit {proc.returncode}: "
                         f"{proc.stderr.strip().splitlines()[-1:]}")
                blobs.append(None)
                continue
            blobs.append(csv.read_bytes())
            if traced:
                dumps.append(json.loads(dump.read_text()))
            else:
                op_s.append(dt)
                stdouts.append((i, proc.stdout))
        csvs.add(blobs)

    walls, traced_walls = rounds(one_round, seconds, trace, setup)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    out.problems += csvs.problems()
    for i, text in stdouts:
        if not text.startswith("sweep n = 10..600"):
            out.problems.append(f"sweep {i}: unexpected report {text[:60]!r}")
    digits, gains = [], []
    rng = inputs.seeded("sweep_cold:check", seed)
    sample = sorted({10, 600} | {rng.randint(10, 600) for _ in range(12)})
    for (spec, args), blob in zip(specs, csvs.outputs):
        if blob is None:
            continue
        rows = [list(map(float, line.split(",")))
                for line in blob.decode().splitlines()[1:]]
        if [int(r[0]) for r in rows] != list(range(10, 601)):
            out.problems.append(f"{args}: CSV does not cover n = 10..600")
            continue
        out.problems += ref.check_sweep_rows(spec, rows, sample)
        _, scale = ref.raw(spec, 600)
        p = spec.sigma + 1.0
        digits += [ref.digits_gained(r[1], r[5]) for r in rows
                   if ref.above_floor(r[1], scale)]
        for block in range(10, 601, 100):
            part = [r for r in rows if block <= r[0] < block + 100]
            gains.append(ranking_gain([r[3] for r in part],
                                      [r[5] * r[0] ** p for r in part], 10))
    if trace:
        out.metrics = trace_metrics(dumps, setup.median(), walls, traced_walls)
    elif op_s:
        out.metrics = end_to_end(setup.median(), walls, op_s, peak_mb, digits,
                                 gains)
    return out


# ----------------------------------------------------------- corrected_warm

def corrected_warm(seed: int, seconds: float, trace: bool) -> Outcome:
    """corrected_integral on warm rules, thousands of (integrand, n) pairs."""
    from tracing import Tracer
    out = Outcome()
    specs, ns, ops = inputs.warm_inputs(seed)
    sizes = sorted(set(ns) | set(inputs.NODE_SIZES))
    tracer = Tracer() if trace else None
    t0 = perf_counter()
    sq = importlib.import_module("singquad")
    if tracer:
        tracer.install()
    for n in sizes:
        sq.compute_rule(n)
    fs = [sq.parse_integrand(s.text()) for s in specs]
    work = [(fs[i], n) for i, n in ops]
    main_setup = perf_counter() - t0
    if tracer:
        tracer.uninstall()
        setup = SetupProbes("import", every=IMPORT_EVERY_S)
    else:
        setup = SetupProbes("warm", map(str, sizes), every=WARM_EVERY_S)
        setup.samples.append(main_setup)
    op_s, results = array("d"), FirstRound()

    def one_round(traced: bool) -> None:
        if traced:
            tracer.install()
        got = []
        for f, n in work:
            t0 = perf_counter()
            try:
                r = sq.corrected_integral(f, n)
            except Exception as exc:  # an operation that fails is counted
                got.append(type(exc).__name__)
            else:
                got.append((r.raw, r.correction))
                if not traced:
                    op_s.append(perf_counter() - t0)
        if traced:
            tracer.uninstall()
        results.add(got)
        for (i, n), r in zip(ops, got):
            out.attempted += 1
            if isinstance(r, str):
                out.fail(f"{specs[i].text()} n={n}: {r}")

    walls, traced_walls = rounds(one_round, seconds, trace, setup)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import reference as ref
    out.problems += results.problems()
    for n in sizes:
        rule = sq.compute_rule(n)
        out.problems += ref.check_rule(n, rule.nodes, rule.weights)
    digits, regime, per_spec = [], [], {}
    for (i, n), r in zip(ops, results.outputs):
        if isinstance(r, str):
            continue
        spec = specs[i]
        raw, correction = r
        out.problems += ref.check_raw("corrected_integral", spec, n, raw)
        err, scale = ref.exact(spec) - raw, ref.raw(spec, n)[1]
        p = spec.sigma + 1.0
        per_spec.setdefault(i, []).append((err * n ** p, correction * n ** p))
        if ref.above_floor(err, scale):
            digits.append(ref.digits_gained(err, correction))
            if ref.n_sin_phi(spec, n) >= ref.REGIME:
                regime.append((err, err - correction))
    out.problems += ref.check_correction("corrected_warm", regime)
    gains = [ranking_gain([t for t, _ in v], [c for _, c in v], max(1, len(v) // 8))
             for i, v in per_spec.items() if specs[i] is not inputs.NODE_SPEC]
    if trace:
        out.metrics = trace_metrics([tracer.dump()], setup.median(), walls,
                                    traced_walls)
    else:
        out.metrics = end_to_end(setup.median(), walls, op_s, peak_mb, digits,
                                 gains)
    return out


# ---------------------------------------------------------------- plan_scan

def plan_scan(seed: int, seconds: float, trace: bool) -> Outcome:
    """Planning without quadrature, as `singquad predict` and `recommend`."""
    from tracing import Tracer
    out = Outcome()
    plans = inputs.plan_inputs(seed)
    setup = SetupProbes("import", every=IMPORT_EVERY_S)
    sq = importlib.import_module("singquad")
    work = [(sq.parse_integrand(s.text()), s, lo, hi, n) for s, lo, hi, n in plans]
    tracer = Tracer() if trace else None
    op_s, results = array("d"), FirstRound()

    def one_round(traced: bool) -> None:
        if traced:
            tracer.install()
        got = []
        for f, spec, lo, hi, n in work:
            t0 = perf_counter()
            try:
                exact = sq.exact_integral(f).value
                bounds = sq.predicted_order(f).coefficient_bounds
                if bounds is not None:
                    bounds = (bounds.lower, bounds.upper)
                env = (sq.log_envelope_constants(f)
                       if spec.family == "powerlog" else None)
                root = (sq.psi0_solve(spec.k, spec.expo)
                        if spec.family == "power" and spec.k % 4 in (0, 2) else None)
                lead = sq.leading_term(f, n)
                best = tuple(sq.recommend_n(f, lo, hi)[:10])
            except Exception as exc:  # an operation that fails is counted
                got.append(type(exc).__name__)
            else:
                got.append((exact, bounds, env, root, lead, best))
                if not traced:
                    op_s.append(perf_counter() - t0)
        if traced:
            tracer.uninstall()
        results.add(got)
        for (_, spec, _, _, n), r in zip(work, got):
            out.attempted += 1
            if isinstance(r, str):
                out.fail(f"{spec.text()} n={n}: {r}")

    walls, traced_walls = rounds(one_round, seconds, trace, setup)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import reference as ref
    out.problems += results.problems()
    digits, regime, gains = [], [], []
    for (_, spec, lo, hi, n), r in zip(work, results.outputs):
        if isinstance(r, str):
            continue
        exact, bounds, env, root, lead, best = r
        out.problems += ref.check_exact(spec, exact)
        if root is not None:
            out.problems += ref.check_psi0(spec.k, spec.expo, root)
        if len(set(best)) != 10 or not all(lo <= m <= hi for m in best):
            out.problems.append(f"{spec.text()}: recommend_n gave {best}")
        p = spec.sigma + 1.0
        scaled = {m: ref.true_error(spec, m)[0] * m ** p for m in range(lo, hi + 1)}
        if bounds is not None:
            out.problems += ref.check_envelope(spec, bounds, list(scaled.items()))
        if env is not None:
            out.problems += ref.check_log_envelope(spec, env.lower, env.upper,
                                                   list(scaled.items()))
        err, scale = ref.true_error(spec, n)
        if ref.above_floor(err, scale):
            digits.append(ref.digits_gained(err, lead))
            if ref.n_sin_phi(spec, n) >= ref.REGIME:
                regime.append((err, err - lead))
        top = statistics.median(abs(scaled[m]) for m in best)
        gains.append(math.log10(statistics.median(map(abs, scaled.values())) / top))
    out.problems += ref.check_correction("plan_scan", regime)
    if trace:
        out.metrics = trace_metrics([tracer.dump()], setup.median(), walls,
                                    traced_walls)
    else:
        out.metrics = end_to_end(setup.median(), walls, op_s, peak_mb, digits,
                                 gains)
    return out


# -------------------------------------------------------------------- main

def trace_metrics(dumps: list[dict], import_s: float, walls: list[float],
                  traced_walls: list[float]) -> dict:
    from tracing import Tracer, layer_metrics
    return layer_metrics(Tracer.merge(dumps), import_s,
                         sum(traced_walls) - sum(walls))


def run_all(args) -> int:
    """Each workload in a fresh child, so caches and peak RSS stay apart."""
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        if proc.returncode != 0:
            return proc.returncode
        summary[name] = json.loads((OUT / f"{name}.json").read_text())
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "singquad" / "__init__.py").is_file():
        sys.stderr.write(f"no singquad sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)

    t0 = perf_counter()
    run = {"sweep_cold": sweep_cold, "corrected_warm": corrected_warm,
           "plan_scan": plan_scan}[args.workload]
    out = run(args.seed, args.seconds, bool(args.trace))
    if not out.metrics:
        sys.stderr.write("every operation failed; no metrics\n")
        return 1
    for what, count in sorted(out.failures.items()):
        sys.stderr.write(f"failed x{count}: {what}\n")
    for problem in out.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    print(f"{args.workload} seed={args.seed}: attempted {out.attempted}, "
          f"failed {out.failed}, correct {not out.problems}, "
          f"{perf_counter() - t0:.1f} s")
    for name, m in out.metrics.items():
        print(f"  {name:<55} {m['value']:>14.6g} {m['unit']}")
    result = {"correct": not out.problems, "attempted": out.attempted,
              "failed": out.failed, "metrics": out.metrics}
    (OUT / f"{args.workload}.json").write_text(json.dumps(result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
