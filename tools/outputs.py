#!/usr/bin/env python3
"""Record singquad's predictor outputs bit for bit, and compare two records.

    python3 tools/outputs.py dump OUT.json [--src DIR]
    python3 tools/outputs.py diff A.json B.json

dump evaluates one fixed, seeded input set with the singquad package
found under DIR (default: this checkout's src) and writes every float as
float.hex, so a record can be taken of any checkout, for example a parent
commit extracted with `git archive`.  A call that raises is recorded as
"raise Type: message".  The kinds of output:

  leading_term            Power and PowerLog with k = 0..5 (two exponents
                          each) and a GeneralJump, each with and without
                          the gauss envelope, at b = 0, +-1e-10, +-0.9999
                          and three seeded b, at odd and even n up to 2000
  recommend_n             the orders over the ranges of the plan_scan
                          inputs of bench/inputs.py (seeds 1 and 2)
  psi0_solve              the phase roots of those inputs' Power families
  coefficient_bounds,     both envelope bodies, for those inputs
  log_envelope_constants
  example                 SHA-256 of the CSV and of stdout of
                          `singquad example 1..5`, and of two runs at
                          b = 0, where b is a Gauss node for odd n

diff prints, for each kind, how many outputs there are, how many moved
(any bit, a different raise, or present on one side only) and the
largest move in ulps; it exits 1 if anything moved.  Bits depend on
numpy's version and SIMD dispatch, which each record notes: compare
records taken on one machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import struct
import sys
import tempfile
from dataclasses import astuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (10, 11, 57, 100, 101, 600, 999, 1000, 1999, 2000)
PLAN_SEEDS = (1, 2)
EXAMPLES = (["1"], ["2"], ["3"], ["4"], ["5"],
            ["1", "--b", "0", "--nmax", "200"],
            ["4", "--variant", "2", "--b", "0", "--nmax", "200"])


def _encode(value):
    """float -> hex, str, bool and int as they are, sequences element-wise."""
    if isinstance(value, (int, str)):   # bools too
        return value
    if isinstance(value, float):
        return value.hex()
    return [_encode(v) for v in value]


def record(out: dict, kind: str, key: str, fn) -> None:
    """out[kind][key] = fn()'s value, or the raise it ended in."""
    try:
        value = _encode(fn())
    except Exception as exc:   # the raise is itself an output
        value = f"raise {type(exc).__name__}: {exc}"
    out.setdefault(kind, {})[key] = value


def integrands(sq, rng: random.Random):
    """(key, integrand) pairs of the leading_term set."""
    bs = [0.0, 1e-10, -1e-10, 0.9999, -0.9999]
    bs += [round(rng.uniform(-0.99, 0.99), 6) for _ in range(3)]
    families = []
    for k in range(6):
        alphas = [round(rng.uniform(0.05, 1.0), 6),
                  round(rng.uniform(1.0, 2.0), 6)]
        if k:
            alphas[0] = -alphas[0]
        betas = [round(rng.uniform(0.05, 1.0), 6),
                 round(rng.uniform(-0.95, 1.0) if k else
                       rng.uniform(0.05, 1.0), 6)]
        families += [("power", k, a) for a in alphas]
        families += [("powerlog", k, b) for b in betas]
    for b in bs:
        for env in ("", " envelope=gauss"):
            for name, k, e in families:
                spec = f"{name}({b!r}, {k}, {e!r}){env}"
                yield spec, sq.parse_integrand(spec)
            yield (f"general({b!r}, |x-b|^0.5){env}",
                   sq.SingularIntegrand(b, _root_jump(sq, b),
                                        sq.gauss_envelope(b) if env else None))


def _root_jump(sq, b: float):
    # |x - b|^0.5 as a black box, with its jump in closed form
    coef = 2j * math.sin(math.pi / 4)
    return sq.GeneralJump(real_eval=lambda x: abs(x - b) ** 0.5,
                          jump_eval=lambda y, n: coef * (y / n) ** 0.5,
                          holder_k=0, holder_alpha=0.5)


def leading_terms(sq, out: dict, pairs, sizes=SIZES) -> None:
    for key, f in pairs:
        for n in sizes:
            record(out, "leading_term", f"{key} n={n}",
                   lambda: sq.leading_term(f, n))


def plans(sq, out: dict, items) -> None:
    """recommend_n, psi0_solve and the envelope body of each
    (spec text, k, exponent, n_lo, n_hi)."""
    for text, k, expo, lo, hi in items:
        f = sq.parse_integrand(text)
        record(out, "recommend_n", f"{text} {lo}..{hi}",
               lambda: sq.recommend_n(f, lo, hi))
        if isinstance(f.family, sq.Power):
            if k % 4 in (0, 2):
                record(out, "psi0_solve", f"k={k} alpha={expo!r}",
                       lambda: sq.psi0_solve(k, expo))
            record(out, "coefficient_bounds", text,
                   lambda: astuple(sq.coefficient_bounds(f)))
        else:
            record(out, "log_envelope_constants", text,
                   lambda: astuple(sq.log_envelope_constants(f)))


def plan_items(seeds=PLAN_SEEDS):
    sys.path.insert(0, str(ROOT / "bench"))
    import inputs   # read-only: the plan_scan generators
    return [(s.text(), s.k, s.expo, lo, hi)
            for seed in seeds for s, lo, hi, _ in inputs.plan_inputs(seed)]


def examples(out: dict, runs=EXAMPLES) -> None:
    """[exit status, SHA-256 of the CSV, of stdout] of each example run."""
    from singquad.cli import main

    def sha256(data: bytes) -> str:
        return "sha256:" + hashlib.sha256(data).hexdigest()

    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "example.csv"

        def run(args):
            csv.unlink(missing_ok=True)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(["example", *args, "--out", str(csv)])
            return (code, sha256(csv.read_bytes()),
                    sha256(stdout.getvalue().encode()))

        for args in runs:
            record(out, "example", "example " + " ".join(args),
                   lambda: run(args))


def dump(path: str, src: str) -> None:
    sys.path.insert(0, src)
    import singquad as sq
    out: dict = {}
    leading_terms(sq, out, integrands(sq, random.Random("tools/outputs")))
    plans(sq, out, plan_items())
    examples(out)
    write(path, out)


def write(path: str, outputs: dict) -> None:
    """outputs with the numpy version and SIMD dispatch they were taken on."""
    import numpy as np
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    meta = {"numpy": np.__version__,
            "dispatch": [t for t in umath.__cpu_dispatch__
                         if umath.__cpu_features__.get(t)]}
    Path(path).write_text(json.dumps({"meta": meta, "outputs": outputs},
                                     indent=0, sort_keys=True))


# ------------------------------------------------------------------ diff

def _ordered(x: float) -> int:
    """An integer that counts ulps: adjacent doubles differ by 1."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def _as_float(v):
    if isinstance(v, str):
        try:
            return float.fromhex(v)
        except ValueError:
            return None
    return None


def ulps(a, b) -> float:
    """The largest move in ulps between two encoded values: 0 if equal,
    inf where they are not both finite floats (or lists of them)."""
    if a == b:
        return 0.0
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max(ulps(x, y) for x, y in zip(a, b))
    x, y = _as_float(a), _as_float(b)
    if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return float(abs(_ordered(x) - _ordered(y)))


def compare(a: dict, b: dict) -> dict:
    """kind -> (count, moved, largest move in ulps) over both records."""
    table = {}
    for kind in sorted(set(a) | set(b)):
        xa, xb = a.get(kind, {}), b.get(kind, {})
        keys = set(xa) | set(xb)
        moves = [ulps(xa[k], xb[k]) if k in xa and k in xb else math.inf
                 for k in keys if k not in xa or k not in xb or xa[k] != xb[k]]
        table[kind] = (len(keys), len(moves), max(moves, default=0.0))
    return table


def diff(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["meta"] != b["meta"]:
        print(f"note: records of {a['meta']} and {b['meta']}")
    table = compare(a["outputs"], b["outputs"])
    print(f"{'kind':<24} {'count':>7} {'moved':>7} {'max ulps':>10}")
    for kind, (count, moved, worst) in table.items():
        print(f"{kind:<24} {count:>7} {moved:>7} {worst:>10g}")
    return 1 if any(moved for _, moved, _ in table.values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="record the outputs as hex")
    p_dump.add_argument("out")
    p_dump.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the singquad package")
    p_diff = sub.add_parser("diff", help="compare two records")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out, args.src)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
