"""Command-line interface.

    singquad example 1 --alpha 0.5 --nmin 10 --nmax 600 --out ex1.csv
    singquad sweep --spec "power(0.4, 0, 0.5)" --out sweep.csv --check
    singquad predict --spec "power(0.4, 0, 0.5)" --n 200
    singquad recommend --spec "power(0.4, 1, 1)" --nmin 100 --nmax 200
    singquad sweep --spec "power(0.4, 0, 0.5)" --config sweep.cfg

With --check, a sweep exits nonzero if a scaled coefficient at n >= 100
lies outside the closed-form envelope (power family without an
envelope) by more than the Gauss sum's rounding allowance; report
prints the same count (experiments.envelope_violations).

--config FILE holds `key = value` lines; blank lines and # comments are
skipped.  Each line becomes the flag --key=value, placed ahead of the
command-line flags, so those win.  `check` takes true/false, yes/no or
1/0.  An unknown key is a usage error; a line without `=` raises
ValueError.

`example` takes only the flags its integrand uses (1: --alpha --b,
2: --k --b, 3: none, 4: --variant --b, 5: --b); any other one, from the
command line or --config, is a usage error.  So are a --spec that
parse_integrand rejects, an --n, --nmin or --nmax below 10, an --nmin
not below --nmax (above it, for recommend), and an example or sweep
--nmax above the largest Gauss rule, gauss_rule._MAX_POINTS.
"""

from __future__ import annotations

import argparse
import sys

from .error_predictor import (_MIN_N, leading_term, predicted_order,
                              psi0_solve, recommend_n)
from .experiments import (SweepConfig, envelope_violations,
                          example_integrand, report, run_sweep, write_csv)
from .gauss_rule import _MAX_POINTS
from .reference_oracle import exact_integral
from .singularity_model import Power, parse_integrand

_BOOLEANS = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}
_SWITCHES = ("check",)   # keys whose flag takes no value
_EXAMPLE_FLAGS = {1: {"alpha", "b"}, 2: {"k", "b"}, 3: set(),
                  4: {"variant", "b"}, 5: {"b"}}

_CONFIG = argparse.ArgumentParser(prog="singquad", add_help=False)
_CONFIG.add_argument("--config", default=None,
                     help="key = value file; command-line flags override it")


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(f"expected true/false, yes/no or 1/0, got {text!r}") \
            from None


def _config_flags(path: str) -> list[str]:
    """The `key = value` lines of a config file as command-line flags."""
    flags = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = line.partition("=")
            if not eq:
                raise ValueError(f"{path}: expected key = value, got {line!r}")
            key, val = key.strip(), val.strip()
            if key not in _SWITCHES:
                flags.append(f"--{key}={val}")
            elif _parse_bool(val):
                flags.append(f"--{key}")
    return flags


def _int_at_least(low: int):
    def parse(text: str) -> int:
        if not text.strip().isdigit() or int(text) < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


_size = _int_at_least(_MIN_N)   # leading_term, recommend_n and sweeps


def _spec(text: str):
    try:
        return parse_integrand(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nmin", type=_size, default=_MIN_N)
    p.add_argument("--nmax", type=_size, default=600)
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero on envelope violations at n >= 100")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singquad",
        description="Gauss-Legendre error prediction for singular integrands")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ex = sub.add_parser("example", parents=[_CONFIG],
                          help="reproduce a stock experiment")
    p_ex.add_argument("id", type=int, choices=range(1, 6))
    # no defaults here: example_integrand has them, and a flag that is
    # given must be one the example uses
    p_ex.add_argument("--alpha", type=float)
    p_ex.add_argument("--k", type=int)
    p_ex.add_argument("--b", type=float)
    p_ex.add_argument("--variant", type=int, choices=(1, 2))
    _add_common(p_ex)

    p_sw = sub.add_parser("sweep", parents=[_CONFIG],
                          help="sweep n for a custom integrand")
    p_sw.add_argument("--spec", type=_spec, required=True)
    _add_common(p_sw)

    p_pr = sub.add_parser("predict", parents=[_CONFIG],
                          help="predict the error at one n")
    p_pr.add_argument("--spec", type=_spec, required=True)
    p_pr.add_argument("--n", type=_size, required=True)

    p_rec = sub.add_parser("recommend", parents=[_CONFIG],
                           help="rank quadrature sizes")
    p_rec.add_argument("--spec", type=_spec, required=True)
    p_rec.add_argument("--nmin", type=_size, required=True)
    p_rec.add_argument("--nmax", type=_size, required=True)
    p_rec.add_argument("--top", type=_int_at_least(1), default=10)
    return parser


def _sweep_command(f, args) -> int:
    cfg = SweepConfig(integrand=f, n_min=args.nmin, n_max=args.nmax)
    records = run_sweep(cfg)
    if args.out:
        write_csv(records, args.out)
    sys.stdout.write(report(records, cfg))
    if args.check:
        bad = envelope_violations(records, f)
        if bad:
            sys.stderr.write(f"check failed: {len(bad)} envelope "
                             f"violations at n >= 100\n")
            return 1
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    config = _CONFIG.parse_known_args(argv)[0].config
    if config is not None:
        argv[1:1] = _config_flags(config)  # after the command: flags win
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("example", "sweep") and args.nmin >= args.nmax:
        parser.error("--nmin must be below --nmax")
    if args.command in ("example", "sweep") and args.nmax > _MAX_POINTS:
        parser.error(f"--nmax must not exceed {_MAX_POINTS}, the rule cap")
    if args.command == "recommend" and args.nmin > args.nmax:
        parser.error("--nmin must not exceed --nmax")

    if args.command == "example":
        given = {key: val for key, val in vars(args).items()
                 if key in ("alpha", "k", "b", "variant") and val is not None}
        unused = sorted(given.keys() - _EXAMPLE_FLAGS[args.id])
        if unused:
            parser.error(f"example {args.id} does not use "
                         + ", ".join(f"--{key}" for key in unused))
        return _sweep_command(example_integrand(args.id, **given), args)

    if args.command == "sweep":
        return _sweep_command(args.spec, args)

    if args.command == "predict":
        f = args.spec
        lead = leading_term(f, args.n)
        order = predicted_order(f)
        exact = exact_integral(f)
        print(f"integral (oracle, {exact.method}): {exact.value:.15g}")
        print(f"predicted leading error at n = {args.n}: {lead:.6e}")
        log_tag = " (with log n factor)" if order.order_log_factor else ""
        print(f"predicted order: n^-{order.order_exponent:g}{log_tag}; "
              f"higher-order regime: n^-{order.regime_exponent:g}"
              + (" log n" if order.regime_log_factor else ""))
        if order.coefficient_bounds is not None:
            cb = order.coefficient_bounds
            kind = "attained" if cb.attained else "strict"
            print(f"scaled-coefficient bounds ({kind}): "
                  f"[{cb.lower:.6g}, {cb.upper:.6g}]")
            if isinstance(f.family, Power) and f.family.k % 4 in (0, 2):
                print(f"phase root cos(Psi0) = "
                      f"{psi0_solve(f.family.k, f.family.alpha):.6f} "
                      "(crude rule: 0)")
        return 0

    if args.command == "recommend":
        best = recommend_n(args.spec, args.nmin, args.nmax)[:args.top]
        print(" ".join(str(n) for n in best))
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
