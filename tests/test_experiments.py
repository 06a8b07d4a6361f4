import ast
import importlib
import inspect
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from singquad import (ExperimentRecord, SweepConfig, example_integrand,
                      fit_envelope_slope, report, run_sweep, write_csv)
from singquad.cli import main
from singquad.experiments import CSV_HEADER


def synthetic_records(exponent=-2.0):
    recs = []
    for n in range(10, 411):
        err = float(n) ** exponent
        recs.append(ExperimentRecord(n=n, error=err, abs_error=err,
                                     scaled_coeff=1.0, cos_phase=0.0,
                                     predicted=err, corrected_error=0.0,
                                     bound_lo=math.nan, bound_hi=math.nan))
    return recs


def test_synthetic_slope():
    assert fit_envelope_slope(synthetic_records()) == pytest.approx(-2.0,
                                                                    abs=0.01)


def test_slope_needs_windows():
    with pytest.raises(ValueError):
        fit_envelope_slope(synthetic_records()[:60])


@pytest.mark.parametrize("n_min, n_max", [(10.0, 600), (10, 60.5)])
def test_sweep_bounds_must_be_integers(n_min, n_max):
    with pytest.raises(ValueError, match="integers"):
        SweepConfig(example_integrand(1), n_min, n_max)


def test_sweep_bounds_accept_numpy_integers():
    f = example_integrand(1)
    recs = run_sweep(SweepConfig(f, np.int64(10), np.int32(12)))
    assert recs == run_sweep(SweepConfig(f, 10, 12))


def test_record_count_and_determinism(tmp_path, sweep):
    f = example_integrand(1, alpha=0.5)
    cfg = SweepConfig(integrand=f, n_min=10, n_max=80)
    recs = run_sweep(cfg)
    assert len(recs) == 71
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(recs, str(p1))
    write_csv(run_sweep(cfg), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 72
    # round-trip exactness of the 17-digit format
    first = lines[1].split(",")
    assert float(first[1]) == recs[0].error


def test_sign_agreement_away_from_zeros(sweep):
    records, _ = sweep(1, alpha=0.5)
    # regime exponent for k + alpha = 0.5 is 2 alpha + 2k + 1 = 2
    disagreements = 0
    checked = 0
    for r in records:
        if r.abs_error > 10.0 * r.n ** -2.0:
            checked += 1
            if math.copysign(1, r.predicted) != math.copysign(1, r.error):
                disagreements += 1
    assert checked > 50
    assert disagreements == 0


def test_machine_floor_flagging(sweep):
    # k=3 errors dip under 1e-15 |exact| near leading-term zeros
    records, _ = sweep(2, k=3)
    assert any(r.floored for r in records)

    # floored records are excluded from slope fits entirely
    floored = [ExperimentRecord(n=r.n, error=r.error, abs_error=r.abs_error,
                                scaled_coeff=r.scaled_coeff,
                                cos_phase=r.cos_phase, predicted=r.predicted,
                                corrected_error=r.corrected_error,
                                bound_lo=r.bound_lo, bound_hi=r.bound_hi,
                                floored=True)
               for r in records]
    with pytest.raises(ValueError):
        fit_envelope_slope(floored)


def test_recommended_sizes_beat_range_median(sweep):
    from singquad import recommend_n
    records, cfg = sweep(1, alpha=0.5)
    by_n = {r.n: r for r in records}
    errs = sorted(by_n[n].abs_error for n in range(100, 201))
    median = errs[len(errs) // 2]
    top5 = recommend_n(cfg.integrand, 100, 200)[:5]
    assert all(by_n[n].abs_error < median for n in top5)


def test_report_contents(sweep):
    records, cfg = sweep(4, variant=2)
    text = report(records, cfg)
    assert "max |n^2 R_n|" in text
    assert "envelope slope" in text

    records1, cfg1 = sweep(1, alpha=0.5)
    text1 = report(records1, cfg1)
    assert "coefficient bounds" in text1
    assert "0 envelope violations" in text1


class TestCli:
    def test_example_sweep_and_check(self, tmp_path):
        out = tmp_path / "ex1.csv"
        code = main(["example", "1", "--alpha", "0.5", "--nmin", "10",
                     "--nmax", "40", "--out", str(out), "--check"])
        assert code == 0
        assert out.exists()
        assert out.read_text().startswith(CSV_HEADER)

    def test_sweep_spec(self, tmp_path, capsys):
        code = main(["sweep", "--spec", "power(0.4, 1, 1)",
                     "--nmin", "10", "--nmax", "40"])
        assert code == 0
        assert "envelope slope" in capsys.readouterr().out

    def test_predict(self, capsys):
        code = main(["predict", "--spec", "power(0.4, 0, 0.5)", "--n", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted leading error" in out
        assert "phase root" in out

    def test_recommend(self, capsys):
        code = main(["recommend", "--spec", "power(0.4, 1, 1)",
                     "--nmin", "100", "--nmax", "130", "--top", "5"])
        assert code == 0
        picks = [int(tok) for tok in capsys.readouterr().out.split()]
        assert len(picks) == 5
        assert all(100 <= p <= 130 for p in picks)

    def test_predict_non_finite_raises(self):
        # b = 0, odd n and k + alpha = 0.02: the integrand goes like
        # y^-0.98 and the inner panels hold too much of it
        with pytest.raises(RuntimeError, match="did not converge"):
            main(["predict", "--spec", "power(0, 0, 0.02)", "--n", "101"])

    def test_predict_zeta_form_at_b_zero(self, capsys):
        # b = 0, odd n: Psi = pi, and with s = alpha + 1 the leading term
        # is 4 sin(alpha pi/2) Gamma(s) zeta(s) / (2n)^s
        mp = pytest.importorskip("mpmath")
        alpha, n = 0.1, 101
        s = alpha + 1.0
        want = (4.0 * math.sin(alpha * math.pi / 2) * math.gamma(s)
                * float(mp.zeta(s)) / (2.0 * n) ** s)
        assert main(["predict", "--spec", "power(0, 0, 0.1)",
                     "--n", str(n)]) == 0
        assert (f"predicted leading error at n = {n}: {want:.6e}"
                in capsys.readouterr().out)

    def test_predict_far_kernel_is_quiet(self):
        # near b = 1 the kernel's denominator overflows to inf far out,
        # which gives its limit 0; that must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["predict", "--spec",
                         "power(0.999, 0, 1) envelope=gauss",
                         "--n", "600"]) == 0

    def test_example4_variant2_at_b_zero(self, tmp_path):
        out = tmp_path / "ex4.csv"
        code = main(["example", "4", "--variant", "2", "--b", "0",
                     "--nmax", "120", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 112

    @pytest.mark.parametrize("argv,unused", [
        (["example", "3", "--b", "0.2", "--alpha", "0.9"], "--alpha, --b"),
        (["example", "1", "--k", "3", "--variant", "2"], "--k, --variant"),
        (["example", "5", "--alpha", "0.5"], "--alpha"),
    ])
    def test_example_rejects_unused_flags(self, argv, unused, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"does not use {unused}" in capsys.readouterr().err

    def test_example_rejects_unused_config_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "ex.cfg"
        cfgfile.write_text("k = 3\n")
        with pytest.raises(SystemExit) as exc:
            main(["example", "1", "--config", str(cfgfile)])
        assert exc.value.code == 2
        assert "does not use --k" in capsys.readouterr().err

    @pytest.mark.parametrize("text,value", [("false", False), ("no", False),
                                            ("0", False), ("true", True),
                                            ("Yes", True), ("1", True)])
    def test_config_booleans(self, tmp_path, text, value, monkeypatch):
        import singquad.cli as cli
        seen = []

        def sweep_command(f, args):
            seen.append(args.check)
            return 0
        monkeypatch.setattr(cli, "_sweep_command", sweep_command)
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text(f"check = {text}\n")
        main(["sweep", "--spec", "power(0.4, 0, 0.5)", "--config", str(cfgfile)])
        assert seen == [value]

    @pytest.mark.parametrize("text", ["", "off", "maybe", "2"])
    def test_config_rejects_non_booleans(self, tmp_path, text):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text(f"check = {text}\n")
        with pytest.raises(ValueError):
            main(["sweep", "--spec", "power(0.4, 0, 0.5)",
                  "--config", str(cfgfile)])

    def test_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text("nmin = 12\nnmax = 44\n")
        code = main(["sweep", "--spec", "power(0.4, 0, 0.5)",
                     "--config", str(cfgfile)])
        assert code == 0
        assert "n = 12..44" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["example", "2", "--k", "3"],
        ["sweep", "--spec", "power(0.4, 1, 2)"],
        ["sweep", "--spec", "power(0.95, 3, 1.5)"],
    ])
    def test_check_allows_rounding(self, argv, capsys):
        # each exceeds its bounds only by rounding of the Gauss sum
        assert main(argv + ["--check"]) == 0
        assert "0 envelope violations at n >= 100" in capsys.readouterr().out

    def test_check_and_report_agree(self, monkeypatch, capsys):
        import singquad.experiments as ex
        from singquad import CoefficientBounds
        real = ex.coefficient_bounds

        def shrunk(f):
            cb = real(f)
            return CoefficientBounds(lower=0.9 * cb.lower,
                                     upper=0.9 * cb.upper,
                                     attained=cb.attained)
        monkeypatch.setattr(ex, "coefficient_bounds", shrunk)
        assert main(["example", "1", "--check"]) == 1
        captured = capsys.readouterr()
        reported = re.search(r"(\d+) envelope violations at n >= 100",
                             captured.out)
        checked = re.search(r"check failed: (\d+) envelope violations",
                            captured.err)
        assert int(reported.group(1)) == int(checked.group(1)) > 0

    def test_config_unknown_key(self, tmp_path):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text("nmx = 30\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--spec", "power(0.4, 0, 0.5)",
                  "--config", str(cfgfile)])
        assert exc.value.code == 2

    def test_config_line_without_equals(self, tmp_path):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text("nmin 12\n")
        with pytest.raises(ValueError, match="key = value"):
            main(["sweep", "--spec", "power(0.4, 0, 0.5)",
                  "--config", str(cfgfile)])

    def test_config_loses_to_abbreviated_flag(self, tmp_path, monkeypatch):
        import singquad.cli as cli
        seen = []
        monkeypatch.setattr(cli, "_sweep_command",
                            lambda f, args: seen.append(args) or 0)
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text("nmin = 12\nnmax = 44\n")
        main(["sweep", "--spec", "power(0.4, 0, 0.5)", "--nma", "60",
              "--config", str(cfgfile)])
        assert (seen[0].nmin, seen[0].nmax) == (12, 60)

    def test_config_supplies_required_flags(self, tmp_path, capsys):
        cfgfile = tmp_path / "rec.cfg"
        cfgfile.write_text("# recommend range\nnmin = 100\nnmax = 130\n"
                           "top = 5\n")
        code = main(["recommend", "--spec", "power(0.4, 1, 1)",
                     "--config", str(cfgfile)])
        assert code == 0
        picks = [int(tok) for tok in capsys.readouterr().out.split()]
        assert len(picks) == 5 and all(100 <= p <= 130 for p in picks)

    @pytest.mark.parametrize("top", ["0", "-3", "two"])
    def test_recommend_rejects_bad_top(self, top, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["recommend", "--spec", "power(0.4, 1, 1)",
                  "--nmin", "100", "--nmax", "110", "--top", top])
        assert exc.value.code == 2
        assert "expected an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["recommend", "--spec", "power(0.4, 1, 1)", "--nmin", "5",
          "--nmax", "20"], "argument --nmin: expected an integer >= 10"),
        (["recommend", "--spec", "power(0.4, 1, 1)", "--nmin", "30",
          "--nmax", "20"], "--nmin must not exceed --nmax"),
        (["predict", "--spec", "power(0.4, 0, 0.5)", "--n", "5"],
         "argument --n: expected an integer >= 10"),
        (["sweep", "--spec", "power(0.4, 0, 0.5)", "--nmin", "5"],
         "argument --nmin: expected an integer >= 10"),
        (["sweep", "--spec", "bogus(1)"], "argument --spec:"),
        (["predict", "--spec", "power(2.0, 0, 0.5)", "--n", "100"],
         "argument --spec: b must lie in (-1, 1)"),
    ], ids=["recommend-nmin", "recommend-order", "predict-n", "sweep-nmin",
            "spec-name", "spec-b"])
    def test_bad_input_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_sweep_needs_nmin_below_nmax(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["example", "1", "--nmin", "40", "--nmax", "40"])
        assert exc.value.code == 2
        assert "--nmin must be below --nmax" in capsys.readouterr().err

    def test_nmax_above_rule_cap_is_a_usage_error(self, capsys):
        from singquad.gauss_rule import _MAX_POINTS
        for argv in (["example", "1"],
                     ["sweep", "--spec", "power(0.4, 0, 0.5)"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--nmax", str(_MAX_POINTS + 1)])
            assert exc.value.code == 2
            assert f"--nmax must not exceed {_MAX_POINTS}" \
                in capsys.readouterr().err

    def test_predict_phase_root_at_large_exponent(self, capsys):
        # k + alpha = 10: the phase-root integral is ~Gamma(11) in scale
        code = main(["predict", "--spec", "power(0.4, 8, 2)", "--n", "200"])
        assert code == 0
        assert "phase root" in capsys.readouterr().out


def _documented_commands():
    import singquad.cli as cli
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = cli_block.splitlines() + cli.__doc__.splitlines()
    return [line.strip() for line in lines
            if line.strip().startswith("singquad ")]


@pytest.mark.parametrize("line", _documented_commands())
def test_documented_commands_parse(line):
    from singquad.cli import build_parser
    build_parser().parse_args(shlex.split(line)[1:])


def test_documented_commands_found():
    assert len(_documented_commands()) >= 8


def test_traced_layers_resolve():
    # bench/tracing.py patches these functions by name and binds the named
    # arguments of the counted ones; `bench/run.py --trace 1` needs both
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    consts = {t.id: ast.literal_eval(node.value)
              for node in ast.parse(tracing.read_text()).body
              if isinstance(node, ast.Assign) for t in node.targets
              if getattr(t, "id", None) in ("LAYERS", "SPLIT", "_COUNTED")}
    bound = {"gauss_rule.compute_rule": {"n"},
             "error_predictor.recommend_n": {"n_min", "n_max"},
             "experiments.write_csv": {"path"}}
    assert consts["_COUNTED"] == set(bound)
    for module, func in consts["LAYERS"] + (consts["SPLIT"],):
        params = inspect.signature(
            getattr(importlib.import_module(module), func)).parameters
        layer = f"{module.removeprefix('singquad.')}.{func}"
        assert bound.get(layer, set()) <= set(params), layer
