"""tools/outputs.py records outputs as hex and reports moved bits; a
record diffed against itself moves nothing, and one nudged by an ulp
moves exactly that output."""

import importlib.util
import json
import math
from pathlib import Path

import singquad as sq

_PATH = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"
_spec = importlib.util.spec_from_file_location("outputs_tool", _PATH)
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def _small_record() -> dict:
    out = {}
    pairs = [(text, sq.parse_integrand(text))
             for text in ("power(0.0, 0, 0.5)", "powerlog(-0.3, 1, -0.5)",
                          "power(0.9999, 1, 1.5) envelope=gauss")]
    outputs.leading_terms(sq, out, pairs, sizes=(10, 11, 2000))
    outputs.plans(sq, out, [("power(0.4, 2, 0.5)", 2, 0.5, 100, 110),
                            ("powerlog(0.4, 0, 0.5)", 0, 0.5, 100, 110)])
    outputs.record(out, "leading_term", "a raise",
                   lambda: sq.leading_term(pairs[0][1], 9))
    outputs.rules(out, sizes=(1, 2, 3, 101))
    return out


def test_self_diff_moves_nothing_and_an_ulp_moves_one(tmp_path, capsys):
    out = _small_record()
    assert out["leading_term"]["a raise"].startswith("raise ValueError: ")
    assert set(out) == {"leading_term", "recommend_n", "psi0_solve",
                        "coefficient_bounds", "log_envelope_constants",
                        "rules"}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    outputs.write(str(a), out)
    assert outputs.diff(str(a), str(a)) == 0
    table = capsys.readouterr().out
    assert "leading_term" in table and "recommend_n" in table

    key = "powerlog(-0.3, 1, -0.5) n=2000"
    value = float.fromhex(out["leading_term"][key])
    out["leading_term"][key] = math.nextafter(value, math.inf).hex()
    outputs.write(str(b), out)
    assert outputs.diff(str(a), str(b)) == 1
    moved = outputs.compare(*(json.loads(p.read_text())["outputs"]
                              for p in (a, b)))
    assert moved["leading_term"] == (10, 1, 1.0)
    assert all(m == 0 for kind, (_, m, _) in moved.items()
               if kind != "leading_term")


def test_moves_that_are_not_ulps():
    assert outputs.ulps(["0x1.0p+0", True], ["0x1.0000000000002p+0", True]) \
        == 2.0
    assert outputs.ulps((-0.0).hex(), (0.0).hex()) == 0.0
    assert outputs.ulps("raise RuntimeError: x", "0x1.0p+0") == math.inf
    assert outputs.compare({"k": {"x": "a"}}, {"k": {"y": "a"}}) \
        == {"k": (2, 2, math.inf)}


def test_rule_digests_from_one_cold_batch():
    cached = sq.compute_rule(32)
    out = {}
    outputs.rules(out, sizes=(3, 101))
    r = sq.compute_rule(101)
    assert out["rules"] == {
        "n=3": outputs._sha256(sq.compute_rule(3).nodes.tobytes()
                               + sq.compute_rule(3).weights.tobytes()),
        "n=101": outputs._sha256(r.nodes.tobytes() + r.weights.tobytes())}
    assert sq.compute_rule(32) is cached   # the cache is put back
    out = {}
    outputs.rules(out, sizes=(0,))
    assert out["rules"]["batch"].startswith("raise ValueError: ")
