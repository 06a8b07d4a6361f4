"""Fresh-process helper of run.py; run with PYTHONPATH=src from the
repository root.

    probe.py import                 time `import singquad`
    probe.py warm N [N ...]         time the import plus compute_rule(N) for each N
    probe.py cli TRACE.json ARG...  run singquad.cli.main(ARG...) under the
                                    tracer and write its counters to TRACE.json

The first two print one JSON object with the elapsed seconds.
"""

import json
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        from tracing import Tracer
        import singquad.cli
        tracer = Tracer()
        tracer.install()
        try:
            return singquad.cli.main(rest[1:])
        finally:
            tracer.uninstall()
            with open(rest[0], "w") as fh:
                json.dump(tracer.dump(), fh)
    t0 = perf_counter()
    import singquad
    if mode == "warm":
        for n in rest:
            singquad.compute_rule(int(n))
    elif mode != "import":
        raise SystemExit(f"unknown probe mode {mode!r}")
    print(json.dumps({"elapsed_s": perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
