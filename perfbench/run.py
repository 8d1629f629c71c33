"""Benchmark entry point.

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
Informational lines (``host_ref_ms``, ``shape``, ``routes``) come first;
the last line of standard output is the JSON result.  With ``--trace 0``
it carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced run, both as declared in ``BENCHMARK.json``.
An oracle mismatch prints the result with ``"correct": false`` and exits
1.  See ``METRICS.md`` for what each metric measures on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("solve-cold", "serve-read", "serve-write")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            "perfbench: no program to measure (expected {})".format(
                os.path.join(SRC, "repro")
            ),
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)

    from common import check, emit, host_ref_ms, note

    note("host_ref_ms", {"before": round(host_ref_ms(), 3)})
    if args.workload == "solve-cold":
        import cold

        result = cold.run(args.seed, args.seconds, bool(args.trace))
    else:
        import serve

        runner = serve.run_read if args.workload == "serve-read" else serve.run_write
        result = runner(args.seed, args.seconds, bool(args.trace))
    note("host_ref_ms", {"after": round(host_ref_ms(), 3)})

    if result["mismatches"]:
        note("oracle_mismatches", [str(m) for m in result["mismatches"]])
    # BENCHMARK.json names every metric a run reports, with its unit.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        # A layer that the workload never calls reports 0.
        layers = result["layers"]
        check(
            set(layers) <= {m["name"] for m in declared},
            "undeclared layers: {}".format(set(layers) - {m["name"] for m in declared}),
        )
        metrics = {
            m["name"]: (float(layers.get(m["name"], 0.0)), m["unit"])
            for m in declared
        }
    else:
        metrics = result["metrics"]
        check(
            {n: u for n, (_, u) in metrics.items()}
            == {m["name"]: m["unit"] for m in declared},
            "end-to-end metrics differ from BENCHMARK.json",
        )
    emit(result["correct"], result["attempted"], result["failed"], metrics)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
