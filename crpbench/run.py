"""Benchmark entry point.

    python3 crpbench/run.py --workload probe_dense --seed 1 --seconds 30 --trace 0

Runs one workload from the checkout's ``src/`` tree and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` records layer spans and reports the
per-layer metrics (see ``layers.py``), dumping the spans to
``.bench_out/``.  Earlier lines carry the host block and diagnostics.
Exits 2 when the program sources are missing, 1 when an output check
fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import OUT_DIR, CheckFailed, host_block, import_repro, metric
from layers import per_layer_units

WORKLOADS = ("probe_dense", "probe_sparse", "serve_mix")


def run_workload(name: str, seed: int, seconds: float, tracer) -> dict:
    if name == "serve_mix":
        from serving import serve_mix

        return serve_mix(seed, seconds, tracer)
    import probes

    return getattr(probes, name)(seed, seconds, tracer)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_repro()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    print(json.dumps({"host": host_block(), "workload": args.workload, "seed": args.seed}))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, tracer)
    except CheckFailed as error:
        print(f"check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps({"info": result["info"]}))
    if args.trace:
        values = result["per_layer"]
        metrics = {
            name: metric(values.get(name, 0.0), unit)
            for name, unit in per_layer_units().items()
        }
        if tracer.span_start:
            path = OUT_DIR / f"spans-{args.workload}-s{args.seed}.npz"
            tracer.dump(path, {"workload": args.workload, "seed": args.seed})
            print(json.dumps({"spans": str(path.relative_to(OUT_DIR.parent))}))
    else:
        metrics = result["end_to_end"]
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
