"""Layered benchmark of the tnum reproduction: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads, metrics and their units
are declared in ``BENCHMARK.json`` next to this directory; see
``perfbench/README.md`` for why each workload exists and which layer
metric should move which end-to-end metric.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, measured with no wrappers installed and
observability off; ``--trace 1`` reports the per-layer metrics from a
separate run that records spans around each layer's entry points.  A
per-layer metric that a workload does not exercise reads 0.  Sample
counts, tail latencies and other details go to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys

import harness

WORKLOADS = ("campaign", "serve_cold", "serve_warm", "tnum_ops")


def _declared():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _run(workload: str, seed: int, seconds: float, trace: bool) -> harness.Outcome:
    if workload == "campaign":
        import wl_campaign

        return wl_campaign.run(seed, seconds, trace)
    if workload == "tnum_ops":
        import wl_tnum

        return wl_tnum.run(seed, seconds, trace)
    import wl_serve

    return wl_serve.run(seed, seconds, trace, cold=workload == "serve_cold")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Turn SIGTERM into SystemExit so cleanup runs and the server
    # process a serve workload started is stopped, not orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    harness.use_src()
    end_to_end, per_layer = _declared()
    trace = bool(args.trace)
    outcome = _run(args.workload, args.seed, args.seconds, trace)
    if outcome.attempted == 0:
        outcome.problems.append("no operation was attempted")
        outcome.attempted = outcome.failed = 1

    declared = per_layer if trace else end_to_end
    unknown = set(outcome.metrics) - set(declared)
    if unknown:
        raise RuntimeError(f"undeclared metrics: {sorted(unknown)}")
    values = {name: float(outcome.metrics.get(name, 0.0)) for name in declared}
    if not trace:
        missing = set(declared) - set(outcome.metrics)
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {sorted(missing)}")
    for name, value in values.items():
        if not math.isfinite(value):
            outcome.problems.append(f"metric {name} is not finite")
            values[name] = 0.0

    for line in outcome.notes + [f"PROBLEM: {p}" for p in outcome.problems]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": declared[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
