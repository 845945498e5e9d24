"""One timed set-up: import a workload's layers and run its warm-up.

``python3 perfbench/setup_probe.py <campaign|tnum_ops> <seed>`` -- the
benchmark starts this several times per run and reports the median
wall time as ``setup_s``.
"""

from __future__ import annotations

import sys

import harness


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    harness.use_src()
    if workload == "campaign":
        import wl_campaign as module
    elif workload == "tnum_ops":
        import wl_tnum as module
    else:
        print(f"setup_probe: unknown workload {workload!r}", file=sys.stderr)
        return 2
    module.warm_up(seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
