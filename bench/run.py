"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload mine-batch --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of the traced run (``layers.py``), which also writes its spans to
``bench/_runs/``. ``--profile N`` adds the cProfile top N of each layer
to the traced run. Detail, and every failed check, goes to standard
error. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from common import RUNS, import_program

WORKLOADS = ("mine-batch", "serve-mixed", "replay-online")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="with --trace 1, write the cProfile top N of each layer")
    args = parser.parse_args(argv)

    import_program()
    RUNS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=RUNS))
    try:
        if args.trace:
            import layers

            out = layers.run(args.workload, args.seed, workdir, RUNS, args.profile)
        elif args.workload == "mine-batch":
            import mine_batch

            out = mine_batch.run(args.seed, args.seconds, workdir)
        elif args.workload == "serve-mixed":
            import serve_mixed

            out = serve_mixed.run(args.seed, args.seconds, workdir)
        else:
            import replay_online

            out = replay_online.run(args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for fault in out["faults"]:
        print(f"check failed: {fault}", file=sys.stderr)
    print(json.dumps(out.get("info", {}), sort_keys=True), file=sys.stderr)
    result = {
        "correct": not out["faults"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
