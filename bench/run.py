"""Run one benchmark workload and print its result as the last line of stdout.

    python3 bench/run.py --workload ref_infer_pruned --seed 7 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` installs the timing wrappers and prints the
per-layer metrics instead.  Details of the run (environment, every
request, the reference outputs, the spans of a traced run) are written
to ``.bench_results/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are fixed before numpy is imported (one thread, <= nproc).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "BLIS_NUM_THREADS": "1", "SPT_THREADS": "1"}

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_spt():
    """Import the checkout's own ``spt``; exit 2 if the source tree is not there."""
    src = ROOT / "src"
    if not (src / "spt" / "__init__.py").is_file():
        print(f"bench: no spt source tree at {src}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import spt
    if Path(spt.__file__).resolve().parent != (src / "spt").resolve():
        print(f"bench: imported spt from {spt.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return spt


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED_ENV)
    spt = import_spt()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    result = workloads.run_workload(spt, args.workload, args.seed, args.seconds,
                                    bool(args.trace), out_dir)
    report = result.report
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (out_dir / name).write_text(json.dumps(report) + "\n")

    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    if args.trace:
        print("keep-ratio sweep (encoder ms per image by stage):")
        print(workloads.format_sweep(report["trace"]["sweep"]))
    for problem in report["problems"]:
        print(f"problem: {problem}")
    for rec in report["requests_detail"]:
        if "error" in rec:
            print(f"failed request {rec['index']}: {rec['error']}")
            break
    for key, (value, unit) in result.metrics.items():
        print(f"{key:48s} {value:14.6g} {unit}")
    print(f"details: {out_dir.name}/{name}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
