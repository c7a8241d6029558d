"""Generate one workload's trace into a trace cache, in its own process.

Run by the benchmark as a child so that generation never inflates the peak
memory of the process that runs the ops.  Prints one JSON line: seconds
spent generating and encoding, and the trace's path.

    python3 perfbench/gen_trace.py --workload detail-btb2 --seed 0 --cache DIR
"""

import argparse
import json
import os
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    args = parser.parse_args()
    if os.path.exists(args.cache) and os.listdir(args.cache):
        parser.error(f"--cache {args.cache} must be a new or empty directory")
    os.environ["REPRO_TRACE_CACHE"] = args.cache

    from layers import Recorder

    from repro.workloads import catalog
    from seeds import TRACES, seeded_spec

    recorder = Recorder()
    recorder.patch(catalog.WorkloadSpec, "generate", recorder.wrap(
        catalog.WorkloadSpec.__dict__["generate"], "generate"))
    recorder.patch(catalog, "save_trace", recorder.wrap(
        catalog.__dict__["save_trace"], "encode"))
    spec = seeded_spec(args.workload, args.seed)
    path = spec.trace_path(TRACES[args.workload][1])
    recorder.uninstall()
    layers, _, _ = recorder.totals()
    print(json.dumps({
        "generate_s": layers["generate"][2],
        "encode_s": layers["encode"][2],
        "path": os.fspath(path),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
