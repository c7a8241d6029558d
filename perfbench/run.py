"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload detail-btb2 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes the
traced run and prints the per-layer metrics.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: End-to-end metrics (untraced run) and their units.
END_TO_END = {
    "setup_s": "s",
    "rec_per_s": "records/s",
    "rerun_rec_per_s": "records/s",
    "chunk_p50_ms": "ms",
    "chunk_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run) and their units.  A layer a workload does
#: not exercise reads 0.
PER_LAYER = {
    "workloads.generate_s": "s",
    "trace.encode_s": "s",
    "service.boot_s": "s",
    "trace.decode_s": "s",
    "trace.seek_decode_s": "s",
    "experiments.self_s": "s",
    "sampling.self_s": "s",
    "engine.run.self_s": "s",
    "engine.step.self_s": "s",
    "engine.step.calls": "count",
    "engine.warm.self_s": "s",
    "engine.warm.records": "count",
    "engine.batched.self_s": "s",
    "engine.batched.escape_frac": "ratio",
    "core.search.self_s": "s",
    "core.search.calls": "count",
    "core.search.no_prediction_frac": "ratio",
    "btb.self_s": "s",
    "btb.calls": "count",
    "caches.self_s": "s",
    "caches.icache_miss_rate": "ratio",
    "preload.engine.self_s": "s",
    "preload.transfer.self_s": "s",
    "preload.transfer.calls": "count",
    "preload.ordering.self_s": "s",
    "preload.transfer.idle_frac": "ratio",
    "preload.entries_per_row": "ratio",
    "sampling.state_dict_ms": "ms",
    "sampling.ckpt_save_ms": "ms",
    "sampling.ckpt_bytes": "bytes",
    "sampling.ckpt_load_ms": "ms",
    "sampling.load_state_dict_ms": "ms",
    "sampling.ckpt_skipped": "count",
    "service.ingest_ms": "ms",
    "service.chunk_exec_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.polls_per_chunk": "count",
    "service.suspend_ms": "ms",
    "service.resume_ms": "ms",
    "service.refused": "count",
    "host.ref_kernel_per_s": "1/s",
    "tracing.untraced_rec_per_s": "records/s",
    "tracing.traced_rec_per_s": "records/s",
    "tracing.overhead_x": "ratio",
    "tracing.op_s": "s",
    "tracing.unattributed_s": "s",
}

WORKLOAD_NAMES = ("detail-btb2", "sampled-ckpt", "service")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="trace seed; 0 is the catalog's own traces")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the ops run (default: 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 makes the traced, per-layer run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = Path.cwd() / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {source}/repro; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(HERE)]
    for name in ("REPRO_AUDIT", "REPRO_RELAY", "REPRO_STATUS", "REPRO_SCALE",
                 "REPRO_BACKEND"):
        os.environ.pop(name, None)

    import hostclock
    import workloads
    from stats import metric, result_line

    cpus = sorted(os.sched_getaffinity(0))
    if not hostclock.pin(cpus[0]):
        print(f"perfbench: could not pin to vCPU {cpus[0]}", file=sys.stderr)
    clock = hostclock.HostClock().start()
    work = Path.cwd() / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workloads.Run(args.workload, args.seed, args.seconds,
                        bool(args.trace), work, clock, daemon_cpu=cpus[-1])
    try:
        workloads.WORKLOADS[args.workload](run)
    except Exception:  # noqa: BLE001 - the run cannot report a result
        traceback.print_exc()
        return 1
    finally:
        clock.stop()
        shutil.rmtree(work, ignore_errors=True)
    for note in run.notes:
        print(note)
    print(f"reference digest: {run.ledger.expected}")
    for failure in run.ledger.failures:
        print(f"FAILED {failure}")
    if args.trace:
        values = dict(run.layer_values)
        values["sampling.ckpt_skipped"] = run.ckpt_skipped
        print(f"spans: {run.write_spans()}")
        metrics = {name: metric(values.get(name, 0.0), unit)
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: run.metrics[name] for name in END_TO_END}
    print(result_line(run.ledger, metrics, run.consistent))
    return 0


if __name__ == "__main__":
    sys.exit(main())
