"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate`` — run one workload under one or more configurations and
  print the comparison report; ``--trace``/``--chrome-trace``/``--sample``/
  ``--profile`` attach the telemetry subsystem and export its artifacts;
  ``--sampled`` switches to interval sampling (``--interval``/``--period``/
  ``--warmup``/``--sampling-mode``, checkpoint reuse via
  ``--checkpoint-dir``); ``--parallel-intervals K`` cuts the trace into K
  checkpoint-parallel slices fanned out over ``--backend`` (bit-identical
  to serial in exact mode, CI-bounded when combined with ``--sampled``).
* ``checkpoint`` — create, list or clear the warmed-state checkpoints a
  sampled run reuses.  For parallel runs, ``--relay-dir`` (implied by the
  trace flags) relays worker-side telemetry home and the exported trace is
  the *merged* multi-lane timeline; ``--metrics`` writes the session
  metrics snapshot (docs/OBSERVABILITY.md).
* ``workloads`` — list the Table 4 workload catalog (paper counters) and
  the adversarial BTB-probe families (:mod:`repro.workloads.adversarial`).
* ``tables`` — print the paper's structural tables (1, 2, 3, 5).
* ``figure`` — regenerate one figure (2-7) at a chosen scale, optionally
  fanning its simulation runs over ``--jobs`` worker processes.
* ``report`` — regenerate the full paper-vs-measured report (the
  ``repro.experiments.run_all`` entry point).
* ``serve`` — run the long-lived simulation daemon (:mod:`repro.service`):
  an asyncio HTTP/JSON API multiplexing many concurrent sessions over a
  bounded worker pool, with streaming trace ingest, checkpoint
  suspend/resume via ``--spool``, Prometheus ``/metrics``, and graceful
  drain on SIGTERM (docs/SERVICE.md).
* ``session`` — client for a running daemon: create/list/status/ingest/
  reports/suspend/resume/close/result/delete/shutdown against
  ``--host``/``--port``.
* ``top`` — live monitor for a running batch session: tails the status
  board named by ``--status`` (or ``$REPRO_STATUS``) and renders per-spec
  progress, throughput, ETA and worker utilization in place.
* ``timeline`` — run one workload with the time-series sampler and print
  the ASCII occupancy/rate timeline (optionally writing the CSV).
* ``profile`` — run one workload with the per-branch profiler and print
  the top-K worst-offenders report.
* ``verify`` — the verification gates (:mod:`repro.oracle`), one sequence
  for every predictor selected by ``--predictor NAME...|all`` (default:
  ``paper``): the conformance battery
  (:mod:`repro.predictors.conformance`), the mutation drill (prove each
  lockstep oracle catches a seeded LRU bug), the lockstep slate against
  the independent reference models, and the golden grid under
  ``tests/golden/predictors.json``; then the checkpoint-parallel gate over
  the paper stack (every golden-slate workload serial vs parallel,
  demanding bit-identity).  ``--update-golden`` regenerates the whole grid
  after an intended behavior change.
* ``ablation`` — run every registered predictor over a shared workload
  slate (commercial + adversarial) and print the comparison table
  (:mod:`repro.experiments.ablation`); ``--json`` writes the grid as the
  nightly CI artifact.

Everything the CLI does is also available as a library API; the CLI is a
thin argparse layer over :mod:`repro.experiments`: ``simulate``,
``timeline``, ``profile`` and ``checkpoint create`` each build
:class:`~repro.experiments.common.RunSpec` plans and run them through
:func:`~repro.experiments.common.execute_plan` (no result cache).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.audit import AUDIT_ENV, restored_environ
from repro.core.config import (
    PredictorConfig,
    TABLE3_CONFIGS,
    ZEC12_CONFIG_1,
    ZEC12_CONFIG_2,
    ZEC12_CONFIG_3,
)
from repro.engine.batched import ENGINE_MODES
from repro.metrics.counters import cpi_improvement
from repro.metrics.report import format_result
from repro.sampling import (
    CheckpointStore,
    ConfidenceBoundExceeded,
    DEFAULT_CI_BOUND,
    ParallelPlan,
    SamplingPlan,
    error_report,
)
from repro.telemetry import (
    BranchProfiler,
    Sampler,
    Telemetry,
    Tracer,
    render_timeline,
)
from repro.workloads.catalog import TABLE4_WORKLOADS, workload_by_name

CONFIGS: dict[str, PredictorConfig] = {
    "1": ZEC12_CONFIG_1,
    "2": ZEC12_CONFIG_2,
    "3": ZEC12_CONFIG_3,
}


def _cmd_workloads(_args) -> int:
    from repro.workloads.adversarial import ADVERSARIAL_WORKLOADS

    print(f"{'workload':34s} {'paper uniq':>10s} {'paper taken':>11s} "
          f"{'trace len':>10s}")
    for spec in TABLE4_WORKLOADS:
        print(f"{spec.name:34s} {spec.paper_unique_branches:10,d} "
              f"{spec.paper_unique_taken:11,d} {spec.trace_length:10,d}")
    print()
    print(f"{'adversarial workload':34s} {'sites':>10s} {'stride':>11s} "
          f"{'trace len':>10s}")
    for spec in ADVERSARIAL_WORKLOADS:
        print(f"{spec.name:34s} {spec.sites:10,d} {spec.stride:11,d} "
              f"{spec.trace_length:10,d}")
    return 0


def _build_telemetry(args) -> Telemetry | None:
    """A telemetry hub matching the ``simulate`` flags, or ``None``."""
    tracer = Tracer() if (args.trace or args.chrome_trace) else None
    sampler = Sampler(args.sample_interval) if args.sample else None
    profiler = BranchProfiler() if args.profile is not None else None
    if tracer is None and sampler is None and profiler is None:
        return None
    return Telemetry(tracer=tracer, sampler=sampler, profiler=profiler)


def _suffixed(path: str, key: str, multi: bool) -> str:
    """Per-config output path: ``out.jsonl`` -> ``out.cfg2.jsonl``."""
    if not multi:
        return path
    root, dot, extension = path.rpartition(".")
    if not dot or "/" in extension:
        return f"{path}.cfg{key}"
    return f"{root}.cfg{key}.{extension}"


def _export_telemetry(args, telemetry: Telemetry, key: str,
                      multi: bool, skip_tracer: bool = False) -> None:
    """Write the artifacts the ``simulate`` telemetry flags asked for.

    ``skip_tracer`` suppresses the JSONL/Chrome exports when a relay
    aggregation already wrote the (merged, multi-lane) versions of them.
    """
    if args.trace and not skip_tracer:
        count = telemetry.tracer.write_jsonl(
            _suffixed(args.trace, key, multi))
        print(f"wrote {count:,} events to "
              f"{_suffixed(args.trace, key, multi)}")
    if args.chrome_trace and not skip_tracer:
        count = telemetry.tracer.write_chrome_trace(
            _suffixed(args.chrome_trace, key, multi))
        print(f"wrote {count:,} trace events to "
              f"{_suffixed(args.chrome_trace, key, multi)}")
    if args.sample:
        count = telemetry.sampler.write_csv(
            _suffixed(args.sample, key, multi))
        print(f"wrote {count:,} samples to "
              f"{_suffixed(args.sample, key, multi)}")
    if args.profile is not None:
        print(telemetry.profiler.render(args.profile))


def _sampling_plan(args) -> SamplingPlan:
    """The :class:`SamplingPlan` described by the ``--sampled`` flags."""
    return SamplingPlan(
        mode=args.sampling_mode,
        interval=args.interval,
        period=args.period,
        warmup=args.warmup,
        seed=args.sampling_seed,
    )


def _relay_for(args, spec, key: str, multi: bool):
    """The relay a parallel ``simulate`` should stream through, or ``None``.

    An explicit ``--relay-dir`` always builds one; the trace flags imply
    one (per-record telemetry cannot cross worker process boundaries, so
    the only way a parallel run can export a trace is shard + aggregate).
    Each config of a multi-config invocation gets its own subdirectory —
    the aggregator merges a whole directory.
    """
    if not (args.relay_dir or args.trace or args.chrome_trace):
        return None
    import tempfile

    from repro.telemetry.distributed import TelemetryRelay

    root = args.relay_dir or tempfile.mkdtemp(prefix="repro-relay-")
    directory = os.path.join(root, f"cfg{key}") if multi else root
    return TelemetryRelay(directory, run_id=f"{spec.name}-cfg{key}")


def _export_aggregate(args, relay, key: str, multi: bool) -> None:
    """Merge a parallel run's relay shards and write the asked artifacts."""
    from repro.telemetry.distributed import aggregate
    from repro.telemetry.metrics import REGISTRY

    merged = aggregate(relay.directory, relay.run_id)
    print(merged.describe())
    for path, reason in merged.skipped:
        print(f"  skipped {path}: {reason}", file=sys.stderr)
    if args.trace:
        target = _suffixed(args.trace, key, multi)
        count = merged.write_jsonl(target)
        print(f"wrote {count:,} merged events to {target}")
    if args.chrome_trace:
        target = _suffixed(args.chrome_trace, key, multi)
        count = merged.write_chrome(target)
        print(f"wrote {count:,} trace events "
              f"({len(merged.workers)} lanes) to {target}")
    if args.metrics:
        merged.registry.merge_snapshot(REGISTRY.snapshot())
        target = _suffixed(args.metrics, key, multi)
        merged.registry.write_snapshot(target)
        print(f"wrote {len(merged.registry.names())} metric(s) to {target}")


def _cmd_simulate(args) -> int:
    from repro.experiments.common import RunSpec, execute_plan
    from repro.predictors.registry import predictor_info
    from repro.telemetry.metrics import REGISTRY

    spec = workload_by_name(args.workload)
    info = predictor_info(args.predictor)
    zoo = info.name != "paper"
    plans = [
        RunSpec(
            spec, CONFIGS[key], scale=args.scale, audit=args.audit,
            sampling=_sampling_plan(args) if args.sampled else None,
            checkpoint_dir=args.checkpoint_dir, engine_mode=args.engine,
            parallel=(ParallelPlan(intervals=args.parallel_intervals)
                      if args.parallel_intervals is not None else None),
            backend=args.backend, predictor=info.name,
        )
        for key in args.configs
    ]
    try:
        for plan in plans:
            plan.validate()
    except ValueError as refusal:
        print(refusal, file=sys.stderr)
        return 2
    print(f"workload: {spec.name} (scale {args.scale})")
    if zoo:
        print(f"predictor: {info.name} — {info.summary}")
    print(f"{spec.scaled_length(args.scale):,} records\n")
    results = []
    multi = len(plans) > 1
    for key, plan in zip(args.configs, plans):
        telemetry = _build_telemetry(args)
        relay = (_relay_for(args, spec, key, multi)
                 if plan.parallel is not None else None)
        if args.metrics:
            # Each snapshot describes its own run, counters included.
            REGISTRY.reset()
        result, source = execute_plan(plan, telemetry=telemetry, relay=relay)
        sampled = source
        if plan.parallel is not None:
            print(source.describe())
            if relay is not None:
                _export_aggregate(args, relay, key, multi)
            sampled = source.sampled
        if sampled is not None:
            try:
                print(error_report(sampled, max_ci=args.max_ci))
            except ConfidenceBoundExceeded as refusal:
                print(refusal, file=sys.stderr)
                return 1
            if plan.parallel is None and plan.checkpoint_dir is not None:
                print(f"  checkpoints: {sampled.checkpoints_loaded} loaded, "
                      f"{sampled.checkpoints_saved} saved "
                      f"({args.checkpoint_dir})")
        if source is not None:
            print()
        results.append(result)
        title = f"{info.name} / {plan.config.name}" if zoo else None
        print(format_result(result, title=title))
        if telemetry is not None:
            _export_telemetry(args, telemetry, key, multi,
                              skip_tracer=relay is not None)
        if args.metrics and relay is None:
            target = _suffixed(args.metrics, key, multi)
            REGISTRY.write_snapshot(target)
            print(f"wrote {len(REGISTRY.names())} metric(s) to {target}")
        print()
    if len(results) > 1:
        base = results[0]
        for other in results[1:]:
            gain = cpi_improvement(base.cpi, other.cpi)
            print(f"{other.config_name} vs {base.config_name}: "
                  f"{gain:+.2f}% CPI")
    return 0


def _run_with_telemetry(args, telemetry: Telemetry):
    """Shared ``timeline``/``profile`` setup: one instrumented run."""
    from repro.experiments.common import RunSpec, execute_plan

    spec = workload_by_name(args.workload)
    plan = RunSpec(spec, CONFIGS[args.config], scale=args.scale,
                   audit=args.audit)
    result, _ = execute_plan(plan, telemetry=telemetry)
    return spec, result


def _cmd_timeline(args) -> int:
    sampler = Sampler(args.interval)
    telemetry = Telemetry(sampler=sampler)
    spec, result = _run_with_telemetry(args, telemetry)
    title = (f"{spec.name} / {result.config_name} — "
             f"{result.counters.instructions:,} instructions, "
             f"CPI {result.cpi:.3f}")
    print(render_timeline(sampler, title=title, width=args.width))
    if args.csv:
        count = sampler.write_csv(args.csv)
        print(f"wrote {count:,} samples to {args.csv}")
    return 0


def _cmd_profile(args) -> int:
    profiler = BranchProfiler()
    telemetry = Telemetry(profiler=profiler)
    spec, result = _run_with_telemetry(args, telemetry)
    title = (f"{spec.name} / {result.config_name} — "
             f"per-branch penalty profile (top {args.top})")
    print(profiler.render(args.top, title=title))
    return 0


def _cmd_checkpoint(args) -> int:
    store = CheckpointStore(args.dir)
    if args.action == "list":
        # A concurrent clear/writer can unlink an entry between the listing
        # and the stat; treat a vanished file as absent, not a crash.
        listed = 0
        total = 0
        for path in store.entries():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            listed += 1
            total += size
            print(f"{size:12,d}  {path.name}")
        print(f"{listed} checkpoint(s), {total:,} bytes in {args.dir}")
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} checkpoint(s) from {args.dir}")
        return 0
    # create: one sampled pass with the store attached warms every interval
    # start through the exact save/load lineage a later sampled run replays.
    if args.workload is None:
        print("checkpoint create requires a workload", file=sys.stderr)
        return 2
    from repro.experiments.common import RunSpec, execute_plan

    spec = workload_by_name(args.workload)
    plan = RunSpec(spec, CONFIGS[args.config], scale=args.scale,
                   audit=args.audit, sampling=_sampling_plan(args),
                   checkpoint_dir=args.dir)
    _, sampled = execute_plan(plan)
    print(f"workload: {spec.name} (scale {args.scale}), "
          f"config {plan.config.name}")
    print(f"plan: {sampled.plan.describe()}")
    print(f"checkpoints: {sampled.checkpoints_saved} saved, "
          f"{sampled.checkpoints_loaded} reused ({args.dir})")
    return 0


def _cmd_tables(_args) -> int:
    from repro.experiments.tables import (
        render_table1,
        render_table2,
        render_table3,
        render_table5,
    )

    for renderer in (render_table1, render_table2, render_table3,
                     render_table5):
        print(renderer())
        print()
    return 0


def _cmd_figure(args) -> int:
    from repro.experiments import figure2, figure3, figure4, figure5, figure6, figure7

    kwargs = {"scale": args.scale, "jobs": args.jobs}
    runners = {
        2: lambda: figure2.render(figure2.run_figure2(**kwargs)),
        3: lambda: figure3.render(figure3.run_figure3(**kwargs)),
        4: lambda: figure4.render(figure4.run_figure4(**kwargs)),
        5: lambda: figure5.render(figure5.run_figure5(**kwargs)),
        6: lambda: figure6.render(figure6.run_figure6(**kwargs)),
        7: lambda: figure7.render(figure7.run_figure7(**kwargs)),
    }
    print(runners[args.number]())
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.run_all import main as run_all_main

    argv = ["--scale", str(args.scale), "--sweep-scale", str(args.sweep_scale),
            "--output", args.output]
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    if args.progress is not None:
        argv += (["--progress", args.progress] if args.progress
                 else ["--progress"])
    return run_all_main(argv)


def _cmd_top(args) -> int:
    from repro.telemetry.monitor import STATUS_ENV, top

    path = args.status or os.environ.get(STATUS_ENV, "").strip()
    if not path:
        print("no status board: pass --status PATH or set $REPRO_STATUS "
              "(run_all --progress / repro report --progress write one)",
              file=sys.stderr)
        return 2
    return top(path, interval=args.interval, once=args.once,
               width=args.width)


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import ServiceLimits, ServiceServer

    limits = ServiceLimits(
        queue_records=args.queue_records,
        chunk_records=args.chunk_records,
        idle_timeout=args.idle_timeout,
        sweep_interval=args.sweep_interval,
        max_sessions=args.max_sessions,
    )

    async def _run() -> None:
        server = ServiceServer(
            args.host, args.port, limits=limits, backend=args.backend,
            jobs=args.jobs, spool=args.spool,
            spool_max_entries=args.spool_max_entries)
        await server.start()
        spool = args.spool or "(none: suspend/resume disabled)"
        print(f"repro service listening on http://{server.host}:"
              f"{server.port}  backend={args.backend} jobs={args.jobs} "
              f"spool={spool}", flush=True)
        await server.serve()
        print("repro service drained and stopped", flush=True)

    asyncio.run(_run())
    return 0


def _cmd_session(args) -> int:
    import json as _json

    from repro.service import ServiceClient, ServiceError, ServiceUnavailable

    client = ServiceClient(args.host, args.port)

    def _records():
        """The records named by --workload/--trace-file for ingest."""
        if args.trace_file:
            from repro.trace import open_trace

            with open_trace(args.trace_file) as trace:
                return list(trace)
        if args.workload:
            spec = workload_by_name(args.workload)
            return spec.trace(scale=args.scale)
        print("session ingest needs --workload NAME or --trace-file PATH",
              file=sys.stderr)
        raise SystemExit(2)

    def _require_id() -> str:
        if not args.id:
            print(f"session {args.action} needs a session id",
                  file=sys.stderr)
            raise SystemExit(2)
        return args.id

    try:
        if args.action == "create":
            payload = client.create_session(
                config=args.config, engine=args.engine, label=args.label)
        elif args.action == "list":
            payload = client.list_sessions()
        elif args.action == "status":
            payload = client.session(_require_id())
        elif args.action == "ingest":
            records = _records()
            sid = _require_id()
            if args.one_shot:
                payload = client.ingest(sid, records, ndjson=args.ndjson)
            else:
                payload = client.stream(sid, records,
                                        chunk_records=args.chunk_records)
            if args.wait:
                # processed_records is cumulative across the session's
                # lifetime, so wait on the cumulative ingested total —
                # this call's accepted count alone would return early
                # after any prior ingest.
                payload = client.wait_processed(
                    sid, payload["ingested"], timeout=args.timeout)
        elif args.action == "reports":
            payload = client.reports(_require_id(), since=args.since)
        elif args.action == "metrics":
            payload = client.session_metrics(_require_id())
        elif args.action == "suspend":
            payload = client.suspend(_require_id())
        elif args.action == "resume":
            payload = client.resume(_require_id())
        elif args.action == "close":
            payload = client.close_session(_require_id())
        elif args.action == "result":
            payload = client.result(_require_id())
        elif args.action == "delete":
            payload = client.delete_session(_require_id())
        else:  # shutdown
            payload = client.shutdown()
    except ServiceUnavailable as problem:
        print(problem, file=sys.stderr)
        return 2
    except ServiceError as error:
        print(f"error [{error.code}] {error.message}", file=sys.stderr)
        return 1
    print(_json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    from pathlib import Path

    from repro.oracle import drill, run_campaign
    from repro.oracle.golden import (
        build,
        compare,
        compare_parallel,
        golden_specs,
        load_baseline,
        write_baseline,
    )
    from repro.predictors.conformance import (
        CONFORMANCE_CHECKS,
        conformance_problems,
    )
    from repro.predictors.registry import predictor_info, predictor_names

    golden_path = Path(args.golden)
    if args.update_golden:
        baseline = build(scale=args.golden_scale, jobs=args.jobs)
        write_baseline(golden_path, baseline)
        grid = baseline["predictors"]
        print(f"wrote golden baseline: {len(grid)} predictors x "
              f"{len(next(iter(grid.values()), {}))} workloads at scale "
              f"{baseline['scale']} -> {golden_path}")
        return 0

    predictors = (
        predictor_names() if "all" in args.predictor
        else tuple(predictor_info(name).name for name in args.predictor)
    )
    workloads = (
        tuple(workload_by_name(name).name for name in args.workloads)
        if args.workloads else None
    )
    failed = False

    def gate(leg: str, name: str, problems: list[str], passed: str) -> None:
        """Print one ``<leg>[<predictor>]`` result line (or its problems)."""
        nonlocal failed
        for problem in problems:
            print(f"{leg}[{name}]: {problem}", file=sys.stderr)
        if problems:
            failed = True
        else:
            print(f"{leg}[{name}]: {passed}")

    for name in predictors:
        gate("conformance", name, conformance_problems(name),
             f"{len(CONFORMANCE_CHECKS)} checks passed")

    if not args.skip_mutation_drill:
        problems, caught = drill(predictors)
        for problem in problems:
            print(f"mutation drill: {problem}", file=sys.stderr)
        failed = failed or bool(problems)
        for name, result in caught.items():
            print(f"mutation drill[{name}]: caught the sabotaged LRU "
                  f"promotion")
            for line in result.report().splitlines():
                print(f"  {line}")

    if not args.skip_differential:
        for case, result in run_campaign(predictors, scale=args.scale,
                                         jobs=args.jobs):
            print(f"lockstep[{case.predictor}]: {case.label()}: "
                  f"{result.report()}",
                  file=sys.stderr if result.diverged else sys.stdout)
            failed = failed or result.diverged

    if not args.skip_golden:
        baseline = load_baseline(golden_path)
        engines = ENGINE_MODES if args.engine == "both" else (args.engine,)
        for name in predictors:
            cells = [workload
                     for workload in baseline["predictors"].get(name, ())
                     if workloads is None or workload in workloads]
            for engine in engines:
                gate("golden", name,
                     compare(baseline, jobs=args.jobs, predictors=(name,),
                             workloads=workloads, engine_mode=engine),
                     f"{len(cells)} cell(s) within tolerance, {engine} "
                     f"engine (scale {baseline['scale']}, {golden_path})")

    if not args.skip_parallel:
        checked = len(golden_specs(workloads))
        gate("parallel", "paper",
             compare_parallel(jobs=args.jobs, workloads=workloads,
                              intervals=args.parallel_intervals,
                              backend=args.backend),
             f"{checked} workload(s) bit-identical serial vs "
             f"{args.parallel_intervals} checkpoint-parallel slices")

    if failed:
        print("verify: FAILED", file=sys.stderr)
        return 1
    print("verify: all gates passed")
    return 0


def _cmd_ablation(args) -> int:
    from repro.experiments.ablation import (
        ABLATION_WORKLOADS,
        ablation_payload,
        ablation_results,
        render_ablation,
    )

    workloads = (tuple(args.workloads) if args.workloads
                 else ABLATION_WORKLOADS)
    predictors = tuple(args.predictors) if args.predictors else None
    cells = ablation_results(workloads=workloads, predictors=predictors,
                             scale=args.scale, jobs=args.jobs)
    print(render_ablation(cells))
    if args.json:
        import json as _json

        with open(args.json, "w") as handle:
            _json.dump(ablation_payload(cells), handle,
                       indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote ablation grid ({len(cells)} cells) to {args.json}")
    return 0


def _add_sampling_arguments(parser: argparse.ArgumentParser) -> None:
    """Plan-geometry flags shared by ``simulate --sampled``/``checkpoint``.

    Defaults mirror :class:`repro.sampling.SamplingPlan`.
    """
    parser.add_argument(
        "--interval", type=int, default=1000, metavar="N",
        help="measured records per interval (default: 1000)",
    )
    parser.add_argument(
        "--period", type=int, default=20000, metavar="N",
        help="records per sampling period; one interval each (default: 20000)",
    )
    parser.add_argument(
        "--warmup", type=int, default=1000, metavar="N",
        help="detailed-but-unmeasured records before each interval "
             "(default: 1000)",
    )
    parser.add_argument(
        "--sampling-mode", choices=("systematic", "stratified"),
        default="stratified",
        help="interval placement within each period (default: stratified)",
    )
    parser.add_argument(
        "--sampling-seed", type=int, default=12345, metavar="SEED",
        help="stratified offset-selection seed (default: 12345)",
    )


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for simulation runs "
             "(default: $REPRO_JOBS or serial; 0 = one per CPU)",
    )


def _add_audit_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--audit", action="store_true",
        help="run every simulation under the runtime invariant auditor "
             "(slower; fails loudly on the first violated invariant)",
    )


def _apply_audit_env(args) -> None:
    """Turn ``--audit`` into the ``REPRO_AUDIT`` environment variable.

    The env var (not a threaded flag) is what reaches ``run_workload`` in
    this process *and* in any pool worker, so one switch audits every
    simulation a figure or report performs.  :func:`main` restores the
    caller's environment when the command ends.
    """
    if getattr(args, "audit", False):
        os.environ[AUDIT_ENV] = "1"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Two Level Bulk Preload Branch Prediction — reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the Table 4 workload catalog")

    simulate = sub.add_parser("simulate", help="simulate one workload")
    simulate.add_argument("workload", help="catalog name (substring match)")
    simulate.add_argument(
        "--configs", nargs="+", choices=sorted(CONFIGS), default=["1", "2"],
        help="Table 3 configurations to run (default: 1 2)",
    )
    simulate.add_argument("--scale", type=float, default=0.35)
    simulate.add_argument(
        "--engine", choices=ENGINE_MODES, default="auto",
        help="simulation engine: 'object' is the per-record reference; "
             "'auto' runs detailed records through the bit-identical "
             "batched core unless an observer flag needs per-record hooks "
             "(default: auto)",
    )
    _add_audit_argument(simulate)
    simulate.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write the structured event trace as JSONL to PATH "
             "(suffixed per config when several run)",
    )
    simulate.add_argument(
        "--chrome-trace", metavar="PATH", default=None,
        help="write a Chrome trace_event JSON (Perfetto-loadable) to PATH",
    )
    simulate.add_argument(
        "--sample", metavar="PATH", default=None,
        help="sample occupancy/rates every --sample-interval cycles and "
             "write the timeline CSV to PATH",
    )
    simulate.add_argument(
        "--sample-interval", type=int, default=1024, metavar="CYCLES",
        help="cycles between timeline samples (default: 1024)",
    )
    simulate.add_argument(
        "--profile", type=int, nargs="?", const=10, default=None, metavar="K",
        help="print the top-K per-branch penalty profile (default K: 10)",
    )
    simulate.add_argument(
        "--sampled", action="store_true",
        help="interval sampling: functional-warm between measured intervals "
             "and extrapolate whole-trace estimates with confidence intervals",
    )
    _add_sampling_arguments(simulate)
    simulate.add_argument(
        "--max-ci", type=float, default=DEFAULT_CI_BOUND, metavar="BOUND",
        help="refuse sampled estimates whose 95%% CI exceeds this bound "
             f"(default: {DEFAULT_CI_BOUND})",
    )
    simulate.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="checkpoint store for sampled runs: warmed interval states are "
             "saved on first run and reused afterwards",
    )
    simulate.add_argument(
        "--parallel-intervals", type=int, default=None, metavar="K",
        help="checkpoint-parallel simulation: cut the trace into K slices "
             "resumed from exact boundary checkpoints and fanned out over "
             "--backend (bit-identical to serial; with --sampled, runs the "
             "sampling plan's intervals in K chunks instead)",
    )
    simulate.add_argument(
        "--backend", choices=("serial", "thread", "process"), default=None,
        help="execution backend for the parallel fan-out "
             "(default: $REPRO_BACKEND or process)",
    )
    simulate.add_argument(
        "--relay-dir", metavar="DIR", default=None,
        help="telemetry relay directory for parallel runs: workers stream "
             "per-slice event shards there and --trace/--chrome-trace "
             "export the merged multi-lane timeline (implied by those "
             "flags under --parallel-intervals)",
    )
    simulate.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write the run's metrics snapshot (merged across workers for "
             "parallel runs) as JSON to PATH",
    )
    simulate.add_argument(
        "--predictor", metavar="NAME", default="paper",
        help="predictor registry entry to simulate (default: paper — the "
             "two-level bulk-preload stack; zoo entries run full detail "
             "only: no --sampled/--parallel-intervals/--engine fast path)",
    )

    checkpoint = sub.add_parser(
        "checkpoint", help="manage warmed-state checkpoints for sampled runs"
    )
    checkpoint.add_argument(
        "action", choices=("create", "list", "clear"),
        help="create (run one sampled pass saving every interval state), "
             "list, or clear the store",
    )
    checkpoint.add_argument(
        "workload", nargs="?", default=None,
        help="catalog name (substring match; required for create)",
    )
    checkpoint.add_argument(
        "--dir", required=True, metavar="DIR",
        help="checkpoint store directory",
    )
    checkpoint.add_argument(
        "--config", choices=sorted(CONFIGS), default="2",
        help="Table 3 configuration to warm (default: 2)",
    )
    checkpoint.add_argument("--scale", type=float, default=0.35)
    _add_sampling_arguments(checkpoint)
    _add_audit_argument(checkpoint)

    sub.add_parser("tables", help="print tables 1, 2, 3 and 5")

    figure = sub.add_parser("figure", help="regenerate one figure")
    figure.add_argument("number", type=int, choices=range(2, 8))
    figure.add_argument("--scale", type=float, default=0.35)
    _add_jobs_argument(figure)
    _add_audit_argument(figure)

    report = sub.add_parser(
        "report", help="regenerate the full paper-vs-measured report"
    )
    report.add_argument("--scale", type=float, default=1.0)
    report.add_argument("--sweep-scale", type=float, default=0.35)
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.add_argument(
        "--progress", metavar="STATUS_FILE", nargs="?", const="",
        default=None,
        help="heartbeat run progress into a status-board file watchable "
             "with `repro top` (default file: <output>.status.jsonl)",
    )
    _add_jobs_argument(report)
    _add_audit_argument(report)

    serve = sub.add_parser(
        "serve", help="run the long-lived simulation service daemon"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8753,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: 8753)")
    serve.add_argument(
        "--backend", choices=("serial", "thread", "process"),
        default="thread",
        help="worker pool dispatching session chunks (default: thread)")
    serve.add_argument("--jobs", type=int, default=4,
                       help="worker pool width (default: 4)")
    serve.add_argument(
        "--spool", metavar="DIR", default=None,
        help="checkpoint spool directory enabling suspend/resume, idle "
             "eviction and graceful drain (default: disabled)")
    serve.add_argument(
        "--spool-max-entries", type=int, default=None, metavar="N",
        help="prune the spool to at most N checkpoints during idle sweeps")
    serve.add_argument("--queue-records", type=int, default=65536,
                       help="per-session ingest queue depth in records "
                            "(default: 65536)")
    serve.add_argument("--chunk-records", type=int, default=4096,
                       help="records advanced per dispatched chunk "
                            "(default: 4096)")
    serve.add_argument("--idle-timeout", type=float, default=300.0,
                       help="seconds of inactivity before an idle session "
                            "is evicted to the spool (default: 300)")
    serve.add_argument("--sweep-interval", type=float, default=5.0,
                       help="housekeeping period in seconds (default: 5)")
    serve.add_argument("--max-sessions", type=int, default=4096,
                       help="registered-session cap (default: 4096)")

    session = sub.add_parser(
        "session", help="talk to a running simulation service daemon"
    )
    session.add_argument(
        "action",
        choices=("create", "list", "status", "ingest", "reports", "metrics",
                 "suspend", "resume", "close", "result", "delete",
                 "shutdown"),
        help="what to do against the daemon")
    session.add_argument("id", nargs="?", default=None,
                         help="session id (required by per-session actions)")
    session.add_argument("--host", default="127.0.0.1")
    session.add_argument("--port", type=int, default=8753)
    session.add_argument("--config", choices=sorted(CONFIGS), default="2",
                         help="Table 3 configuration for create "
                              "(default: 2)")
    session.add_argument("--engine", choices=ENGINE_MODES, default="auto",
                         help="engine mode for create (default: auto)")
    session.add_argument("--label", default="",
                         help="free-form session label for create")
    session.add_argument("--workload", default=None,
                         help="catalog workload to ingest (substring match)")
    session.add_argument("--scale", type=float, default=0.35,
                         help="workload trace scale for ingest "
                              "(default: 0.35)")
    session.add_argument("--trace-file", metavar="PATH", default=None,
                         help="packed .ztrc trace file to ingest instead of "
                              "a catalog workload")
    session.add_argument("--one-shot", action="store_true",
                         help="ingest as a single body instead of a "
                              "kept-open chunked stream")
    session.add_argument("--ndjson", action="store_true",
                         help="with --one-shot: send NDJSON instead of "
                              "packed binary records")
    session.add_argument("--chunk-records", type=int, default=1024,
                         help="records per streamed chunk (default: 1024)")
    session.add_argument("--wait", action="store_true",
                         help="after ingest, poll until every accepted "
                              "record is simulated and print the status")
    session.add_argument("--timeout", type=float, default=120.0,
                         help="--wait timeout in seconds (default: 120)")
    session.add_argument("--since", type=int, default=0,
                         help="reports: return chunk reports with sequence "
                              "number above this (default: 0)")

    top = sub.add_parser(
        "top", help="live monitor of a running batch session's status board"
    )
    top.add_argument(
        "--status", metavar="PATH", default=None,
        help="status-board file to tail (default: $REPRO_STATUS)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="seconds between redraws (default: 1.0)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render the current state once and exit",
    )
    top.add_argument(
        "--width", type=int, default=100,
        help="panel width in characters (default: 100)",
    )

    timeline = sub.add_parser(
        "timeline", help="ASCII time-series of one instrumented run"
    )
    timeline.add_argument("workload", help="catalog name (substring match)")
    timeline.add_argument(
        "--config", choices=sorted(CONFIGS), default="2",
        help="Table 3 configuration to run (default: 2)",
    )
    timeline.add_argument("--scale", type=float, default=0.35)
    timeline.add_argument(
        "--interval", type=int, default=1024, metavar="CYCLES",
        help="cycles between samples (default: 1024)",
    )
    timeline.add_argument(
        "--width", type=int, default=64,
        help="sparkline width in characters (default: 64)",
    )
    timeline.add_argument(
        "--csv", metavar="PATH", default=None,
        help="also write the sampled columns as CSV to PATH",
    )
    _add_audit_argument(timeline)

    profile = sub.add_parser(
        "profile", help="top-K per-branch penalty profile of one run"
    )
    profile.add_argument("workload", help="catalog name (substring match)")
    profile.add_argument(
        "--config", choices=sorted(CONFIGS), default="2",
        help="Table 3 configuration to run (default: 2)",
    )
    profile.add_argument("--scale", type=float, default=0.35)
    profile.add_argument(
        "--top", type=int, default=10, metavar="K",
        help="branches to show (default: 10)",
    )
    _add_audit_argument(profile)

    verify = sub.add_parser(
        "verify", help="verification gates: conformance battery, mutation "
                       "drill, lockstep oracle, golden grid, parallel gate"
    )
    verify.add_argument(
        "--scale", type=float, default=0.01,
        help="catalog workload scale of the lockstep slate (default: 0.01)",
    )
    verify.add_argument(
        "--golden", metavar="PATH", default="tests/golden/predictors.json",
        help="golden grid file (default: tests/golden/predictors.json)",
    )
    verify.add_argument(
        "--update-golden", action="store_true",
        help="re-measure every (predictor, workload) cell and rewrite the "
             "whole golden grid instead of checking against it",
    )
    verify.add_argument(
        "--golden-scale", type=float, default=0.02,
        help="scale recorded into a regenerated baseline (default: 0.02)",
    )
    verify.add_argument(
        "--workloads", nargs="+", metavar="NAME", default=None,
        help="restrict every selected predictor's golden cells and the "
             "parallel gate to these workloads "
             "(substring match; default: all recorded)",
    )
    verify.add_argument(
        "--engine", choices=(*ENGINE_MODES, "both"), default="both",
        help="engine(s) the golden gate re-measures with; 'both' doubles "
             "as the engine bit-identity check (default: both; the "
             "lockstep slate always uses the object engine — the "
             "lockstep probe needs per-record hooks)",
    )
    verify.add_argument(
        "--skip-differential", action="store_true",
        help="skip the lockstep slate",
    )
    verify.add_argument(
        "--skip-golden", action="store_true",
        help="skip the golden-grid gate",
    )
    verify.add_argument(
        "--skip-mutation-drill", action="store_true",
        help="skip the seeded-mutation self-check of the oracles",
    )
    verify.add_argument(
        "--skip-parallel", action="store_true",
        help="skip the serial-vs-checkpoint-parallel bit-identity gate "
             "(paper stack only)",
    )
    verify.add_argument(
        "--parallel-intervals", type=int, default=4, metavar="K",
        help="slice count the parallel gate cuts each trace into "
             "(default: 4)",
    )
    verify.add_argument(
        "--backend", choices=("serial", "thread", "process"), default=None,
        help="execution backend for the parallel gate's fan-out "
             "(default: $REPRO_BACKEND or process)",
    )
    verify.add_argument(
        "--predictor", nargs="+", metavar="NAME",
        default=["paper"],
        help="registry entries to verify ('all' = the whole registry; "
             "default: paper): conformance battery, mutation drill, "
             "lockstep slate and golden cells for each",
    )
    _add_jobs_argument(verify)

    ablation = sub.add_parser(
        "ablation", help="compare every registered predictor over a shared "
                         "workload slate"
    )
    ablation.add_argument(
        "--workloads", nargs="+", metavar="NAME", default=None,
        help="workload slate (catalog substring match, adversarial "
             "included; default: the standard 5-workload slate)",
    )
    ablation.add_argument(
        "--predictors", nargs="+", metavar="NAME", default=None,
        help="predictors to compare (default: every registry entry)",
    )
    ablation.add_argument(
        "--scale", type=float, default=0.02,
        help="trace scale for every cell (default: 0.02)",
    )
    ablation.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the grid + per-predictor geomeans as JSON to PATH "
             "(the nightly CI artifact)",
    )
    _add_jobs_argument(ablation)
    _add_audit_argument(ablation)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "workloads": _cmd_workloads,
        "simulate": _cmd_simulate,
        "checkpoint": _cmd_checkpoint,
        "tables": _cmd_tables,
        "figure": _cmd_figure,
        "report": _cmd_report,
        "serve": _cmd_serve,
        "session": _cmd_session,
        "top": _cmd_top,
        "timeline": _cmd_timeline,
        "profile": _cmd_profile,
        "verify": _cmd_verify,
        "ablation": _cmd_ablation,
    }
    with restored_environ():
        _apply_audit_env(args)
        try:
            status = handlers[args.command](args)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed stdout (``| head``).  Point it at devnull so
            # the exit-time flush cannot raise again, and fail quietly.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
