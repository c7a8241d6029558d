"""Run every experiment and emit a paper-vs-measured markdown report.

Usage::

    python -m repro.experiments.run_all --scale 1.0 --sweep-scale 0.35 \
        --jobs 4 --output EXPERIMENTS.md

Figures 2-4 run at ``--scale``; the parameter sweeps (Figures 5-7) run at
``--sweep-scale`` (they multiply the whole workload suite by each sweep
point, so full scale is disproportionately expensive).  All runs go
through the shared result cache, so repeated invocations are incremental;
``--jobs N`` (or ``REPRO_JOBS=N``; 0 = one per CPU) fans cache misses out
over N worker processes via :mod:`repro.experiments.pool`.  The report
body is deterministic for a given (scale, sweep-scale): only the
italicized timing/observability lines at the end vary between runs,
worker counts, and cache states.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.audit import AUDIT_ENV, restored_environ
from repro.core.events import OutcomeKind
from repro.experiments import figure2, figure3, figure4, figure5, figure6, figure7
from repro.experiments.pool import session_log
from repro.experiments.tables import (
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
)
from repro.metrics.report import render_run_summary
from repro.telemetry import phase_timer
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.monitor import StatusBoard, read_board, render_summary

#: Paper reference values quoted in the report (section 5).
PAPER = {
    "max_btb2_gain": 13.8,
    "daytrader_large_btb1_gain": 20.2,
    "effectiveness_range": (16.6, 83.4),
    "effectiveness_mean": 52.0,
    "fig3_wasdb_hw": 5.3,
    "fig3_wasdb_model": 8.5,
    "fig3_cics_hw": 3.4,
    "fig4_bad_without": 25.9,
    "fig4_bad_with": 14.3,
    "fig4_capacity_without": 21.9,
    "fig4_capacity_with": 8.1,
}


def _section(title: str) -> list[str]:
    return ["", f"## {title}", ""]


def build_report(scale: float, sweep_scale: float, progress=print,
                 jobs: int | None = None) -> str:
    """Run everything; return the markdown report.

    ``jobs`` is threaded to every figure/table runner (``None`` defers to
    ``REPRO_JOBS``, then serial).  The session execution log is reset at
    entry so the trailing observability summary covers exactly this report.
    """
    started = time.time()
    session_log.reset()
    REGISTRY.reset()
    lines = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Regenerated by `python -m repro.experiments.run_all` "
        f"(scale={scale}, sweep-scale={sweep_scale}).",
        "",
        "Per the reproduction contract (DESIGN.md §1), the *shapes* — which",
        "configuration wins, effectiveness near one half, capacity-dominated",
        "bad outcomes, sweep optima at the hardware design points — are the",
        "claims checked here.  Absolute percentages are smaller than the",
        "paper's because the synthetic traces carry less code reuse than",
        "IBM's production traces (quantified under Figure 2).",
    ]

    progress("tables 1-5 ...")
    lines += _section("Tables 1, 2, 3, 5 (structural)")
    lines.append("```")
    with phase_timer("tables 1-5", session_log.record_phase):
        lines.append(render_table1())
        lines.append("")
        lines.append(render_table2())
        lines.append("")
        lines.append(render_table3())
        lines.append("")
        lines.append(render_table5())
    lines.append("```")

    lines += _section("Table 4 — trace population (paper vs measured)")
    lines.append("```")
    with phase_timer("table 4", session_log.record_phase):
        lines.append(render_table4(scale=scale, jobs=jobs))
    lines.append("```")
    lines.append(
        "Measured unique counts sit below the paper's because the synthetic"
        " pools are working-set scaled for simulation budget"
        " (DESIGN.md §1); the cross-workload ordering is preserved."
    )

    progress("figure 2 (3 configs x 13 workloads) ...")
    with phase_timer("figure 2", session_log.record_phase):
        rows = figure2.run_figure2(scale=scale, jobs=jobs)
    summary = figure2.summarize(rows)
    lines += _section("Figure 2 — CPI improvement and BTB2 effectiveness")
    lines.append("```")
    lines.append(figure2.render(rows))
    lines.append("```")
    lines.append("")
    lines.append("| quantity | paper | measured |")
    lines.append("|---|---|---|")
    lines.append(
        f"| max BTB2 gain | {PAPER['max_btb2_gain']}% "
        f"| {summary['max_btb2_gain_percent']:.2f}% |"
    )
    lines.append(
        f"| max large-BTB1 gain | {PAPER['daytrader_large_btb1_gain']}% "
        f"| {summary['max_large_btb1_gain_percent']:.2f}% |"
    )
    lines.append(
        f"| effectiveness range | {PAPER['effectiveness_range'][0]}-"
        f"{PAPER['effectiveness_range'][1]}% "
        f"| {summary['min_effectiveness_percent']:.1f}-"
        f"{summary['max_effectiveness_percent']:.1f}% |"
    )
    lines.append(
        f"| mean effectiveness | {PAPER['effectiveness_mean']}% "
        f"| {summary['mean_effectiveness_percent']:.1f}% |"
    )

    progress("figure 3 (hardware proxy) ...")
    with phase_timer("figure 3", session_log.record_phase):
        fig3 = figure3.run_figure3(scale=scale, jobs=jobs)
    lines += _section("Figure 3 — hardware (multi-core proxy)")
    lines.append("```")
    lines.append(figure3.render(fig3))
    lines.append("```")
    single, quad = fig3
    lines.append("")
    lines.append("| quantity | paper | measured |")
    lines.append("|---|---|---|")
    lines.append(
        f"| WASDB+CBW2, 1 core, hardware | {PAPER['fig3_wasdb_hw']}% "
        f"| {single.hardware_gain_percent:.2f}% |"
    )
    lines.append(
        f"| WASDB+CBW2, model | {PAPER['fig3_wasdb_model']}% "
        f"| {single.model_gain_percent:.2f}% |"
    )
    lines.append(
        f"| Web CICS/DB2, 4 cores | {PAPER['fig3_cics_hw']}% "
        f"| {quad.hardware_gain_percent:.2f}% |"
    )
    lines.append(
        "\nShape check: hardware-proxy gain below model gain "
        f"({'holds' if single.hardware_gain_percent < single.model_gain_percent else 'FAILS'})."
    )

    progress("figure 4 (outcome taxonomy) ...")
    with phase_timer("figure 4", session_log.record_phase):
        without, with_btb2 = figure4.run_figure4(scale=scale, jobs=jobs)
    lines += _section("Figure 4 — bad branch outcomes (DayTrader DBServ)")
    lines.append("```")
    lines.append(figure4.render((without, with_btb2)))
    lines.append("```")
    capacity = OutcomeKind.SURPRISE_CAPACITY
    lines.append("")
    lines.append("| quantity | paper | measured |")
    lines.append("|---|---|---|")
    lines.append(
        f"| total bad, no BTB2 | {PAPER['fig4_bad_without']}% "
        f"| {100 * without.total_bad:.1f}% |"
    )
    lines.append(
        f"| total bad, BTB2 | {PAPER['fig4_bad_with']}% "
        f"| {100 * with_btb2.total_bad:.1f}% |"
    )
    lines.append(
        f"| capacity, no BTB2 | {PAPER['fig4_capacity_without']}% "
        f"| {100 * without.fractions[capacity]:.1f}% |"
    )
    lines.append(
        f"| capacity, BTB2 | {PAPER['fig4_capacity_with']}% "
        f"| {100 * with_btb2.fractions[capacity]:.1f}% |"
    )

    progress("figure 5 (BTB2 size sweep) ...")
    with phase_timer("figure 5", session_log.record_phase):
        fig5 = figure5.run_figure5(scale=sweep_scale, jobs=jobs)
    lines += _section("Figure 5 — BTB2 size sweep")
    lines.append("```")
    lines.append(figure5.render(fig5))
    lines.append("```")

    progress("figure 6 (miss definition sweep) ...")
    with phase_timer("figure 6", session_log.record_phase):
        fig6 = figure6.run_figure6(scale=sweep_scale, jobs=jobs)
    lines += _section("Figure 6 — BTB1-miss definition sweep")
    lines.append("```")
    lines.append(figure6.render(fig6))
    lines.append("```")

    progress("figure 7 (tracker sweep) ...")
    with phase_timer("figure 7", session_log.record_phase):
        fig7 = figure7.run_figure7(scale=sweep_scale, jobs=jobs)
    lines += _section("Figure 7 — tracker count sweep")
    lines.append("```")
    lines.append(figure7.render(fig7))
    lines.append("```")

    minutes = (time.time() - started) / 60
    lines.append("")
    lines.append(f"_Total experiment wall time: {minutes:.1f} minutes._")
    summary = render_run_summary(session_log, REGISTRY)
    lines.append("")
    lines.extend(summary)
    for line in summary:
        progress(line.strip("_"))
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--sweep-scale", type=float, default=0.35)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for simulation runs "
             "(default: $REPRO_JOBS or serial; 0 = one per CPU)",
    )
    parser.add_argument("--output", default="EXPERIMENTS.md")
    parser.add_argument(
        "--audit", action="store_true",
        help="run every simulation under the runtime invariant auditor "
             "(bypasses result-cache reads so the checks actually execute)",
    )
    parser.add_argument(
        "--progress", metavar="STATUS_FILE", nargs="?", const="", default=None,
        help="heartbeat run progress into a status-board file (default: "
             "<output>.status.jsonl) watchable live with `repro top`; "
             "a final session summary prints at exit",
    )
    args = parser.parse_args(argv)

    # The exported switches reach pool workers while the report runs and
    # are withdrawn when it ends.
    with restored_environ():
        if args.audit:
            os.environ[AUDIT_ENV] = "1"
        board = None
        if args.progress is not None:
            status_path = args.progress or f"{args.output}.status.jsonl"
            try:  # a fresh board per report: stale beats would skew the fold
                os.remove(status_path)
            except OSError:
                pass
            board = StatusBoard(status_path)
            board.activate()
            print(f"status board: {status_path} (watch with: "
                  f"repro top --status {status_path})")
        report = build_report(args.scale, args.sweep_scale, jobs=args.jobs)
        with open(args.output, "w") as stream:
            stream.write(report)
        if board is not None:
            state = read_board(board.path)
            if state is not None:
                print(render_summary(state))
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
