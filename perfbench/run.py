"""The Matrix benchmark: host run time, modelled player latency, layer time.

Usage::

    python3 perfbench/run.py --workload hotspot --seed 1 --seconds 40 --trace 0

``--workload`` is one of ``hotspot``, ``churn``, ``lossy``
(see ``workloads.py``) or ``all``.  A run at ``--seed N`` covers the
workload's scenario seeds ``N, N + 100000, ...``.  Each repetition runs
one scenario seed alone in a fresh process (``rep.py``), one after
another, on the plain kernel.  Repetitions cycle through the seeds
until ``--seconds`` are spent, at least once through and then the first
seed again.

End-to-end metrics (``--trace 0``):

* ``run_s``: host seconds from the first simulated event to the
  collected result, for one pass over the seeds, scaled to the
  reference host speed by the yardstick of ``hostspeed.py``.  It is the
  median over all repetitions of scaled seconds per simulated event,
  times the events of the pass, so every repetition counts whichever
  seed it ran.  ``setup_s`` (host seconds from interpreter start to
  the first event, scaled by the yardstick of the run that follows)
  and ``peak_rss_mb`` are medians over all repetitions.
* The simulated-time metrics pool the seeds' samples: action latency
  percentiles, the switch latency at p99 (or at the highest percentile
  with ten samples beyond it, when p99 has fewer), the share of client
  actions answered, and the median over seeds of server-seconds and of
  ``matrix.forward`` megabytes.

With ``--trace 1`` the run does the same, then one traced repetition of
the first seed, and reports the per-layer metrics instead.

Every repetition is checked: after the run it settles for 10 simulated
seconds, and then must pass the fuzz harness's invariants
(``repro.fuzz.invariants.check_invariants``): the partitions tile the
world, no pool host leaks, no split is stuck and every injected fault
recovered.  The client census is reported, not failed: active clients
that no server holds are orphans, and clients a server holds after the
fleet retired them are stale.  All repetitions of a seed, the traced
one included, must give the same traffic digest, the same
simulated-time metrics and the same settled state.  If any check fails,
every client action of the run counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
counts simulated client actions.  The lines above it are the report.
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_S  # noqa: E402
from rep import percentile  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: dict[str, str] = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "action_p50_ms": "ms",
    "action_p99_ms": "ms",
    "switch_tail_ms": "ms",
    "server_s": "server-s",
    "consistency_mb": "MB",
    "actions_answered_frac": "ratio",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER: dict[str, str] = {
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.heap_pushes_per_event": "count/event",
    "sim.cancelled_frac": "ratio",
    "net.self_s": "s",
    "net.messages": "count",
    "net.us_per_message": "us",
    "net.stats_records": "count",
    "net.profile_miss_frac": "ratio",
    "net.queue_wait_p99_ms": "ms",
    "net.queue_dropped": "count",
    "net.peak_queue": "count",
    "net.middleware.self_s": "s",
    "net.middleware.hook_calls": "count",
    "games.self_s": "s",
    "games.count_within_calls": "count",
    "games.us_per_snapshot": "us",
    "workload.self_s": "s",
    "workload.clients_spawned": "count",
    "workload.mobility_steps": "count",
    "core.self_s": "s",
    "core.splits": "count",
    "core.split_success_frac": "ratio",
    "core.reclaims": "count",
    "core.table_installs": "count",
    "core.orphaned_clients": "count",
    "core.stale_clients": "count",
    "core.runtime.self_s": "s",
    "core.runtime.owner_lookups": "count",
    "core.runtime.forwards": "count",
    "core.runtime.transfer_chunks": "count",
    "geometry.self_s": "s",
    "geometry.overlap_reuse_frac": "ratio",
    "geometry.index_builds": "count",
    "chaos.self_s": "s",
    "chaos.link_dropped": "count",
    "chaos.link_duplicated": "count",
    "analysis.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_frac": "ratio",
}

#: One repetition is killed after this many host seconds.
REP_TIMEOUT_S = 150.0
#: No repetition starts that would, at the pace so far, end after this
#: many seconds of the run (the whole run must end within 180 s).
RUN_DEADLINE_S = 160.0
#: Where a traced run writes its sample of raw spans.
SPANS_DIR = ROOT / ".perfbench_out"


#: The switch-latency tail is read at this percentile, or lower ...
TAIL_PERCENTILE = 99.0
#: ... so that at least this many samples lie beyond it.
TAIL_BEYOND = 10


def tail(ordered: list[float]) -> tuple[float, float]:
    """The :data:`TAIL_PERCENTILE`-th percentile, or a lower one if that
    leaves too few above.

    The percentile is lowered to the highest one with
    :data:`TAIL_BEYOND` samples above it.  Returns ``(percentile,
    value)``; needs more than :data:`TAIL_BEYOND` samples.
    """
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"{n} samples: need more than {TAIL_BEYOND} for a tail"
        )
    rank = min(
        round(TAIL_PERCENTILE / 100.0 * (n - 1)), n - 1 - TAIL_BEYOND
    )
    return 100.0 * rank / (n - 1), ordered[rank]


def run_rep(
    workload: str, seed: int, traced: bool, spans_out: Path | None = None
) -> tuple[dict | None, str | None]:
    """Run one repetition in a fresh process: (record, error)."""
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", "1" if traced else "0",
    ]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    # String hashing order reaches set iteration in the program, so
    # repetitions are only comparable under one hash seed.
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"seed {seed}: timed out after {REP_TIMEOUT_S:.0f} s"
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return None, f"seed {seed}: exit {proc.returncode}: " + " | ".join(
            lines[-3:]
        )
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, f"seed {seed}: printed no result"
    record["setup_raw_s"] = record["first_event"] - started
    # Set-up is scaled by the yardstick of the run that follows it: the
    # host's speed changes for minutes at a time, and imports slow with
    # it.
    record["setup_s"] = (
        record["setup_raw_s"] * REFERENCE_S / record["probe_median_s"]
    )
    return record, None


def _comparable(record: dict) -> dict:
    """The parts of a repetition that must not vary for one seed."""
    return {
        "digest": record["digest"],
        "modelled": record["modelled"],
        "checks": record["checks"],
    }


def verdicts(
    by_seed: dict[int, list[dict]], errors: list[str]
) -> list[tuple[str, bool, str]]:
    """The correctness checks of one run: (name, passed, detail)."""
    out = [
        ("every repetition ran", not errors, "; ".join(errors) or "yes"),
        ("every seed ran", all(by_seed.values()), f"{sorted(by_seed)}"),
    ]
    for seed, records in by_seed.items():
        for record in records:
            checks = record["checks"]
            tag = f"seed {seed}{' traced' if record['traced'] else ''}"
            out.append((
                f"{tag}: settled invariants hold",
                not checks["violations"],
                "; ".join(checks["violations"]) or "yes",
            ))
            if record["traced"]:
                out.append((
                    f"{tag}: tracing wrappers removed",
                    not record["leftover_wrappers"],
                    f"{len(record['leftover_wrappers'])} left",
                ))
        if len(records) > 1:
            first = _comparable(records[0])
            out.append((
                f"seed {seed}: digest, modelled metrics and settled state "
                f"identical on {len(records)} repetitions",
                all(_comparable(record) == first for record in records[1:]),
                f"digest {first['digest'][:16]}",
            ))
    return out


def end_to_end(by_seed: dict[int, list[dict]]) -> tuple[dict, str]:
    """End-to-end metrics from the untraced repetitions of every seed,
    and a note on which switch-latency percentile they report."""
    reps = [record for records in by_seed.values() for record in records]
    firsts = [records[0]["modelled"] for records in by_seed.values()]
    actions = list(heapq.merge(*(m["action_ms"] for m in firsts)))
    switches = list(heapq.merge(*(m["switch_ms"] for m in firsts)))
    switch_pct, switch_tail = tail(switches)
    metrics = {
        # Every repetition is one sample of scaled host time per
        # simulated event, whichever seed it ran; their median, times
        # the events of one pass over the seeds, is the pass's time.
        "run_s": statistics.median(
            record["scaled_s"] / record["modelled"]["events"]
            for record in reps
        ) * sum(m["events"] for m in firsts),
        "setup_s": statistics.median(record["setup_s"] for record in reps),
        "peak_rss_mb": statistics.median(
            record["peak_rss_mb"] for record in reps
        ),
        "action_p50_ms": percentile(actions, 50),
        "action_p99_ms": percentile(actions, 99),
        "switch_tail_ms": switch_tail,
        "server_s": statistics.median(m["server_s"] for m in firsts),
        "consistency_mb": statistics.median(
            m["consistency_mb"] for m in firsts
        ),
        "actions_answered_frac": sum(m["actions_answered"] for m in firsts)
        / sum(m["actions_sent"] for m in firsts),
    }
    return metrics, f"p{switch_pct:.2f} of {len(switches)} switches"


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload at one seed; returns the run's summary."""
    started = time.monotonic()
    seeds = workload.seeds_for(seed)
    by_seed: dict[int, list[dict]] = {s: [] for s in seeds}
    errors: list[str] = []
    attempted = 0
    # Once through every seed, then the first again, so every run
    # compares two repetitions of one seed.
    least = len(seeds) + 1
    for count, scenario_seed in enumerate(itertools.cycle(seeds), 1):
        record, error = run_rep(workload.name, scenario_seed, traced=False)
        if error is None:
            by_seed[scenario_seed].append(record)
            attempted += record["modelled"]["actions_sent"]
        else:
            errors.append(error)
            attempted += 1
        elapsed = time.monotonic() - started
        pace = elapsed / count
        if count >= least and elapsed + pace > seconds:
            break
        # A traced repetition takes about twice an untraced one.
        if elapsed + pace * (3 if trace else 1) > RUN_DEADLINE_S:
            break
    traced = None
    if trace and by_seed[seeds[0]]:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{workload.name}-seed{seeds[0]}.json"
        traced, error = run_rep(
            workload.name, seeds[0], traced=True, spans_out=spans
        )
        if error is None:
            attempted += traced["modelled"]["actions_sent"]
        else:
            errors.append(f"traced {error}")
    checks = verdicts(
        {
            s: records + ([traced] if traced and s == seeds[0] else [])
            for s, records in by_seed.items()
        },
        errors,
    )
    correct = all(passed for _, passed, _ in checks)
    summary = {
        "workload": workload,
        "seed": seed,
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": 0 if correct else max(attempted, 1),
        "checks": checks,
        "by_seed": by_seed,
        "traced": traced,
        "wall_s": time.monotonic() - started,
        "end_to_end": {},
    }
    if all(by_seed.values()):
        summary["end_to_end"], summary["switch_note"] = end_to_end(by_seed)
    if traced is not None:
        layers = dict(traced["layers"])
        layers["core.orphaned_clients"] = traced["checks"]["orphaned_clients"]
        layers["core.stale_clients"] = traced["checks"]["stale_clients"]
        untraced = statistics.median(
            record["scaled_s"] for record in by_seed[seeds[0]]
        )
        layers["trace.overhead_ratio"] = traced["scaled_s"] / untraced
        summary["per_layer"] = {name: layers[name] for name in PER_LAYER}
    return summary


def report(summary: dict) -> list[str]:
    """Human-readable lines for one run."""
    workload = summary["workload"]
    reps = sum(len(records) for records in summary["by_seed"].values())
    lines = [
        f"== {workload.name} (seed {summary['seed']}): {workload.scenario} "
        f"at scale {workload.scale}, {reps} untraced repetitions, "
        f"{summary['wall_s']:.1f} s",
    ]
    for seed, records in summary["by_seed"].items():
        if not records:
            continue
        modelled = records[0]["modelled"]
        checks = records[0]["checks"]
        lines.append(
            f"   seed {seed}: scaled run s "
            + ", ".join(f"{record['scaled_s']:.3f}" for record in records)
            + " (host s "
            + ", ".join(f"{record['run_s']:.3f}" for record in records)
            + "; yardstick median ms "
            + ", ".join(
                f"{record['probe_median_s'] * 1e3:.3f}" for record in records
            )
            + "; set-up scaled s "
            + ", ".join(f"{record['setup_s']:.3f}" for record in records)
            + ", host s "
            + ", ".join(f"{record['setup_raw_s']:.3f}" for record in records)
            + ")"
            + f"; {modelled['events']} events, {modelled['messages']} "
            f"messages; {modelled['actions_answered']}/"
            f"{modelled['actions_sent']} actions answered; "
            f"{len(modelled['switch_ms'])} switches; peak queue "
            f"{modelled['peak_queue']:.0f}; orphaned clients after "
            f"settle {checks['orphaned_clients']}, stale "
            f"{checks['stale_clients']}"
        )
    for metric, value in summary["end_to_end"].items():
        note = (
            f"  ({summary['switch_note']})"
            if metric == "switch_tail_ms" else ""
        )
        lines.append(
            f"   {metric:<24} {value:>14.6g} {END_TO_END[metric]}{note}"
        )
    for check, passed, detail in summary["checks"]:
        lines.append(f"   [{'PASS' if passed else 'FAIL'}] {check}: {detail}")
    for metric, value in summary.get("per_layer", {}).items():
        lines.append(f"   {metric:<32} {value:>14.6g} {PER_LAYER[metric]}")
    traced = summary.get("traced")
    if traced is not None:
        lines.append("   top traced functions by self time:")
        for self_s, function, calls in traced["top_functions"]:
            lines.append(f"     {self_s:8.3f} s {calls:>9} calls  {function}")
    return lines


def result_line(summaries: list[dict], trace: bool) -> dict:
    """The final JSON object over one or more runs."""
    units = PER_LAYER if trace else END_TO_END
    key = "per_layer" if trace else "end_to_end"
    metrics = {}
    for summary in summaries:
        prefix = (
            f"{summary['workload'].name}." if len(summaries) > 1 else ""
        )
        for name, value in summary.get(key, {}).items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    return {
        "correct": all(summary["correct"] for summary in summaries),
        "attempted": sum(summary["attempted"] for summary in summaries),
        "failed": sum(summary["failed"] for summary in summaries),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Matrix benchmark (see the module docstring)."
    )
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        summary = measure(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace)
        )
        summaries.append(summary)
        print("\n".join(report(summary)), flush=True)
    print(json.dumps(result_line(summaries, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
