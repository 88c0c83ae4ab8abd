"""One repetition of one workload, in a fresh process.

Usage: ``python3 perfbench/rep.py --workload NAME --seed N [--trace 1]
[--spans-out PATH]``.  ``perfbench/run.py`` starts it; it prints one
JSON object as the last line of its standard output.

The repetition builds the workload's scenario, runs it to its end,
settles it for :data:`workloads.SETTLE_S` simulated seconds and checks
the settled deployment.  Host times are monotonic-clock readings: the
parent takes the start time before it spawns this process, so set-up
time covers interpreter start, imports, scenario build and install.
The run itself is timed in slices against the yardstick of
``hostspeed.py``: ``run_s`` is its host seconds without the yardstick,
``scaled_s`` the same scaled to the reference host speed.
With ``--trace 1`` the layers are wrapped by :class:`LayerTracer`
before anything is built and unwrapped once the run has ended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hostspeed import time_slices  # noqa: E402
from layertrace import LayerTracer  # noqa: E402
from workloads import SETTLE_S, WORKLOADS, Workload  # noqa: E402


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank *q*-th percentile (0-100) of an ascending list."""
    return ordered[round(q / 100.0 * (len(ordered) - 1))]


def integral(series, until: float) -> float:
    """Step integral of a sampled series from its first sample to *until*."""
    times, values = series.times, series.values
    total = 0.0
    for index, (start, value) in enumerate(zip(times, values)):
        end = times[index + 1] if index + 1 < len(times) else until
        total += value * max(end - start, 0.0)
    return total


def modelled_metrics(outcome) -> dict:
    """What a finished run gives the simulated-time metrics.

    Latency samples are kept whole (in ms, ascending) so that the
    parent can pool them over a workload's seeds.
    """
    result = outcome.result
    fleet = outcome.experiment.fleet
    return {
        "action_ms": sorted(x * 1e3 for x in result.action_latencies),
        "switch_ms": sorted(x * 1e3 for x in result.switch_latencies),
        "server_s": integral(result.server_count, result.duration),
        "consistency_mb": result.traffic.kind_bytes("matrix.forward") / 1e6,
        "actions_sent": sum(client.actions_sent for client in fleet.clients),
        "actions_answered": len(result.action_latencies),
        "peak_queue": result.max_queue(),
        "events": result.events_processed,
        "messages": result.traffic.total.messages,
    }


def settled_checks(outcome, horizon: float) -> dict:
    """Settle the run, then audit it with the fuzz harness's invariants.

    The client census is reported, not failed: both ways it can be off
    are known defects of the program.  An active client that no live
    server holds is an orphan; a client a server still holds after the
    fleet retired it is stale.
    """
    from repro.fuzz.invariants import check_invariants, snapshot_lifecycle

    experiment = outcome.experiment
    pre_settle = snapshot_lifecycle(experiment)
    experiment.sim.run(until=horizon + SETTLE_S)
    violations = [
        v for v in check_invariants(outcome, pre_settle=pre_settle)
        if not v.startswith("client population not conserved")
    ]
    surplus = (
        len(experiment.fleet.active_clients())
        - experiment.deployment.total_clients()
    )
    return {
        "violations": violations,
        "orphaned_clients": max(surplus, 0),
        "stale_clients": max(-surplus, 0),
    }


def layer_metrics(tracer: LayerTracer, trace: dict, outcome, run_s: float) -> dict:
    """The per-layer metrics of a traced run (names ``layer.metric``)."""
    result = outcome.result
    experiment = outcome.experiment
    counters = result.perf_snapshot["counters"]

    def count(name: str) -> int:
        return counters.get(name, {}).get("count", 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    self_s = trace["layer_self_s"]
    events = result.events_processed
    messages = result.traffic.total.messages
    pushes = tracer.calls_of(".EventQueue.push") + tracer.calls_of(
        ".EventQueue.push_existing"
    )
    waits = sorted(tracer.queue_waits)
    reused = count("geometry.overlap_reused")
    recomputed = count("geometry.overlap_recomputed")
    splits = result.splits_completed
    chaos = experiment.chaos.report() if experiment.chaos is not None else None
    metrics = {f"{layer}.self_s": seconds for layer, seconds in self_s.items()}
    metrics.update(
        {
            "sim.events": events,
            "sim.heap_pushes_per_event": ratio(pushes, events),
            "sim.cancelled_frac": ratio(tracer.calls_of(".Event.cancel"), pushes),
            "net.messages": messages,
            "net.us_per_message": ratio(self_s["net"], messages) * 1e6,
            "net.stats_records": tracer.calls_of(".TrafficStats.record"),
            "net.profile_miss_frac": ratio(
                count("net.profile_cache_misses"),
                tracer.calls_of(".Network.profile_for"),
            ),
            "net.queue_wait_p99_ms": (
                percentile(waits, 99) * 1e3 if waits else 0.0
            ),
            "net.queue_dropped": sum(
                queue.dropped_count for queue in tracer.queues.values()
            ),
            "net.peak_queue": result.max_queue(),
            "net.middleware.hook_calls": count("net.pipeline_hook_calls"),
            "games.count_within_calls": tracer.calls_of(
                ".SpatialGrid.count_within"
            ),
            "games.us_per_snapshot": ratio(
                self_s["games"],
                result.traffic.by_kind["gs.snapshot"].messages,
            ) * 1e6,
            "workload.clients_spawned": len(experiment.fleet.clients),
            "workload.mobility_steps": sum(
                fn["calls"]
                for name, fn in trace["functions"].items()
                if name.startswith("repro.workload.mobility.")
                and name.endswith(".step")
            ),
            "core.splits": splits,
            "core.split_success_frac": ratio(
                splits, splits + result.failed_splits
            ),
            "core.reclaims": result.reclaims_completed,
            "core.table_installs": count("runtime.table_installs"),
            "core.runtime.owner_lookups": count("runtime.owner_lookups"),
            "core.runtime.forwards": result.traffic.kind_messages(
                "matrix.forward"
            ),
            "core.runtime.transfer_chunks": count("runtime.transfer_chunks"),
            "geometry.overlap_reuse_frac": ratio(reused, reused + recomputed),
            "geometry.index_builds": count("geometry.region_index_builds")
            + count("geometry.partition_index_builds"),
            "chaos.link_dropped": chaos.link_dropped if chaos else 0,
            "chaos.link_duplicated": chaos.link_duplicated if chaos else 0,
            "trace.spans": trace["spans"],
            "trace.unattributed_frac": (run_s - trace["covered_s"]) / run_s,
        }
    )
    return metrics


def run_once(workload: Workload, seed: int, traced: bool) -> dict:
    """Run one repetition and return its JSON-ready record."""
    # Import before installing the tracer: a module imported while it is
    # installed would bind the wrappers by name and keep them after.
    from repro.core.config import PerfConfig
    from repro.harness.gridcells import _scaled_setup
    from repro.harness.runner import run_scenario
    from repro.workload.scenarios import build_scenario

    tracer = None
    if traced:
        tracer = LayerTracer()
        tracer.install()
    scenario = build_scenario(workload.scenario)
    profile, policy = _scaled_setup(scenario.game, workload.scale)
    marks: dict[str, float] = {}
    timing: dict = {}

    def observe(experiment) -> None:
        time_slices(experiment.sim, timing)
        if tracer is not None:
            tracer.start(experiment.sim)
        marks["first_event"] = time.monotonic()

    outcome = run_scenario(
        scenario,
        profile=profile,
        scale=workload.scale,
        policy=policy,
        seed=seed,
        perf=PerfConfig(enabled=True) if traced else None,
        observe=observe,
    )
    vars(outcome.experiment.sim).pop("run")
    trace = tracer.stop() if tracer is not None else None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "first_event": marks["first_event"],
        "run_s": timing["program_s"],
        "scaled_s": timing["scaled_s"],
        "probes": timing["probes"],
        "probe_median_s": timing["probe_median_s"],
        "peak_rss_mb": rss_mb,
        "modelled": modelled_metrics(outcome),
        "digest": hashlib.sha256(
            outcome.result.traffic.canonical_digest().encode()
        ).hexdigest(),
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = layer_metrics(
            tracer, trace, outcome, timing["program_s"]
        )
        record["leftover_wrappers"] = tracer.wrapped_leftovers()
        record["top_functions"] = sorted(
            (
                (fn["self_s"], name, fn["calls"])
                for name, fn in trace["functions"].items()
            ),
            reverse=True,
        )[:10]
        record["raw_spans"] = tracer.raw_spans()
    record["checks"] = settled_checks(outcome, outcome.result.duration)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)
    record = run_once(WORKLOADS[args.workload], args.seed, bool(args.trace))
    spans = record.pop("raw_spans", None)
    if spans is not None and args.spans_out is not None:
        args.spans_out.parent.mkdir(parents=True, exist_ok=True)
        args.spans_out.write_text(json.dumps(spans))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
