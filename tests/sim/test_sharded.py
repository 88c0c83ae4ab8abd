"""Tests for the space-partitioned parallel kernel.

Two layers, mirroring the module:

* engine unit tests — the :class:`ShardedSimulator` facade, cross-lane
  deferral, and the window-boundary edge cases (an event scheduled at
  exactly the barrier time, and at exactly the horizon);
* Matrix determinism — the tentpole's acceptance bar: byte-identical
  ``TrafficStats`` (canonical digest) and sweep metrics for shards=1
  vs shards=4 on fig2-hotspot and steady-churn.
"""

import pytest

from repro.cli import run_summary_cell
from repro.core.config import LoadPolicyConfig
from repro.games.profile import profile_by_name
from repro.harness.compare import scaled_profile
from repro.harness.runner import run_scenario
from repro.sim.kernel import SimulationError
from repro.sim.sharded import ShardedSimulator, ShardWorkerError
from repro.workload.scenarios import build_scenario


# ----------------------------------------------------------------------
# Engine unit tests
# ----------------------------------------------------------------------
class TestShardedSimulatorFacade:
    def test_validation(self):
        with pytest.raises(SimulationError):
            ShardedSimulator(0)
        with pytest.raises(SimulationError, match="executor"):
            ShardedSimulator(2, executor="quantum")

    def test_run_requires_positive_lookahead(self):
        engine = ShardedSimulator(2)
        engine.lane(0).at(1.0, lambda: None)
        with pytest.raises(SimulationError, match="lookahead"):
            engine.run(until=2.0)

    def test_max_events_unsupported(self):
        engine = ShardedSimulator(1, lookahead=0.5)
        with pytest.raises(SimulationError, match="max_events"):
            engine.run(until=1.0, max_events=10)

    def test_single_lane_runs_like_the_classic_kernel(self):
        engine = ShardedSimulator(1, lookahead=0.5)
        trace = []
        engine.lane(0).at(0.25, lambda: trace.append(("a", engine.now)))
        engine.lane(0).at(0.75, lambda: trace.append(("b", engine.now)))
        engine.at(0.5, lambda: trace.append(("g", engine.now)))  # global
        engine.run(until=1.0)
        assert [label for label, _ in trace] == ["a", "g", "b"]
        assert [t for _, t in trace] == [0.25, 0.5, 0.75]
        assert engine.events_processed == 3
        assert engine.now == 1.0

    def test_event_at_exact_barrier_runs_in_next_window(self):
        """The window-boundary edge case: a lane drains *strictly*
        before the barrier, so an event landing at exactly the barrier
        instant executes in the following window — at every shard
        count, which is what keeps the schedule executor-independent."""
        engine = ShardedSimulator(2, lookahead=0.5)
        trace = []
        lane0 = engine.lane(0)

        def a():
            trace.append(("a", engine.now, engine.windows_run))
            # First barrier is min-event + lookahead = 1.0 + 0.5: this
            # lands exactly ON it.
            lane0.at(1.5, b)

        def b():
            trace.append(("b", engine.now, engine.windows_run))

        lane0.at(1.0, a)
        engine.run(until=3.0)
        assert [entry[:2] for entry in trace] == [("a", 1.0), ("b", 1.5)]
        window_of_a, window_of_b = trace[0][2], trace[1][2]
        assert window_of_b == window_of_a + 1

    def test_event_at_exact_horizon_still_executes(self):
        """Lane events at exactly ``until`` run (the final inclusive
        drain), matching the classic kernel's inclusive run(until)."""
        engine = ShardedSimulator(2, lookahead=0.5)
        ran = []
        engine.lane(1).at(3.0, lambda: ran.append(engine.now))
        engine.run(until=3.0)
        assert ran == [3.0]
        assert engine.now == 3.0

    def test_global_lane_runs_before_lane_events_at_same_instant(self):
        """At a barrier the control lane executes at exactly B; lane
        events at B belong to the next window.  Ties between control
        and shard work therefore order the same at any shard count."""
        engine = ShardedSimulator(2, lookahead=0.5)
        order = []
        engine.at(2.0, lambda: order.append("global"))
        engine.lane(0).at(2.0, lambda: order.append("lane"))
        engine.run(until=2.0)
        assert order == ["global", "lane"]

    def test_cross_lane_after_uses_the_callers_clock(self):
        """``after`` from inside a window resolves against the ACTIVE
        lane's clock, not the (lagging) target lane's — a cross-lane
        relative schedule means the same instant at any shard count."""
        engine = ShardedSimulator(2, lookahead=0.5)
        times = []

        def src():
            engine.lane(1).after(0.6, lambda: times.append(engine.now))

        engine.lane(0).at(1.0, src)
        engine.run(until=3.0)
        assert times == [1.6]

    def test_cross_lane_schedule_inside_lookahead_rejected(self):
        engine = ShardedSimulator(2, lookahead=0.5)
        engine.lane(0).at(
            1.0, lambda: engine.lane(1).after(0.2, lambda: None)
        )
        with pytest.raises(SimulationError, match="lookahead"):
            engine.run(until=3.0)

    def test_deferred_cross_lane_event_can_be_cancelled(self):
        """A cross-lane schedule is cancellable until its barrier
        injection; a cancelled deferral never reaches the target heap."""
        engine = ShardedSimulator(2, lookahead=0.5)
        ran = []
        holder = {}

        def src():
            holder["event"] = engine.lane(1).after(
                1.0, lambda: ran.append("dst")
            )

        engine.lane(0).at(1.0, src)
        engine.lane(0).at(1.4, lambda: engine.cancel(holder["event"]))
        engine.run(until=3.0)
        assert ran == []

    def _ring_trace(self, shards: int, executor: str) -> dict[int, list]:
        """A deterministic multi-lane workload: every lane ticks
        locally and pings its neighbour; returns per-lane event traces."""
        engine = ShardedSimulator(shards, lookahead=0.5, executor=executor)
        traces: dict[int, list] = {i: [] for i in range(shards)}

        def install(i: int) -> None:
            lane = engine.lane(i)

            def tick():
                traces[i].append(("tick", round(engine.now, 9)))
                if engine.now < 2.0:
                    lane.after(0.3, tick)
                    target = (i + 1) % shards
                    engine.lane(target).after(
                        0.6, lambda: traces[target].append(
                            ("ping", round(engine.now, 9), i)
                        )
                    )

            lane.at(0.1 * (i + 1), tick)

        for i in range(shards):
            install(i)
        engine.run(until=3.0)
        return traces

    def test_thread_executor_matches_serial(self):
        assert self._ring_trace(3, "serial") == self._ring_trace(3, "thread")

    def test_perf_counters_track_windows(self):
        from repro.perf import PerfRegistry

        perf = PerfRegistry()
        engine = ShardedSimulator(2, lookahead=0.5, perf=perf)
        engine.lane(0).at(1.0, lambda: None)
        engine.run(until=2.0)
        snapshot = perf.snapshot()
        assert snapshot["counters"]["shard.windows"]["count"] == (
            engine.windows_run
        )


# ----------------------------------------------------------------------
# Matrix determinism: the tentpole's acceptance bar
# ----------------------------------------------------------------------
def matrix_row(
    name: str,
    scale: float,
    preview: float,
    shards: int,
    executor: str = "serial",
    seed: int = 3,
) -> dict:
    """One sharded scenario run, reduced to its deterministic outputs."""
    scenario = build_scenario(name)
    profile = scaled_profile(profile_by_name(scenario.game), scale)
    policy = LoadPolicyConfig().scaled(scale)
    outcome = run_scenario(
        scenario,
        profile=profile,
        scale=scale,
        preview=preview,
        policy=policy,
        seed=seed,
        shards=shards,
        shard_executor=executor,
    )
    result = outcome.result
    return {
        "traffic_digest": result.traffic.canonical_digest(),
        "events": result.events_processed,
        "messages": result.traffic.total.messages,
        "bytes": result.traffic.total.bytes,
        "splits": result.splits_completed,
        "reclaims": result.reclaims_completed,
        "server_events": tuple(
            (event.time, event.kind, event.matrix_server, event.game_server)
            for event in outcome.experiment.deployment.events
        ),
    }


class TestMatrixShardDeterminism:
    def test_fig2_hotspot_identical_at_any_shard_count(self):
        """Byte-identical TrafficStats (canonical digest) and event
        totals for shards=1 vs shards ∈ {2, 4}, serial, thread and
        process executors, through the split cascade of the paper's
        §4.1 hotspot."""
        reference = matrix_row("fig2-hotspot", 0.2, 40.0, shards=1)
        assert reference["events"] > 0
        assert reference["traffic_digest"]
        assert matrix_row("fig2-hotspot", 0.2, 40.0, shards=4) == reference
        assert (
            matrix_row("fig2-hotspot", 0.2, 40.0, shards=4, executor="thread")
            == reference
        )
        for shards in (2, 4):
            assert (
                matrix_row(
                    "fig2-hotspot", 0.2, 40.0,
                    shards=shards, executor="process",
                )
                == reference
            )

    def test_steady_churn_identical_at_any_shard_count(self):
        """Same bar under membership churn (joins/leaves dominate)."""
        reference = matrix_row("steady-churn", 0.25, 30.0, shards=1)
        assert reference["events"] > 0
        assert matrix_row("steady-churn", 0.25, 30.0, shards=4) == reference

    def test_sweep_metrics_identical_across_shard_counts(self):
        """The ``run`` fan-out cell — the sweep's metrics row — is
        byte-identical whatever the shard count."""
        rows = [
            run_summary_cell(
                "steady-churn",
                backend="matrix",
                scale=0.25,
                seed=3,
                duration=30.0,
                no_faults=False,
                shards=shards,
            )
            for shards in (1, 4)
        ]
        assert rows[0] == rows[1]
        assert rows[0]["events"] > 0

    def test_chaos_armed_runs_refuse_sharding(self):
        with pytest.raises(ValueError, match="chaos"):
            run_scenario(
                "crash-during-split",
                scale=0.1,
                preview=30.0,
                seed=3,
                shards=2,
            )

    def test_link_degrade_chaos_identical_under_process_executor(self):
        """Barrier-aligned LinkDegrade windows survive sharding: the
        lossy-wan chaos scenario produces byte-identical traffic AND an
        identical fault report under the forked process executor."""

        def chaos_row(shards: int, executor: str) -> dict:
            scenario = build_scenario("lossy-wan")
            scale = 0.15
            profile = scaled_profile(profile_by_name(scenario.game), scale)
            outcome = run_scenario(
                scenario,
                profile=profile,
                scale=scale,
                preview=25.0,
                policy=LoadPolicyConfig().scaled(scale),
                seed=3,
                shards=shards,
                shard_executor=executor,
            )
            report = outcome.experiment.chaos.report()
            return {
                "traffic_digest": (
                    outcome.result.traffic.canonical_digest()
                ),
                "events": outcome.result.events_processed,
                "link_dropped": report.link_dropped,
                "link_duplicated": report.link_duplicated,
                "faults": tuple(
                    (fault.fault, fault.at, fault.status)
                    for fault in report.faults
                ),
            }

        reference = chaos_row(1, "serial")
        assert reference["events"] > 0
        assert reference["link_dropped"] > 0
        assert chaos_row(2, "process") == reference


# ----------------------------------------------------------------------
# Process-executor engine behaviour
# ----------------------------------------------------------------------
class TestProcessExecutor:
    def test_engine_counters_match_serial(self):
        """Closure side effects stay in the forked workers by design —
        what ships back is engine state: merged per-lane event counts
        and the (executor-independent) window grid.  The Matrix tests
        above prove full-result identity through the lane hooks."""
        counts = {}
        for executor in ("serial", "process"):
            engine = ShardedSimulator(3, lookahead=0.5, executor=executor)

            def install(lane_index: int) -> None:
                lane = engine.lane(lane_index)

                def tick():
                    if engine.now < 2.0:
                        lane.after(0.3, tick)

                lane.at(0.1 * (lane_index + 1), tick)

            for lane_index in range(3):
                install(lane_index)
            engine.run(until=3.0)
            counts[executor] = (engine.events_processed, engine.windows_run)
        assert counts["serial"] == counts["process"]
        assert counts["serial"][0] > 0

    def test_worker_crash_raises_traceback_carrying_error(self):
        """A lane handler blowing up inside a forked worker surfaces as
        a ShardWorkerError naming the lane and carrying the worker's
        traceback (mirroring GridTaskError) — never a hang."""
        engine = ShardedSimulator(2, lookahead=0.5, executor="process")

        def boom():
            raise RuntimeError("boom in lane one")

        engine.lane(0).at(1.0, lambda: None)
        engine.lane(1).at(1.0, boom)
        with pytest.raises(ShardWorkerError) as excinfo:
            engine.run(until=2.0)
        assert excinfo.value.lane == 1
        assert "boom in lane one" in excinfo.value.worker_traceback
        # The engine refuses to restart on top of dead workers.
        with pytest.raises(SimulationError, match="worker failure"):
            engine.run(until=3.0)

    def test_perf_counters_cover_process_lanes(self):
        from repro.perf import PerfRegistry

        perf = PerfRegistry()
        engine = ShardedSimulator(
            2, lookahead=0.5, executor="process", perf=perf
        )
        for lane in range(2):
            engine.lane(lane).at(0.5 + lane * 0.1, lambda: None)
        engine.run(until=2.0)
        snapshot = perf.snapshot()
        counters = snapshot["counters"]
        assert counters["shard.windows"]["count"] == engine.windows_run
        assert counters["shard.window_span"]["value"] > 0
        assert counters["shard.ipc_bytes"]["value"] > 0
        assert snapshot["timers"]["shard.lane_wall"]["count"] > 0
