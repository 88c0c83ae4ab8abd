"""Sharded-experiment wiring: Matrix runs on the parallel kernel.

:class:`ShardedMatrixExperiment` is a drop-in
:class:`~repro.harness.experiment.MatrixExperiment` whose substrate
factories build a :class:`~repro.sim.sharded.ShardedSimulator` and a
:class:`~repro.net.sharded.ShardedNetwork` instead of the classic
single-heap pair.  Everything above the substrate — deployment, fleet,
scenarios, sampling — runs unmodified; the facade routes scheduling to
the right lane.

The determinism contract (same seed ⇒ identical results at any shard
count and executor) is proven by ``tests/sim/test_sharded.py``; the
wall-clock story is measured honestly by
``benchmarks/bench_shard_scaling.py``.

Deployment state is shard-local: the experiment builds a
:class:`~repro.core.lane_deployment.ShardedMatrixDeployment`, whose
pool/spawn/decommission control plane lives on a global-lane
``fabric`` node and is driven purely by ``fabric.*`` messages, so no
lane ever mutates another lane's objects directly.  That is also what
makes the **process** executor possible: lanes run in forked worker
processes and exchange only messages and per-window state deltas.

Chaos support is partial: barrier-aligned ``LinkDegrade`` windows work
on sharded runs (stages are installed identically on every lane
replica and draw their randomness on the owning lane), but crash
faults (``ServerCrash``/``CoordinatorCrash``) still mutate foreign
lanes mid-window and are refused with an explicit error.
"""

from __future__ import annotations

from repro.core.deployment import MatrixDeployment
from repro.core.lane_deployment import ShardedMatrixDeployment
from repro.geometry.sharding import ShardMap
from repro.harness.experiment import ExperimentResult, MatrixExperiment
from repro.harness.lane_state import MatrixLaneState
from repro.net.network import Network
from repro.net.sharded import ShardedNetwork
from repro.sim.kernel import Simulator
from repro.sim.sharded import ShardedSimulator

__all__ = ["ShardedMatrixExperiment"]


class ShardedMatrixExperiment(MatrixExperiment):
    """A Matrix experiment running on the space-partitioned kernel."""

    def __init__(
        self,
        *args,
        shards: int = 2,
        shard_executor: str = "serial",
        **kwargs,
    ) -> None:
        self.shards = shards
        self.shard_executor = shard_executor
        self._lane_hooks_registered = False
        super().__init__(*args, **kwargs)

    def _build_sim(self) -> Simulator:
        return ShardedSimulator(
            self.shards, executor=self.shard_executor, perf=self.perf
        )

    def _build_network(self) -> Network:
        shard_map = ShardMap(self.profile.world, self.shards)
        return ShardedNetwork(
            self.sim, shard_map, self.rng, perf=self.perf
        )

    def _build_deployment(self, **kwargs) -> MatrixDeployment:
        return ShardedMatrixDeployment(
            self.sim,
            self.network,
            self.config,
            game_server_factory=self._make_game_server,
            **kwargs,
        )

    def run(self, until: float) -> ExperimentResult:
        if self.chaos is not None and self.chaos.has_crash_faults():
            raise ValueError(
                "sharded runs do not support crash chaos faults "
                "(ServerCrash/CoordinatorCrash mutate foreign lanes "
                "mid-window); run crash scenarios with shards=None "
                "(see docs/ARCHITECTURE.md).  LinkDegrade chaos is fine."
            )
        if self.shard_executor == "process" and getattr(
            self.network, "_taps", ()
        ):
            raise ValueError(
                "trace recording is not supported under the process "
                "shard executor (taps would fire once per lane replica); "
                "record with --shard-executor serial or thread"
            )
        # The process executor replays every lane's deltas into the
        # master's object graph between windows; register the provider
        # that knows how to collect/apply Matrix deployment state.
        register = getattr(self.sim, "register_lane_hooks", None)
        if register is not None and not self._lane_hooks_registered:
            register(MatrixLaneState(self))
            self._lane_hooks_registered = True
        # Conservative lookahead: the tightest lower bound on one-way
        # latency between different-shard nodes, derived from the
        # installed link profiles (LatencyModel.minimum()).
        self.sim.lookahead = self.network.minimum_cross_latency()
        result = super().run(until)
        if self.perf is not None:
            # Per-lane accumulators fold in only after the run (lane
            # threads race on shared counters mid-run), so the snapshot
            # taken by the base class is retaken with them included.
            self.network.flush_perf()
            result.perf_snapshot = self.perf.snapshot()
        return result
