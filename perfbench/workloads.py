"""The benchmark's three workloads: catalog scenarios at fixed sizes.

Each workload is one catalog scenario on the plain kernel at one scale.
Scaling follows the fuzz harness and the grid cells: the population,
the per-server service rate and the split/reclaim thresholds shrink
together, so a smaller run keeps the paper's dynamics.  Clients are an
open loop: each sends on its own update clock whether or not a reply
came, so an overloaded server builds a backlog.

A run covers a few scenario seeds, because one seed's split timing,
border traffic and latency tail vary from seed to seed more than the
bounds allow; pooling the seeds is what makes a run's figures steady.

Why each workload is here, and which layers it is meant to move:

* ``hotspot`` is the paper's Fig 2 experiment.  Only here do the
  split/reclaim control plane (``core``, ``core.runtime``), overlap
  geometry and a real receive-queue backlog do their work.
* ``churn`` exercises the data-plane layers with writes: joins and
  leaves create and remove nodes all the time, so spawn, node-registry
  and memory costs show here.  Its control plane splits about once, so
  control-plane, geometry and queue changes should barely move it.
* ``lossy`` is the only workload off the no-pipeline fast path: chaos
  is armed and a fault-injection stage drops and duplicates forwards,
  so ``net.middleware`` and ``chaos`` are measured only here.

``uniform-roam`` (the data plane alone on a fixed 2x1 grid) is not a
workload: its outcome is bimodal by seed.  On about two seeds in three
the clients drain onto ``gs.1`` and border switching nearly stops (~75
switches at scale 1.0, ~2.0 MB of forwards); on the rest the two
servers stay balanced (~500 switches, ~0.8 MB).  No statistic pooled
over a few seeds is steady across such a mixture.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    scenario: str
    scale: float
    #: Scenario seeds one run covers (see :meth:`seeds_for`).
    seeds: int
    why: str

    def seeds_for(self, seed: int) -> list[int]:
        """The scenario seeds of a run at *seed*: *seed* itself first."""
        return [seed + SEED_STRIDE * k for k in range(self.seeds)]


#: Distance between the scenario seeds of one run.
SEED_STRIDE = 100_000

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "hotspot",
            "fig2-hotspot",
            0.25,
            3,
            "the paper's Fig 2 hotspot: splits, reclaims, table installs, "
            "overlap geometry and a receive-queue backlog all run",
        ),
        Workload(
            "churn",
            "steady-churn",
            0.5,
            6,
            "joins and leaves all the time: node spawn, registry and "
            "memory costs on the data-plane layers, with the control plane "
            "splitting about once",
        ),
        Workload(
            "lossy",
            "lossy-wan",
            0.25,
            3,
            "chaos armed: the fault-injection middleware drops and "
            "duplicates forwards, the only run off the no-pipeline path",
        ),
    )
}

#: Simulated seconds run after the scenario ends before the settled
#: checks, as the fuzz harness does.
SETTLE_S = 10.0
