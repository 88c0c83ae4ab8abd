"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
from layertrace import LAYERS, WRAPPER_ATTR, LayerTracer, layer_modules  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: A small roam: the whole path (run, settle, checks) in about a second.
TINY = Workload("tiny", "uniform-roam", 0.2, 1, "test-sized roam")


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_are_well_formed():
    for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    for name in WORKLOADS:
        assert NAME.fullmatch(name), name
    assert not set(run.END_TO_END) & set(run.PER_LAYER)
    assert {f"{layer}.self_s" for layer in LAYERS} <= set(run.PER_LAYER)


def test_benchmark_json_matches_the_benchmark():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_tail_keeps_ten_samples_beyond():
    ordered = [float(i) for i in range(77)]
    pct, value = run.tail(ordered)
    assert sum(1 for x in ordered if x > value) == 10
    assert pct == pytest.approx(100.0 * 66 / 76)
    with pytest.raises(ValueError):
        run.tail(ordered[:10])


def test_tail_is_p99_when_enough_samples_lie_beyond():
    ordered = [float(i) for i in range(5001)]
    assert run.tail(ordered) == (99.0, 4950.0)


def test_step_integral_of_server_count():
    from repro.analysis.timeseries import TimeSeries

    series = TimeSeries()
    for t, v in ((0.0, 1), (1.0, 3), (3.0, 2)):
        series.append(t, v)
    assert rep.integral(series, until=4.0) == pytest.approx(1 + 6 + 2)


def _originals() -> dict:
    """Identity of every attribute of every layer module and class."""
    seen = {}
    for module_name in layer_modules():
        module = sys.modules[module_name]
        for attr, value in vars(module).items():
            seen[(module_name, attr)] = value
            if isinstance(value, type) and value.__module__ == module_name:
                for name, member in vars(value).items():
                    seen[(module_name, attr, name)] = member
    return seen


@pytest.fixture(scope="module")
def traced_and_plain():
    before = _originals()
    traced = rep.run_once(TINY, seed=3, traced=True)
    after = _originals()
    plain = rep.run_once(TINY, seed=3, traced=False)
    return traced, plain, before, after


def test_tracing_wrappers_are_fully_removed(traced_and_plain):
    traced, _, before, after = traced_and_plain
    assert traced["leftover_wrappers"] == []
    assert LayerTracer.wrapped_leftovers() == []
    changed = [
        key for key in before.keys() & after.keys()
        if before[key] is not after[key]
    ]
    assert changed == []


def test_handlers_are_wrapped_while_installed():
    from repro.net.dispatch import build_dispatch_table
    from repro.net.node import Node

    tracer = LayerTracer()
    tracer.install()
    try:
        stack = list(Node.__subclasses__())
        checked = 0
        while stack:
            cls = stack.pop()
            stack.extend(cls.__subclasses__())
            if not any(
                cls.__module__.startswith(prefix)
                for prefix in ("repro.core", "repro.games", "repro.net")
            ):
                continue
            for method in build_dispatch_table(cls).values():
                assert hasattr(getattr(cls, method), WRAPPER_ATTR), (
                    f"{cls.__qualname__}.{method}"
                )
                checked += 1
        assert checked > 10
    finally:
        tracer.uninstall()
    assert LayerTracer.wrapped_leftovers() == []


def test_layer_self_times_sum_to_traced_run_time(traced_and_plain):
    traced, _, _, _ = traced_and_plain
    layers = traced["layers"]
    run_s = traced["run_s"]
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    unattributed = layers["trace.unattributed_frac"]
    assert all(layers[f"{layer}.self_s"] >= 0.0 for layer in LAYERS)
    # The kernel loop's own dispatch is the main uncovered time; a
    # tracer that lost a layer would leave far more.
    assert 0.0 < unattributed < 0.5
    # The per-function self times, summed, must account for exactly the
    # time the outermost spans cover (kept by a separate accumulator).
    assert total == pytest.approx((1.0 - unattributed) * run_s, rel=1e-6)


def test_unwrapped_callbacks_show_as_unattributed():
    from repro.sim.kernel import Simulator

    tracer = LayerTracer()
    tracer.install()
    try:
        sim = Simulator()

        def spin() -> None:
            # A closure: nothing the tracer can wrap from outside.
            until = time.perf_counter() + 0.05
            while time.perf_counter() < until:
                pass

        sim.at(1.0, spin)
        tracer.start(sim)
        started = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - started
        trace = tracer.stop()
    finally:
        tracer.uninstall()
    assert wall - trace["covered_s"] >= 0.05
    assert trace["covered_s"] < 0.01


def test_traced_run_matches_untraced_run(traced_and_plain):
    traced, plain, _, _ = traced_and_plain
    assert traced["digest"] == plain["digest"]
    assert traced["modelled"] == plain["modelled"]
    assert traced["checks"] == plain["checks"]
    assert traced["layers"]["sim.events"] == plain["modelled"]["events"]


def test_sliced_run_matches_one_call(traced_and_plain):
    from repro.harness.gridcells import _scaled_setup
    from repro.harness.runner import run_scenario
    from repro.workload.scenarios import build_scenario

    _, plain, _, _ = traced_and_plain
    scenario = build_scenario(TINY.scenario)
    profile, policy = _scaled_setup(scenario.game, TINY.scale)
    outcome = run_scenario(
        scenario, profile=profile, scale=TINY.scale, policy=policy, seed=3
    )
    digest = outcome.result.traffic.canonical_digest().encode()
    assert hashlib.sha256(digest).hexdigest() == plain["digest"]
    assert rep.modelled_metrics(outcome) == plain["modelled"]
    assert plain["probes"] > 2


def test_program_time_is_scaled_by_the_yardstick(monkeypatch):
    from repro.sim.kernel import Simulator

    # A host at half the reference speed.
    monkeypatch.setattr(hostspeed, "probe", lambda: 2 * hostspeed.REFERENCE_S)
    fired: list[float] = []

    def build() -> Simulator:
        sim = Simulator()
        for k in range(50):
            sim.at(k * 0.37, lambda k=k: fired.append(sim.now))
        return sim

    build().run(until=20.0)
    once = list(fired)
    fired.clear()
    sim = build()
    timing: dict = {}
    hostspeed.time_slices(sim, timing)
    sim.run(until=20.0)
    assert fired == once
    assert sim.now == 20.0
    assert timing["scaled_s"] == pytest.approx(timing["program_s"] / 2)
    assert timing["probes"] >= 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lossy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
