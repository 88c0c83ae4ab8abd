"""Outside-in layer tracing: time the program's layers without editing them.

:class:`LayerTracer` replaces every function and method defined in the
layers' modules with a timing wrapper, from the benchmark's side, and
puts the originals back on :meth:`LayerTracer.uninstall`.  Nothing in
the program knows it is traced.

Each wrapped call is a span.  Spans nest through one stack, so a span's
*self time* is its duration minus the time its child spans cover, and
the self times of all spans add up exactly to the time the outermost
spans cover.  Spans are aggregated online per function (call count and
self time), because a hotspot run makes millions of boundary calls;
only the first :data:`RAW_SPAN_CAP` spans are kept raw, with their
depth, for writing out.

Two wrappers also observe simulated time: a message's receive-queue
wait runs from ``ReceiveQueue.deliver`` to the owner's
``Node.handle_message``, on queues with a finite service rate.

Install the tracer before the experiment is built: nodes capture bound
methods (receive-queue handlers, timers, delivery callbacks) at
construction, and those must already be the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import sys
import time
from typing import Any, Callable

#: Module prefix -> layer, most specific prefix first.
LAYER_PREFIXES: tuple[tuple[str, str], ...] = (
    ("repro.core.runtime", "core.runtime"),
    ("repro.net.middleware", "net.middleware"),
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.games", "games"),
    ("repro.workload", "workload"),
    ("repro.core", "core"),
    ("repro.geometry", "geometry"),
    ("repro.chaos", "chaos"),
    ("repro.analysis", "analysis"),
)

#: The layers, in report order.
LAYERS: tuple[str, ...] = (
    "sim", "net", "net.middleware", "games", "workload", "core",
    "core.runtime", "geometry", "chaos", "analysis",
)

#: Classes that belong to another layer than their module's: the fault
#: injection stage lives in the middleware module but is chaos's tool.
CLASS_LAYERS: dict[str, str] = {
    "repro.net.middleware.FaultInjectionStage": "chaos",
}

#: Modules left unwrapped.  The sharded kernel and network never run
#: in this benchmark; the value types are called from every layer, and
#: timing each call would cost more than the call.
SKIP_MODULES: frozenset[str] = frozenset(
    {
        "repro.sim.sharded",
        "repro.net.sharded",
        "repro.geometry.sharding",
        "repro.geometry.vec",
        "repro.geometry.rect",
        "repro.net.message",
    }
)

#: Functions and classes left unwrapped: same-layer helpers on the
#: per-message and per-event paths, whose spans would add no layer
#: attribution and most of the tracing cost.  Their time stays in the
#: caller's span.  ``EventQueue.push`` stays wrapped: it counts heap
#: pushes.  The kernel's event loops stay unwrapped too: a span around
#: the loop would cover the whole run and absorb the time of every
#: callback the tracer does not wrap, so that time would read as the
#: kernel's.  Unwrapped, the loop's own dispatch and any unwrapped
#: callback are left uncovered and show as unattributed time.
SKIP_NAMES: frozenset[str] = frozenset(
    {
        "repro.sim.kernel.Simulator.run",
        "repro.sim.kernel.Simulator._run_plain",
        "repro.sim.kernel.Simulator._run_instrumented",
        "repro.sim.kernel.Simulator.run_window",
        "repro.sim.kernel.Simulator.step",
        "repro.net.stats.Counter",
        "repro.net.node.Node.dispatch",
        "repro.net.queue.ReceiveQueue._start_next",
        "repro.sim.kernel.Simulator.at",
        "repro.sim.kernel.Simulator.after",
        "repro.sim.events.EventQueue.pop_before",
    }
)

#: Raw spans kept for writing out (the first ones after :meth:`start`).
RAW_SPAN_CAP = 50_000

#: Marks a tracing wrapper (its value is the wrapper's slot).
WRAPPER_ATTR = "__perfbench_slot__"


def layer_of(module: str) -> str | None:
    """The layer that owns *module*, or None when it is in no layer."""
    if module in SKIP_MODULES:
        return None
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def layer_modules() -> list[str]:
    """Import and name every module of every layer."""
    names = []
    for prefix, _ in LAYER_PREFIXES:
        package = importlib.import_module(prefix)
        names.append(prefix)
        for info in pkgutil.walk_packages(
            getattr(package, "__path__", []), prefix + "."
        ):
            if layer_of(info.name) is not None:
                importlib.import_module(info.name)
                names.append(info.name)
    return sorted(set(names))


def _traceable(fn: Any) -> bool:
    return (
        inspect.isfunction(fn)
        and not inspect.isgeneratorfunction(fn)
        and not inspect.iscoroutinefunction(fn)
        and not hasattr(fn, WRAPPER_ATTR)
    )


class LayerTracer:
    """Wraps the layers' functions, aggregates their spans per function."""

    def __init__(self) -> None:
        #: slot -> (layer, qualified function name)
        self.names: list[tuple[str, str]] = []
        self.calls: list[int] = []
        self.self_time: list[float] = []
        #: Child-time accumulators; the base entry sums the outermost
        #: spans, so it ends as the total time spans cover.
        self.stack: list[float] = [0.0]
        #: (slot, start, end, depth) of the first spans after start().
        self.raw: list[tuple[int, float, float, int]] = []
        #: The kernel whose clock the queue-wait hooks read.
        self.sim: Any = None
        self.queue_waits: list[float] = []
        self.queues: dict[int, Any] = {}
        self._arrivals: dict[int, float] = {}
        #: (owner, attribute, original) for every patch made.
        self._patches: list[tuple[Any, str, Any]] = []
        self._installed = False

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(
        self, fn: Callable, layer: str, name: str,
        hook: Callable | None = None,
    ) -> Callable:
        slot = len(self.names)
        self.names.append((layer, name))
        self.calls.append(0)
        self.self_time.append(0.0)
        clock = time.perf_counter
        stack = self.stack
        self_time = self.self_time
        calls = self.calls
        raw = self.raw
        cap = RAW_SPAN_CAP

        if hook is None:
            def traced(*args, **kwargs):
                t0 = clock()
                stack.append(0.0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    span = t1 - t0
                    self_time[slot] += span - stack.pop()
                    calls[slot] += 1
                    stack[-1] += span
                    if len(raw) < cap:
                        raw.append((slot, t0, t1, len(stack)))
        else:
            def traced(*args, **kwargs):
                t0 = clock()
                stack.append(0.0)
                try:
                    hook(args)
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    span = t1 - t0
                    self_time[slot] += span - stack.pop()
                    calls[slot] += 1
                    stack[-1] += span
                    if len(raw) < cap:
                        raw.append((slot, t0, t1, len(stack)))

        functools.update_wrapper(traced, fn)
        setattr(traced, WRAPPER_ATTR, slot)
        return traced

    def _hook_for(self, name: str) -> Callable | None:
        if name == "repro.net.queue.ReceiveQueue.deliver":
            return self._on_deliver
        if name == "repro.net.node.Node.handle_message":
            return self._on_handle
        return None

    def _on_deliver(self, args: tuple) -> None:
        queue, message = args[0], args[1]
        self.queues[id(queue)] = queue
        if self.sim is not None and not math.isinf(queue.service_rate):
            self._arrivals[id(message)] = self.sim.now

    def _on_handle(self, args: tuple) -> None:
        arrived = self._arrivals.pop(id(args[1]), None)
        if arrived is not None and self.sim is not None:
            self.queue_waits.append(self.sim.now - arrived)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every function and method of every layer module."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        replaced: dict[int, Callable] = {}
        for module_name in layer_modules():
            module = sys.modules[module_name]
            module_layer = layer_of(module_name)
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module_name:
                    continue
                if _traceable(value):
                    qualname = f"{module_name}.{value.__qualname__}"
                    wrapper = self._wrap(value, module_layer, qualname)
                    replaced[id(value)] = wrapper
                    self._patch(module, attr, wrapper)
                elif (
                    inspect.isclass(value)
                    and f"{module_name}.{value.__qualname__}" not in SKIP_NAMES
                ):
                    layer = CLASS_LAYERS.get(
                        f"{module_name}.{value.__qualname__}", module_layer
                    )
                    self._wrap_class(value, module_name, layer)
        # Functions imported by name into other modules keep pointing at
        # the original: repoint those references too.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._patch(module, attr, wrapper)

    def _wrap_class(self, cls: type, module_name: str, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr.endswith("__"):
                continue
            qualname = f"{module_name}.{cls.__qualname__}.{attr}"
            if qualname in SKIP_NAMES:
                continue
            if isinstance(value, (staticmethod, classmethod)):
                if _traceable(value.__func__):
                    wrapper = self._wrap(value.__func__, layer, qualname)
                    self._patch(cls, attr, type(value)(wrapper))
            elif _traceable(value):
                self._patch(
                    cls, attr,
                    self._wrap(value, layer, qualname, self._hook_for(qualname)),
                )

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._installed = False

    # ------------------------------------------------------------------
    # Measurement window
    # ------------------------------------------------------------------
    def start(self, sim: Any) -> None:
        """Forget the spans of set-up and start measuring."""
        if len(self.stack) != 1:
            raise RuntimeError("start() called inside a traced span")
        self.sim = sim
        for slot in range(len(self.calls)):
            self.calls[slot] = 0
            self.self_time[slot] = 0.0
        self.stack[0] = 0.0
        self.raw.clear()
        self.queue_waits.clear()
        self._arrivals.clear()

    def stop(self) -> dict:
        """End the measurement: per-layer self time, per-function counts
        and the time the spans cover."""
        self.sim = None
        self._arrivals.clear()
        layer_self = {layer: 0.0 for layer in LAYERS}
        functions = {}
        for slot, (layer, name) in enumerate(self.names):
            if self.calls[slot]:
                layer_self[layer] += self.self_time[slot]
                functions[name] = {
                    "layer": layer,
                    "calls": self.calls[slot],
                    "self_s": self.self_time[slot],
                }
        return {
            "layer_self_s": layer_self,
            "functions": functions,
            "covered_s": self.stack[0],
            "spans": sum(self.calls),
        }

    def calls_of(self, suffix: str) -> int:
        """Calls of every traced function whose name ends in *suffix*."""
        return sum(
            self.calls[slot]
            for slot, (_, name) in enumerate(self.names)
            if name.endswith(suffix)
        )

    def raw_spans(self) -> list[dict]:
        """The kept raw spans, each with the index of its parent span.

        Spans are recorded as they end, so a span's children come
        before it; a span's parent is the next span one level up.
        """
        out: list[dict] = []
        open_children: dict[int, list[int]] = {}
        for index, (slot, start, end, depth) in enumerate(self.raw):
            for child in open_children.pop(depth + 1, []):
                out[child]["parent"] = index
            layer, name = self.names[slot]
            out.append(
                {"layer": layer, "name": name, "start": start,
                 "end": end, "parent": None}
            )
            open_children.setdefault(depth, []).append(index)
        return out

    @staticmethod
    def wrapped_leftovers() -> list[str]:
        """Attributes of the program's modules that still hold a wrapper."""
        left = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in vars(module).items():
                if hasattr(value, WRAPPER_ATTR):
                    left.append(f"{module_name}.{attr}")
                if inspect.isclass(value) and value.__module__ == module_name:
                    for name, member in vars(value).items():
                        member = getattr(member, "__func__", member)
                        if hasattr(member, WRAPPER_ATTR):
                            left.append(f"{module_name}.{attr}.{name}")
        return left
