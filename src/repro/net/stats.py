"""Traffic accounting for the simulated network.

The microbenchmarks in §4.2 are statements about traffic composition:
the coordinator's share of messages is negligible, and inter-Matrix-
server bytes track the size of the overlap regions.  This module keeps
the counters those benchmarks read.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.net.message import Message


@dataclass(slots=True)
class Counter:
    """Message count + byte count for one traffic class."""

    messages: int = 0
    bytes: int = 0

    def add(self, size: int) -> None:
        self.messages += 1
        self.bytes += size


def _fold(table: dict, items) -> dict:
    """Add each ``(key, counter)`` of *items* into *table*; returns it."""
    for key, counter in items:
        entry = table[key]
        entry.messages += counter.messages
        entry.bytes += counter.bytes
    return table


class TrafficStats:
    """Traffic counters: ``by_kind`` and ``by_pair`` are accumulated per
    message; ``total`` and the per-node views are derived on read."""

    def __init__(self) -> None:
        self.by_kind: dict[str, Counter] = defaultdict(Counter)
        self.by_pair: dict[tuple[str, str], Counter] = defaultdict(Counter)

    def record(self, message: Message) -> None:
        """Account one sent message."""
        size = message.size_bytes
        counter = self.by_kind[message.kind]
        counter.messages += 1
        counter.bytes += size
        counter = self.by_pair[(message.src, message.dst)]
        counter.messages += 1
        counter.bytes += size

    def merge_from(self, other: "TrafficStats") -> None:
        """Fold *other*'s counters into this one.

        Every counter is a plain sum, so merging per-shard stats in any
        fixed order reproduces the single-kernel totals exactly — the
        sharded network accounts traffic per lane and merges on read.
        """
        _fold(self.by_kind, other.by_kind.items())
        _fold(self.by_pair, other.by_pair.items())

    @property
    def total(self) -> Counter:
        """All traffic, summed over ``by_kind``."""
        counters = self.by_kind.values()
        return Counter(
            sum(c.messages for c in counters), sum(c.bytes for c in counters)
        )

    @property
    def by_node_sent(self) -> dict[str, Counter]:
        """Per-source-node traffic, summed over ``by_pair``."""
        pairs = self.by_pair.items()
        return _fold(defaultdict(Counter), ((src, c) for (src, _), c in pairs))

    @property
    def by_node_received(self) -> dict[str, Counter]:
        """Per-destination-node traffic, summed over ``by_pair``."""
        pairs = self.by_pair.items()
        return _fold(defaultdict(Counter), ((dst, c) for (_, dst), c in pairs))

    def canonical_digest(self) -> str:
        """A key-order-independent serialisation of every counter.

        Two stats objects digest identically iff every breakdown agrees
        exactly; dict insertion order (which differs between a merged
        per-shard view and a single-kernel run) does not affect it.
        This is the "byte-identical ``TrafficStats``" the shard
        determinism tests and the scaling bench compare.
        """
        parts = [f"total={self.total.messages}:{self.total.bytes}"]
        for table_name in ("by_kind", "by_pair", "by_node_sent", "by_node_received"):
            table = getattr(self, table_name)
            for key in sorted(table, key=repr):
                counter = table[key]
                if counter.messages or counter.bytes:
                    parts.append(
                        f"{table_name}[{key!r}]={counter.messages}:{counter.bytes}"
                    )
        return "\n".join(parts)

    # ------------------------------------------------------------------
    # Queries used by the microbenchmarks
    # ------------------------------------------------------------------
    def kind_fraction(self, prefix: str) -> float:
        """Fraction of all messages whose kind starts with *prefix*."""
        total = self.total.messages
        return self.kind_messages(prefix) / total if total else 0.0

    def kind_bytes(self, prefix: str) -> int:
        """Total bytes of messages whose kind starts with *prefix*."""
        return sum(counter.bytes for counter in self._kind_counters(prefix))

    def kind_messages(self, prefix: str) -> int:
        """Total messages whose kind starts with *prefix*.

        The architecture backends use this to report their consistency
        traffic (``mirror.*``, ``p2p.*``, ``dht.*``) without touching
        the counter internals.
        """
        return sum(counter.messages for counter in self._kind_counters(prefix))

    def _kind_counters(self, prefix: str) -> list[Counter]:
        return [c for kind, c in self.by_kind.items() if kind.startswith(prefix)]

    def pair_bytes(self, src: str, dst: str) -> int:
        """Bytes sent from *src* to *dst*."""
        return self.by_pair[(src, dst)].bytes

    def node_sent_bytes(self, node: str) -> int:
        """Bytes sent by *node* across all destinations."""
        return self.by_node_sent[node].bytes

    def node_received_bytes(self, node: str) -> int:
        """Bytes addressed to *node* across all sources."""
        return self.by_node_received[node].bytes
