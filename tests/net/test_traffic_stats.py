"""TrafficStats keeps two tables; every view must match five.

The accounting accumulates only ``by_kind`` and ``by_pair`` and derives
the total and the per-node tables on read.  These tests fold a seeded
random message stream into it and into a reference that keeps all five
tables per message, and compare every view and the digest.
"""

import random

from repro.net import Message, TrafficStats

KINDS = (
    "matrix.forward",
    "matrix.forward_batch",
    "matrix.deliver",
    "mc.register",
    "gs.snapshot",
    "client.update",
)
NODES = tuple(f"n{i}" for i in range(7))


class FiveTables:
    """Reference accounting: every table updated on every message."""

    TABLES = ("by_kind", "by_pair", "by_node_sent", "by_node_received")

    def __init__(self):
        self.total = [0, 0]
        self.by_kind = {}
        self.by_pair = {}
        self.by_node_sent = {}
        self.by_node_received = {}

    def record(self, message):
        keys = (
            (self.by_kind, message.kind),
            (self.by_pair, (message.src, message.dst)),
            (self.by_node_sent, message.src),
            (self.by_node_received, message.dst),
        )
        for counter in [self.total] + [
            table.setdefault(key, [0, 0]) for table, key in keys
        ]:
            counter[0] += 1
            counter[1] += message.size_bytes

    def digest(self):
        parts = [f"total={self.total[0]}:{self.total[1]}"]
        for name in self.TABLES:
            table = getattr(self, name)
            for key in sorted(table, key=repr):
                messages, size = table[key]
                parts.append(f"{name}[{key!r}]={messages}:{size}")
        return "\n".join(parts)


def stream(seed, count=3000):
    rng = random.Random(seed)
    return [
        Message(
            src=rng.choice(NODES),
            dst=rng.choice(NODES),
            kind=rng.choice(KINDS),
            payload=None,
            size_bytes=rng.randint(0, 2000),
        )
        for _ in range(count)
    ]


def fold(messages):
    stats = TrafficStats()
    for message in messages:
        stats.record(message)
    return stats


def as_tuples(table):
    return {key: (c.messages, c.bytes) for key, c in table.items()}


def test_every_view_and_the_digest_match_five_tables():
    messages = stream(seed=7)
    stats = fold(messages)
    reference = FiveTables()
    for message in messages:
        reference.record(message)

    assert stats.canonical_digest() == reference.digest()
    assert (stats.total.messages, stats.total.bytes) == tuple(reference.total)
    for name in FiveTables.TABLES:
        expected = {key: tuple(c) for key, c in getattr(reference, name).items()}
        assert as_tuples(getattr(stats, name)) == expected, name
    forward_bytes = sum(
        m.size_bytes for m in messages if m.kind.startswith("matrix.forward")
    )
    assert stats.kind_bytes("matrix.forward") == forward_bytes
    src, dst = messages[0].src, messages[0].dst
    assert stats.pair_bytes(src, dst) == reference.by_pair[(src, dst)][1]
    assert stats.node_sent_bytes(src) == reference.by_node_sent[src][1]
    assert stats.node_received_bytes(dst) == reference.by_node_received[dst][1]


def test_merge_of_a_split_stream_equals_the_whole():
    messages = stream(seed=11)
    whole = fold(messages)
    merged = fold(messages[:1234])
    merged.merge_from(fold(messages[1234:]))
    assert merged.canonical_digest() == whole.canonical_digest()
    assert as_tuples(merged.by_pair) == as_tuples(whole.by_pair)


def test_reads_of_unseen_keys_leave_the_digest_alone():
    stats = fold(stream(seed=3, count=50))
    before = stats.canonical_digest()
    assert stats.pair_bytes("ghost", "n0") == 0
    assert stats.node_sent_bytes("ghost") == 0
    assert stats.by_kind["never.sent"].messages == 0
    assert stats.canonical_digest() == before
