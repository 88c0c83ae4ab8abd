"""Uniform spatial hash grid for visibility queries.

Game servers need "how many entities are within R of this client" for
every snapshot.  A naive scan is O(n²) per tick and melts under the
600-client hotspot, so entities are bucketed into R-sized cells and
queries stop early at the snapshot's entity cap.
"""

from __future__ import annotations

import math
from collections import defaultdict

from repro.geometry import Vec2


class SpatialGrid:
    """A rebuild-per-tick spatial hash with capped radius counting."""

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell size must be positive: {cell_size}")
        self._cell = cell_size
        self._buckets: dict[tuple[int, int], list[tuple[str, Vec2]]] = (
            defaultdict(list)
        )
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def clear(self) -> None:
        """Drop all entities (start of a new tick)."""
        self._buckets.clear()
        self._count = 0

    def _key(self, position: Vec2) -> tuple[int, int]:
        return (int(position.x // self._cell), int(position.y // self._cell))

    def insert(self, entity_id: str, position: Vec2) -> None:
        """Add an entity at *position*."""
        self._buckets[self._key(position)].append((entity_id, position))
        self._count += 1

    def count_within(
        self,
        position: Vec2,
        radius: float,
        cap: int,
        exclude_id: str | None = None,
    ) -> int:
        """Entities within *radius* of *position*, early-exiting at *cap*.

        A point within *radius* lies at most ``ceil(radius / cell)``
        cells away along each axis, so that many rings around the
        query's cell cover the disc (3x3 cells when ``radius == cell``).
        The result is ``min(true count, cap)``, independent of the
        order cells are scanned in.
        """
        if radius <= 0 or cap <= 0:
            return 0
        r_sq = radius * radius
        cell = self._cell
        rings = math.ceil(radius / cell)
        px = position.x
        py = position.y
        cx = int(px // cell)
        cy = int(py // cell)
        buckets = self._buckets
        found = 0
        for ix in range(cx - rings, cx + rings + 1):
            for iy in range(cy - rings, cy + rings + 1):
                bucket = buckets.get((ix, iy))
                if not bucket:
                    continue
                for entity_id, entity_pos in bucket:
                    if entity_id == exclude_id:
                        continue
                    dx = entity_pos.x - px
                    dy = entity_pos.y - py
                    if dx * dx + dy * dy <= r_sq:
                        found += 1
                        if found >= cap:
                            return found
        return found
