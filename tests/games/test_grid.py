"""Tests for the spatial hash grid."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.games.grid import SpatialGrid
from repro.geometry import Vec2


def test_empty_grid_counts_zero():
    grid = SpatialGrid(10.0)
    assert grid.count_within(Vec2(0, 0), 100.0, cap=10) == 0


def test_insert_and_count():
    grid = SpatialGrid(10.0)
    grid.insert("a", Vec2(5, 5))
    grid.insert("b", Vec2(8, 5))
    grid.insert("c", Vec2(50, 50))
    assert grid.count_within(Vec2(5, 5), 10.0, cap=10) == 2
    assert grid.count_within(Vec2(5, 5), 100.0, cap=10) == 3


def test_exclude_id():
    grid = SpatialGrid(10.0)
    grid.insert("me", Vec2(5, 5))
    grid.insert("other", Vec2(6, 5))
    assert grid.count_within(Vec2(5, 5), 10.0, cap=10, exclude_id="me") == 1


def test_cap_limits_count():
    grid = SpatialGrid(10.0)
    for i in range(100):
        grid.insert(f"e{i}", Vec2(5, 5))
    assert grid.count_within(Vec2(5, 5), 10.0, cap=7) == 7


def test_clear():
    grid = SpatialGrid(10.0)
    grid.insert("a", Vec2(5, 5))
    grid.clear()
    assert len(grid) == 0
    assert grid.count_within(Vec2(5, 5), 10.0, cap=10) == 0


def test_radius_boundary_inclusive():
    grid = SpatialGrid(10.0)
    grid.insert("edge", Vec2(10, 0))
    assert grid.count_within(Vec2(0, 0), 10.0, cap=10) == 1
    assert grid.count_within(Vec2(0, 0), 9.999, cap=10) == 0


def test_negative_coordinates():
    grid = SpatialGrid(10.0)
    grid.insert("neg", Vec2(-15, -15))
    assert grid.count_within(Vec2(-10, -10), 10.0, cap=10) == 1


def test_zero_radius_or_cap():
    grid = SpatialGrid(10.0)
    grid.insert("a", Vec2(0, 0))
    assert grid.count_within(Vec2(0, 0), 0.0, cap=10) == 0
    assert grid.count_within(Vec2(0, 0), 10.0, cap=0) == 0


def test_bad_cell_size():
    with pytest.raises(ValueError):
        SpatialGrid(0.0)


def brute_count(entities, query, radius, cap, exclude=None):
    """``min(true count, cap)`` by scanning every entity."""
    qx, qy = query
    found = sum(
        1
        for i, (x, y) in enumerate(entities)
        if i != exclude and (x - qx) ** 2 + (y - qy) ** 2 <= radius * radius
    )
    return min(found, cap)


def grid_count(cell, entities, query, radius, cap, exclude=None):
    grid = SpatialGrid(cell)
    for i, (x, y) in enumerate(entities):
        grid.insert(f"e{i}", Vec2(x, y))
    return grid.count_within(
        Vec2(*query),
        radius,
        cap=cap,
        exclude_id=None if exclude is None else f"e{exclude}",
    )


@settings(max_examples=100, deadline=None)
@given(
    entities=st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=-100, max_value=100),
        ),
        max_size=40,
    ),
    qx=st.floats(min_value=-100, max_value=100),
    qy=st.floats(min_value=-100, max_value=100),
    radius=st.floats(min_value=0.1, max_value=150.0),
    cell=st.floats(min_value=1.0, max_value=50.0),
    cap=st.integers(min_value=1, max_value=50),
    exclude=st.one_of(st.none(), st.integers(min_value=0, max_value=39)),
)
def test_property_matches_brute_force(
    entities, qx, qy, radius, cell, cap, exclude
):
    expected = brute_count(entities, (qx, qy), radius, cap, exclude)
    assert grid_count(cell, entities, (qx, qy), radius, cap, exclude) == expected


#: Offsets, in units of ``radius / 5``, that land exactly on the rim of
#: the query disc (3-4-5 triangles and the axis points).
RIM = [
    (dx * sx, dy * sy)
    for dx, dy in ((5, 0), (0, 5), (3, 4), (4, 3))
    for sx in (1, -1)
    for sy in (1, -1)
]


@settings(max_examples=150, deadline=None)
@given(
    unit=st.integers(min_value=1, max_value=4),
    query=st.tuples(
        st.integers(min_value=-15, max_value=15),
        st.integers(min_value=-15, max_value=15),
    ),
    others=st.lists(
        st.tuples(
            st.integers(min_value=-20, max_value=20),
            st.integers(min_value=-20, max_value=20),
        ),
        max_size=30,
    ),
    cap=st.integers(min_value=1, max_value=60),
    exclude=st.one_of(st.none(), st.integers(min_value=0, max_value=15)),
)
def test_radius_equal_to_cell_counts_edges_and_rim(
    unit, query, others, cap, exclude
):
    """The hot configuration: the grid's cell is the visibility radius.

    Coordinates are integer multiples of ``radius / 5`` (an integer), so
    the arithmetic is exact: queries and entities sit on cell edges
    (every fifth step) and on the disc's rim, where a scan one ring too
    narrow would miss them.
    """
    radius = 5.0 * unit
    qx, qy = query[0] * unit, query[1] * unit
    entities = [(qx + dx * unit, qy + dy * unit) for dx, dy in RIM]
    entities += [(x * unit, y * unit) for x, y in others]
    expected = brute_count(entities, (qx, qy), radius, cap, exclude)
    got = grid_count(radius, entities, (qx, qy), radius, cap, exclude)
    assert got == expected
