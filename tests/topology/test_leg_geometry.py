"""The vectorized leg-geometry kernel against the scalar oracle.

``LegCoverageTable``, ``passby_tensor`` / ``Topology.passby`` and
``support_passby_entries`` all come from one kernel
(:func:`repro.topology.timing.leg_chords`).  Its values must equal the
scalar per-(leg, PoI) ``chord_through_disc`` loops in
``scalar_oracle.py`` bit for bit, including tangent and near-tangent
PoIs and collinear lattice legs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.coverage import chord_through_disc
from repro.geometry.points import Point
from repro.geometry.segments import Segment
from repro.topology import (
    paper_topology,
    random_topology,
    scalable_topology,
)
from repro.topology.model import LegCoverageTable
from repro.topology.timing import leg_chords, passby_tensor

from tests.topology.scalar_oracle import (
    ScalarLegCoverageTable,
    scalar_passby_tensor,
)

SLOTS = ("counts", "offsets", "poi", "t_in", "t_out")


def assert_table_matches_oracle(positions, radius):
    table = LegCoverageTable(positions, radius)
    oracle = ScalarLegCoverageTable(positions, radius)
    assert table.size == oracle.size
    for slot in SLOTS:
        ours, theirs = getattr(table, slot), getattr(oracle, slot)
        assert ours.dtype == theirs.dtype, slot
        assert np.array_equal(ours, theirs), slot


def assert_tensor_matches_oracle(positions, radius, speed, pauses):
    ours = passby_tensor(positions, radius, speed, pauses)
    assert np.array_equal(
        ours, scalar_passby_tensor(positions, radius, speed, pauses)
    )


TOPOLOGIES = [
    *[(f"paper-{n}", lambda n=n: paper_topology(n)) for n in (1, 2, 3, 4)],
    *[
        (f"{family}-{size}",
         lambda family=family, size=size: scalable_topology(
             family, size, seed=7))
        for family in ("city-grid", "ring-of-grids")
        for size in (32, 64)
    ],
    *[
        (f"random-20-seed{seed}",
         lambda seed=seed: random_topology(20, seed=seed))
        for seed in range(5)
    ],
]


@pytest.mark.parametrize(
    "build", [build for _, build in TOPOLOGIES],
    ids=[name for name, _ in TOPOLOGIES],
)
def test_topology_geometry_matches_scalar_oracle(build):
    topology = build()
    positions = topology.positions
    radius = topology.sensing_radius
    oracle_tensor = scalar_passby_tensor(
        positions, radius, topology.speed, topology.pause_times
    )
    assert_table_matches_oracle(positions, radius)
    # Through the model: passby scatters the (now warm) chord table.
    topology.chord_table()
    assert np.array_equal(topology.passby, oracle_tensor)
    assert np.array_equal(
        passby_tensor(
            positions, radius, topology.speed, topology.pause_times
        ),
        oracle_tensor,
    )


# Integer direction vectors with integer norms: a PoI offset from a leg
# point by ``q`` times the rotated direction sits exactly ``q * norm``
# from the leg's line.
DIRECTIONS = [(1, 0), (0, 1), (3, 4), (4, -3), (5, 12), (-8, 15)]


@st.composite
def tangent_layouts(draw):
    """A lattice leg, PoIs exactly at distance ``r`` from it (tangent),
    and ``r`` nudged by an ulp either way (just inside / just outside),
    plus extra lattice and free points that make collinear legs."""
    a, b = draw(st.sampled_from(DIRECTIONS))
    norm = math.hypot(a, b)
    scale = draw(st.integers(1, 3))
    steps = draw(st.integers(1, 4))
    q = draw(st.integers(1, 2))
    x0, y0 = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    start = (x0, y0)
    end = (x0 + a * scale * steps, y0 + b * scale * steps)
    on_leg = draw(st.integers(0, steps))
    foot = (x0 + a * scale * on_leg, y0 + b * scale * on_leg)
    side = draw(st.sampled_from([1, -1]))
    tangent = (foot[0] - side * b * q, foot[1] + side * a * q)
    radius = norm * q
    radius = {
        -1: math.nextafter(radius, 0.0),
        0: radius,
        1: math.nextafter(radius, math.inf),
    }[draw(st.sampled_from([-1, 0, 1]))]
    lattice = draw(st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=5,
    ))
    free = draw(st.lists(
        st.tuples(
            st.floats(-40, 40, allow_nan=False, width=64),
            st.floats(-40, 40, allow_nan=False, width=64),
        ),
        max_size=3,
    ))
    points = [start, end, tangent, *lattice, *free]
    order = draw(st.permutations(range(len(points))))
    positions = [
        Point(float(points[n][0]), float(points[n][1])) for n in order
    ]
    return positions, radius


@settings(max_examples=150, deadline=None)
@given(tangent_layouts())
def test_tangent_and_lattice_layouts_match_scalar_oracle(layout):
    positions, radius = layout
    assert_table_matches_oracle(positions, radius)
    pauses = np.arange(1.0, len(positions) + 1.0)
    assert_tensor_matches_oracle(positions, radius, 3.0, pauses)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-100, 100, allow_nan=False, width=64),
            st.floats(-100, 100, allow_nan=False, width=64),
        ),
        min_size=2, max_size=8,
    ),
    st.floats(0.0, 80.0, allow_nan=False),
)
def test_random_positions_match_scalar_oracle(coords, radius):
    positions = [Point(x, y) for x, y in coords]
    assert_table_matches_oracle(positions, radius)
    pauses = np.full(len(positions), 2.5)
    assert_tensor_matches_oracle(positions, radius, 7.0, pauses)


def test_tangent_poi_has_no_chord_and_inside_poi_has_one():
    """PoI 2 sits exactly ``r = 1`` above the leg 0 -> 1: a tangent."""
    coords = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 1.0]])
    _, _, poi, _, _ = leg_chords(coords, 0, [1], 1.0)
    assert poi.tolist() == [0, 1]
    _, _, poi, t_in, t_out = leg_chords(
        coords, 0, [1], math.nextafter(1.0, 2.0)
    )
    assert poi.tolist() == [0, 1, 2]
    assert 0.0 < t_out[2] - t_in[2] < 1e-6
    positions = [Point(x, y) for x, y in coords]
    for radius in (1.0, math.nextafter(1.0, 2.0)):
        assert_table_matches_oracle(positions, radius)


@pytest.mark.parametrize("seed", range(4))
def test_pois_on_endpoint_circle_match_scalar_oracle(seed):
    """PoIs on the radius-``r`` circle around a leg's end point: the
    segment-distance rejection is decided within an ulp of ``r``, where
    ``numpy.hypot`` and ``math.hypot`` can round apart."""
    rng = np.random.default_rng(seed)
    end = rng.uniform(-50.0, 50.0, 2)
    radius = float(rng.uniform(1.0, 10.0))
    theta = rng.uniform(0.0, 2.0 * np.pi, 20000)
    ring = end + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    coords = np.vstack([[0.0, 0.0], end, ring])
    _, _, poi, t_in, t_out = leg_chords(coords, 0, [1], radius)
    segment = Segment(Point(0.0, 0.0), Point(*end.tolist()))
    expected = [
        (n, chord)
        for n, (x, y) in enumerate(coords.tolist())
        for chord in [chord_through_disc(segment, Point(x, y), radius)]
        if chord is not None
    ]
    assert poi.tolist() == [n for n, _ in expected]
    assert t_in.tolist() == [chord[0] for _, chord in expected]
    assert t_out.tolist() == [chord[1] for _, chord in expected]


def test_zero_length_legs_match_scalar_oracle():
    """Coincident PoIs make zero-length legs, which lie whole inside
    every disc that contains their point."""
    positions = [
        Point(0.0, 0.0), Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1e-13),
    ]
    for radius in (0.5, 2.0):
        assert_table_matches_oracle(positions, radius)
        assert_tensor_matches_oracle(positions, radius, 2.0, np.ones(4))


def test_kernel_rejects_negative_radius():
    with pytest.raises(ValueError, match="radius"):
        LegCoverageTable([Point(0, 0), Point(10, 0)], -1.0)


@pytest.mark.parametrize("family", ["city-grid", "ring-of-grids"])
@pytest.mark.parametrize("size", [32, 64])
def test_sparse_entries_equal_dense_tensor(family, size):
    """``passby_entries`` is the dense tensor restricted to the support,
    value for value and index for index."""
    topology = scalable_topology(family, size, seed=3)
    j, k, i, values = topology.passby_entries()
    dense = topology.passby
    assert np.array_equal(values, dense[j, k, i])
    listed = np.zeros(dense.shape, dtype=bool)
    listed[j, k, i] = True
    assert listed.sum() == values.size  # no entry listed twice
    support = topology.adjacency[:, :, None]
    assert np.array_equal(listed, support & (dense != 0.0))
