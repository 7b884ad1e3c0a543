"""Construction of the timing matrices ``T_jk`` and ``T_{jk,i}``.

These implement the notation of Section III-A:

* ``T_jk`` — travel time from PoI ``j`` to PoI ``k`` along the straight-line
  path, plus the pause time ``P_k`` at the destination.  ``T_jj = P_j``.
* ``T_{jk,i}`` — time during the ``j -> k`` transition in which PoI ``i`` is
  covered, with the paper's conventions ``T_{jk,j} = 0`` (leaving the origin
  contributes nothing to its own coverage on that transition) and
  ``T_{jk,k} = P_k`` (the destination is credited with its pause time).
  Intermediate PoIs on the path are credited with the chord time their
  sensing disc intersects the path, divided by the travel speed.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.points import as_point


def travel_distance_matrix(positions) -> np.ndarray:
    """Pairwise Euclidean distances between PoI positions."""
    coords = np.asarray([p.as_tuple() for p in positions], dtype=float)
    deltas = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((deltas**2).sum(axis=-1))


def travel_time_matrix(
    positions, speed: float, pause_times: np.ndarray
) -> np.ndarray:
    """Build ``T_jk = d_jk / speed + P_k`` (so ``T_jj = P_j``)."""
    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    distances = travel_distance_matrix(positions)
    return distances / speed + np.asarray(pause_times, dtype=float)[None, :]


def _coords(positions) -> np.ndarray:
    """PoI positions as an ``M x 2`` float array."""
    return np.asarray(
        [as_point(p).as_tuple() for p in positions], dtype=float
    ).reshape(-1, 2)


def _leg_lengths(start, ends) -> np.ndarray:
    """``Segment.length()`` of each leg ``start -> end``.

    One :func:`math.hypot` per leg, exactly as the scalar geometry takes
    it (``numpy.hypot`` may round differently in the last ulp).
    """
    sx, sy = start
    return np.array(
        [math.hypot(sx - ex, sy - ey) for ex, ey in ends], dtype=float
    )


def leg_chords(coords: np.ndarray, origin: int, destinations, radius: float):
    """Disc chords of the legs ``origin -> d`` for every ``d`` in
    ``destinations``: the one leg-geometry kernel.

    Returns ``(lengths, leg, poi, t_in, t_out)``: ``lengths[n]`` is the
    length of leg ``origin -> destinations[n]``, and each chord is the
    parameter interval ``(t_in, t_out)`` of leg ``leg`` (an index into
    ``destinations``) inside the sensing disc of PoI ``poi``, ordered by
    leg and, within a leg, by ascending PoI index.

    The values are bit-identical to calling
    :func:`~repro.geometry.coverage.chord_through_disc` per (leg, PoI):
    the same expressions in the same order and association, elementwise
    over a ``len(destinations) x M`` block (one origin row, so the
    temporaries are ``O(M^2)``), with the same ``> r`` rejections and
    ``t_out > t_in`` hit test.  The clamped segment distance is only
    ever compared with ``r``, so it is taken with ``numpy.hypot`` and
    the few values within a few ulps of ``r`` are re-decided with
    :func:`math.hypot`, the scalar code's rounding.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    destinations = np.asarray(destinations, dtype=np.intp)
    points = coords.tolist()
    sx, sy = points[origin]
    lengths = _leg_lengths(points[origin], coords[destinations].tolist())
    px = coords[:, 0]
    py = coords[:, 1]
    # direction = end - start, one row per leg; p - start, one column
    # per PoI.
    dx = (coords[destinations, 0] - sx)[:, None]
    dy = (coords[destinations, 1] - sy)[:, None]
    ox = px - sx
    oy = py - sy
    span = lengths[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        # unclamped_projection, then project_onto_segment's clamp and
        # point_segment_distance's closest point.
        t_line = (ox * dx + oy * dy) / (dx * dx + dy * dy)
        t_seg = np.where(t_line > 0.0, t_line, 0.0)
        t_seg = np.where(t_seg < 1.0, t_seg, 1.0)
        gap_x = px - (sx + dx * t_seg)
        gap_y = py - (sy + dy * t_seg)
        seg_dist = np.hypot(gap_x, gap_y)
        # line_point_distance and the Pythagoras half-chord.
        line_dist = np.abs(dx * oy - dy * ox) / span
        room = radius * radius - line_dist * line_dist
        half = np.sqrt(np.where(0.0 > room, 0.0, room)) / span
        # max(0, .) and min(1, .) with Python's tie and signed-zero
        # rules.
        t_in = t_line - half
        t_in = np.where(t_in > 0.0, t_in, 0.0)
        t_out = t_line + half
        t_out = np.where(t_out < 1.0, t_out, 1.0)
    seg_outside = seg_dist > radius
    near = np.abs(seg_dist - radius) <= 4.0 * np.spacing(radius)
    if near.any():
        seg_outside[near] = [
            math.hypot(gx, gy) > radius
            for gx, gy in zip(gap_x[near].tolist(), gap_y[near].tolist())
        ]
    hit = ~seg_outside & ~(line_dist > radius) & ~(t_out <= t_in)
    degenerate = np.nonzero(lengths <= 1e-12)[0]
    if degenerate.size:
        # A zero-length leg covers the discs containing its point, whole.
        inside = ~(_leg_lengths(points[origin], points) > radius)
        hit[degenerate] = inside
        t_in[degenerate] = 0.0
        t_out[degenerate] = 1.0
    leg, poi = np.nonzero(hit)
    return lengths, leg, poi, t_in[hit], t_out[hit]


def leg_chord_table(positions, radius: float):
    """Chords of all ``M^2`` ordered legs in CSR layout.

    Returns ``(counts, poi, t_in, t_out)`` as
    :class:`~repro.topology.model.LegCoverageTable` stores them:
    ``counts[origin * M + destination]`` chords per leg (none on the
    diagonal), the flat chord arrays ordered by leg, then PoI.  One
    :func:`leg_chords` call per origin row.
    """
    coords = _coords(positions)
    size = coords.shape[0]
    counts = np.zeros(size * size, dtype=np.int64)
    parts = []
    for origin in range(size):
        destinations = np.delete(np.arange(size), origin)
        _, leg, poi, t_in, t_out = leg_chords(
            coords, origin, destinations, radius
        )
        counts[origin * size + destinations] = np.bincount(
            leg, minlength=destinations.size
        )
        parts.append((poi, t_in, t_out))
    poi, t_in, t_out = (
        np.concatenate([part[n] for part in parts] or [np.zeros(0)])
        for n in range(3)
    )
    return counts, poi.astype(np.int64), t_in, t_out


def chord_passby_tensor(
    positions,
    speed: float,
    pause_times: np.ndarray,
    counts: np.ndarray,
    poi: np.ndarray,
    t_in: np.ndarray,
    t_out: np.ndarray,
) -> np.ndarray:
    """Scatter a chord table into the dense tensor ``T[j, k, i]``.

    Intermediate PoIs get ``(t_out - t_in) * (length / speed)``; the
    conventions ``T_jj,j = P_j``, ``T_jk,j = 0`` and ``T_jk,k = P_k``
    override the endpoint chords.  No geometry is repeated, so a warm
    chord table makes the tensor a single scatter.
    """
    points = _coords(positions).tolist()
    size = len(points)
    travel = np.array(
        [_leg_lengths(start, points) for start in points]
    ).reshape(size, size) / speed
    origin, destination = np.divmod(
        np.repeat(np.arange(size * size), counts), size
    )
    inner = (poi != origin) & (poi != destination)
    origin = origin[inner]
    destination = destination[inner]
    tensor = np.zeros((size, size, size))
    tensor[origin, destination, poi[inner]] = (
        (t_out - t_in)[inner] * travel[origin, destination]
    )
    indices = np.arange(size)
    tensor[:, indices, indices] = pause_times[None, :]
    return tensor


def passby_tensor(
    positions,
    sensing_radius: float,
    speed: float,
    pause_times: np.ndarray,
) -> np.ndarray:
    """Build the coverage tensor ``T[j, k, i] = T_{jk,i}``.

    The tensor is dense, ``M^3`` floats: the chord table of all legs
    (:func:`leg_chord_table`) scattered by :func:`chord_passby_tensor`.
    Entries are bit-identical to the scalar per-(leg, PoI)
    :func:`~repro.geometry.coverage.coverage_fraction` times the leg's
    travel time.
    """
    if sensing_radius < 0:
        raise ValueError(f"sensing_radius must be >= 0, got {sensing_radius}")
    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    return chord_passby_tensor(
        positions, speed, np.asarray(pause_times, dtype=float),
        *leg_chord_table(positions, sensing_radius),
    )


def support_passby_entries(
    positions,
    sensing_radius: float,
    speed: float,
    pause_times: np.ndarray,
    adjacency: np.ndarray,
):
    """Nonzero pass-by entries ``(j, k, i, T_{jk,i})`` on supported legs.

    The sparse-topology counterpart of :func:`passby_tensor`: instead of
    the dense ``O(M^3)`` tensor (8+ GB at ``M = 1024``) it returns four
    flat arrays listing only the nonzero entries of legs allowed by the
    boolean ``adjacency`` mask, with the same conventions —
    ``T_{jj,j} = P_j``, ``T_{jk,j} = 0``, ``T_{jk,k} = P_k``, and chord
    time for intermediate PoIs.  Entries come first for the supported
    diagonal, then leg by leg in row-major order: the leg's
    intermediate PoIs ascending, then its destination.  The chords come
    from :func:`leg_chords` over the supported legs only, so every value
    equals the dense tensor's bit for bit.
    """
    if sensing_radius < 0:
        raise ValueError(f"sensing_radius must be >= 0, got {sensing_radius}")
    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    pause_times = np.asarray(pause_times, dtype=float)
    coords = _coords(positions)
    count = coords.shape[0]
    adjacency = np.asarray(adjacency, dtype=bool)
    if adjacency.shape != (count, count):
        raise ValueError(
            f"adjacency must have shape {(count, count)}, "
            f"got {adjacency.shape}"
        )
    # Self-loops: the sensor pauses at j, covering only j.
    diagonal = np.nonzero(np.diag(adjacency))[0]
    parts = [(diagonal, diagonal, diagonal, pause_times[diagonal])]
    legs = adjacency & ~np.eye(count, dtype=bool)
    for j in range(count):
        destinations = np.nonzero(legs[j])[0]
        lengths, leg, poi, t_in, t_out = leg_chords(
            coords, j, destinations, sensing_radius
        )
        inner = (poi != j) & (poi != destinations[leg])
        leg = leg[inner]
        values = (t_out - t_in)[inner] * (lengths / speed)[leg]
        # Each leg's destination pause goes after its intermediate PoIs.
        ends = np.cumsum(np.bincount(leg, minlength=destinations.size))
        k_row = np.insert(destinations[leg], ends, destinations)
        parts.append((
            np.full(k_row.size, j),
            k_row,
            np.insert(poi[inner], ends, destinations),
            np.insert(values, ends, pause_times[destinations]),
        ))
    return tuple(
        np.concatenate([part[n] for part in parts]).astype(dtype)
        for n, dtype in enumerate((np.intp, np.intp, np.intp, float))
    )


def check_disjoint_pois(positions, sensing_radius: float) -> None:
    """Raise if two PoIs could be covered simultaneously.

    Section III requires the PoIs to be *disjoint*: no sensor position may
    cover two PoIs at once, which holds iff all pairwise distances exceed
    ``2 * sensing_radius``.
    """
    distances = travel_distance_matrix(positions)
    close = np.triu(distances <= 2.0 * sensing_radius, k=1)
    if close.any():
        j, k = np.argwhere(close)[0]
        raise ValueError(
            f"PoIs {j} and {k} are {distances[j, k]:.3g} m apart, "
            f"within twice the sensing radius "
            f"{sensing_radius:.3g} m; the paper requires disjoint "
            "PoIs (no position covers two at once)"
        )
