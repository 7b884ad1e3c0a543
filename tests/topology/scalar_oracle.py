"""Scalar reference for the leg-geometry kernel.

These are the original per-(leg, PoI) triple loops over
:func:`~repro.geometry.coverage.chord_through_disc`, kept verbatim as the
oracle the vectorized :func:`repro.topology.timing.leg_chords` kernel
must reproduce bit for bit (``test_leg_geometry.py``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.geometry.coverage import chord_through_disc, coverage_fraction
from repro.geometry.segments import Segment


def scalar_passby_tensor(
    positions,
    sensing_radius: float,
    speed: float,
    pause_times: np.ndarray,
) -> np.ndarray:
    """The dense tensor ``T[j, k, i] = T_{jk,i}``, one scalar chord at a
    time."""
    if sensing_radius < 0:
        raise ValueError(f"sensing_radius must be >= 0, got {sensing_radius}")
    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    pause_times = np.asarray(pause_times, dtype=float)
    count = len(positions)
    tensor = np.zeros((count, count, count))
    for j in range(count):
        for k in range(count):
            if j == k:
                # Self-loop: the sensor stays at j and pauses there.
                tensor[j, j, j] = pause_times[j]
                continue
            segment = Segment(positions[j], positions[k])
            travel_time = segment.length() / speed
            for i in range(count):
                if i == j:
                    # Paper convention: T_{jk,j} = 0 for k != j.
                    continue
                if i == k:
                    # Paper convention: the destination is credited with its
                    # pause time only.
                    tensor[j, k, k] = pause_times[k]
                    continue
                fraction = coverage_fraction(
                    segment, positions[i], sensing_radius
                )
                if fraction > 0.0:
                    tensor[j, k, i] = fraction * travel_time
    return tensor


class ScalarLegCoverageTable:
    """The CSR chord table of every ordered leg, one scalar chord at a
    time (same slots as :class:`~repro.topology.model.LegCoverageTable`).
    """

    def __init__(self, positions, radius: float) -> None:
        size = len(positions)
        counts = np.zeros(size * size, dtype=np.int64)
        poi_ids: List[int] = []
        t_ins: List[float] = []
        t_outs: List[float] = []
        for origin in range(size):
            for destination in range(size):
                if origin == destination:
                    continue
                segment = Segment(positions[origin], positions[destination])
                leg = origin * size + destination
                for poi in range(size):
                    chord = chord_through_disc(
                        segment, positions[poi], radius
                    )
                    if chord is not None:
                        counts[leg] += 1
                        poi_ids.append(poi)
                        t_ins.append(chord[0])
                        t_outs.append(chord[1])
        self.size = size
        self.counts = counts
        self.offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        self.poi = np.asarray(poi_ids, dtype=np.int64)
        self.t_in = np.asarray(t_ins, dtype=float)
        self.t_out = np.asarray(t_outs, dtype=float)
