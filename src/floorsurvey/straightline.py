"""Straight-line step detection from raw heading deltas.

A step is a straight candidate when its raw heading change stays under a
turn threshold; candidates are only flagged when they form a long enough
consecutive run, which keeps short accidental alignments out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sensors import StepEvent


@dataclass
class StraightLineParams:
    turn_threshold: float = math.radians(5.0)  # strict |dtheta| bound, radians
    min_run: int = 10                          # steps; shorter runs are ignored


def detect_straight_steps(steps: list[StepEvent], params: StraightLineParams | None = None) -> np.ndarray:
    """Boolean flag per step: True for steps inside straight runs.

    Candidates satisfy |dtheta| < turn_threshold (strict); maximal
    candidate runs shorter than min_run are dropped entirely.
    """
    p = params or StraightLineParams()
    if p.min_run < 1:
        raise ValueError(f"min_run must be >= 1, got {p.min_run}")
    cand = np.array([abs(s.dtheta) < p.turn_threshold for s in steps], dtype=bool)
    # the mask's edges cut it into runs that alternate non-candidate,
    # candidate, ..., non-candidate (the first and last may be empty)
    edges = np.flatnonzero(np.diff(cand, prepend=False, append=False))
    lengths = np.diff(np.concatenate(([0], edges, [len(cand)])))
    long_candidates = (np.arange(len(lengths)) % 2 == 1) & (lengths >= p.min_run)
    return np.repeat(long_candidates, lengths)
