"""Independent output checks.

The reference crop selects a box's events from the whole recording, and
the reference encoder walks the events one at a time in plain Python and
maps each straight to the cells of the resized cube, so they share no code
path with the program's crop and flip or with ``encode_voxel_cube`` +
``resize_nearest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def reference_resized_cube(stream, duration_us, timesteps, micro_bins, out_h, out_w):
    """Binary (2n, T, out_h, out_w) cube of ``stream`` (sensor stream.width x
    stream.height) encoded over ``duration_us`` and nearest-resized.

    Output row i samples source row floor((2i + 1) * h / (2 * out_h)), the
    exact integer form of the documented resize rule.
    """
    h, w = stream.height, stream.width
    dt = duration_us // timesteps
    bin_us = dt // micro_bins
    rows = [[] for _ in range(h)]
    for i in range(out_h):
        rows[min((2 * i + 1) * h // (2 * out_h), h - 1)].append(i)
    cols = [[] for _ in range(w)]
    for j in range(out_w):
        cols[min((2 * j + 1) * w // (2 * out_w), w - 1)].append(j)
    cube = np.zeros((2 * micro_bins, timesteps, out_h, out_w), dtype=np.uint8)
    seen = set()
    for t, x, y, p in zip(stream.ts.tolist(), stream.xs.tolist(), stream.ys.tolist(), stream.ps.tolist()):
        k = t // dt
        c = p * micro_bins + (t - k * dt) // bin_us
        key = (c, k, y, x)
        if key in seen:
            continue
        seen.add(key)
        for i in rows[y]:
            for j in cols[x]:
                cube[c, k, i, j] = 1
    return cube


@dataclass
class Crop:
    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    ps: np.ndarray
    width: int
    height: int
    duration: int


def window_crop(stream, box, window_us, mirror=False):
    """The crop the dataset builder should make for ``box``: the recording's
    events of the ``window_us`` before box.t that lie inside the box, in the
    window's time and the box's coordinates, with x mirrored when ``mirror``
    is set."""
    t0 = max(0, box.t - window_us)
    x0, y0 = max(int(math.floor(box.x)), 0), max(int(math.floor(box.y)), 0)
    w = min(int(math.ceil(box.w)), stream.width - x0)
    h = min(int(math.ceil(box.h)), stream.height - y0)
    lo, hi = np.searchsorted(stream.ts, [t0, box.t], side="left")
    xs, ys = stream.xs[lo:hi], stream.ys[lo:hi]
    keep = (xs >= x0) & (xs < x0 + w) & (ys >= y0) & (ys < y0 + h)
    xs = xs[keep] - x0
    return Crop(stream.ts[lo:hi][keep] - t0, w - 1 - xs if mirror else xs, ys[keep] - y0, stream.ps[lo:hi][keep],
                w, h, box.t - t0)


def expected_crop_count(boxes):
    """Crops ``build_classification_dataset(rebalance=True)`` must return
    for two classes: both classes brought to ceil((majority + minority) / 2)."""
    counts = {}
    for b in boxes:
        counts[b.class_id] = counts.get(b.class_id, 0) + 1
    if len(counts) < 2:
        return len(boxes)
    big, small = max(counts.values()), min(counts.values())
    target = (big + small + 1) // 2
    return 2 * target + sum(counts.values()) - big - small


def detection_ok(det, width, height, score_threshold, eps=1e-6):
    """A detection lies inside the frame and scores in [threshold, 1]."""
    x, y, w, h = det.box
    return (
        score_threshold <= det.score <= 1.0
        and x >= -eps and y >= -eps and w >= 0 and h >= 0
        and x + w <= width + eps and y + h <= height + eps
    )
