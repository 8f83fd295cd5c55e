"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes the run's seed and returns the same inputs for the
same seed. The event data comes from the program's own scene simulator
(``evsnn.tasks`` / ``evsnn.events``). The training workloads take the
program's task generators exactly as they are; the two workloads that
read recordings (``detect-stream``, ``gen1-prep``) add uniform background
events at a stated per-pixel rate on top.
"""

from __future__ import annotations

import io

import numpy as np

from evsnn import events, tasks
from evsnn.events import EventStream, SceneObject, SyntheticSceneSpec

WINDOW_US = 100_000
# Background activity of the recordings, in events per pixel per second.
# No measured rate for the GEN1 sensor was at hand, so the value is chosen,
# not derived: at 1.25 Hz a 64x64 100 ms window gets 512 noise events
# (the squares alone give about 280) and a 1 s 304x240 recording 91,200
# (the objects alone give 28k to 47k on seeds 1-10). perfbench/README.md records how
# detections per window and step time move with it.
NOISE_HZ_PER_PIXEL = 1.25

# GEN1-like recording for the dataset-preparation workload
GEN1_SIZE = (304, 240)  # sensor width, height
GEN1_DURATION_US = 1_000_000
GEN1_CARS, GEN1_PEDESTRIANS = 22, 10  # cars outnumber pedestrians, so rebalancing has work to do
GEN1_ANNOTATION_US = 100_000


def _rng(seed, stream_tag):
    return np.random.default_rng([seed, stream_tag])


def add_noise(stream: EventStream, duration_us: int, rng) -> EventStream:
    """Merge uniform background events over [0, duration_us) into ``stream``,
    ``NOISE_HZ_PER_PIXEL`` per pixel per second."""
    count = round(NOISE_HZ_PER_PIXEL * stream.width * stream.height * duration_us / 1e6)
    ts = np.concatenate([stream.ts, rng.integers(0, duration_us, count)])
    xs = np.concatenate([stream.xs, rng.integers(0, stream.width, count)])
    ys = np.concatenate([stream.ys, rng.integers(0, stream.height, count)])
    ps = np.concatenate([stream.ps, rng.integers(0, 2, count)])
    order = np.argsort(ts, kind="stable")
    return EventStream(ts[order], xs[order], ys[order], ps[order], stream.width, stream.height)


def stitched_recording(windows: int, seed: int):
    """One long 64x64 recording made of ``windows`` consecutive 100 ms
    moving-squares scenes with background noise. Returns (stream, boxes
    per window)."""
    rng = _rng(seed, 1)
    scenes = tasks.make_moving_squares_dataset(windows, seed=seed)
    parts = [add_noise(s, WINDOW_US, rng) for s, _ in scenes]
    stream = EventStream(
        np.concatenate([p.ts + k * WINDOW_US for k, p in enumerate(parts)]),
        np.concatenate([p.xs for p in parts]),
        np.concatenate([p.ys for p in parts]),
        np.concatenate([p.ps for p in parts]),
        parts[0].width, parts[0].height,
    )
    return stream, [boxes for _, boxes in scenes]


def gen1_recording(seed: int):
    """A GEN1-format recording: rectangles standing in for cars (class 0,
    wide) and pedestrians (class 1, tall) drifting across a 304x240 sensor,
    annotated every 100 ms, with background noise.

    Returns (stream, boxes) with boxes as ``BoxAnnotation``s.
    """
    rng = _rng(seed, 3)
    width, height = GEN1_SIZE
    objects = []
    for car in rng.permutation([True] * GEN1_CARS + [False] * GEN1_PEDESTRIANS):
        w, h = (int(rng.integers(40, 73)), int(rng.integers(20, 37))) if car else (int(rng.integers(12, 21)), int(rng.integers(28, 49)))
        speed = float(rng.uniform(30.0, 50.0))
        angle = float(rng.uniform(0, 2 * np.pi))
        margin = int(np.ceil(speed * GEN1_DURATION_US / 1e6)) + 1
        x0 = int(rng.integers(margin, width - w - margin))
        y0 = int(rng.integers(margin, height - h - margin))
        objects.append(SceneObject(w=w, h=h, x0=x0, y0=y0, vx=speed * np.cos(angle), vy=speed * np.sin(angle),
                                   class_id=0 if car else 1))
    spec = SyntheticSceneSpec(
        width=width, height=height, duration_us=GEN1_DURATION_US, objects=tuple(objects),
        annotation_period_us=GEN1_ANNOTATION_US, drop_probability=0.05, seed=int(rng.integers(2**31)),
    )
    stream, boxes = events.generate_synthetic_scene(spec)
    return add_noise(stream, GEN1_DURATION_US, rng), boxes


BOX_DTYPE = np.dtype([
    ("t", "<i8"), ("x", "<f4"), ("y", "<f4"), ("w", "<f4"), ("h", "<f4"),
    ("class_id", "<u4"), ("track_id", "<u4"), ("class_confidence", "<f4"),
])


def write_npy_boxes(boxes) -> bytes:
    """Boxes as a structured-array ``.npy`` file, the GEN1 annotation layout."""
    arr = np.zeros(len(boxes), dtype=BOX_DTYPE)
    for i, b in enumerate(boxes):
        arr[i] = (b.t, b.x, b.y, b.w, b.h, b.class_id, b.track_id, b.confidence)
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=False)
    return buf.getvalue()
