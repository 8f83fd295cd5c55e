"""Event streams, annotations, file formats and dataset construction.

Streams are stored as structure-of-arrays (t, x, y, p as numpy vectors)
with sensor geometry attached. All operations are pure.

Supported formats:
  .dat   Prophesee GEN1-style binary (see parse_dat for the bit layout)
  .evt1  canonical ASCII, read only: "EVT1 <w> <h> <count>" header then
         "t x y p" lines
  .evt1b canonical packed binary: same header line, then little-endian
         records of u64 t, u16 x, u16 y, u8 p
  .npy   structured array of box annotations (header read with numpy's
         format module; the body length is checked against the header)
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class BoxAnnotation:
    t: int
    x: float
    y: float
    w: float
    h: float
    class_id: int
    track_id: int = 0
    confidence: float = 1.0


class EventStream:
    """Time-sorted event sequence with sensor geometry."""

    def __init__(self, ts, xs, ys, ps, width, height, check=True):
        self.ts = np.asarray(ts, dtype=np.int64)
        self.xs = np.asarray(xs, dtype=np.int32)
        self.ys = np.asarray(ys, dtype=np.int32)
        self.ps = np.asarray(ps, dtype=np.int8)
        self.width = int(width)
        self.height = int(height)
        if check:
            self._validate()

    def _validate(self):
        n = self.ts.size
        if not (self.xs.size == self.ys.size == self.ps.size == n):
            raise ValueError("t/x/y/p length mismatch")
        if n == 0:
            return
        if np.any(np.diff(self.ts) < 0):
            raise ValueError("events not sorted by timestamp")
        if self.ts[0] < 0:
            raise ValueError("negative timestamp")
        if np.any((self.xs < 0) | (self.xs >= self.width)) or np.any((self.ys < 0) | (self.ys >= self.height)):
            bad = int(np.flatnonzero((self.xs < 0) | (self.xs >= self.width) | (self.ys < 0) | (self.ys >= self.height))[0])
            raise ValueError(
                f"event {bad} at ({self.xs[bad]}, {self.ys[bad]}) outside sensor {self.width}x{self.height}"
            )
        if np.any((self.ps != 0) & (self.ps != 1)):
            raise ValueError("polarity must be 0 or 1")

    @classmethod
    def empty(cls, width, height):
        return cls([], [], [], [], width, height)

    def __len__(self):
        return int(self.ts.size)

    def __eq__(self, other):
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.ts, other.ts)
            and np.array_equal(self.xs, other.xs)
            and np.array_equal(self.ys, other.ys)
            and np.array_equal(self.ps, other.ps)
        )


@dataclass
class ClassificationSample:
    stream: EventStream
    label: int
    duration: int = 100_000  # microseconds
    metadata: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# DAT format
#
# Zero or more '%'-prefixed ASCII header lines, then one event-type byte and
# one event-size byte, then 8-byte records: little-endian u32 timestamp and a
# little-endian u32 word with x in bits 0-13, y in bits 14-27, polarity in
# bit 28 (Prophesee GEN1 2-D event convention). "% Width <w>" and
# "% Height <h>" header lines give the sensor geometry; other header lines
# are kept as they are.
# --------------------------------------------------------------------------

DAT_DEFAULT_SIZE = (304, 240)  # the GEN1 sensor: the geometry of a file without Width and Height lines


def parse_dat(data: bytes):
    pos = 0
    width, height = DAT_DEFAULT_SIZE
    headers = []
    while pos < len(data) and data[pos : pos + 1] == b"%":
        end = data.find(b"\n", pos)
        if end == -1:
            end = len(data)
        line = data[pos:end].decode("latin-1")
        headers.append(line)
        parts = line[1:].strip().split(None, 1)
        if parts:
            key = parts[0].lower()
            if key == "width" and len(parts) > 1:
                width = int(parts[1])
            elif key == "height" and len(parts) > 1:
                height = int(parts[1])
        pos = end + 1
    if pos >= len(data):
        if headers:
            raise ValueError("DAT data ends before the event type/size bytes")
        return EventStream.empty(width, height)
    if len(data) - pos < 2:
        raise ValueError(f"DAT data truncated in type/size bytes at offset {pos}")
    event_size = data[pos + 1]
    pos += 2
    if event_size != 8:
        raise ValueError(f"unsupported DAT event size {event_size} (expected 8)")
    body = data[pos:]
    if len(body) % 8 != 0:
        raise ValueError(f"truncated DAT record at byte offset {pos + len(body) - len(body) % 8}")
    words = np.frombuffer(body, dtype="<u4").reshape(-1, 2)
    ts = words[:, 0].astype(np.int64)
    addr = words[:, 1]
    xs = (addr & 0x3FFF).astype(np.int32)
    ys = ((addr >> 14) & 0x3FFF).astype(np.int32)
    ps = ((addr >> 28) & 0x1).astype(np.int8)
    bad = np.flatnonzero((xs >= width) | (ys >= height))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"DAT record {i}: event at ({xs[i]}, {ys[i]}) outside declared sensor {width}x{height}")
    stream = EventStream(ts, xs, ys, ps, width, height)
    stream.headers = headers
    return stream


def write_dat(stream: EventStream, headers=None) -> bytes:
    """The DAT file of ``stream``; raises ValueError naming the first event
    the format cannot hold: t >= 2**32, or x or y >= 2**14."""
    bad = (stream.ts >= 1 << 32) | (stream.xs >= 1 << 14) | (stream.ys >= 1 << 14)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"event {i} (t={stream.ts[i]}, x={stream.xs[i]}, y={stream.ys[i]}) does not fit the DAT "
                         f"format, which holds t < 2**32 and x, y < 2**14")
    if headers is None:
        headers = getattr(stream, "headers", None)
    if headers is None:
        headers = [f"% Width {stream.width}", f"% Height {stream.height}"]
    out = bytearray()
    for line in headers:
        out += line.encode("latin-1") + b"\n"
    out += bytes([0x00, 0x08])  # event type (2D), event size
    addr = (
        (stream.xs.astype(np.uint32) & 0x3FFF)
        | ((stream.ys.astype(np.uint32) & 0x3FFF) << 14)
        | ((stream.ps.astype(np.uint32) & 0x1) << 28)
    )
    rec = np.empty((len(stream), 2), dtype="<u4")
    rec[:, 0] = stream.ts.astype(np.uint32)
    rec[:, 1] = addr
    out += rec.tobytes()
    return bytes(out)


# --------------------------------------------------------------------------
# NPY structured-array box annotations
# --------------------------------------------------------------------------

_NPY_MAGIC = b"\x93NUMPY"
_REQUIRED_FIELDS = ("t", "x", "y", "w", "h", "class_id")


def parse_npy_boxes(data: bytes, sensor_size=None):
    """Parse an NPY structured array of box annotations.

    Required fields: t, x, y, w, h, class_id. Optional: track_id
    (default 0) and confidence/class_confidence (default 1.0). When
    ``sensor_size`` is given, boxes are clipped to the sensor bounds.
    """
    if data[:6] != _NPY_MAGIC:
        raise ValueError("not an NPY file")
    fmt = np.lib.format
    fp = io.BytesIO(data)
    try:
        version = fmt.read_magic(fp)
        read_header = {(1, 0): fmt.read_array_header_1_0, (2, 0): fmt.read_array_header_2_0}.get(version)
        if read_header is None:
            raise ValueError(f"unsupported NPY version {version[0]}.{version[1]}")
        shape, fortran_order, dtype = read_header(fp)
    except ValueError as exc:
        raise ValueError(f"NPY file is truncated or malformed: {exc}") from exc
    if dtype.hasobject:
        raise ValueError("NPY boxes hold Python objects")
    # The body length is checked before numpy sees it, so a header that
    # declares a huge shape costs no allocation.
    body = data[fp.tell() :]
    expected = math.prod(shape) * dtype.itemsize
    if len(body) != expected:
        raise ValueError(
            f"NPY file is truncated or malformed: body has {len(body)} bytes, expected {expected} for shape {shape}"
        )
    arr = np.frombuffer(body, dtype=dtype).reshape(shape, order="F" if fortran_order else "C").reshape(-1)
    count = len(arr)
    names = arr.dtype.names or ()
    for f in _REQUIRED_FIELDS:
        if f not in names:
            raise ValueError(f"NPY boxes missing required field {f!r}")
    track = arr["track_id"] if "track_id" in names else np.zeros(count, dtype=np.int64)
    if "confidence" in names:
        conf = arr["confidence"]
    elif "class_confidence" in names:
        conf = arr["class_confidence"]
    else:
        conf = np.ones(count)
    boxes = []
    for i in range(count):
        x, y, w, h = float(arr["x"][i]), float(arr["y"][i]), float(arr["w"][i]), float(arr["h"][i])
        if sensor_size is not None:
            sw, sh = sensor_size
            x0, y0 = max(x, 0.0), max(y, 0.0)
            x1, y1 = min(x + w, sw), min(y + h, sh)
            x, y, w, h = x0, y0, x1 - x0, y1 - y0
        if w <= 0 or h <= 0:
            raise ValueError(f"NPY box {i} has non-positive size after clipping: {w}x{h}")
        boxes.append(
            BoxAnnotation(
                t=int(arr["t"][i]),
                x=x,
                y=y,
                w=w,
                h=h,
                class_id=int(arr["class_id"][i]),
                track_id=int(track[i]),
                confidence=float(conf[i]),
            )
        )
    return boxes


# --------------------------------------------------------------------------
# Canonical EVT1 format
# --------------------------------------------------------------------------


def parse_evt1_text(data: bytes) -> EventStream:
    lines = data.decode("ascii").splitlines()
    if not lines or not lines[0].startswith("EVT1 "):
        raise ValueError("not an EVT1 file")
    _, w, h, count = lines[0].split()
    w, h, count = int(w), int(h), int(count)
    rows = [line.split() for line in lines[1 : 1 + count]]
    if len(rows) != count:
        raise ValueError(f"EVT1 header declares {count} events, found {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != 4:
            raise ValueError(f"EVT1 line {i + 2} has {len(row)} fields, expected 4")
    if rows:
        arr = np.array(rows, dtype=np.int64)
        return EventStream(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], w, h)
    return EventStream.empty(w, h)


_EVT1B_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1")])


def write_evt1_binary(stream: EventStream) -> bytes:
    header = f"EVT1 {stream.width} {stream.height} {len(stream)}\n".encode("ascii")
    rec = np.empty(len(stream), dtype=_EVT1B_DTYPE)
    rec["t"] = stream.ts
    rec["x"] = stream.xs
    rec["y"] = stream.ys
    rec["p"] = stream.ps
    return header + rec.tobytes()


def parse_evt1_binary(data: bytes) -> EventStream:
    end = data.find(b"\n")
    if end == -1 or not data[:5] == b"EVT1 ":
        raise ValueError("not an EVT1 binary file")
    _, w, h, count = data[:end].decode("ascii").split()
    w, h, count = int(w), int(h), int(count)
    body = data[end + 1 :]
    if len(body) != count * _EVT1B_DTYPE.itemsize:
        raise ValueError(f"EVT1 binary body has {len(body)} bytes, expected {count * _EVT1B_DTYPE.itemsize}")
    rec = np.frombuffer(body, dtype=_EVT1B_DTYPE)
    return EventStream(rec["t"].astype(np.int64), rec["x"], rec["y"], rec["p"], w, h)


def load_events(path) -> EventStream:
    path = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".dat"):
        return parse_dat(data)
    if path.endswith(".evt1b"):
        return parse_evt1_binary(data)
    if path.endswith(".evt1"):
        return parse_evt1_text(data)
    raise ValueError(f"unrecognized event file extension: {path}")


def save_events(path, stream: EventStream):
    path = str(path)
    if path.endswith(".dat"):
        data = write_dat(stream)
    elif path.endswith(".evt1b"):
        data = write_evt1_binary(stream)
    else:
        raise ValueError(f"unrecognized event file extension: {path}")
    with open(path, "wb") as fh:
        fh.write(data)


# --------------------------------------------------------------------------
# Stream transforms
# --------------------------------------------------------------------------


def slice_time(stream: EventStream, t0: int, t1: int) -> EventStream:
    """Events with t0 <= t < t1, re-based to t - t0."""
    if t0 >= t1:
        raise ValueError(f"empty time window [{t0}, {t1})")
    lo = int(np.searchsorted(stream.ts, t0, side="left"))
    hi = int(np.searchsorted(stream.ts, t1, side="left"))
    return EventStream(
        stream.ts[lo:hi] - t0, stream.xs[lo:hi], stream.ys[lo:hi], stream.ps[lo:hi],
        stream.width, stream.height, check=False,
    )


def crop_spatial(stream: EventStream, x0: int, y0: int, w: int, h: int) -> EventStream:
    """Events inside the rectangle, re-based to the crop origin."""
    if w <= 0 or h <= 0:
        raise ValueError(f"zero-area crop {w}x{h}")
    keep = (stream.xs >= x0) & (stream.xs < x0 + w) & (stream.ys >= y0) & (stream.ys < y0 + h)
    return EventStream(
        stream.ts[keep], stream.xs[keep] - x0, stream.ys[keep] - y0, stream.ps[keep], w, h, check=False
    )


def flip_horizontal(stream: EventStream) -> EventStream:
    return EventStream(
        stream.ts, stream.width - 1 - stream.xs, stream.ys, stream.ps,
        stream.width, stream.height, check=False,
    )


# --------------------------------------------------------------------------
# Synthetic scenes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SceneObject:
    w: int
    h: int
    x0: float
    y0: float
    vx: float = 0.0  # pixels per second
    vy: float = 0.0
    class_id: int = 0


@dataclass(frozen=True)
class SyntheticSceneSpec:
    width: int
    height: int
    duration_us: int
    objects: tuple
    micro_step_us: int = 1000
    annotation_period_us: int = 0  # 0 = single annotation at the end
    drop_probability: float = 0.0  # event-threshold noise: chance an event is missed
    seed: int = 0


def _object_box(spec, obj, t_us):
    x = round(obj.x0 + obj.vx * t_us / 1e6)
    y = round(obj.y0 + obj.vy * t_us / 1e6)
    return BoxAnnotation(t=t_us, x=float(x), y=float(y), w=float(obj.w), h=float(obj.h), class_id=obj.class_id)


def _rounded_positions(starts, speeds, t):
    """(step, object) positions ``x0 + v * t / 1e6``, the float ops of
    ``_object_box``, rounded half to even as ``round`` does."""
    pos = np.array(speeds, dtype=np.float64) * t
    pos /= 1e6
    pos += np.array(starts, dtype=np.float64)
    return np.rint(pos, out=pos)


def _span(lo, size, limit):
    """[lo, lo + size) clipped to [0, limit) as (start, stop); empty when stop <= start."""
    return np.clip(lo, 0, limit), np.clip(lo + size, 0, limit)


def _scene_moves(spec):
    """The objects' rectangles at t = 0, and every (step, object) move in
    step order as [step, the window the object swept, its old and its new
    rectangle], each rectangle as x0, x1, y0, y1 clipped to the sensor."""
    objs, width, height = spec.objects, spec.width, spec.height
    t = np.arange((spec.duration_us - 1) // spec.micro_step_us + 1, dtype=np.int64)[:, None] * spec.micro_step_us
    px = _rounded_positions([o.x0 for o in objs], [o.vx for o in objs], t)
    py = _rounded_positions([o.y0 for o in objs], [o.vy for o in objs], t)
    w, h = np.array([o.w for o in objs], dtype=np.int64), np.array([o.h for o in objs], dtype=np.int64)
    start = np.stack(_span(px[0].astype(np.int64), w, width) + _span(py[0].astype(np.int64), h, height), axis=1)
    k, j = np.nonzero((px[1:] != px[:-1]) | (py[1:] != py[:-1]))
    ox, oy, nx, ny = (a.astype(np.int64) for a in (px[k, j], py[k, j], px[k + 1, j], py[k + 1, j]))
    w, h = w[j], h[j]
    moves = np.stack(
        (k + 1,)
        + _span(np.minimum(ox, nx), np.abs(nx - ox) + w, width) + _span(np.minimum(oy, ny), np.abs(ny - oy) + h, height)
        + _span(ox, w, width) + _span(oy, h, height) + _span(nx, w, width) + _span(ny, h, height),
        axis=1,
    )
    return start.tolist(), moves.tolist()


def _step_changes(cover, moves, width):
    """Apply one step's ``moves`` to ``cover``, the count of rectangles on
    each pixel. Returns the flat indices of the pixels that turned on and
    of those that turned off, each ascending: only the windows the moved
    objects swept are compared."""
    windows = [(x0, x1, y0, y1, cover[y0:y1, x0:x1] > 0) for _, x0, x1, y0, y1, *_ in moves if x1 > x0 and y1 > y0]
    for *_, ox0, ox1, oy0, oy1, nx0, nx1, ny0, ny1 in moves:
        cover[oy0:oy1, ox0:ox1] -= 1
        cover[ny0:ny1, nx0:nx1] += 1
    on, off = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for x0, x1, y0, y1, before in windows:
        change = (cover[y0:y1, x0:x1] > 0).view(np.int8) - before.view(np.int8)
        wy, wx = np.nonzero(change)
        flat = (wy + y0) * width + (wx + x0)
        rising = change[wy, wx] > 0
        on.append(flat[rising])
        off.append(flat[~rising])
    if len(windows) > 1:  # windows may overlap: merge by flat index, row-major, each pixel once
        return np.unique(np.concatenate(on)), np.unique(np.concatenate(off))
    return on[-1], off[-1]


def _scene_changes(spec):
    """Every occupancy change of the scene in event order, as (t, flat pixel
    index, polarity): by step, ON before OFF, each in row-major order."""
    start, moves = _scene_moves(spec)
    cover = np.zeros((spec.height, spec.width), dtype=np.int32)
    for x0, x1, y0, y1 in start:
        cover[y0:y1, x0:x1] += 1
    steps, counts, flats = [], [], []  # per step with events: its index, its ON and OFF counts and pixels
    for k, group in itertools.groupby(moves, key=lambda move: move[0]):
        on, off = _step_changes(cover, list(group), spec.width)
        if on.size or off.size:
            steps.append(k)
            counts += [on.size, off.size]
            flats += [on, off]
    counts = np.array(counts, dtype=np.int64)
    ts = np.repeat(np.array(steps, dtype=np.int64) * spec.micro_step_us, counts[0::2] + counts[1::2])
    ps = np.repeat(np.tile(np.array([1, 0], dtype=np.int8), len(steps)), counts)
    return ts, np.concatenate(flats) if flats else np.zeros(0, dtype=np.int64), ps


def generate_synthetic_scene(spec: SyntheticSceneSpec):
    """Simulate rigid rectangles; pixels whose occupancy (the union of the
    rectangles at their rounded positions) changes between consecutive
    micro-steps emit one event with polarity = sign of change. Each step's
    events come ON first, then OFF, each in row-major pixel order; with
    ``drop_probability`` > 0 each event is dropped by one uniform draw, in
    event order.

    The work follows the objects that moved. One numpy pass rounds every
    object's position at every micro-step; a per-pixel count of the
    rectangles covering it changes only where an object moved, and a step
    compares occupancy before and after only inside the window each moved
    object swept (its old and new rectangle). A step where no object moved
    costs nothing.

    Returns (EventStream, [BoxAnnotation]). Deterministic under the seed.
    """
    if spec.duration_us < 1 or spec.micro_step_us < 1 or spec.annotation_period_us < 0:
        raise ValueError(f"scene needs duration_us >= 1, micro_step_us >= 1 and annotation_period_us >= 0: {spec}")
    for obj in spec.objects:
        if (
            obj.x0 < 0
            or obj.y0 < 0
            or obj.x0 + obj.w > spec.width
            or obj.y0 + obj.h > spec.height
        ):
            raise ValueError(f"object initially outside sensor: {obj}")
    ts, flat, ps = _scene_changes(spec)
    if spec.drop_probability > 0:
        # one draw per event in event order, as a draw per step of that step's events would give
        keep = np.random.default_rng(spec.seed).random(flat.size) >= spec.drop_probability
        ts, flat, ps = ts[keep], flat[keep], ps[keep]
    ys, xs = np.divmod(flat, spec.width)
    stream = EventStream(ts, xs, ys, ps, spec.width, spec.height, check=False)
    boxes = []
    period = spec.annotation_period_us or spec.duration_us
    t_ann = period
    while t_ann <= spec.duration_us:
        for obj in spec.objects:
            boxes.append(_object_box(spec, obj, t_ann))
        t_ann += period
    return stream, boxes


# --------------------------------------------------------------------------
# Classification dataset construction
# --------------------------------------------------------------------------


def _sample_from_annotation(stream: EventStream, box: BoxAnnotation, window: int):
    t0 = max(0, box.t - window)
    short = box.t < window
    sliced = slice_time(stream, t0, box.t) if box.t > t0 else EventStream.empty(stream.width, stream.height)
    x0, y0 = int(math.floor(box.x)), int(math.floor(box.y))
    x0, y0 = max(x0, 0), max(y0, 0)
    w = min(int(math.ceil(box.w)), stream.width - x0)
    h = min(int(math.ceil(box.h)), stream.height - y0)
    cropped = crop_spatial(sliced, x0, y0, w, h)
    return ClassificationSample(
        stream=cropped,
        label=box.class_id,
        duration=box.t - t0,
        metadata={"short_window": short, "t_box": box.t},
    )


def build_classification_dataset(streams_and_annotations, window=100_000, rebalance=False, seed=0):
    """One sample per annotation: the ``window`` of events preceding the box,
    cropped to the box. With ``rebalance``, the majority class is randomly
    undersampled and the minority class oversampled with horizontal flips
    until the counts differ by at most one.
    """
    samples = []
    for stream, boxes in streams_and_annotations:
        for box in boxes:
            samples.append(_sample_from_annotation(stream, box, window))
    if not rebalance:
        return samples
    rng = np.random.default_rng(seed)
    by_class = {}
    for s in samples:
        by_class.setdefault(s.label, []).append(s)
    if len(by_class) < 2:
        return samples
    counts = {c: len(v) for c, v in by_class.items()}
    mino = min(counts, key=counts.get)
    # excluding the minority keeps the two classes distinct on a tie
    maj = max((c for c in counts if c != mino), key=counts.get)
    target = (counts[maj] + counts[mino] + 1) // 2
    keep_idx = rng.permutation(counts[maj])[:target]
    majority = [by_class[maj][i] for i in sorted(keep_idx)]
    minority = list(by_class[mino])
    while len(minority) < target:
        src = minority[int(rng.integers(counts[mino]))]
        minority.append(
            ClassificationSample(
                stream=flip_horizontal(src.stream),
                label=src.label,
                duration=src.duration,
                metadata=dict(src.metadata, flipped=True),
            )
        )
    rest = [s for c, v in by_class.items() if c not in (maj, mino) for s in v]
    return majority + minority + rest
