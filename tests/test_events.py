"""Event stream structures, file formats, transforms, synthetic scenes."""

import io
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import full_frame_scene_stream
from evsnn import events as ev


def random_stream(rng, n=50, width=32, height=24):
    ts = np.sort(rng.integers(0, 100_000, size=n))
    return ev.EventStream(
        ts, rng.integers(0, width, n), rng.integers(0, height, n), rng.integers(0, 2, n), width, height
    )


# --------------------------------------------------------------------------
# Core structures
# --------------------------------------------------------------------------


def test_stream_validation():
    with pytest.raises(ValueError, match="sorted"):
        ev.EventStream([5, 3], [0, 0], [0, 0], [1, 1], 10, 10)
    with pytest.raises(ValueError, match="outside sensor"):
        ev.EventStream([1], [10], [0], [1], 10, 10)
    with pytest.raises(ValueError, match="polarity"):
        ev.EventStream([1], [0], [0], [2], 10, 10)
    with pytest.raises(ValueError, match="length"):
        ev.EventStream([1, 2], [0], [0], [1], 10, 10)


# --------------------------------------------------------------------------
# DAT format
# --------------------------------------------------------------------------


def test_dat_roundtrip(rng):
    s = random_stream(rng, 200, width=304, height=240)
    data = ev.write_dat(s)
    parsed = ev.parse_dat(data)
    assert parsed == s
    assert ev.write_dat(parsed) == data  # bit-exact second pass


def test_dat_header_parsing():
    s = ev.EventStream([10], [3], [4], [1], 16, 12)
    data = ev.write_dat(s, headers=["% Width 16", "% Height 12", "% Date 2020-01-01", "% Mystery 42"])
    parsed = ev.parse_dat(data)
    assert (parsed.width, parsed.height) == (16, 12)
    assert parsed == s
    assert parsed.headers[2:] == ["% Date 2020-01-01", "% Mystery 42"]  # other lines are kept, not read
    bare = ev.parse_dat(data[data.index(bytes([0, 8])):])  # no geometry lines: the GEN1 sensor
    assert (bare.width, bare.height) == ev.DAT_DEFAULT_SIZE == (304, 240)


def test_dat_truncation_errors():
    s = ev.EventStream([1], [2], [3], [1], 10, 10)
    data = ev.write_dat(s)
    with pytest.raises(ValueError, match="truncated"):
        ev.parse_dat(data[:-3])
    with pytest.raises(ValueError, match="event size"):
        ev.parse_dat(bytes([0, 4]) + b"\x00" * 4)


def test_dat_out_of_bounds_record():
    s = ev.EventStream([1], [200], [3], [1], 304, 240)
    data = ev.write_dat(s, headers=["% Width 100", "% Height 100"])
    with pytest.raises(ValueError, match="outside declared sensor"):
        ev.parse_dat(data)


def test_dat_refuses_what_the_format_cannot_hold():
    """``write_dat`` refuses a timestamp of 2**32 or more and an x or y of
    2**14 or more, naming the first such event, where it would wrap them;
    the largest values it holds round-trip."""
    edge = ev.EventStream([0, 2**32 - 1], [1, 2**14 - 1], [2, 2**14 - 1], [0, 1], 2**14, 2**14)
    assert ev.parse_dat(ev.write_dat(edge)) == edge
    for ts, xs, ys, first in (([1, 2**32 + 7], [0, 1], [0, 1], "event 1 (t=4294967303, x=1, y=1)"),
                              ([1, 2], [20000, 1], [0, 1], "event 0 (t=1, x=20000, y=0)"),
                              ([1, 2], [0, 1], [3, 2**14], "event 1 (t=2, x=1, y=16384)")):
        stream = ev.EventStream(ts, xs, ys, [1, 0], 20001, 20001)
        with pytest.raises(ValueError, match=r"^" + re.escape(first) + " does not fit the DAT format"):
            ev.write_dat(stream)


def test_dat_bit_layout():
    """x in bits 0-13, y in 14-27, polarity in 28 of the second word."""
    s = ev.EventStream([7], [0x1234], [0x0567], [1], 0x3FFF + 1, 0x3FFF + 1)
    data = ev.write_dat(s, headers=[f"% Width {0x4000}", f"% Height {0x4000}"])
    body = data[data.find(b"\x00\x08") + 2 :]
    t, addr = np.frombuffer(body, dtype="<u4")
    assert t == 7
    assert addr == 0x1234 | (0x0567 << 14) | (1 << 28)


# --------------------------------------------------------------------------
# NPY box annotations (np.save is the reference writer)
# --------------------------------------------------------------------------

_BOX_DTYPE = [("t", "<u8"), ("x", "<f4"), ("y", "<f4"), ("w", "<f4"), ("h", "<f4"),
              ("class_id", "<u4"), ("track_id", "<u4"), ("confidence", "<f4")]


def _npy_bytes(arr, tmp_path):
    path = tmp_path / "boxes.npy"
    np.save(path, arr)
    return path.read_bytes()


def _three_boxes(dtype=_BOX_DTYPE):
    arr = np.zeros(3, dtype=dtype)
    arr["t"] = [100, 200, 300]
    arr["x"] = [1.5, 10, 20]
    arr["y"] = [2.5, 11, 21]
    arr["w"] = [5, 6, 7]
    arr["h"] = [8, 9, 10]
    arr["class_id"] = [0, 1, 0]
    arr["track_id"] = [3, 4, 5]
    arr["confidence"] = [1.0, 0.5, 0.25]
    return arr


def test_npy_boxes_roundtrip(tmp_path):
    boxes = ev.parse_npy_boxes(_npy_bytes(_three_boxes(), tmp_path))
    assert len(boxes) == 3
    b = boxes[1]
    assert (b.t, b.x, b.y, b.w, b.h, b.class_id, b.track_id, b.confidence) == (200, 10, 11, 6, 9, 1, 4, 0.5)


def test_npy_boxes_clipping(tmp_path):
    arr = np.zeros(1, dtype=_BOX_DTYPE)
    arr["x"], arr["y"], arr["w"], arr["h"] = -5, 2, 20, 30
    arr["confidence"] = 1
    (box,) = ev.parse_npy_boxes(_npy_bytes(arr, tmp_path), sensor_size=(10, 10))
    assert (box.x, box.y, box.w, box.h) == (0, 2, 10, 8)


def test_npy_boxes_missing_field(tmp_path):
    arr = np.zeros(1, dtype=[("t", "<u8"), ("x", "<f4")])
    with pytest.raises(ValueError, match="required field"):
        ev.parse_npy_boxes(_npy_bytes(arr, tmp_path))


def test_npy_boxes_big_endian_matches_little_endian(tmp_path):
    big = np.dtype(_BOX_DTYPE).newbyteorder(">")
    assert big.fields["t"][0].byteorder == ">"
    little = ev.parse_npy_boxes(_npy_bytes(_three_boxes(), tmp_path))
    assert ev.parse_npy_boxes(_npy_bytes(_three_boxes(big), tmp_path)) == little


def test_npy_boxes_truncated(tmp_path):
    data = _npy_bytes(_three_boxes(), tmp_path)
    for cut in (data[:20], data[:-1]):  # inside the header, inside the body
        with pytest.raises(ValueError, match="truncated"):
            ev.parse_npy_boxes(cut)


def test_npy_boxes_body_length_checked(tmp_path):
    data = _npy_bytes(_three_boxes(), tmp_path)
    with pytest.raises(ValueError, match="body has 110 bytes, expected 108"):
        ev.parse_npy_boxes(data + b"\0\0")
    # a short body whose header declares 10**12 boxes is refused before
    # anything is allocated for them
    header = np.lib.format.header_data_from_array_1_0(_three_boxes())
    header["shape"] = (10**12,)
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, header)
    with pytest.raises(ValueError, match="expected 36000000000000 for shape"):
        ev.parse_npy_boxes(buf.getvalue() + data[-108:])


def test_npy_not_npy():
    with pytest.raises(ValueError, match="not an NPY"):
        ev.parse_npy_boxes(b"garbage data here")


# --------------------------------------------------------------------------
# EVT1 round trips and extension dispatch
# --------------------------------------------------------------------------


def evt1_text(stream):
    """The ``.evt1`` text of ``stream``: the header line, then one "t x y p"
    line per event."""
    lines = [f"EVT1 {stream.width} {stream.height} {len(stream)}"]
    lines += [f"{t} {x} {y} {p}" for t, x, y, p in zip(stream.ts, stream.xs, stream.ys, stream.ps)]
    return ("\n".join(lines) + "\n").encode("ascii")


def test_evt1_text_roundtrip(rng):
    s = random_stream(rng)
    assert ev.parse_evt1_text(evt1_text(s)) == s


def test_evt1_binary_roundtrip(rng):
    s = random_stream(rng)
    assert ev.parse_evt1_binary(ev.write_evt1_binary(s)) == s


def test_evt1_count_mismatch():
    with pytest.raises(ValueError, match="declares"):
        ev.parse_evt1_text(b"EVT1 4 4 2\n1 0 0 1\n")


def test_evt1_text_field_count():
    for data, line, n in ((b"EVT1 4 4 1\n1 0 0\n", 2, 3), (b"EVT1 4 4 2\n1 0 0 1\n2 0 0 1 7\n", 3, 5)):
        with pytest.raises(ValueError, match=f"line {line} has {n} fields, expected 4"):
            ev.parse_evt1_text(data)


def test_load_save_dispatch(tmp_path, rng):
    s = random_stream(rng)
    for ext in (".dat", ".evt1b"):
        path = tmp_path / f"stream{ext}"
        ev.save_events(path, s)
        assert ev.load_events(path) == s
    (tmp_path / "stream.evt1").write_bytes(evt1_text(s))  # read, never written
    assert ev.load_events(tmp_path / "stream.evt1") == s
    for ext in (".evt1", ".xyz"):
        with pytest.raises(ValueError, match="extension"):
            ev.save_events(tmp_path / f"out{ext}", s)


# --------------------------------------------------------------------------
# Transforms
# --------------------------------------------------------------------------


def test_slice_time_rebases(rng):
    s = ev.EventStream([10, 20, 30, 40], [0, 1, 2, 3], [0, 0, 0, 0], [1, 1, 1, 1], 8, 8)
    out = ev.slice_time(s, 20, 40)
    assert list(out.ts) == [0, 10]
    assert list(out.xs) == [1, 2]
    with pytest.raises(ValueError):
        ev.slice_time(s, 30, 30)


def test_crop_rebases():
    s = ev.EventStream([1, 2, 3], [0, 4, 7], [0, 4, 7], [1, 0, 1], 8, 8)
    out = ev.crop_spatial(s, 3, 3, 3, 3)
    assert len(out) == 1 and out.xs[0] == 1 and out.ys[0] == 1
    assert (out.width, out.height) == (3, 3)


def test_flip_involution(rng):
    s = random_stream(rng)
    assert ev.flip_horizontal(ev.flip_horizontal(s)) == s


@settings(max_examples=30)
@given(seed=st.integers(0, 10_000), t0=st.integers(0, 50_000), span=st.integers(1, 50_000))
def test_slice_time_matches_bruteforce(seed, t0, span):
    s = random_stream(np.random.default_rng(seed))
    out = ev.slice_time(s, t0, t0 + span)
    keep = (s.ts >= t0) & (s.ts < t0 + span)
    assert np.array_equal(out.ts, s.ts[keep] - t0)
    assert np.array_equal(out.xs, s.xs[keep])


# --------------------------------------------------------------------------
# Synthetic scenes
# --------------------------------------------------------------------------


def test_static_scene_emits_nothing():
    spec = ev.SyntheticSceneSpec(32, 32, 50_000, (ev.SceneObject(5, 5, 10, 10),))
    stream, boxes = ev.generate_synthetic_scene(spec)
    assert len(stream) == 0
    assert len(boxes) == 1 and boxes[0].t == 50_000


def test_moving_object_edge_events():
    """A 4x4 square moving +1 px per ms emits exactly one ON column and one
    OFF column (4 events each) per micro step."""
    spec = ev.SyntheticSceneSpec(40, 20, 10_000, (ev.SceneObject(4, 4, 5, 5, vx=1000.0),), micro_step_us=1000)
    stream, _ = ev.generate_synthetic_scene(spec)
    steps = np.unique(stream.ts)
    assert list(steps) == [k * 1000 for k in range(1, 10)]
    for t in steps:
        at = stream.ts == t
        assert (stream.ps[at] == 1).sum() == 4
        assert (stream.ps[at] == 0).sum() == 4
        x_shift = int(t // 1000)
        assert set(stream.xs[at & (stream.ps == 1)]) == {5 + 3 + x_shift}
        assert set(stream.xs[at & (stream.ps == 0)]) == {5 + x_shift - 1}


def test_scene_outside_sensor_rejected():
    spec = ev.SyntheticSceneSpec(10, 10, 1000, (ev.SceneObject(5, 5, 8, 8),))
    with pytest.raises(ValueError, match="outside sensor"):
        ev.generate_synthetic_scene(spec)


def test_scene_timing_validated():
    for timing in ({"duration_us": 0}, {"micro_step_us": 0}, {"annotation_period_us": -1}):
        spec = replace(ev.SyntheticSceneSpec(8, 8, 1000, ()), **timing)
        with pytest.raises(ValueError, match="duration_us >= 1, micro_step_us >= 1 and annotation_period_us >= 0"):
            ev.generate_synthetic_scene(spec)


def test_scene_annotation_period():
    spec = ev.SyntheticSceneSpec(32, 32, 30_000, (ev.SceneObject(4, 4, 2, 2, vx=100.0),), annotation_period_us=10_000)
    _, boxes = ev.generate_synthetic_scene(spec)
    assert [b.t for b in boxes] == [10_000, 20_000, 30_000]


def test_scene_determinism():
    spec = ev.SyntheticSceneSpec(32, 32, 50_000, (ev.SceneObject(4, 4, 2, 2, vx=200.0),), drop_probability=0.3, seed=7)
    s1, _ = ev.generate_synthetic_scene(spec)
    s2, _ = ev.generate_synthetic_scene(spec)
    assert s1 == s2


def test_scene_drop_probability_reduces_events():
    base = ev.SyntheticSceneSpec(64, 64, 100_000, (ev.SceneObject(6, 40, 2, 10, vx=300.0),), seed=3)
    noisy = ev.SyntheticSceneSpec(64, 64, 100_000, (ev.SceneObject(6, 40, 2, 10, vx=300.0),), drop_probability=0.5, seed=3)
    s_base, _ = ev.generate_synthetic_scene(base)
    s_noisy, _ = ev.generate_synthetic_scene(noisy)
    assert 0 < len(s_noisy) < len(s_base)


# Quarter pixels per millisecond, so that positions land on exact half
# pixels, or any speed; zero and single-axis motion are among the choices.
_speeds = st.one_of(st.integers(-6, 6).map(lambda q: 250.0 * q), st.floats(-1500.0, 1500.0))


@st.composite
def scene_specs(draw):
    width, height = draw(st.integers(4, 20)), draw(st.integers(4, 20))
    objects = []
    for _ in range(draw(st.integers(0, 4))):  # several objects on a small sensor overlap
        w, h = draw(st.integers(1, width)), draw(st.integers(1, height))
        x0 = draw(st.integers(0, 2 * (width - w))) / 2  # whole or half pixels
        y0 = draw(st.integers(0, 2 * (height - h))) / 2
        vx, vy = draw(_speeds), draw(_speeds)
        objects.append(ev.SceneObject(w, h, x0, y0, vx=vx, vy=draw(st.sampled_from([vy, 0.0])), class_id=len(objects) % 2))
    step_us = draw(st.sampled_from([250, 700, 1000, 2000]))
    return ev.SyntheticSceneSpec(
        width, height, step_us * draw(st.integers(1, 30)) + draw(st.integers(0, step_us)), tuple(objects),
        micro_step_us=step_us, drop_probability=draw(st.sampled_from([0.0, 0.0, 0.3, 0.9])), seed=draw(st.integers(0, 99)),
    )


@settings(max_examples=150)
@given(spec=scene_specs())
# two overlapping squares, one of them leaving the sensor
@example(spec=ev.SyntheticSceneSpec(16, 12, 20_000, (ev.SceneObject(6, 6, 8, 3, vx=1000.0),
                                                      ev.SceneObject(6, 6, 5, 4.5, vy=-500.0))))
def test_scene_equals_full_frame_diff(spec):
    """Diffing only where objects moved gives the events, their order and
    the drop draws of diffing the whole sensor at every micro-step, also
    for objects that overlap, leave the sensor mid-scene, sit on half
    pixels, stand still or move on one axis."""
    stream, _ = ev.generate_synthetic_scene(spec)
    assert stream == full_frame_scene_stream(spec)


# --------------------------------------------------------------------------
# Classification dataset construction
# --------------------------------------------------------------------------


def _scene_with_boxes(seed=0):
    spec = ev.SyntheticSceneSpec(
        64, 48, 200_000,
        (ev.SceneObject(10, 10, 4, 4, vx=100.0, class_id=0), ev.SceneObject(8, 8, 40, 30, vx=-80.0, class_id=1)),
        annotation_period_us=100_000, seed=seed,
    )
    return ev.generate_synthetic_scene(spec)


def test_dataset_one_sample_per_annotation():
    stream, boxes = _scene_with_boxes()
    samples = ev.build_classification_dataset([(stream, boxes)], window=100_000)
    assert len(samples) == len(boxes)
    labels = sorted(s.label for s in samples)
    assert labels == [0, 0, 1, 1]
    for s in samples:
        assert len(s.stream) > 0
        assert s.stream.width <= 10 and s.stream.height <= 10


def test_dataset_short_window_flag():
    stream, boxes = _scene_with_boxes()
    samples = ev.build_classification_dataset([(stream, boxes)], window=150_000)
    flags = sorted(s.metadata["short_window"] for s in samples)
    assert flags == [False, False, True, True]  # first annotation at t=100ms < 150ms


def test_dataset_rebalance_counts():
    stream, boxes = _scene_with_boxes()
    extra = [b for b in boxes if b.class_id == 0]  # 4 of class 0, 2 of class 1
    samples = ev.build_classification_dataset([(stream, boxes + extra)], window=100_000, rebalance=True, seed=0)
    counts = {}
    for s in samples:
        counts[s.label] = counts.get(s.label, 0) + 1
    assert counts == {0: 3, 1: 3}
    assert any(s.metadata.get("flipped") for s in samples if s.label == 1)


def test_dataset_rebalance_tie_keeps_both_classes():
    stream, boxes = _scene_with_boxes()  # two boxes of each class
    samples = ev.build_classification_dataset([(stream, boxes)], window=100_000, rebalance=True, seed=0)
    assert sorted(s.label for s in samples) == [0, 0, 1, 1]
    assert not any(s.metadata.get("flipped") for s in samples)
