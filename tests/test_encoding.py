"""Voxel-cube encoding against a brute-force oracle, plus dump formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fancy_index_resize
from evsnn import encoding as enc
from evsnn.events import EventStream, flip_horizontal


def oracle_encode(stream, config):
    """Reference implementation: one event at a time, pure Python."""
    cube = np.zeros((2 * config.micro_bins, config.timesteps, config.height, config.width), dtype=np.uint8)
    dt = config.sample_duration // config.timesteps
    bin_us = dt // config.micro_bins
    for t, x, y, p in zip(stream.ts, stream.xs, stream.ys, stream.ps):
        k = t // dt
        b = (t - k * dt) // bin_us
        c = p * config.micro_bins + b
        cube[c, k, y, x] = 1
    return cube


def random_stream(rng, duration=100_000, width=16, height=12, n=None):
    n = int(rng.integers(0, 60)) if n is None else n
    ts = np.sort(rng.integers(0, duration, size=n))
    return EventStream(ts, rng.integers(0, width, n), rng.integers(0, height, n), rng.integers(0, 2, n), width, height)


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        enc.EncoderConfig(sample_duration=100_000, timesteps=3, micro_bins=1, height=8, width=8)
    with pytest.raises(ValueError, match="divisible"):
        enc.EncoderConfig(sample_duration=100_000, timesteps=10, micro_bins=3, height=8, width=8)
    with pytest.raises(ValueError):
        enc.EncoderConfig(sample_duration=100_000, timesteps=0, micro_bins=1, height=8, width=8)
    cfg = enc.EncoderConfig(sample_duration=100_000, timesteps=5, micro_bins=2, height=8, width=8)
    assert (cfg.timestep_us, cfg.bin_us, cfg.channels) == (20_000, 10_000, 4)


# Values VoxelCube(data) refuses, by the input dtypes that can hold them.
_NOT_BINARY = {np.uint8: (2, 255), np.int64: (2, 255, -1), np.float32: (2, 255, -1, 0.5, np.nan),
               np.float64: (2, 255, -1, 0.5, np.nan), bool: ()}


@settings(max_examples=60)
@given(dtype=st.sampled_from(list(_NOT_BINARY)), shape=st.tuples(*[st.integers(1, 3)] * 4), data=st.data())
def test_cube_refuses_non_binary_property(dtype, shape, data):
    """Builders skip the check, but a cube from outside is checked: one
    non-binary value anywhere is refused with the same message, and binary
    data of any dtype is stored as uint8."""
    cells = np.array(data.draw(st.lists(st.integers(0, 1), min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))))
    values = cells.astype(dtype).reshape(shape)
    cube = enc.VoxelCube(values)
    assert cube.data.dtype == np.uint8 and np.array_equal(cube.data, cells.reshape(shape))
    if _NOT_BINARY[dtype]:
        values.reshape(-1)[data.draw(st.integers(0, values.size - 1))] = data.draw(st.sampled_from(_NOT_BINARY[dtype]))
        with pytest.raises(ValueError, match="^voxel cube values must be binary$"):
            enc.VoxelCube(values)


def test_cube_binary_enforced():
    for bad in (2, 0.5, 2.0, -1, -1.0, np.nan, 1 + 1j, 1j):
        with pytest.raises(ValueError, match="binary"):
            enc.VoxelCube(np.full((2, 1, 2, 2), bad))
    for good in (np.uint8, np.int64, np.float32, np.float64, bool):
        cube = enc.VoxelCube(np.eye(2, dtype=good).reshape(2, 1, 1, 2))
        assert cube.data.dtype == np.uint8 and cube.data.sum() == 2
    with pytest.raises(ValueError, match="4-D"):
        enc.VoxelCube(np.zeros((2, 2, 2)))


def test_known_event_placement():
    cfg = enc.EncoderConfig(sample_duration=100_000, timesteps=5, micro_bins=2, height=8, width=8)
    s = EventStream([0, 19_999, 50_000, 99_999], [1, 2, 3, 4], [0, 1, 2, 3], [0, 1, 0, 1], 8, 8)
    cube = enc.encode_voxel_cube(s, cfg).data
    assert cube.sum() == 4
    assert cube[0, 0, 0, 1] == 1  # t=0: k=0 b=0, OFF -> channel 0
    assert cube[3, 0, 1, 2] == 1  # t=19999: k=0 b=1, ON -> channel 3
    assert cube[1, 2, 2, 3] == 1  # t=50000: k=2 spans [40,60)ms so b=1, OFF
    assert cube[3, 4, 3, 4] == 1  # t=99999: k=4 b=1, ON


def test_event_at_duration_rejected():
    cfg = enc.EncoderConfig(sample_duration=100_000, timesteps=5, micro_bins=2, height=8, width=8)
    s = EventStream([100_000], [0], [0], [1], 8, 8)
    with pytest.raises(ValueError, match="outside"):
        enc.encode_voxel_cube(s, cfg)


def test_oracle_equivalence_grid():
    """Vectorized encoder == brute-force oracle over a (T, n) grid."""
    rng = np.random.default_rng(0)
    for _ in range(25):
        stream = random_stream(rng)
        for timesteps in (1, 2, 5, 10):
            for micro_bins in (1, 2, 4):
                cfg = enc.EncoderConfig(
                    sample_duration=100_000, timesteps=timesteps, micro_bins=micro_bins,
                    height=stream.height, width=stream.width,
                )
                got = enc.encode_voxel_cube(stream, cfg).data
                assert np.array_equal(got, oracle_encode(stream, cfg))


@settings(max_examples=40)
@given(seed=st.integers(0, 100_000))
def test_oracle_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    stream = random_stream(rng)
    cfg = enc.EncoderConfig(sample_duration=100_000, timesteps=5, micro_bins=2, height=stream.height, width=stream.width)
    assert np.array_equal(enc.encode_voxel_cube(stream, cfg).data, oracle_encode(stream, cfg))


def test_encoding_is_permutation_invariant():
    """Binary accumulation: duplicate events and stable reordering of
    same-timestamp events cannot change the cube."""
    rng = np.random.default_rng(1)
    s = random_stream(rng, n=40)
    cfg = enc.EncoderConfig(sample_duration=100_000, timesteps=5, micro_bins=2, height=s.height, width=s.width)
    doubled = EventStream(
        np.repeat(s.ts, 2), np.repeat(s.xs, 2), np.repeat(s.ys, 2), np.repeat(s.ps, 2), s.width, s.height
    )
    assert enc.encode_voxel_cube(doubled, cfg) == enc.encode_voxel_cube(s, cfg)


def test_flip_commutes_with_encoding():
    rng = np.random.default_rng(2)
    s = random_stream(rng, n=30)
    cfg = enc.EncoderConfig(sample_duration=100_000, timesteps=5, micro_bins=2, height=s.height, width=s.width)
    flipped = enc.encode_voxel_cube(flip_horizontal(s), cfg).data
    assert np.array_equal(flipped, enc.encode_voxel_cube(s, cfg).data[..., ::-1])


def test_resize_nearest_binary_and_identity():
    rng = np.random.default_rng(3)
    cube = enc.VoxelCube((rng.random((4, 5, 24, 36)) < 0.2).astype(np.uint8))
    out = enc.resize_nearest(cube, 64, 64)
    assert out.shape == (4, 5, 64, 64)
    assert set(np.unique(out.data)) <= {0, 1}
    assert enc.resize_nearest(cube, 24, 36) == cube
    # downsampling by 2 picks the odd-index source pixels (floor((i+.5)*2))
    down = enc.resize_nearest(cube, 12, 18)
    assert np.array_equal(down.data, cube.data[:, :, 1::2, 1::2])


@settings(max_examples=60)
@given(shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 17), st.integers(1, 17)),
       target=st.tuples(st.sampled_from(["same", "one", "any"]), st.sampled_from(["same", "one", "any"])),
       size=st.tuples(st.integers(1, 40), st.integers(1, 40)), seed=st.integers(0, 1000))
def test_resize_nearest_equals_fancy_index(shape, target, size, seed):
    """Columns then rows on reshaped views == one 2-D fancy index, up, down,
    identity and to one pixel, in a new uint8 array."""
    cube = enc.VoxelCube((np.random.default_rng(seed).random(shape) < 0.3).astype(np.uint8))
    height, width = ({"same": src, "one": 1, "any": dst}[kind] for kind, src, dst in zip(target, shape[2:], size))
    out = enc.resize_nearest(cube, height, width)
    assert out.data.dtype == np.uint8 and out.shape == shape[:2] + (height, width)
    assert np.array_equal(out.data, fancy_index_resize(cube.data, height, width))
    assert not np.shares_memory(out.data, cube.data)


def test_vxc_roundtrip():
    rng = np.random.default_rng(4)
    cube = enc.VoxelCube((rng.random((4, 5, 13, 17)) < 0.3).astype(np.uint8))
    data = enc.write_vxc(cube)
    assert enc.parse_vxc(data) == cube
    with pytest.raises(ValueError, match="VXC"):
        enc.parse_vxc(b"nope")


def test_vxc_body_length_checked():
    data = enc.write_vxc(enc.VoxelCube(np.ones((2, 3, 5, 7), dtype=np.uint8)))  # 210 cells, 27 bytes
    with pytest.raises(ValueError, match="VXC body has 26 bytes, expected 27"):
        enc.parse_vxc(data[:-1])
    with pytest.raises(ValueError, match="VXC body has 28 bytes, expected 27"):
        enc.parse_vxc(data + b"\x00")


def test_vxc_padding_bits_checked():
    data = bytearray(enc.write_vxc(enc.VoxelCube(np.ones((2, 3, 5, 7), dtype=np.uint8))))  # 210 cells, 6 padding bits
    assert data[-1] == 0b11
    data[-1] |= 0b100
    with pytest.raises(ValueError, match="VXC padding bits after the 210 cells of 2x3x5x7 must be zero"):
        enc.parse_vxc(bytes(data))


def test_batch_cubes_shape_and_dtype():
    cubes = [enc.VoxelCube(np.zeros((2, 3, 4, 4), dtype=np.uint8)) for _ in range(3)]
    batch = enc.batch_cubes(cubes)
    assert batch.shape == (3, 2, 3, 4, 4)
    assert batch.dtype == np.float32
