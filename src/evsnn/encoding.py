"""Binary voxel-cube encoding of event streams.

A sample of duration d is split into T timesteps of dt = d/T, each timestep
into n micro time bins. An event at time t with polarity p lands in
timestep k = t // dt, micro bin b = (t - k*dt) // (dt/n), and channel
c = p*n + b (OFF polarity first, micro bins contiguous per polarity).
Accumulation is binary: the cube is a {0,1} tensor of shape (2n, T, H, W).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .events import EventStream


@dataclass(frozen=True)
class EncoderConfig:
    sample_duration: int  # microseconds
    timesteps: int
    micro_bins: int
    height: int
    width: int

    def __post_init__(self):
        for name in ("sample_duration", "height", "width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.timesteps < 1 or self.micro_bins < 1:
            raise ValueError("timesteps and micro_bins must be >= 1")
        if self.sample_duration % self.timesteps != 0:
            raise ValueError(f"duration {self.sample_duration} not divisible by T={self.timesteps}")
        if self.timestep_us % self.micro_bins != 0:
            raise ValueError(f"timestep {self.timestep_us} us not divisible by n={self.micro_bins}")

    @property
    def timestep_us(self):
        return self.sample_duration // self.timesteps

    @property
    def bin_us(self):
        return self.timestep_us // self.micro_bins

    @property
    def channels(self):
        return 2 * self.micro_bins


class VoxelCube:
    """Binary 4-D tensor of shape (C, T, H, W) with C = 2 * micro_bins.

    ``VoxelCube(data)`` checks that ``data`` is 4-D and holds only 0 and 1,
    and stores a ``uint8`` copy. ``check=False`` takes ``data`` as it is: the
    builders in this module pass it for a ``uint8`` cube they have just made
    binary by construction, as ``EventStream(..., check=False)`` does for
    streams.
    """

    def __init__(self, data, check=True):
        if check:
            data = np.asarray(data)
            if data.ndim != 4:
                raise ValueError(f"voxel cube must be 4-D (C,T,H,W), got shape {data.shape}")
            if not ((data == 0) | (data == 1)).all():
                raise ValueError("voxel cube values must be binary")
            data = data.astype(np.uint8)
        self.data = data

    @property
    def shape(self):
        return self.data.shape

    def __eq__(self, other):
        if not isinstance(other, VoxelCube):
            return NotImplemented
        return np.array_equal(self.data, other.data)


def encode_voxel_cube(stream: EventStream, config: EncoderConfig) -> VoxelCube:
    if len(stream) and (stream.ts[0] < 0 or stream.ts[-1] >= config.sample_duration):
        bad = stream.ts[-1] if stream.ts[-1] >= config.sample_duration else stream.ts[0]
        raise ValueError(f"event at t={bad} outside [0, {config.sample_duration}); slice the stream first")
    if stream.width > config.width or stream.height > config.height:
        raise ValueError(
            f"stream sensor {stream.width}x{stream.height} exceeds cube {config.width}x{config.height}"
        )
    cube = np.zeros((config.channels, config.timesteps, config.height, config.width), dtype=np.uint8)
    if len(stream):
        k = stream.ts // config.timestep_us
        b = (stream.ts - k * config.timestep_us) // config.bin_us
        c = stream.ps.astype(np.int64) * config.micro_bins + b
        cube[c, k, stream.ys, stream.xs] = 1
    return VoxelCube(cube, check=False)


@lru_cache(maxsize=256)
def _nearest_index(src: int, dst: int) -> np.ndarray:
    """Read-only source index of each of ``dst`` outputs: floor((i + 0.5) * src / dst)."""
    index = np.minimum(((np.arange(dst) + 0.5) * src / dst).astype(np.int64), src - 1)
    index.flags.writeable = False
    return index


def resize_nearest(cube: VoxelCube, height: int, width: int) -> VoxelCube:
    """Nearest-neighbor resize per (c, t) plane; source index for output i
    is floor((i + 0.5) * src / dst), so the result stays binary.

    Columns are gathered on the (C*T*h, w) view, then rows on the
    (C*T, h, width) view; an axis that keeps its size is not gathered.
    The result is a new array, never a view of ``cube``.
    """
    if height < 1 or width < 1:
        raise ValueError("target size must be >= 1")
    c, t, h, w = cube.shape
    data = cube.data
    if w != width:
        data = np.take(data.reshape(c * t * h, w), _nearest_index(w, width), axis=1)
    if h != height:
        data = np.take(data.reshape(c * t, h, width), _nearest_index(h, height), axis=1)
    elif data is cube.data:
        data = data.copy()
    return VoxelCube(data.reshape(c, t, height, width), check=False)


# --------------------------------------------------------------------------
# VXC dump format: header "VXC <C> <T> <H> <W>" then the CTHW bits packed
# little-endian (row-major order, 8 cells per byte, LSB first); the bits
# that pad the last byte are zero.
# --------------------------------------------------------------------------


def write_vxc(cube: VoxelCube) -> bytes:
    c, t, h, w = cube.shape
    header = f"VXC {c} {t} {h} {w}\n".encode("ascii")
    packed = np.packbits(cube.data.reshape(-1), bitorder="little")
    return header + packed.tobytes()


def parse_vxc(data: bytes) -> VoxelCube:
    end = data.find(b"\n")
    if end == -1 or data[:4] != b"VXC ":
        raise ValueError("not a VXC dump")
    _, c, t, h, w = data[:end].decode("ascii").split()
    c, t, h, w = int(c), int(t), int(h), int(w)
    count = c * t * h * w
    body = np.frombuffer(data[end + 1 :], dtype=np.uint8)
    nbytes = -(-count // 8)
    if len(body) != nbytes:
        raise ValueError(f"VXC body has {len(body)} bytes, expected {nbytes} for {c}x{t}x{h}x{w} cells")
    bits = np.unpackbits(body, bitorder="little")
    if bits[count:].any():
        raise ValueError(f"VXC padding bits after the {count} cells of {c}x{t}x{h}x{w} must be zero")
    return VoxelCube(bits[:count].reshape(c, t, h, w), check=False)


def batch_cubes(cubes) -> np.ndarray:
    """Stack voxel cubes into a float32 (N, C, T, H, W) network input."""
    return np.stack([c.data for c in cubes]).astype(np.float32)
