"""Binary checkpoint format.

Layout (all little-endian):
    magic    8 bytes  b"SNNCKPT1"
    n_params u32
    n_params entries of: name_len u16, name utf-8, ndim u8, dims u32 each,
                         float32 values
    n_state  u32      n_state entries of the same layout: an optimizer state
                      block, which this module writes empty (n_state = 0)

Older files may hold a non-empty state block: ``load_checkpoint`` reads it
with the same checks as the parameters (a truncated entry raises
ValueError) and drops it.

Files are written to a temporary file beside the target and renamed over
it, so a crash mid-write leaves the previous file whole.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"SNNCKPT1"


def _write_entry(fh, name, arr):
    nb = name.encode("utf-8")
    fh.write(struct.pack("<H", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<B", arr.ndim))
    for d in arr.shape:
        fh.write(struct.pack("<I", d))
    fh.write(arr.astype("<f4").tobytes())


def _read(fh, n):
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"{fh.name}: checkpoint file is truncated")
    return data


def _read_entry(fh):
    (nlen,) = struct.unpack("<H", _read(fh, 2))
    name = _read(fh, nlen).decode("utf-8")
    (ndim,) = struct.unpack("<B", _read(fh, 1))
    shape = tuple(struct.unpack("<I", _read(fh, 4))[0] for _ in range(ndim))
    size, left = 4 * math.prod(shape), os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:  # checked before the read, which would allocate size bytes
        raise ValueError(f"{fh.name}: checkpoint entry {name!r} of shape {shape} needs {size} bytes, "
                         f"the file has {left} left")
    data = np.frombuffer(_read(fh, size), dtype="<f4").reshape(shape)
    return name, data.copy()


def check_state(own, arrays, what):
    """Raise ValueError, starting with ``what``, naming every entry of
    ``arrays`` that is missing, unexpected or misshapen against ``own``."""
    problems = [f"missing {k}" for k in own if k not in arrays]
    problems += [f"unexpected {k}" for k in arrays if k not in own]
    problems += [f"{k} has shape {np.shape(arrays[k])}, expected {np.shape(own[k])}"
                 for k in own if k in arrays and np.shape(arrays[k]) != np.shape(own[k])]
    if problems:
        raise ValueError(f"{what}: " + "; ".join(problems))


def save_checkpoint(path, arrays):
    """Write ``arrays``, a dict name -> ndarray, and an empty state block."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(arrays)))
            for name, arr in arrays.items():
                _write_entry(fh, name, np.asarray(arr))
            fh.write(struct.pack("<I", 0))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """The parameter arrays of a checkpoint file, a dict name -> ndarray.
    A state block is read, checked and dropped."""
    with open(path, "rb") as fh:
        if fh.read(8) != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        (n,) = struct.unpack("<I", _read(fh, 4))
        params = dict(_read_entry(fh) for _ in range(n))
        (ns,) = struct.unpack("<I", _read(fh, 4))
        for _ in range(ns):
            _read_entry(fh)
    return params
