import contextlib
import struct
import types

import numpy as np
import pytest
from hypothesis import settings

import evsnn.autograd as ag
from evsnn.autograd import Tensor, ops
from evsnn.autograd.tensor import _float, _sigmoid, _unbroadcast, _wrap
from evsnn.events import EventStream
from evsnn.spiking.layers import BatchNormLayer, PLIFLayer

# Property tests draw the same examples on every run, here and in CI.
settings.register_profile("evsnn", derandomize=True, deadline=None)
settings.load_profile("evsnn")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _full_frame_occupancy(spec, t_us):
    occ = np.zeros((spec.height, spec.width), dtype=bool)
    for obj in spec.objects:
        x = int(round(obj.x0 + obj.vx * t_us / 1e6))
        y = int(round(obj.y0 + obj.vy * t_us / 1e6))
        xc0, yc0 = max(x, 0), max(y, 0)
        xc1, yc1 = min(x + obj.w, spec.width), min(y + obj.h, spec.height)
        if xc1 > xc0 and yc1 > yc0:
            occ[yc0:yc1, xc0:xc1] = True
    return occ


def full_frame_scene_stream(spec):
    """Reference for the events of ``events.generate_synthetic_scene``: the
    whole sensor's occupancy at every micro-step, diffed against the last,
    ON then OFF events in row-major order, each step's drop draws made as
    its events come."""
    rng = np.random.default_rng(spec.seed)
    ts, xs, ys, ps = [], [], [], []
    prev = _full_frame_occupancy(spec, 0)
    for k in range(1, (spec.duration_us - 1) // spec.micro_step_us + 1):
        t = k * spec.micro_step_us
        occ = _full_frame_occupancy(spec, t)
        diff = occ.astype(np.int8) - prev.astype(np.int8)
        on_y, on_x = np.nonzero(diff > 0)
        off_y, off_x = np.nonzero(diff < 0)
        for ex, ey, pol in ((on_x, on_y, 1), (off_x, off_y, 0)):
            if ex.size == 0:
                continue
            if spec.drop_probability > 0:
                keep = rng.random(ex.size) >= spec.drop_probability
                ex, ey = ex[keep], ey[keep]
            xs.append(ex)
            ys.append(ey)
            ts.append(np.full(ex.size, t, dtype=np.int64))
            ps.append(np.full(ex.size, pol, dtype=np.int8))
        prev = occ
    if not ts:
        return EventStream.empty(spec.width, spec.height)
    return EventStream(np.concatenate(ts), np.concatenate(xs), np.concatenate(ys), np.concatenate(ps),
                       spec.width, spec.height)


def fancy_index_resize(data, height, width):
    """Reference for ``encoding.resize_nearest`` on a (C, T, h, w) array: one
    2-D fancy index, output (i, j) from source (floor((i + 0.5) h / height),
    floor((j + 0.5) w / width))."""
    h, w = data.shape[2:]
    yi = np.minimum(((np.arange(height) + 0.5) * h / height).astype(np.int64), h - 1)
    xi = np.minimum(((np.arange(width) + 0.5) * w / width).astype(np.int64), w - 1)
    return data[:, :, yi[:, None], xi[None, :]]


def checkpoint_bytes(params, state):
    """A checkpoint file built by hand with ``struct`` in its documented
    layout: the magic, then the parameter entries and the state entries,
    each block counted by a u32."""
    out = bytearray(b"SNNCKPT1")
    for block in (params, state):
        out += struct.pack("<I", len(block))
        for name, arr in block.items():
            out += struct.pack("<H", len(name.encode())) + name.encode() + struct.pack("<B", arr.ndim)
            out += b"".join(struct.pack("<I", d) for d in arr.shape) + np.asarray(arr, dtype="<f4").tobytes()
    return bytes(out)


def numeric_grad(fn, arrays, wrt, eps=1e-5):
    """Central finite differences of scalar fn(*arrays) w.r.t. arrays[wrt]."""
    base = [a.copy() for a in arrays]
    g = np.zeros_like(base[wrt])
    flat = g.reshape(-1)
    src = base[wrt].reshape(-1)
    for i in range(src.size):
        orig = src[i]
        src[i] = orig + eps
        hi = fn(*base)
        src[i] = orig - eps
        lo = fn(*base)
        src[i] = orig
        flat[i] = (hi - lo) / (2 * eps)
    return g


def check_grad(build, arrays, tol, eps=1e-5):
    """Compare autodiff gradients of scalar-valued ``build(*tensors)``
    against central differences for every input array.

    ``build`` receives Tensors (requires_grad=True) and returns a Tensor
    whose .data is reduced to a scalar by summation against fixed random
    weights, so non-scalar outputs are exercised too.
    """
    arrays = [np.asarray(a) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    w = np.random.default_rng(0).standard_normal(out.data.shape).astype(out.data.dtype)
    (out * Tensor(w)).sum().backward()

    def scalar(*arrs):
        ts = [Tensor(a) for a in arrs]
        return float((build(*ts).data * w).sum())

    for i, t in enumerate(tensors):
        num = numeric_grad(scalar, arrays, i, eps=eps)
        got = t.grad if t.grad is not None else np.zeros_like(arrays[i])
        denom = max(np.abs(num).max(), np.abs(got).max(), 1e-8)
        rel = np.abs(got - num).max() / denom
        assert rel <= tol, f"input {i}: max rel grad error {rel:.3e} > {tol}"


def sub(a, b):
    """a - b with its gradient, a or b a Tensor and the other a Tensor or a
    constant, in the float dtype ``ag.add`` and ``ag.mul`` compute in
    (float32 for one-byte spikes)."""
    if isinstance(b, Tensor):
        a = _wrap(a, b.dtype)
    b = _wrap(b, a.dtype)
    out_data = np.subtract(a.data, b.data, dtype=_float(a.dtype, b.dtype))

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward)


def neg(a):
    """-a, as ``ag.mul(a, -1.0)``."""
    return ag.mul(a, -1.0)


def sigmoid(a):
    """sigmoid(a) with its gradient; PLIF's 1/tau is ``sigmoid(w)``."""
    out_data = _sigmoid(a.data)

    def backward(g):
        a.accumulate_grad(g * out_data * (1.0 - out_data))

    return Tensor.from_op(out_data, (a,), backward)


def spec_node(spec, name):
    """The node of ``spec`` named ``name``."""
    return next(n for n in spec.nodes if n["name"] == name)


def cnhw(a):
    """(N, C, H, W) <-> (C, N, H, W), contiguous: swapping the first two
    axes is its own inverse."""
    return np.ascontiguousarray(np.swapaxes(a, 0, 1))


def plif(x, w):
    """The PLIF neuron alone over all T frames of x, (T, ...), from rest: the
    program's ``ops._plif_op`` with x as its own drive and a frame backward
    that copies dX into x's gradient, i.e. ``ag.conv_plif`` without the conv.
    ``w`` is the learned w (a Tensor), or a itself, 0.5 or 1.0, which a
    frozen w of x's dtype pins exactly: sigmoid(0) = 0.5 and sigmoid(40) =
    1.0 in float32 and float64."""

    def copy_dx(_, __, d, dx):
        dx[...] = d

    if not isinstance(w, Tensor):
        w = Tensor(np.array([{0.5: 0.0, 1.0: 40.0}[w]], dtype=x.data.dtype))
    return ops._plif_op(x, w, (x,), lambda x_t: (x_t, None), copy_dx)


def _bn_xhat(x, mean, invstd):
    """xhat = (x - mean) * invstd on (C, m) rows, mean and invstd (C, 1)."""
    xhat = x.reshape(mean.shape[0], -1) - mean
    xhat *= invstd
    return xhat


def batchnorm2d(x, gamma, beta, running_mean, running_var):
    """Batch norm alone of each (C, N, H, W) frame of x (one frame or T) in
    the mode the tape sets, run frame by frame by ``ops._framewise``: the
    composition that ``ag.conv2d(..., bn=...)`` folds into its conv, with
    its output built. While the tape records each frame normalizes with
    its batch statistics (``ops._bn_stats``, which updates the running
    statistics), under ``no_grad`` with the running statistics. The
    backward rebuilds xhat from x and runs the textbook gradient through
    the batch statistics."""
    training = ag.grad_enabled()

    def forward(x_t):
        c = x_t.shape[0]
        if training:
            mean, invstd = ops._bn_stats(x_t, gamma.data.dtype, running_mean, running_var)
        else:
            mean, invstd = running_mean, 1.0 / np.sqrt(running_var + ops.BN_EPS)
        stats = mean.reshape(c, 1), invstd.reshape(c, 1)
        y = _bn_xhat(x_t, *stats) * gamma.data.reshape(c, 1) + beta.data.reshape(c, 1)
        return y.reshape(x_t.shape), stats

    def backward(x_t, stats, g, dx):
        mean, invstd = stats
        c = mean.shape[0]
        gm = g.reshape(c, -1)
        m = gm.shape[1]
        xhat = _bn_xhat(x_t, mean, invstd)
        gsum = gm.sum(axis=1, keepdims=True)
        gx = (gm * xhat).sum(axis=1, keepdims=True)
        if beta.requires_grad:
            beta.accumulate_fresh_grad(gsum.reshape(c))
        if gamma.requires_grad:
            gamma.accumulate_fresh_grad(gx.reshape(c))
        if dx is not None:
            # gamma invstd (gm - gsum/m - xhat*gx/m), built in xhat
            xhat *= gx
            xhat /= m
            np.subtract(gm - gsum / m, xhat, out=xhat)
            np.multiply(xhat, gamma.data.reshape(c, 1) * invstd, out=dx.reshape(c, -1))

    return ops._framewise(x, (x, gamma, beta), forward, backward)


def call_layer(layer, *args):
    """A layer as a call of its own: a bn or plif layer, which ``Network``
    runs only inside its conv's call, through ``batchnorm2d`` or ``plif``."""
    if isinstance(layer, BatchNormLayer):
        return batchnorm2d(*args, layer.gamma, layer.beta, layer.running_mean, layer.running_var)
    if isinstance(layer, PLIFLayer):
        return plif(*args, layer.w)
    return layer(*args)


def stepwise_forward(net, batch, record=None, unfolded=False):
    """Reference for ``Network.forward``: every node over all T frames, the
    heads too, then each output summed over time with ``ag.time_sum``.
    ``forward`` runs the nodes that commute with that sum once, on the
    time-summed input instead. Each bn runs in its conv's call,
    ``conv(x, 1, bn)``, and a block's conv in a call of its own, before the
    plif's neuron (``call_layer``); with ``unfolded`` the bn runs as a call
    of its own before the conv's (``batchnorm2d``), the batch norm that the
    conv otherwise folds in.
    ``record`` counts spikes as ``forward`` does."""
    bn_of = {} if unfolded else net.bn_of
    paired = set(bn_of.values())
    values = {"input": Tensor(np.ascontiguousarray(batch.transpose(2, 1, 0, 3, 4)))}
    for node in net.spec.nodes:
        name, inputs, extra = node["name"], node["inputs"], ()
        if name in paired:
            continue
        if name in bn_of:
            inputs, extra = spec_node(net.spec, bn_of[name])["inputs"], (1, net.layers[bn_of[name]])
        if node["type"] == "spatial_sum":  # per frame: (T, C, N, H, W) -> (T, N, C)
            out = values[inputs[0]].sum(axis=(3, 4)).transpose(0, 2, 1)
        else:
            out = call_layer(net.layers[name], *[values[i] for i in inputs], *extra)
        values[name] = out
        if node["type"] == "plif" and record is not None:
            record.add(name, int(np.count_nonzero(out.data)), out.data.size)
    return {o: ag.time_sum(values[o]) for o in net.spec.outputs}


def outputs_and_grads(net, run, loss_of):
    """The outputs of ``run()`` and every parameter gradient of ``net``
    after backpropagating ``loss_of(outputs)``."""
    for p in net.param_list():
        p.grad = None
    outputs = run()
    loss_of(outputs).backward()
    return outputs, {name: p.grad.copy() for name, p in net.params().items()}


@contextlib.contextmanager
def count_tape_ops():
    """Count the ``Tensor.from_op`` calls made inside the block (the ops,
    whether or not the tape records them) in ``counter.ops``."""
    counter = types.SimpleNamespace(ops=0)
    from_op = Tensor.from_op

    def counted(data, parents, backward):
        counter.ops += 1
        return from_op(data, parents, backward)

    Tensor.from_op = staticmethod(counted)
    try:
        yield counter
    finally:
        Tensor.from_op = staticmethod(from_op)


def _base_array(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _op_name(backward):
    """The qualified name of an op's backward closure, or for an op run frame
    by frame (``ops._framewise``) that of its own frame backward."""
    if backward.__qualname__ == "_framewise.<locals>.op_backward":
        backward = dict(zip(backward.__code__.co_freevars, backward.__closure__))["backward"].cell_contents
    return backward.__qualname__


def tape_bytes(loss):
    """Bytes the tape behind ``loss`` holds, by op: a walk over the recorded
    entries that charges each distinct base array to the first entry whose
    output or backward closure holds it (in a closure cell, a tuple, list or
    dict value or a helper closure there, or in a slot of an object there).
    Tensors in a closure are
    parents, counted as their own entries; the arrays of leaf tensors
    (parameters, inputs) and views of them are not tape. Keyed by the
    closure's qualified name (``_op_name``), e.g.
    ``_plif_op.<locals>.backward`` or, for a head conv,
    ``_conv_frames.<locals>.conv2d_backward``; ``elements`` counts the
    output elements of each key's entries."""
    entries, seen, visited = [], set(), set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in visited:
            continue
        visited.add(id(t))
        if t._backward is None:
            seen.add(id(_base_array(t.data)))
            continue
        entries.append(t)
        stack.extend(t._parents)
    held, elements = {}, {}
    for t in entries:
        key = _op_name(t._backward)
        elements[key] = elements.get(key, 0) + t.data.size
        arrays, cells = [t.data], list(t._backward.__closure__ or ())
        while cells:
            value = cells.pop().cell_contents
            if isinstance(value, types.FunctionType):  # a helper closure the backward calls
                cells += value.__closure__ or ()
                continue
            if isinstance(value, (tuple, list, dict)):
                cells += [types.CellType(v) for v in (value.values() if isinstance(value, dict) else value)]
                continue
            slots = () if isinstance(value, Tensor) else getattr(type(value), "__slots__", ())
            arrays += [value] + [getattr(value, s, None) for s in slots]
        for a in arrays:
            if isinstance(a, np.ndarray) and id(_base_array(a)) not in seen:
                seen.add(id(_base_array(a)))
                held[key] = held.get(key, 0) + _base_array(a).nbytes
    return types.SimpleNamespace(held=held, elements=elements)
