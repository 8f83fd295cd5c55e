"""Neural-net ops with explicit backward passes.

Activations are channel-major, (C, N, H, W). Convolution and max pooling
share one window layout (``_PhaseGrid``): the input is padded and split into
its s*s stride phases in one pass, each (channel, sample) row flattened, so
that every kernel tap reads one contiguous slice of an ho x wq output grid,
cropped to the ho x wo output. A convolution copies the k*k slices into one
(Cin, kh*kw, N, ho*wq) column buffer and runs one GEMM per group over all of
its columns. Its tape keeps only the phase buffer (the input itself for an
unpadded 1x1 stride-1 conv): the backward rebuilds the columns for dW, adds
the column gradient back tap by tap, and writes dx in one copy that drops the
border. Max pooling is a running maximum over the same slices; its backward
scatters each output's gradient to the cell that held its maximum in one
``np.add.at``. Batch norm reduces each channel's contiguous row; its tape
keeps the channel mean and 1/std, and the backward rebuilds xhat from the
input. The tape sets its mode: batch statistics and a running-statistics
update while it records, the running statistics, unchanged, under
``no_grad``.

``bn_conv`` is a batch norm and the conv that reads it as one op. On the
tape it is one entry, bit for bit ``conv2d(batchnorm2d(...))``, that keeps
the conv's output and the channel mean and 1/std: the backward rebuilds
xhat once from the input (a block's one-byte spikes, a parent), the phase
buffer from xhat, then runs the conv's and the batch norm's backward. Under
``no_grad`` the batch norm folds into the conv, which reads the spikes
themselves.

A PLIF neuron step (``plif``) is one op with a hand-derived backward, so a
layer records one tape entry per timestep. The membrane is an array handed
from step to step, not a Tensor; its gradient goes back through a
``PLIFLink``. The tape keeps the step's spikes (1 byte each) and pre-reset
membrane v. No PLIF backward reads its input X: w's gradient reads it only
through a (X - V) = v - V, rebuilt from v and the previous step's v.

``conv_plif`` is a spiking block's timestep, bn -> conv -> PLIF (or conv ->
PLIF), as one op, bit for bit ``plif(bn_conv(...))``: the conv's float
output is dropped in the forward, so per block and timestep the tape holds
one entry with the spikes (1 byte), v (4 bytes in float32) and the batch
norm's O(C) statistics. Its backward runs PLIF's, then hands dX to
``bn_conv``'s backward (or the conv's), which rebuild their inputs from the
block's input spikes.

Conv, batch norm, their pair, PLIF and the block keep on the tape only what
their backward reads and cannot rebuild, with the forward's own float ops,
from arrays the tape holds anyway (the store-less trade of Chen et al.,
2016); the rebuilt values are bit for bit those of the forward.

Spikes are one byte: ``plif`` returns the ``uint8`` view of its boolean
comparison, and max pooling and concat pass one-byte inputs on as one-byte
outputs, so the tape holds 1 byte per spike, not 4. Batch norm sums a
one-byte row into the parameters' float dtype, an exact count divided by m
while m < 2**24 (the mean of the float32 copy bit for bit); conv2d splits
it into a float phase buffer; ``time_sum`` adds spikes over time into
float32. Gradients are float: a one-byte tensor takes the dtype of the
first gradient it receives.

Gradients an op builds fresh are handed over with
``Tensor.accumulate_fresh_grad``, which stores a first gradient uncopied.
"""

from __future__ import annotations

import functools

import numpy as np

from .tensor import Tensor, _float, _sigmoid, grad_enabled

BN_MOMENTUM = 0.1  # torch-style: running = (1 - momentum) running + momentum batch
BN_EPS = 1e-5
PLIF_SURROGATE_ALPHA = 2.0  # the ATan surrogate's width (SpikingJelly's default)


def _out_size(h, w, kh, kw, stride, padding):
    """(ho, wo) of a kh x kw window sliding over an (h, w) input padded by
    ``padding``; raises ValueError when the window does not fit."""
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"window {kh}x{kw} does not fit input {h}x{w} with padding {padding}")
    return ho, wo


def _phase_axis(a, s, p, size):
    """Along one axis of phase a: the slice of its grid and the slice of the
    unpadded input that hold the same cells (grid index q is padded index
    q*s + a, input index q*s + a - p)."""
    q0 = -((a - p) // s)  # the first q with q*s + a >= p
    r0 = q0 * s + a - p
    count = len(range(r0, size, s))
    return slice(q0, q0 + count), slice(r0, size, s)


class _PhaseGrid:
    """A kh x kw window at stride s over a (C, N, H, W) input padded by p,
    laid out so that each kernel tap reads one contiguous slice.

    The padded input is split into its stride phases, a (ph, pw, C, N, size)
    buffer: phase (a, b) holds padded cell (q*s + a, r*s + b) at q*wq + r,
    hq*wq cells plus (kw - 1)//s of slack. Tap (i, j) then reads
    ``phases[i % s, j % s, :, :, off:off + span]`` with
    off = (i // s)*wq + j // s and span = ho*wq: an ho x wq output grid whose
    first wo columns are the output; the other wq - wo columns read cells
    that ``crop`` drops and that ``extend`` gives a zero gradient. Only the
    phases some tap reads are built: min(s, k) per axis.
    """

    def __init__(self, shape, kh, kw, s, p):
        c, n, h, w = shape
        self.shape, self.s, self.p = shape, s, p
        self.ho, self.wo = _out_size(h, w, kh, kw, s, p)
        self.hq, self.wq = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
        self.span = self.ho * self.wq
        self.taps = [(i % s, j % s, (i // s) * self.wq + j // s) for i in range(kh) for j in range(kw)]
        self.phases_shape = (min(s, kh), min(s, kw), c, n, self.hq * self.wq + (kw - 1) // s)
        self.is_input = s == 1 and p == 0 and kw == 1  # no border, no slack: the input is its one phase

    def _grids(self, phases):
        """For each phase: its (C, N, hq, wq) grid, and the index of the grid
        and of the unpadded input that hold the same cells."""
        c, n, h, w = self.shape
        for a in range(phases.shape[0]):
            rq, rx = _phase_axis(a, self.s, self.p, h)
            for b in range(phases.shape[1]):
                cq, cx = _phase_axis(b, self.s, self.p, w)
                grid = phases[a, b, :, :, : self.hq * self.wq].reshape(c, n, self.hq, self.wq)
                yield grid, (..., rq, cq), (..., rx, cx)

    def split(self, x, fill=None, dtype=None):
        """The phase buffer of x at ``dtype`` (x's own by default), padded
        with zero or with fill[c] for channel c."""
        dtype = x.dtype if dtype is None else dtype
        if self.is_input:
            return x.astype(dtype, copy=False).reshape(self.phases_shape)
        if fill is None:
            phases = np.zeros(self.phases_shape, dtype=dtype)
        else:
            phases = np.empty(self.phases_shape, dtype=dtype)
            phases[:] = np.asarray(fill, dtype=dtype).reshape(-1, 1, 1)
        for grid, cells, x_cells in self._grids(phases):
            grid[cells] = x[x_cells]
        return phases

    def merge(self, d):
        """The (C, N, H, W) input gradient of a phase-buffer gradient d: one
        copy that drops the border."""
        if self.is_input:
            return d.reshape(self.shape)
        every_cell = d.shape[:2] == (self.s, self.s)  # else some rows or columns no tap reads
        dx = (np.empty if every_cell else np.zeros)(self.shape, dtype=d.dtype)
        for grid, cells, x_cells in self._grids(d):
            dx[x_cells] = grid[cells]
        return dx

    def window(self, phases, tap):
        a, b, off = tap
        return phases[a, b, :, :, off : off + self.span]

    def columns(self, phases):
        """The (C, kh*kw, N, span) column buffer, tap by tap in row-major order."""
        if len(self.taps) == 1:
            return self.window(phases, self.taps[0])[:, None]
        cols = np.empty((self.shape[0], len(self.taps), self.shape[1], self.span), dtype=phases.dtype)
        for t, tap in enumerate(self.taps):
            cols[:, t] = self.window(phases, tap)
        return cols

    def scatter(self, dcols):
        """The phase-buffer gradient of a column-buffer gradient: each tap's
        slice added in row-major tap order."""
        if len(self.taps) == 1:  # a 1x1 window's one slice is the whole buffer
            return dcols.reshape(self.phases_shape)
        d = np.zeros(self.phases_shape, dtype=dcols.dtype)
        for t, tap in enumerate(self.taps):
            window = self.window(d, tap)
            window += dcols[:, t]
        return d

    def crop(self, grid_out):
        """(C, N, ho, wo) from values on the (C, N, ho, wq) output grid."""
        return np.ascontiguousarray(grid_out.reshape(-1, self.shape[1], self.ho, self.wq)[..., : self.wo])

    def extend(self, g):
        """(C, N, span) from a (C, N, ho, wo) gradient, zero in the wq - wo
        columns the crop dropped."""
        c, n = g.shape[:2]
        if self.wq == self.wo:
            return g.reshape(c, n, self.span)
        out = np.zeros((c, n, self.ho, self.wq), dtype=g.dtype)
        out[..., : self.wo] = g
        return out.reshape(c, n, self.span)


def _conv_grid(x_shape, w_shape, stride, padding, groups):
    """The ``_PhaseGrid`` of a conv of an x_shape input with a w_shape
    weight; raises ValueError when the channels do not divide into groups."""
    cin = x_shape[0]
    cout, cin_g, kh, kw = w_shape
    if cin % groups != 0 or cout % groups != 0:
        raise ValueError(f"channels not divisible by groups: Cin={cin}, Cout={cout}, groups={groups}")
    if cin_g != cin // groups:
        raise ValueError(f"weight expects Cin/g={cin_g} input channels per group, got Cin={cin} with groups={groups}")
    return _PhaseGrid(x_shape, kh, kw, stride, padding)


def _conv_forward(grid, phases, w, b, groups):
    """The (Cout, N, Ho, Wo) output of a conv on its phase buffer: one GEMM
    per group over all of its columns, plus the bias (arrays, b may be None)."""
    cout = w.shape[0]
    w_m = w.reshape(groups, cout // groups, -1)
    out = grid.crop(np.matmul(w_m, grid.columns(phases).reshape(groups, w_m.shape[2], -1)))
    if b is not None:
        out += b.reshape(cout, 1, 1, 1)
    return out


def _conv_backward(grid, phases, g, w, b, groups, needs_dx):
    """Hands w and b their gradients from the output gradient g, the columns
    rebuilt from ``phases`` for dW; returns the phase buffer's gradient when
    ``needs_dx``, else None."""
    cout = w.data.shape[0]
    w_m = w.data.reshape(groups, cout // groups, -1)
    gm = grid.extend(g).reshape(groups, cout // groups, -1)
    if w.requires_grad:
        cols_t = grid.columns(phases).reshape(groups, w_m.shape[2], -1).transpose(0, 2, 1)
        w.accumulate_fresh_grad(np.matmul(gm, cols_t).reshape(w.data.shape))
        del cols_t  # freed before the column gradient is allocated
    if b is not None and b.requires_grad:
        b.accumulate_fresh_grad(g.reshape(cout, -1).sum(axis=1))
    if not needs_dx:
        return None
    cin, n = grid.shape[:2]
    dcols = np.matmul(w_m.transpose(0, 2, 1), gm).reshape(cin, len(grid.taps), n, grid.span)
    return grid.scatter(dcols)


def _conv_grads(grid, phases, g, x, w, b, groups):
    """The conv's backward from the output gradient g: w, b and x (through
    the phase buffer's gradient) get theirs."""
    d = _conv_backward(grid, phases, g, w, b, groups, x.requires_grad)
    if d is not None:
        x.accumulate_fresh_grad(grid.merge(d))


def _split_input(grid, x, w):
    """The phase buffer of a conv's input x: one-byte spikes at the
    weight's dtype."""
    return grid.split(x.data, dtype=np.result_type(x.data.dtype, w.data.dtype))


def conv2d(x, w, b=None, stride=1, padding=0, groups=1):
    """2-D cross-correlation. x: (Cin,N,H,W), w: (Cout,Cin/g,kh,kw) -> (Cout,N,Ho,Wo).

    The border is zero. One-byte spikes are split into a phase buffer of the
    weight's dtype. The tape keeps the phase buffer, not the column buffer;
    the backward rebuilds the columns for dW.
    """
    grid = _conv_grid(x.data.shape, w.data.shape, stride, padding, groups)
    phases = _split_input(grid, x, w)
    out = _conv_forward(grid, phases, w.data, None if b is None else b.data, groups)

    def backward(g):
        _conv_grads(grid, phases, g, x, w, b, groups)

    return Tensor.from_op(out, (x, w) if b is None else (x, w, b), backward)


def _bn_forward(x, gamma, beta, running_mean, running_var):
    """Batch norm of (C, N, H, W) data x over each channel's row: the (C, m)
    output, the channel mean and 1/std, both (C, 1).

    While the tape records, the centred rows and their squares give the
    variance with the same float ops as ``np.var``, then become xhat and the
    output in place, and the running statistics are updated in place
    (unbiased variance). One-byte spikes are summed into the parameters'
    float dtype: the mean of binary rows is an exact count divided by m
    while m < 2**24, equal to the mean of their float copy. Under
    ``no_grad`` the running statistics normalize and stay unchanged.
    """
    c = x.shape[0]
    xm = x.reshape(c, -1)
    m = xm.shape[1]
    if grad_enabled():
        if m < 2:
            raise ValueError("batchnorm2d needs more than one value per channel while the tape records")
        dtype = xm.dtype if xm.dtype.kind == "f" else gamma.data.dtype
        mean = xm.mean(axis=1, keepdims=True, dtype=dtype)
        xhat = xm - mean  # centred, scaled to xhat below
        out = np.square(xhat)
        var = out.sum(axis=1) / m
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean.reshape(c)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var * m / (m - 1)
    else:
        mean, var = running_mean.reshape(c, 1), running_var
        xhat = xm - mean
        out = np.empty_like(xhat)
    invstd = (1.0 / np.sqrt(var + BN_EPS)).reshape(c, 1)
    xhat *= invstd
    return _bn_affine(xhat, gamma, beta, out), mean, invstd


def _bn_xhat(x, mean, invstd):
    """xhat = (x - mean) * invstd on (C, m) rows, with the forward's float ops."""
    xhat = x.reshape(mean.shape[0], -1) - mean
    xhat *= invstd
    return xhat


def _bn_affine(xhat, gamma, beta, out):
    """out = xhat * gamma + beta, per channel row."""
    c = xhat.shape[0]
    np.multiply(xhat, gamma.data.reshape(c, 1), out=out)
    out += beta.data.reshape(c, 1)
    return out


def _bn_backward(x, gamma, beta, mean, invstd, g, xhat=None):
    """Hands x, gamma and beta their gradients from the output gradient g,
    through the batch statistics. xhat is rebuilt from x when not given,
    and overwritten."""
    c = mean.shape[0]
    gm = g.reshape(c, -1)
    m = gm.shape[1]
    if beta.requires_grad or x.requires_grad:
        gsum = gm.sum(axis=1, keepdims=True)
        if beta.requires_grad:
            beta.accumulate_fresh_grad(gsum.reshape(c))
    if gamma.requires_grad or x.requires_grad:
        if xhat is None:
            xhat = _bn_xhat(x.data, mean, invstd)
        gx = (gm * xhat).sum(axis=1, keepdims=True)
        if gamma.requires_grad:
            gamma.accumulate_fresh_grad(gx.reshape(c))
    if x.requires_grad:
        # gamma invstd (gm - gsum/m - xhat*gx/m), written over xhat
        xhat *= gx
        xhat /= m
        np.subtract(gm - gsum / m, xhat, out=xhat)
        xhat *= gamma.data.reshape(c, 1) * invstd
        x.accumulate_fresh_grad(xhat.reshape(x.data.shape))


def batchnorm2d(x, gamma, beta, running_mean, running_var):
    """Per-channel batch normalization of (C, N, H, W) over each channel's row.

    ``running_mean``/``running_var`` are plain numpy arrays, mutated in
    place while the tape records; under ``no_grad`` they normalize instead
    (see ``_bn_forward``). The tape keeps the channel mean and 1/std, O(C):
    the backward rebuilds xhat = (x - mean) * invstd from the input, with
    the forward's float ops.
    """
    out, mean, invstd = _bn_forward(x.data, gamma, beta, running_mean, running_var)

    def backward(g):
        _bn_backward(x, gamma, beta, mean, invstd, g)

    return Tensor.from_op(out.reshape(x.data.shape), (x, gamma, beta), backward)


def _bn_fold(gamma, beta, running_mean, running_var, w, b, groups):
    """Arrays W', b', p of the conv on x that equals conv(bn(x)) on the
    running statistics (Jacob et al., CVPR 2018): with s = gamma /
    sqrt(running_var + eps) per input channel, W' = W*s, b' = b + sum
    W*(beta - s*running_mean) over each output's taps, and the border
    p = running_mean - beta/s that the batch norm maps to 0 (0 where s = 0)."""
    scale = gamma / np.sqrt(running_var + BN_EPS)
    cout, cin_g = w.shape[:2]
    # the input channel of each (output channel, weight column)
    ic = (np.arange(cout)[:, None] // (cout // groups)) * cin_g + np.arange(cin_g)
    w_f = w * scale[ic][:, :, None, None]
    b_f = (w * (beta - scale * running_mean)[ic][:, :, None, None]).sum(axis=(1, 2, 3))
    if b is not None:
        b_f += b
    nonzero = scale != 0
    fill = np.where(nonzero, running_mean - beta / np.where(nonzero, scale, 1), 0)
    return w_f, b_f, fill


def _bn_conv_forward(grid, x, bn, w, b, groups):
    """The output of ``conv2d(batchnorm2d(x, *bn), w, b, ...)`` as
    ``bn_conv`` computes it (bn = gamma, beta, running_mean, running_var),
    and what its backward reads: the channel mean and 1/std while the tape
    records, None under ``no_grad``, where the batch norm folds into the
    conv."""
    gamma, beta, running_mean, running_var = bn
    b_data = None if b is None else b.data
    if not grad_enabled():
        w_f, b_f, fill = _bn_fold(gamma.data, beta.data, running_mean, running_var, w.data, b_data, groups)
        phases = grid.split(x.data, fill, np.result_type(x.data.dtype, w_f.dtype))
        return _conv_forward(grid, phases, w_f, b_f, groups), None
    y, mean, invstd = _bn_forward(x.data, gamma, beta, running_mean, running_var)
    phases = grid.split(y.reshape(x.data.shape), dtype=np.result_type(y.dtype, w.data.dtype))
    del y
    return _conv_forward(grid, phases, w.data, b_data, groups), (mean, invstd)


def _bn_conv_backward(grid, x, gamma, beta, stats, w, b, groups, g):
    """``bn_conv``'s backward from the output gradient g: rebuilds xhat once
    from x, the phase buffer from xhat, then runs the conv's backward and
    the batch norm's on that xhat."""
    mean, invstd = stats
    xhat = _bn_xhat(x.data, mean, invstd)
    y = _bn_affine(xhat, gamma, beta, np.empty_like(xhat)).reshape(x.data.shape)
    phases = grid.split(y, dtype=np.result_type(y.dtype, w.data.dtype))
    del y
    d = _conv_backward(grid, phases, g, w, b, groups, x.requires_grad or gamma.requires_grad or beta.requires_grad)
    del phases
    if d is not None:
        _bn_backward(x, gamma, beta, mean, invstd, grid.merge(d).astype(xhat.dtype, copy=False), xhat)


def bn_conv(x, gamma, beta, running_mean, running_var, w, b=None, stride=1, padding=0, groups=1):
    """``conv2d(batchnorm2d(x, ...), w, b, ...)`` as one op, in the mode the
    tape sets.

    Under ``no_grad`` the batch norm folds into the conv (``_bn_fold``,
    O(Cout*Cin/g*k*k) per call): one conv on x, equal to the composition to
    float round-off, with none of the batch norm's passes over x. A channel
    with gamma = 0 is the constant beta, and the fold pads it with beta, not
    0: a window that reaches the border gains that channel's border taps
    times beta.

    While the tape records it is one tape entry, bit for bit the
    composition, running statistics update included. The tape keeps the
    output and the channel mean and 1/std, not the batch norm's output nor
    the phase buffer; x (the one-byte spikes of a block) is a parent. The
    backward rebuilds xhat from x once, the phase buffer from xhat, then
    runs the conv's backward and the batch norm's on that xhat.
    """
    grid = _conv_grid(x.data.shape, w.data.shape, stride, padding, groups)
    out, stats = _bn_conv_forward(grid, x, (gamma, beta, running_mean, running_var), w, b, groups)

    def backward(g):
        _bn_conv_backward(grid, x, gamma, beta, stats, w, b, groups, g)

    return Tensor.from_op(out, (x, gamma, beta, w) if b is None else (x, gamma, beta, w, b), backward)


def maxpool2d(x, kernel, stride=None, padding=0):
    """Max pooling of (C, N, H, W) over a zero border of ``padding``; ties go
    to the first element in row-major window order. The output has x's
    dtype, one byte for spikes; the gradient has g's."""
    k, s, p = kernel, kernel if stride is None else stride, padding
    grid = _PhaseGrid(x.data.shape, k, k, s, p)
    phases = grid.split(x.data)
    out = grid.window(phases, grid.taps[0]).copy()
    index = np.zeros(out.shape, dtype=np.uint8)  # the tap holding each maximum
    for i, tap in enumerate(grid.taps[1:], 1):
        window = grid.window(phases, tap)
        better = window > out  # strict: an equal later value does not take over
        np.maximum(out, window, out=out)
        # taps come in increasing order, so the last that was better is the
        # largest; an unmasked maximum is much faster than a masked copy
        np.maximum(index, better.view(np.uint8) * np.uint8(i), out=index)

    def backward(g):
        c, n, h, w = x.data.shape
        hp, wp = h + 2 * p, w + 2 * p
        # the padded cell each output's maximum came from, as a flat index
        # into (C, N, hp, wp), in the narrowest integer type that holds it
        dtype = np.min_scalar_type(max(c * n * hp * wp - 1, s * wp))
        dest = np.array([(t // k) * wp + t % k for t in range(k * k)], dtype=dtype)[grid.crop(index)]
        dest += (np.arange(c * n, dtype=dtype) * dtype.type(hp * wp)).reshape(c, n, 1, 1)
        dest += (np.arange(grid.ho, dtype=dtype) * dtype.type(s * wp)).reshape(-1, 1)
        dest += np.arange(grid.wo, dtype=dtype) * dtype.type(s)
        # one scatter in row-major output order: overlapping windows add
        # into a cell in the order of the outputs that chose it
        d = np.zeros((c, n, hp, wp), dtype=g.dtype)
        np.add.at(d.reshape(-1), dest.reshape(-1), g.reshape(-1))
        x.accumulate_fresh_grad(np.ascontiguousarray(d[:, :, p : p + h, p : p + w]) if p else d)

    return Tensor.from_op(grid.crop(out), (x,), backward)


def concat(tensors, axis):
    """Concatenate tensors along ``axis``, one-byte spikes into one-byte
    spikes; numpy raises ValueError unless every other axis matches."""
    out = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, gs in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.accumulate_grad(gs)

    return Tensor.from_op(out, tuple(tensors), backward)


def time_sum(frames):
    """The sum of equal-shape tensors, one per timestep, added in order into
    one float array, float32 for one-byte spikes (counts are exact). One
    tape entry that keeps no partial sums, where T - 1 ``add`` ops keep
    T - 2; the backward hands every frame the sum's gradient."""
    out = frames[0].data.astype(_float(frames[0].dtype))
    for frame in frames[1:]:
        out += frame.data

    def backward(g):
        for frame in frames:
            if frame.requires_grad:
                frame.accumulate_grad(g)

    return Tensor.from_op(out, tuple(frames), backward)


class PLIFLink:
    """What a PLIF step hands the next one besides V': its pre-reset membrane
    v while the tape records it (None otherwise), from which the next step's
    backward rebuilds V' = v [v < 1] for w's gradient, and the slot where
    that backward leaves dL/dV' for this step."""

    __slots__ = ("v", "grad")

    def __init__(self):
        self.v = self.grad = None


def _plif_backward(g, v, a, w, link, out_link, prev_spikes, needs_dx):
    """The backward of one PLIF step from its spikes' gradient g (see
    ``plif``). Hands w its gradient when it learns, and the previous step
    dL/dV through ``link``; returns dX = a dv when ``needs_dx``, else None.

    w's gradient reads the input X only through a (X - V) = v - V, so it is
    computed from v and the previous step's V' = v_prev [v_prev < 1]: no
    PLIF backward reads X."""
    dv = v - 1.0
    dv *= 0.5 * np.pi * PLIF_SURROGATE_ALPHA
    np.multiply(dv, dv, out=dv)
    dv += 1.0
    np.divide(PLIF_SURROGATE_ALPHA / 2, dv, out=dv)  # sg(v - 1); halving alpha is exact, so this is alpha / (2 dv)
    g_m, out_link.grad = out_link.grad, None
    if g_m is None:  # V' fed no later step
        dv *= g
    else:
        gs = v * g_m
        np.subtract(g, gs, out=gs)
        dv *= gs
        dv += np.multiply(g_m, v < 1.0, out=gs)  # (1 - s) g_m
    if isinstance(w, Tensor) and w.requires_grad:
        if link is None:  # from rest, V = 0
            w.accumulate_grad(np.vdot(dv, v) * (1.0 - a))
        else:
            leak = link.v * (link.v < 1.0)  # V', as the previous step made it
            w.accumulate_grad(np.vdot(dv, np.subtract(v, leak, out=leak)) * (1.0 - a))
    feeds_back = prev_spikes is not None and prev_spikes.requires_grad
    if not (needs_dx or feeds_back):
        return None
    dx = dv * a
    if feeds_back:
        link.grad = np.subtract(dv, dx, out=dv)
        if prev_spikes.grad is None:
            # no consumer handed those spikes a gradient; the walk runs a
            # backward only for a node that has one
            prev_spikes.grad = np.zeros(prev_spikes.data.shape, dtype=dv.dtype)
    return dx if needs_dx else None


def _plif_op(drive, state, w, inputs, input_backward):
    """One PLIF step on the array ``drive`` (see ``plif``), recorded as one
    tape entry whose parents are ``inputs`` (the tensors drive was made
    from), w when learned and the previous step's spikes. The backward hands
    dX to ``input_backward`` when some input needs a gradient. drive is not
    kept."""
    learned = isinstance(w, Tensor)
    a = _sigmoid(w.data) if learned else drive.dtype.type(w)
    if state is None:
        prev_spikes = link = None
        v = drive * a
    else:
        prev_v, prev_spikes, link = state
        v = (drive - prev_v) * a
        v += prev_v
    spiked = v >= 1.0
    parents = inputs + ((w,) if learned else ()) + ((prev_spikes,) if state is not None else ())
    needs_dx = any(t.requires_grad for t in inputs)
    out_link = PLIFLink()

    def backward(g):
        dx = _plif_backward(g, v, a, w, link, out_link, prev_spikes, needs_dx)
        if dx is not None:
            input_backward(dx)

    spikes = Tensor.from_op(spiked.view(np.uint8), parents, backward)
    if spikes.requires_grad:
        if learned and w.requires_grad and link is not None and link.v is None:
            raise ValueError("a recorded PLIF step with a learned w cannot follow a step run without the tape")
        out_link.v = v
    return spikes, (v * ~spiked, spikes, out_link)


def plif(x, state, w):
    """One PLIF step over a whole frame, recorded as one tape entry.

    v = V + (X - V) a with a = 1/tau (v = X a from rest, when ``state`` is
    None), spikes s = [v >= 1], reset membrane V' = v (1 - s). ``w`` sets a:
    a Tensor is the learned w with a = sigmoid(w), a float is a itself.
    ``state`` is the (V', spikes, PLIFLink) triple the previous step
    returned; returns (spikes, state'). The spikes are the ``uint8`` view of
    the boolean s, one byte each; their gradient is float.

    Backward is BPTT with the ATan surrogate sg(u) = alpha / (2 (1 + (pi
    alpha u / 2)^2)), alpha = ``PLIF_SURROGATE_ALPHA``, for the step's
    derivative. With g_s the spikes' gradient and g_m the one the next step
    hands back for V' (the reset term is not detached):
        dv = sg(v - 1) (g_s - v g_m) + (1 - s) g_m
        dX = a dv,  dL/dV = dv - dX,  dw = (1 - a) sum(dv (v - V))
    where dw is a (1 - a) sum(dv (X - V)) with a (X - V) = v - V. The
    previous step's spikes are a parent, so the tape walk reaches that step
    after this one has left dL/dV in its link.

    The tape keeps the spikes and v; V comes from the previous step's v
    through the link. No backward reads X.
    """
    return _plif_op(x.data, state, w, (x,), x.accumulate_fresh_grad)


def conv_plif(x, state, plif_w, w, b=None, stride=1, padding=0, groups=1, bn=None):
    """A spiking block's timestep as one op: ``plif(conv2d(x, w, b, ...),
    state, plif_w)``, or with ``bn`` = (gamma, beta, running_mean,
    running_var) ``plif(bn_conv(x, *bn, w, b, ...), state, plif_w)``, in the
    mode the tape sets; returns (spikes, state') as ``plif`` does.

    The forward is the composition's: the batch norm and conv as
    ``bn_conv`` runs them (folded under ``no_grad``), then the PLIF step on
    the conv's output, which is dropped before the op returns. While the
    tape records it is one entry, bit for bit the composition, that keeps
    the spikes (1 byte), v (4 bytes in float32) and the batch norm's O(C)
    statistics. The backward runs PLIF's, then hands dX = a dv to the conv's
    and the batch norm's, which rebuild their inputs from x, a parent.
    """
    grid = _conv_grid(x.data.shape, w.data.shape, stride, padding, groups)
    gamma = beta = stats = None
    if bn is None:
        drive = _conv_forward(grid, _split_input(grid, x, w), w.data, None if b is None else b.data, groups)
    else:
        drive, stats = _bn_conv_forward(grid, x, bn, w, b, groups)
        gamma, beta = bn[:2]

    def input_backward(dx):
        if gamma is None:
            _conv_grads(grid, _split_input(grid, x, w), dx, x, w, b, groups)
        else:
            _bn_conv_backward(grid, x, gamma, beta, stats, w, b, groups, dx)

    inputs = tuple(t for t in (x, gamma, beta, w, b) if t is not None)
    return _plif_op(drive, state, plif_w, inputs, input_backward)


def _softmax(z):
    """Softmax over the short trailing class axis (2-3 classes), column by
    column: numpy reduces such an axis slowly. The sum adds left to right, as
    numpy's pairwise sum does for fewer than 8 columns."""
    e = z - functools.reduce(np.maximum, [z[..., j] for j in range(z.shape[-1])])[..., None]
    np.exp(e, out=e)
    total = e[..., 0].copy()
    for j in range(1, z.shape[-1]):
        total += e[..., j]
    e /= total[..., None]
    return e


def softmax_cross_entropy(logits, targets):
    """Mean cross-entropy over rows. logits: (N,C), targets: int (N,)."""
    targets = np.asarray(targets)
    p = _softmax(logits.data.astype(np.float64))
    n = logits.data.shape[0]
    loss = -np.log(np.maximum(p[np.arange(n), targets], 1e-30)).mean()

    def backward(g):
        d = p.copy()
        d[np.arange(n), targets] -= 1.0
        logits.accumulate_grad((g * d / n).astype(logits.data.dtype))

    return Tensor.from_op(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward)


def focal_loss(logits, targets, gamma=2.0, alpha=0.25, normalizer=None):
    """Softmax focal loss with a background class at index 0.

    FL_i = -a_i * (1 - p_t)^gamma * log(p_t), a_i = alpha for foreground
    rows, (1 - alpha) for background. Summed over rows and divided by
    ``normalizer`` (defaults to the foreground count, floored at 1).
    """
    targets = np.asarray(targets)
    p = _softmax(logits.data.astype(np.float64))
    n = logits.data.shape[0]
    rows = np.arange(n)
    pt = np.maximum(p[rows, targets], 1e-12)
    at = np.where(targets > 0, alpha, 1.0 - alpha) if alpha is not None else np.ones(n)
    if normalizer is None:
        normalizer = max(int((targets > 0).sum()), 1)
    logpt = np.log(pt)
    omp = 1.0 - pt
    loss = (at * omp**gamma * -logpt).sum() / normalizer

    def backward(g):
        # dFL/dpt, then chain through softmax: dpt/dz_j = pt * (1[j==t] - p_j)
        if gamma == 0:
            dpt = at * (-1.0 / pt)
        else:
            dpt = at * (gamma * omp ** (gamma - 1) * logpt - omp**gamma / pt)
        coeff = (dpt * pt)[:, None]
        dz = coeff * (np.eye(p.shape[1])[targets] - p)
        logits.accumulate_grad((g * dz / normalizer).astype(logits.data.dtype))

    return Tensor.from_op(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward)


def smooth_l1(pred, target, mask=None, normalizer=1.0):
    """Huber loss with delta=1, optionally masked, summed / normalizer."""
    target = np.asarray(target, dtype=pred.data.dtype)
    d = pred.data - target
    absd = np.abs(d)
    elem = np.where(absd < 1.0, 0.5 * d * d, absd - 0.5)
    if mask is not None:
        mask = np.asarray(mask, dtype=pred.data.dtype)
        elem = elem * mask
    loss = elem.sum() / normalizer

    def backward(g):
        dd = np.where(absd < 1.0, d, np.sign(d))
        if mask is not None:
            dd = dd * mask
        pred.accumulate_grad((g * dd / normalizer).astype(pred.data.dtype))

    return Tensor.from_op(np.asarray(loss, dtype=pred.data.dtype), (pred,), backward)
