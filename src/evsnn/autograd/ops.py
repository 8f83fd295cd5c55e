"""Neural-net ops with explicit backward passes.

Activations are channel-major frames, (C, N, H, W). Between spiking layers
an op reads all T frames at once, T-major (T, C, N, H, W), so that frame t
is ``x[t]``, and records one tape entry whatever T is. Convolution (with
or without its batch norm) and max pooling also take one frame (the
run-once heads) and run frame by frame (``_framewise``): each frame has its
own batch statistics and running-statistics update, in time order, and the
backward visits the frames in reverse time order, writing each frame's
input gradient into one stacked array of the dtype ``Tensor`` gives it.

Convolution and max pooling share one window layout (``_PhaseGrid``): a
frame is padded and split into its s*s stride phases in one pass, each
(channel, sample) row flattened, so that every kernel tap reads one
contiguous slice of an ho x wq output grid, cropped to the ho x wo output.
A convolution copies the k*k slices into one (Cin, kh*kw, N, ho*wq) column
buffer and runs one GEMM per group over all of its columns. Its tape keeps
only its parents: the backward rebuilds the phase buffer from the input,
the columns from it for dW (``_conv_dw``), adds the column gradient back
tap by tap and writes dx in one copy that drops the border (``_conv_dx``).
Max pooling is a running maximum over the same slices; its backward
scatters each output's gradient to the cell that held its maximum in one
``np.add.at``.

Batch norm runs only in front of the conv that reads it, folded into that
conv in both modes (``_bn_fold``; Jacob et al., CVPR 2018, and
Krishnamoorthi, 2018, for batch statistics): the conv runs on x itself,
with W*gamma/std per input channel, a folded bias and a per-channel border
fill that the batch norm maps to 0, so no batch norm output is built and
a conv on spikes only accumulates. The tape sets the statistics: each
frame's batch statistics (``_bn_stats``, which also updates the running
statistics) while it records, the running statistics, unchanged and
folded once per op, under ``no_grad``. The tape keeps each frame's channel
mean and 1/std; the backward refolds them and takes dW from the folded
columns. A frame whose input learns builds dy for dx, and the batch norm's
gradients come from dy and x (``_bn_backward``), with no xhat. A frame
whose input needs no gradient, as the stem's on the input cube, builds no
dy: the batch norm's gradients come from the dW GEMM's unscaled product
and a frame of ones (``_constant_grads``, ``_bn_conv_grads``).

``conv_plif`` is a spiking block, bn -> conv -> PLIF (or conv -> PLIF), as
one op: it runs the PLIF neuron over all T frames from rest on the conv's
output, bit for bit ``conv2d`` then the neuron. The membrane and its
gradient are locals of one forward loop and one reverse-time backward
loop. The tape keeps the spikes (1 byte each) and every frame's pre-reset
membrane v; w's gradient reads X only through a (X - V) = v - V. Each
frame's conv output is dropped once PLIF has read it, and the backward
hands each frame's dX to the conv's frame backward, which rebuilds its
input from the block's input spikes.

Conv and the block keep on the tape only what their backward reads and
cannot rebuild, with the forward's own float ops, from arrays the tape
holds anyway (the store-less trade of Chen et al., 2016); the rebuilt
values are bit for bit those of the forward.

Spikes are one byte: ``conv_plif`` returns the ``uint8`` view of its
boolean comparison, and max pooling and concat pass one-byte inputs on as
one-byte outputs. Batch norm sums a one-byte row into the parameters'
float dtype, an exact count divided by m while m < 2**24 (the mean of the
float32 copy bit for bit); conv2d splits it into a float phase buffer;
``time_sum`` adds spikes over time into float32. Gradients are float: a
one-byte tensor takes the dtype of the first gradient it receives.
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


def _frames(a):
    """The (T, C, N, H, W) frames of a: a (C, N, H, W) array is one frame."""
    return a if a.ndim == 5 else a[None]


def _input_grad(x, shape, g, frame_backward):
    """Calls frame_backward(t, dx) for t = T-1 down to 0, dx frame t's slot
    of x's gradient, T frames of ``shape`` (None when x needs none), then
    hands x that gradient, of the dtype ``Tensor`` gives x for a gradient
    like g: x's if float, else g's."""
    dx = np.empty(shape, dtype=x._grad_dtype(g)) if x.requires_grad else None
    for t in reversed(range(shape[0])):
        frame_backward(t, None if dx is None else dx[t])
    if dx is not None:
        x.accumulate_fresh_grad(dx.reshape(x.data.shape))


def _framewise(x, parents, forward, backward):
    """An op run frame by frame on x, one frame or T, its outputs stacked as
    x's frames are: forward(x_t) returns frame t's output and what its
    backward reads, backward(x_t, saved, g_t, dx) writes frame t's input
    gradient into dx (None when x needs none)."""
    ys, saved = zip(*map(forward, _frames(x.data)))
    out = ys[0] if x.data.ndim == 4 else np.stack(ys)

    def op_backward(g):
        xs, gs = _frames(x.data), _frames(g)
        _input_grad(x, xs.shape, g, lambda t, dx: backward(xs[t], saved[t], gs[t], dx))

    return Tensor.from_op(out, parents, op_backward)


def _phase_axis(a, s, p, size):
    """Along one axis of phase a: the slice of its grid and the slice of the
    unpadded input that hold the same cells (grid index q is padded index
    q*s + a, input index q*s + a - p)."""
    q0 = -((a - p) // s)  # the first q with q*s + a >= p
    r0 = q0 * s + a - p
    count = len(range(r0, size, s))
    return slice(q0, q0 + count), slice(r0, size, s)


class _PhaseGrid:
    """A kh x kw window at stride s over a (C, N, H, W) frame padded by p,
    laid out so that each kernel tap reads one contiguous slice.

    The padded frame is split into its stride phases, a (ph, pw, C, N, size)
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
        """The phase buffer of the frame x at ``dtype`` (x's own by default),
        padded with zero or with fill[c] for channel c."""
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

    def merge(self, d, dx):
        """Writes the (C, N, H, W) frame gradient of a phase-buffer gradient d
        into dx: one copy that drops the border."""
        if d.shape[:2] != (self.s, self.s):  # some rows or columns no tap reads
            dx[...] = 0
        for grid, cells, x_cells in self._grids(d):
            dx[x_cells] = grid[cells]

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
    """The ``_PhaseGrid`` of a conv of an x_shape frame with a w_shape
    weight; raises ValueError when the channels do not divide into groups."""
    cin = x_shape[0]
    cout, cin_g, kh, kw = w_shape
    if cin % groups != 0 or cout % groups != 0:
        raise ValueError(f"channels not divisible by groups: Cin={cin}, Cout={cout}, groups={groups}")
    if cin_g != cin // groups:
        raise ValueError(f"weight expects Cin/g={cin_g} input channels per group, got Cin={cin} with groups={groups}")
    return _PhaseGrid(x_shape, kh, kw, stride, padding)


def _conv_forward(grid, phases, w, b, groups):
    """The (Cout, N, Ho, Wo) output of a conv on a frame's phase buffer: one
    GEMM per group over all of its columns, plus the bias (arrays, b may be
    None)."""
    cout = w.shape[0]
    w_m = w.reshape(groups, cout // groups, -1)
    out = grid.crop(np.matmul(w_m, grid.columns(phases).reshape(groups, w_m.shape[2], -1)))
    if b is not None:
        out += b.reshape(cout, 1, 1, 1)
    return out


def _conv_dw(grid, phases, gm):
    """G cols(phases)^T per group, (groups, Cout/g, Cin/g*kh*kw): a conv's
    weight gradient from gm, its output gradient on the output grid as
    (groups, Cout/g, N*span), the columns rebuilt from ``phases``. The
    GEMM takes the operand with more rows on the left: the toy SSD stem's
    G cols^T, 16 x 100 over 17,408 columns, runs as (cols G^T)^T in half
    the time."""
    cols = grid.columns(phases).reshape(gm.shape[0], -1, gm.shape[2])
    if cols.shape[1] < gm.shape[1]:
        return np.matmul(gm, cols.transpose(0, 2, 1))
    # row-major again: a weight keeps this array as its gradient, and the clip's norm sums it in memory order
    return np.matmul(cols, gm.transpose(0, 2, 1)).transpose(0, 2, 1).copy()


def _conv_dx(grid, gm, w, dx):
    """Writes into dx the input gradient of a conv with the weight w (an
    array) from gm, as ``_conv_dw`` takes it."""
    w_m = w.reshape(gm.shape[0], gm.shape[1], -1)
    # the column gradient, written into dx when it is the input's
    out = dx.reshape(w_m.shape[0], w_m.shape[2], -1) if grid.is_input else None
    dcols = np.matmul(w_m.transpose(0, 2, 1), gm, out=out)
    if not grid.is_input:
        grid.merge(grid.scatter(dcols.reshape(grid.shape[0], len(grid.taps), grid.shape[1], grid.span)), dx)


def _bn_stats(x, dtype, running_mean, running_var):
    """The batch statistics of a (C, N, H, W) frame x, each channel's row:
    the mean and 1/std, both (C,); updates the running statistics in place
    (unbiased variance).

    The centred rows' squares give the variance with the same float ops as
    ``np.var``. One-byte spikes are summed into ``dtype``, the parameters':
    the mean of binary rows is an exact count divided by m while m < 2**24,
    equal to the mean of their float copy."""
    c = x.shape[0]
    xm = x.reshape(c, -1)
    m = xm.shape[1]
    if m < 2:
        raise ValueError(f"batch norm needs more than one value per channel while the tape records; "
                         f"it has N*H*W = {m}")
    mean = xm.mean(axis=1, keepdims=True, dtype=xm.dtype if xm.dtype.kind == "f" else dtype)
    centred = xm - mean
    var = np.square(centred, out=centred).sum(axis=1) / m
    mean = mean.reshape(c)
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mean
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * var * m / (m - 1)
    return mean, 1.0 / np.sqrt(var + BN_EPS)


def _bn_fill(beta, mean, scale):
    """The border value that y = scale (x - mean) + beta maps to 0, per
    channel: mean - beta/scale, 0 where scale = 0."""
    nonzero = scale != 0
    return np.where(nonzero, mean - beta / np.where(nonzero, scale, 1), 0)


def _bn_fold(gamma, beta, mean, scale, w, b, groups):
    """Arrays W', b', p of the conv on x that equals the conv of the batch
    norm y = scale (x - mean) + beta, scale = gamma/std, on the statistics
    given (Jacob et al., CVPR 2018; Krishnamoorthi, 2018, for batch
    statistics): W' = W scale per input channel, b' = b + sum W (beta -
    scale mean) over each output's taps, and the border p (``_bn_fill``).
    Input channel g*Cin/g + j is column j of group g: per-input-channel
    values, as (groups, 1, Cin/g, 1, 1), meet the weight as (groups, Cout/g,
    Cin/g, kh, kw)."""
    w5 = w.reshape(groups, w.shape[0] // groups, *w.shape[1:])
    w_f = (w5 * scale.reshape(groups, 1, -1, 1, 1)).reshape(w.shape)
    b_f = (w5 * (beta - scale * mean).reshape(groups, 1, -1, 1, 1)).reshape(w.shape).sum(axis=(1, 2, 3))
    if b is not None:
        b_f += b
    return w_f, b_f, _bn_fill(beta, mean, scale)


def _bn_backward(x, dy, gamma, mean, invstd, dx):
    """One frame of batch norm's backward through the batch statistics from
    dy, its output's gradient inside the frame, and the frame x (arrays),
    with no xhat: returns dbeta and dgamma, and writes x's gradient into
    dx. With s = gamma invstd and m values per channel:
        dbeta = sum dy,  dgamma = invstd (sum dy x - mean sum dy)
        dx = s (dy - dbeta/m - (x - mean) invstd dgamma/m).
    Only a frame whose input learns builds dy; the others take dbeta and
    dgamma from the conv's dW GEMM (``_bn_conv_grads``)."""
    c = mean.shape[0]
    dym, xm = dy.reshape(c, -1), x.reshape(c, -1)
    m = dym.shape[1]
    dbeta = dym.sum(axis=1)
    dgamma = invstd * ((dym * xm).sum(axis=1) - mean * dbeta)
    scale = gamma.data * invstd
    k = scale * invstd * dgamma / m
    dxm = np.multiply(dym, scale.reshape(c, 1), out=dx.reshape(c, -1))
    dxm -= k.reshape(c, 1) * xm
    dxm += (k * mean - scale * dbeta / m).reshape(c, 1)
    return dbeta, dgamma


def _constant_grads(grid, w, g, gsum, groups):
    """The gradient of a conv with the weight w (an array) and output
    gradient g, (Cout, N, Ho, Wo), with respect to a constant added to each
    input channel: inside the frame, sum W D_M with D_M = (g summed over N)
    cols(M)^T and M a frame of ones split with a zero border; and over the
    padded frame, every tap, sum over Cout of gsum (g's per-channel sum)
    times sum W. Both (Cin,), as contractions of the weight."""
    cout, cin_g, kh, kw = w.shape
    frame = (1, 1, *grid.shape[2:])
    ones = _PhaseGrid(frame, kh, kw, grid.s, grid.p)
    mask_cols = ones.columns(ones.split(np.ones(frame, dtype=g.dtype))).reshape(kh * kw, -1)
    d_m = np.matmul(grid.extend(g.sum(axis=1, keepdims=True)).reshape(groups, cout // groups, -1), mask_cols.T)
    w4 = w.reshape(groups, cout // groups, cin_g, kh * kw)
    inside = np.einsum("gojt,got->gj", w4, d_m).reshape(-1)
    everywhere = np.einsum("gojt,go->gj", w4, gsum.reshape(groups, -1)).reshape(-1)
    return inside, everywhere


def _bn_conv_grads(w, d, inside, everywhere, fill, mean, invstd, scale, groups):
    """dbeta and dgamma of a bn -> conv frame from its dW GEMM and no dy:
    d = G cols_p(x)^T, unscaled, from ``_conv_dw``; inside and everywhere
    from ``_constant_grads``. With y = scale (x - mean) + beta inside the
    frame and the fold's border p, cols_0(y - beta) / (gamma invstd) =
    cols_p(x) - p + (p - mean) cols(M), so per input channel
        dbeta = sum W D_M (sum W gsum where scale = 0: the fold pads that
                channel with beta, every tap is beta's)
        dgamma = invstd (sum W d - p sum W gsum + (p - mean) sum W D_M)."""
    cout, cin_g = w.shape[:2]
    wd = np.einsum("gojt,gojt->gj", w.reshape(groups, cout // groups, cin_g, -1),
                   d.reshape(groups, cout // groups, cin_g, -1)).reshape(-1)
    dbeta = np.where(scale == 0, everywhere, inside)
    dgamma = invstd * (wd - fill * everywhere + (fill - mean) * inside)
    return dbeta, dgamma


def _conv_frames(grid, w, b, groups, bn=None):
    """A conv's frame forward and frame backward for ``_framewise`` or
    ``_plif_op``; with bn = (gamma, beta, running_mean, running_var), those
    of the conv with the batch norm folded in (see ``conv2d``). The forward
    splits x, one-byte spikes at the weight's dtype, with the border fill.
    Each frame backward is named after its op."""
    cout = w.data.shape[0]
    b_data = None if b is None else b.data
    gamma, beta, running_mean, running_var = (None,) * 4 if bn is None else bn
    if bn is None:
        def fold(_):
            return (w.data, b_data, None), None
    elif grad_enabled():
        def fold(x_t):
            mean, invstd = _bn_stats(x_t, gamma.data.dtype, running_mean, running_var)
            return _bn_fold(gamma.data, beta.data, mean, gamma.data * invstd, w.data, b_data, groups), (mean, invstd)
    else:
        folded = _bn_fold(gamma.data, beta.data, running_mean, gamma.data / np.sqrt(running_var + BN_EPS), w.data,
                          b_data, groups), None

        def fold(_):
            return folded

    def forward(x_t):
        (w_f, b_f, fill), stats = fold(x_t)
        return _conv_forward(grid, grid.split(x_t, fill, np.result_type(x_t.dtype, w_f.dtype)), w_f, b_f, groups), stats

    def conv2d_backward(x_t, _, g, dx):
        gm = grid.extend(g).reshape(groups, cout // groups, -1)
        if w.requires_grad:
            dw = _conv_dw(grid, grid.split(x_t, dtype=np.result_type(x_t.dtype, w.data.dtype)), gm)
            w.accumulate_fresh_grad(dw.reshape(w.data.shape))
        if b is not None and b.requires_grad:
            b.accumulate_fresh_grad(g.reshape(cout, -1).sum(axis=1))
        if dx is not None:
            _conv_dx(grid, gm, w.data, dx)

    def folded_conv2d_backward(x_t, stats, g, dx):
        mean, invstd = stats
        scale = gamma.data * invstd
        fill = _bn_fill(beta.data, mean, scale)
        gm = grid.extend(g).reshape(groups, cout // groups, -1)
        gsum = g.reshape(cout, -1).sum(axis=1)
        bn_grads = gamma.requires_grad or beta.requires_grad
        if w.requires_grad or (dx is None and bn_grads):
            # G cols(x)^T, x split with the forward's fill
            d = _conv_dw(grid, grid.split(x_t, fill, np.result_type(x_t.dtype, w.data.dtype)), gm)
        if dx is None and bn_grads:  # no dy: the batch norm's gradients from d, before it is scaled
            dbeta, dgamma = _bn_conv_grads(w.data, d, *_constant_grads(grid, w.data, g, gsum, groups), fill, mean,
                                           invstd, scale, groups)
        if w.requires_grad:
            # dW = scale (G cols(x)^T) + (beta - scale mean) sum G per weight column (as in _bn_fold)
            dw = d.reshape(groups, cout // groups, *w.data.shape[1:])
            dw *= scale.reshape(groups, 1, -1, 1, 1)
            dw += (beta.data - scale * mean).reshape(groups, 1, -1, 1, 1) * gsum.reshape(groups, -1, 1, 1, 1)
            w.accumulate_fresh_grad(dw.reshape(w.data.shape))
        if b is not None and b.requires_grad:
            b.accumulate_fresh_grad(gsum)
        if dx is not None:
            dy = np.empty(x_t.shape, dtype=np.result_type(w.data.dtype, g.dtype))
            _conv_dx(grid, gm, w.data, dy)
            dbeta, dgamma = _bn_backward(x_t, dy, gamma, mean, invstd, dx)
            zero = scale == 0
            if np.any(zero):  # dy counts the taps inside the frame; the fold pads this channel with beta
                inside, everywhere = _constant_grads(grid, w.data, g, gsum, groups)
                dbeta += np.where(zero, everywhere - inside, 0)
        if beta.requires_grad:
            beta.accumulate_fresh_grad(dbeta)
        if gamma.requires_grad:
            gamma.accumulate_fresh_grad(dgamma)

    return forward, conv2d_backward if bn is None else folded_conv2d_backward


def _conv_inputs(x, w, b, bn):
    """The tensors a conv (with its batch norm when bn is not None) reads."""
    return tuple(t for t in (x, *(() if bn is None else bn[:2]), w, b) if t is not None)


def conv2d(x, w, b=None, stride=1, padding=0, groups=1, bn=None):
    """2-D cross-correlation of each frame. x: (Cin,N,H,W) or T frames
    (T,Cin,N,H,W), w: (Cout,Cin/g,kh,kw) -> (Cout,N,Ho,Wo) per frame.

    The border is zero. One-byte spikes are split into a phase buffer of the
    weight's dtype. The tape keeps nothing but the parents: the backward
    rebuilds each frame's phase buffer from x, and from it the columns for
    dW.

    With ``bn`` = (gamma, beta, running_mean, running_var) it is the conv
    of the batch norm of x, the batch norm folded into the conv
    (``_bn_fold``) in the mode the tape sets: one conv on x, with none of
    the batch norm's passes over x but its statistics, equal to the
    composition to float round-off. While the tape records each frame has
    its batch statistics, which update the running statistics in time
    order, and the tape keeps each frame's channel mean and 1/std; the
    backward refolds them, splits x with the same fill, and takes dW from
    the folded columns. When x learns it builds dy, the batch norm output's
    gradient, for dx and takes the batch norm's gradients from dy and x;
    when x needs no gradient it builds no dy and takes them from the dW
    GEMM's unscaled product (the same identity as the fold, for gamma and
    beta). Under ``no_grad`` the running statistics, unchanged, fold once
    per op. A channel with gamma = 0 is the constant beta, and the fold
    pads it with beta, not 0: a window that reaches the border gains that
    channel's border taps times beta, and its dbeta counts them.
    """
    grid = _conv_grid(x.data.shape[-4:], w.data.shape, stride, padding, groups)
    return _framewise(x, _conv_inputs(x, w, b, bn), *_conv_frames(grid, w, b, groups, bn))


def maxpool2d(x, kernel, stride=None, padding=0):
    """Max pooling of each (C, N, H, W) frame of x (one frame or T) over a
    zero border of ``padding``; ties go to the first element in row-major
    window order. The output has x's dtype, one byte for spikes; the
    gradient has g's."""
    k, s, p = kernel, kernel if stride is None else stride, padding
    grid = _PhaseGrid(x.data.shape[-4:], k, k, s, p)

    def forward(x_t):
        phases = grid.split(x_t)
        out = grid.window(phases, grid.taps[0]).copy()
        index = np.zeros(out.shape, dtype=np.uint8)  # the tap holding each maximum
        for i, tap in enumerate(grid.taps[1:], 1):
            window = grid.window(phases, tap)
            better = window > out  # strict: an equal later value does not take over
            np.maximum(out, window, out=out)
            # taps come in increasing order, so the last that was better is the
            # largest; an unmasked maximum is much faster than a masked copy
            np.maximum(index, better.view(np.uint8) * np.uint8(i), out=index)
        return grid.crop(out), index

    def backward(_, index, g, dx):
        c, n, h, w = grid.shape
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
        d = np.empty((c, n, hp, wp), dtype=g.dtype) if p else dx
        d[...] = 0
        np.add.at(d.reshape(-1), dest.reshape(-1), g.reshape(-1))
        if p:
            dx[...] = d[:, :, p : p + h, p : p + w]

    return _framewise(x, (x,), forward, backward)


def concat(tensors, axis):
    """Concatenate tensors along ``axis``, one-byte spikes into one-byte
    spikes; numpy raises ValueError unless every other axis matches. The
    backward hands each input its slice of the output's gradient uncopied,
    so the inputs' gradients share memory with it (disjoint slices)."""
    out = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, gs in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.accumulate_fresh_grad(gs)

    return Tensor.from_op(out, tuple(tensors), backward)


def time_sum(x):
    """The sum of the T frames of x, (T, ...) -> (...), added in time order
    into one float array, float32 for one-byte spikes (counts are exact).
    The backward hands every frame the sum's gradient."""
    out = x.data[0].astype(_float(x.dtype))
    for frame in x.data[1:]:
        out += frame

    def backward(g):
        x.accumulate_fresh_grad(np.repeat(g[None], len(x.data), axis=0))  # not astype on a broadcast view, 6x slower

    return Tensor.from_op(out, (x,), backward)


def _plif_forward(drive, steps, w, keep):
    """PLIF over ``steps`` frames from rest, drive(t) being frame t's X and
    a = sigmoid(w) (see ``conv_plif``): the (T, ...) boolean spikes, v
    (every frame's when ``keep``, else one frame's, reused) and a."""
    x = drive(0)
    a = _sigmoid(w.data)
    spiked = np.empty((steps, *x.shape), dtype=bool)
    v = np.empty((steps if keep else 1, *x.shape), dtype=np.result_type(x, a))
    np.multiply(x, a, out=v[0])  # from rest, V = 0
    for t in range(steps):
        v_t = v[t if keep else 0]
        if t:
            np.subtract(drive(t), reset, out=v_t)
            v_t *= a
            v_t += reset
        np.greater_equal(v_t, 1.0, out=spiked[t])
        reset = v_t * ~spiked[t]  # V'
    return spiked, v, a


def _plif_frame_backward(g, g_m, v, v_prev, a, w):
    """dv of one frame (see ``conv_plif``) from its spikes' gradient g and
    g_m, the next frame's gradient for V' (None for the last); hands w its
    share when it learns, with V = v_prev [v_prev < 1] (0 when v_prev is
    None)."""
    dv = v - 1.0
    dv *= 0.5 * np.pi * PLIF_SURROGATE_ALPHA
    np.multiply(dv, dv, out=dv)
    dv += 1.0
    np.divide(PLIF_SURROGATE_ALPHA / 2, dv, out=dv)  # sg(v - 1); halving alpha is exact, so this is alpha / (2 dv)
    if g_m is None:
        dv *= g
    else:
        gs = v * g_m
        np.subtract(g, gs, out=gs)
        dv *= gs
        dv += np.multiply(g_m, v < 1.0, out=gs)  # (1 - s) g_m
    if w.requires_grad:
        if v_prev is None:
            w.accumulate_grad(np.vdot(dv, v) * (1.0 - a))
        else:
            leak = v_prev * (v_prev < 1.0)  # V', as the previous frame made it
            w.accumulate_grad(np.vdot(dv, np.subtract(v, leak, out=leak)) * (1.0 - a))
    return dv


def _plif_op(x, plif_w, inputs, forward, frame_backward):
    """The PLIF neuron (see ``conv_plif``) on the frames forward(x_t) makes,
    as one op whose backward hands each frame's dX = a dv on to
    frame_backward (forward and frame_backward as ``_framewise`` takes
    them; ``inputs`` are the tensors forward reads)."""
    parents = inputs + (plif_w,)
    saved = []

    def drive(t):
        out, frame_saved = forward(x.data[t])
        saved.append(frame_saved)
        return out

    keep = grad_enabled() and any(p.requires_grad for p in parents)
    spiked, v, a = _plif_forward(drive, len(x.data), plif_w, keep)
    needs_input = any(t.requires_grad for t in inputs)

    def backward(g):
        g_m = None

        def frame(t, dx):
            nonlocal g_m
            dv = _plif_frame_backward(g[t], g_m, v[t], v[t - 1] if t else None, a, plif_w)
            d = dv * a
            g_m = np.subtract(dv, d, out=dv) if t else None  # dL/dV for the frame before
            if needs_input:
                frame_backward(x.data[t], saved[t], d, dx)

        _input_grad(x, x.data.shape, v, frame)

    return Tensor.from_op(spiked.view(np.uint8), parents, backward)


def conv_plif(x, plif_w, w, b=None, stride=1, padding=0, groups=1, bn=None):
    """A spiking block over all T frames of x, (T, Cin, N, H, W), as one op:
    ``conv2d(x, w, b, stride, padding, groups, bn)``, with or without
    ``bn`` = (gamma, beta, running_mean, running_var), then the PLIF neuron
    over the conv's T output frames from rest, in the mode the tape sets.

    The neuron, frame by frame: v = V + (X - V) a with a = 1/tau (v = X a
    from rest), X the conv's output, spikes s = [v >= 1], reset membrane
    V' = v (1 - s), the next frame's V, and a = sigmoid(w) for ``plif_w``,
    the Tensor w (learned unless frozen). Returns the
    (T, Cout, N, Ho, Wo) spikes, the ``uint8`` view of the boolean s, one
    byte each; their gradient is float.

    Backward is BPTT, in reverse time, with the ATan surrogate sg(u) = alpha
    / (2 (1 + (pi alpha u / 2)^2)), alpha = ``PLIF_SURROGATE_ALPHA``, for the
    step's derivative. With g_s a frame's spikes' gradient and g_m the one
    the next frame hands back for V' (the reset term is not detached):
        dv = sg(v - 1) (g_s - v g_m) + (1 - s) g_m
        dX = a dv,  dL/dV = dv - dX,  dw = (1 - a) sum(dv (v - V))
    where dw is a (1 - a) sum(dv (X - V)) with a (X - V) = v - V; V comes
    from the previous frame's v, so the neuron's backward never reads X.

    Frame by frame, the conv runs as in ``conv2d``, its batch norm folded
    in, then PLIF reads the frame's conv output, which is dropped. While the
    tape records it is one entry, bit for bit the composition, that keeps
    the spikes (1 byte), v (4 bytes in float32) and each frame's batch-norm
    statistics; the backward hands each frame's dX = a dv to the conv's
    frame backward, which rebuilds its phase buffer from x, a parent.
    """
    grid = _conv_grid(x.data.shape[1:], w.data.shape, stride, padding, groups)
    return _plif_op(x, plif_w, _conv_inputs(x, w, b, bn), *_conv_frames(grid, w, b, groups, bn))


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
