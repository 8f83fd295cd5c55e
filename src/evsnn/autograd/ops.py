"""Neural-net ops with explicit backward passes.

Activations are channel-major, (C, N, H, W). A convolution copies its padded
input k*k times with strided slices into one (Cin, kh*kw, N, Ho, Wo) column
buffer and runs one GEMM per group over all N*Ho*Wo columns, for the output,
dW and the column gradient, which goes back through the same windows. Max
pooling is a running maximum over the k*k windows; batch norm reduces each
channel's contiguous row. Padding happens only inside the ops (``_pad``).

A PLIF neuron step (``plif``) is one op with a hand-derived backward, so a
layer records one tape entry per timestep. The membrane is an array handed
from step to step, not a Tensor; its gradient goes back through a
``PLIFLink``.
"""

from __future__ import annotations

import functools

import numpy as np

from .tensor import Tensor, _sigmoid


def _pad(x, p, value=None):
    """Pad H and W of (C, N, H, W) by p with zero, or with value[c] for channel c."""
    if not p:
        return x
    c, n, h, w = x.shape
    out = np.zeros((c, n, h + 2 * p, w + 2 * p), dtype=x.dtype)
    if value is not None:
        out[:] = np.asarray(value, dtype=x.dtype).reshape(c, 1, 1, 1)
    out[:, :, p : p + h, p : p + w] = x
    return out


def _out_size(h, w, kh, kw, stride, padding):
    """(ho, wo) of a kh x kw window sliding over an (h, w) input padded by
    ``padding``; raises ValueError when the window does not fit."""
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"window {kh}x{kw} does not fit input {h}x{w} with padding {padding}")
    return ho, wo


def _windows(xp, kh, kw, s, ho, wo):
    """The kh*kw strided (C, N, ho, wo) views of a padded input, row-major."""
    return [xp[:, :, i : i + ho * s : s, j : j + wo * s : s] for i in range(kh) for j in range(kw)]


def conv2d(x, w, b=None, stride=1, padding=0, groups=1, pad_value=None):
    """2-D cross-correlation. x: (Cin,N,H,W), w: (Cout,Cin/g,kh,kw) -> (Cout,N,Ho,Wo).

    The border is zero, or ``pad_value[c]`` for input channel c.
    """
    cin, n, h, wd = x.data.shape
    cout, cin_g, kh, kw = w.data.shape
    s, p = stride, padding
    if cin % groups != 0 or cout % groups != 0:
        raise ValueError(f"channels not divisible by groups: Cin={cin}, Cout={cout}, groups={groups}")
    if cin_g != cin // groups:
        raise ValueError(f"weight expects Cin/g={cin_g} input channels per group, got Cin={cin} with groups={groups}")
    ho, wo = _out_size(h, wd, kh, kw, s, p)

    xp = _pad(x.data, p, pad_value)
    cols = np.stack(_windows(xp, kh, kw, s, ho, wo), axis=1)  # (Cin, kh*kw, N, ho, wo)
    cols_m = cols.reshape(groups, cin_g * kh * kw, n * ho * wo)
    w_m = w.data.reshape(groups, cout // groups, cin_g * kh * kw)
    out = np.matmul(w_m, cols_m).reshape(cout, n, ho, wo)
    if b is not None:
        out = out + b.data.reshape(cout, 1, 1, 1)

    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        gm = g.reshape(groups, cout // groups, n * ho * wo)
        if w.requires_grad:
            w.accumulate_grad(np.matmul(gm, cols_m.transpose(0, 2, 1)).reshape(w.data.shape))
        if b is not None and b.requires_grad:
            b.accumulate_grad(g.reshape(cout, -1).sum(axis=1))
        if x.requires_grad:
            dcols = np.matmul(w_m.transpose(0, 2, 1), gm).reshape(cin, kh * kw, n, ho, wo)
            dxp = np.zeros(xp.shape, dtype=dcols.dtype)
            for k, window in enumerate(_windows(dxp, kh, kw, s, ho, wo)):
                window += dcols[:, k]
            x.accumulate_grad(dxp[:, :, p : p + h, p : p + wd])

    return Tensor.from_op(out, parents, backward)


def batchnorm2d(x, gamma, beta, running_mean, running_var, training, momentum=0.1, eps=1e-5):
    """Per-channel batch normalization of (C, N, H, W) over each channel's row.

    ``running_mean``/``running_var`` are plain numpy arrays mutated in place
    during training (unbiased variance, torch-style momentum update).
    """
    c = x.data.shape[0]
    xm = x.data.reshape(c, -1)
    m = xm.shape[1]
    if training:
        if m < 2:
            raise ValueError("batchnorm2d needs more than one value per channel in train mode")
        mean = xm.mean(axis=1)
        var = xm.var(axis=1)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var * m / (m - 1)
    else:
        mean = running_mean
        var = running_var
    invstd = (1.0 / np.sqrt(var + eps)).reshape(c, 1)
    xhat = (xm - mean.reshape(c, 1)) * invstd
    out = xhat * gamma.data.reshape(c, 1) + beta.data.reshape(c, 1)

    def backward(g):
        gm = g.reshape(c, -1)
        if gamma.requires_grad:
            gamma.accumulate_grad((gm * xhat).sum(axis=1))
        if beta.requires_grad:
            beta.accumulate_grad(gm.sum(axis=1))
        if x.requires_grad:
            gi = gamma.data.reshape(c, 1) * invstd
            if training:
                gsum = gm.sum(axis=1, keepdims=True)
                gx = (gm * xhat).sum(axis=1, keepdims=True)
                dx = gi * (gm - gsum / m - xhat * gx / m)
            else:
                dx = gi * gm
            x.accumulate_grad(dx.reshape(x.data.shape).astype(x.data.dtype))

    return Tensor.from_op(out.reshape(x.data.shape).astype(x.data.dtype), (x, gamma, beta), backward)


def maxpool2d(x, kernel, stride=None, padding=0):
    """Max pooling of (C, N, H, W) over a zero border of ``padding``; ties go
    to the first element in row-major window order."""
    k, s, p = kernel, kernel if stride is None else stride, padding
    c, n, h, w = x.data.shape
    ho, wo = _out_size(h, w, k, k, s, p)
    xp = _pad(x.data, p)
    windows = _windows(xp, k, k, s, ho, wo)
    out = windows[0].copy()
    index = np.zeros(out.shape, dtype=np.uint8)  # the window holding each maximum
    for i, window in enumerate(windows[1:], 1):
        better = window > out  # strict: an equal later value does not take over
        np.copyto(out, window, where=better)
        np.copyto(index, i, where=better)
    padded_shape = xp.shape  # not xp itself: the tape keeps no padded copy alive

    def backward(g):
        dxp = np.zeros(padded_shape, dtype=x.data.dtype)
        # reverse window order adds overlapping contributions to a cell in
        # row-major output order, as a scatter over the outputs would
        for i, window in reversed(list(enumerate(_windows(dxp, k, k, s, ho, wo)))):
            window += np.where(index == i, g, 0)
        x.accumulate_grad(dxp[:, :, p : p + h, p : p + w])

    return Tensor.from_op(out, (x,), backward)


def concat(tensors, axis):
    """Concatenate tensors along ``axis``; numpy raises ValueError unless
    every other axis matches."""
    out = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, gs in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.accumulate_grad(gs)

    return Tensor.from_op(out, tuple(tensors), backward)


class PLIFLink:
    """Where a PLIF step's backward leaves dL/dV' for the step that made V'."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad = None


def plif(x, state, w, alpha=2.0):
    """One PLIF step over a whole frame, recorded as one tape entry.

    v = V + (X - V) a with a = 1/tau (v = X a from rest, when ``state`` is
    None), spikes s = [v >= 1], reset membrane V' = v (1 - s). ``w`` sets a:
    a Tensor is the learned w with a = sigmoid(w), a float is a itself.
    ``state`` is the (V', spikes, PLIFLink) triple the previous step
    returned; returns (spikes, state').

    Backward is BPTT with the ATan surrogate sg(u) = alpha / (2 (1 + (pi
    alpha u / 2)^2)) for the step's derivative. With g_s the spikes' gradient
    and g_m the one the next step hands back for V' (the reset term is not
    detached):
        dv = sg(v - 1) (g_s - v g_m) + (1 - s) g_m
        dX = a dv,  dL/dV = dv - dX,  dw = a (1 - a) sum(dv (X - V))
    The previous step's spikes are a parent, so the tape walk reaches that
    step after this one has left dL/dV in its link.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    learned = isinstance(w, Tensor)
    a = _sigmoid(w.data) if learned else x.data.dtype.type(w)
    if state is None:
        prev_spikes = link = None
        drive = x.data
        v = x.data * a
    else:
        prev_v, prev_spikes, link = state
        drive = x.data - prev_v
        v = drive * a
        v += prev_v
    spiked = v >= 1.0
    if not (learned and w.requires_grad):
        drive = None  # the backward needs X - V only for dw
    parents = (x,) + ((w,) if learned else ()) + ((prev_spikes,) if state is not None else ())
    scale = 0.5 * np.pi * alpha
    out_link = PLIFLink()

    def backward(g):
        dv = v - 1.0
        dv *= scale
        np.multiply(dv, dv, out=dv)
        dv += 1.0
        dv *= 2.0
        np.divide(alpha, dv, out=dv)  # sg(v - 1)
        g_m, out_link.grad = out_link.grad, None
        if g_m is None:  # V' fed no later step
            dv *= g
        else:
            gs = v * g_m
            np.subtract(g, gs, out=gs)
            dv *= gs
            dv += np.multiply(g_m, v < 1.0, out=gs)  # (1 - s) g_m
        if drive is not None:
            w.accumulate_grad(np.vdot(dv, drive) * a * (1.0 - a))
        feeds_back = prev_spikes is not None and prev_spikes.requires_grad
        if x.requires_grad or feeds_back:
            dx = dv * a
            if x.requires_grad:
                if x.grad is None:
                    x.grad = dx  # a fresh array: no copy needed
                else:
                    x.grad += dx
            if feeds_back:
                link.grad = np.subtract(dv, dx, out=dv)
                if prev_spikes.grad is None:
                    # no consumer handed those spikes a gradient; the walk
                    # runs a backward only for a node that has one
                    prev_spikes.grad = np.zeros_like(prev_spikes.data)

    spikes = Tensor.from_op(spiked.astype(x.data.dtype), parents, backward)
    return spikes, (v * ~spiked, spikes, out_link)


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
