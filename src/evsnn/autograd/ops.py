"""Neural-net ops with explicit backward passes.

Convolution and max pooling share one im2col path: the input is padded
inside the op (``_pad``), the column tensor is built with k*k strided slice
copies, and the gradient is scattered back the same way and cropped to the
unpadded input, so both directions stay vectorized without a giant scatter.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def _pad(x, p, value=None):
    """Pad H and W of (N, C, H, W) by p with zero, or with value[c] for channel c."""
    if not p:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    if value is not None:
        out[:] = np.asarray(value, dtype=x.dtype).reshape(1, c, 1, 1)
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


def _im2col(xp, kh, kw, s, ho, wo):
    # xp: padded input (N, C, Hp, Wp) -> (N, C, kh, kw, ho, wo)
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + ho * s : s, j : j + wo * s : s]
    return cols


def _col2im(dcols, xp_shape, kh, kw, s, ho, wo):
    dxp = np.zeros(xp_shape, dtype=dcols.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + ho * s : s, j : j + wo * s : s] += dcols[:, :, i, j]
    return dxp


def conv2d(x, w, b=None, stride=1, padding=0, groups=1, pad_value=None):
    """2-D cross-correlation. x: (N,Cin,H,W), w: (Cout,Cin/g,kh,kw).

    The border is zero, or ``pad_value[c]`` for input channel c.
    """
    n, cin, h, wd = x.data.shape
    cout, cin_g, kh, kw = w.data.shape
    s, p = stride, padding
    if cin % groups != 0 or cout % groups != 0:
        raise ValueError(f"channels not divisible by groups: Cin={cin}, Cout={cout}, groups={groups}")
    if cin_g != cin // groups:
        raise ValueError(f"weight expects Cin/g={cin_g} input channels per group, got Cin={cin} with groups={groups}")
    ho, wo = _out_size(h, wd, kh, kw, s, p)

    xp = _pad(x.data, p, pad_value)
    cols = _im2col(xp, kh, kw, s, ho, wo)
    # (N, g, Cin/g * kh * kw, ho*wo)
    cols_m = cols.reshape(n, groups, cin_g * kh * kw, ho * wo)
    w_m = w.data.reshape(groups, cout // groups, cin_g * kh * kw)
    out = np.matmul(w_m[None], cols_m)  # (N, g, Cout/g, ho*wo)
    out = out.reshape(n, cout, ho, wo)
    if b is not None:
        out = out + b.data.reshape(1, cout, 1, 1)

    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        gm = g.reshape(n, groups, cout // groups, ho * wo)
        if w.requires_grad:
            dw = np.matmul(gm, cols_m.transpose(0, 1, 3, 2)).sum(axis=0)
            w.accumulate_grad(dw.reshape(w.data.shape))
        if b is not None and b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dcols = np.matmul(w_m.transpose(0, 2, 1)[None], gm)
            dcols = dcols.reshape(n, cin, kh, kw, ho, wo)
            dxp = _col2im(dcols, xp.shape, kh, kw, s, ho, wo)
            x.accumulate_grad(dxp[:, :, p : p + h, p : p + wd])

    return Tensor.from_op(out, parents, backward)


def batchnorm2d(x, gamma, beta, running_mean, running_var, training, momentum=0.1, eps=1e-5):
    """Per-channel batch normalization over (N, H, W).

    ``running_mean``/``running_var`` are plain numpy arrays mutated in place
    during training (unbiased variance, torch-style momentum update).
    """
    n, c, h, w = x.data.shape
    if training:
        if n * h * w < 2:
            raise ValueError("batchnorm2d needs more than one value per channel in train mode")
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        m = n * h * w
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var * m / (m - 1)
    else:
        mean = running_mean
        var = running_var
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean.reshape(1, c, 1, 1)) * invstd.reshape(1, c, 1, 1)
    out = xhat * gamma.data.reshape(1, c, 1, 1) + beta.data.reshape(1, c, 1, 1)

    def backward(g):
        if gamma.requires_grad:
            gamma.accumulate_grad((g * xhat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            beta.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gi = gamma.data.reshape(1, c, 1, 1) * invstd.reshape(1, c, 1, 1)
            if training:
                m = n * h * w
                gsum = g.sum(axis=(0, 2, 3), keepdims=True).reshape(1, c, 1, 1)
                gx = (g * xhat).sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
                dx = gi * (g - gsum / m - xhat * gx / m)
            else:
                dx = gi * g
            x.accumulate_grad(dx.astype(x.data.dtype))

    return Tensor.from_op(out.astype(x.data.dtype), (x, gamma, beta), backward)


def maxpool2d(x, kernel, stride=None, padding=0):
    """Max pooling over a zero border of ``padding``; ties go to the first
    element in row-major window order."""
    k, s, p = kernel, kernel if stride is None else stride, padding
    n, c, h, w = x.data.shape
    ho, wo = _out_size(h, w, k, k, s, p)
    xp = _pad(x.data, p)
    cols = _im2col(xp, k, k, s, ho, wo)
    flat = cols.reshape(n, c, k * k, ho, wo)
    arg = flat.argmax(axis=2)  # first maximum in row-major order
    out = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]

    def backward(g):
        dxp = np.zeros_like(xp)
        ni, ci, hi, wi = np.indices(arg.shape)
        rows = hi * s + arg // k
        colsi = wi * s + arg % k
        np.add.at(dxp, (ni, ci, rows, colsi), g)
        x.accumulate_grad(dxp[:, :, p : p + h, p : p + w])

    return Tensor.from_op(out, (x,), backward)


def concat_channels(tensors):
    """Concatenate (N,C,H,W) tensors along the channel axis."""
    ref = tensors[0].data.shape
    for t in tensors[1:]:
        s = t.data.shape
        if s[0] != ref[0] or s[2:] != ref[2:]:
            raise ValueError(f"concat_channels dim mismatch: {ref} vs {s}")
    out = np.concatenate([t.data for t in tensors], axis=1)
    splits = np.cumsum([t.data.shape[1] for t in tensors])[:-1]

    def backward(g):
        for t, gs in zip(tensors, np.split(g, splits, axis=1)):
            if t.requires_grad:
                t.accumulate_grad(gs)

    return Tensor.from_op(out, tuple(tensors), backward)


def heaviside_surrogate(v, alpha=2.0):
    """Spike nonlinearity: step forward, ATan-shaped surrogate backward.

    dspike/dv = alpha / (2 * (1 + (pi * alpha * v / 2)^2))
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    out = (v.data >= 0).astype(v.data.dtype)

    def backward(g):
        s = 0.5 * np.pi * alpha * v.data
        v.accumulate_grad(g * (alpha / (2.0 * (1.0 + s * s))))

    return Tensor.from_op(out, (v,), backward)


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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
