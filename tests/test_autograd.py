"""Gradient checks and optimizer/checkpoint unit tests."""

import contextlib
import math
import struct
import tracemalloc

import numpy as np
import pytest

import evsnn.autograd as ag
from evsnn.autograd import ops
from evsnn.autograd import AdamW, Tensor, clip_grad_norm, cosine_lr, kaiming_uniform_init

from conftest import batchnorm2d, check_grad, checkpoint_bytes, cnhw, neg, plif, sigmoid, sub

TOL64 = 1e-6
TOL32 = 1e-3


def _shapes(rng, n, ndim, lo=1, hi=6):
    return [tuple(int(rng.integers(lo, hi)) for _ in range(ndim)) for _ in range(n)]


# --------------------------------------------------------------------------
# Elementwise / shape ops
# --------------------------------------------------------------------------


@pytest.mark.parametrize("op", [ag.add, sub, ag.mul])
def test_binary_ops_grad(op, rng):
    for shape in _shapes(rng, 20, 3):
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape)
        check_grad(lambda x, y: op(x, y), [a, b], TOL64)


def test_broadcast_grad(rng):
    for _ in range(20):
        shape = tuple(int(rng.integers(1, 5)) for _ in range(3))
        bshape = tuple(1 if rng.random() < 0.5 else s for s in shape)
        a = rng.standard_normal(shape)
        b = rng.standard_normal(bshape)
        check_grad(lambda x, y: x * y + y, [a, b], TOL64)


def test_first_gradient_is_a_private_copy():
    """``add`` hands both operands the same gradient array and
    ``clip_grad_norm`` scales gradients in place, so each tensor must keep
    its own copy."""
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    (a + b).backward(np.full(3, 2.0, dtype=np.float32))
    assert not np.shares_memory(a.grad, b.grad)
    clip_grad_norm([a], 1.0)
    assert np.array_equal(b.grad, np.full(3, 2.0, dtype=np.float32))


def test_fresh_gradient_is_stored_uncopied():
    """An op's freshly built gradient becomes the first ``.grad`` as is; a
    later one is added; one of another dtype is cast into a copy. A tensor
    of one-byte spikes takes the first gradient's float dtype."""
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    g = np.full(3, 2.0, dtype=np.float32)
    a.accumulate_fresh_grad(g)
    assert a.grad is g
    a.accumulate_fresh_grad(np.ones(3, dtype=np.float32))
    assert a.grad is g and np.array_equal(g, np.full(3, 3.0, dtype=np.float32))
    b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    b.accumulate_fresh_grad(np.ones(3))
    assert b.grad.dtype == np.float32
    spikes = Tensor(np.ones(3, dtype=np.uint8), requires_grad=True, dtype=np.uint8)
    g64 = np.full(3, 0.5)
    spikes.accumulate_fresh_grad(g64)
    assert spikes.grad is g64
    spikes.grad = None
    spikes.accumulate_grad(g)
    assert spikes.grad is not g and spikes.grad.dtype == np.float32 and np.array_equal(spikes.grad, g)


def test_arithmetic_on_spikes_is_float32():
    """``add`` and ``mul`` (and the ``sub`` oracle) on one-byte spikes
    compute in float32: they neither wrap (0 - 1) nor truncate a float
    operand (0.5, -1)."""
    s = Tensor(np.array([1, 0], dtype=np.uint8), dtype=np.uint8)
    t = Tensor(np.array([0, 1], dtype=np.uint8), dtype=np.uint8)
    for got, want in ((sub(s, t), [1, -1]), (s * 0.5, [0.5, 0]), (neg(s), [-1, 0]), (sub(1.0, s), [0, 1]),
                      (s + t + s, [2, 1])):
        assert got.data.dtype == np.float32 and np.array_equal(got.data, want)


def test_sum_reshape_transpose_grad(rng):
    for shape in _shapes(rng, 20, 3):
        a = rng.standard_normal(shape)
        axis = int(rng.integers(0, 3))
        keep = bool(rng.random() < 0.5)
        check_grad(lambda x: x.sum(axis=axis, keepdims=keep), [a], TOL64)
        check_grad(lambda x: x.sum(axis=(0, -1), keepdims=keep), [a], TOL64)
        check_grad(lambda x: x.sum(), [a], TOL64)
        check_grad(lambda x: x.reshape(-1), [a], TOL64)
        check_grad(lambda x: x.transpose(2, 0, 1), [a], TOL64)


def test_sigmoid_grad(rng):
    for shape in _shapes(rng, 20, 2):
        check_grad(sigmoid, [rng.standard_normal(shape)], TOL64)


# --------------------------------------------------------------------------
# Conv / BN / pooling / concat
# --------------------------------------------------------------------------


def test_conv2d_grad(rng):
    for _ in range(20):
        groups = int(rng.choice([1, 1, 2]))
        cin = groups * int(rng.integers(1, 4))
        cout = groups * int(rng.integers(1, 4))
        k = int(rng.choice([1, 3]))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        n = int(rng.integers(1, 3))
        h = int(rng.integers(k, k + 4))
        x = cnhw(rng.standard_normal((n, cin, h, h)))
        w = rng.standard_normal((cout, cin // groups, k, k))
        b = rng.standard_normal(cout)
        check_grad(lambda x_, w_, b_: ag.conv2d(x_, w_, b_, stride=stride, padding=pad, groups=groups), [x, w, b], TOL64)


def test_conv2d_depthwise_grad(rng):
    for _ in range(5):
        c = int(rng.integers(2, 5))
        x = cnhw(rng.standard_normal((2, c, 6, 6)))
        w = rng.standard_normal((c, 1, 3, 3))
        check_grad(lambda x_, w_: ag.conv2d(x_, w_, stride=1, padding=1, groups=c), [x, w], TOL64)


def test_conv2d_float32_grad(rng):
    for _ in range(5):
        x = cnhw(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        check_grad(lambda x_, w_: ag.conv2d(x_, w_, stride=2, padding=1), [x, w], TOL32, eps=1e-2)


def _naive_conv(x, w, s, p, groups):
    """Direct NCHW loop over output positions with an ``einsum`` per group."""
    n, cin, h, wd = x.shape
    cout, cin_g, k = w.shape[0], w.shape[1], w.shape[2]
    cout_g = cout // groups
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    ho, wo = (h + 2 * p - k) // s + 1, (wd + 2 * p - k) // s + 1
    ref = np.zeros((n, cout, ho, wo))
    for i in range(ho):
        for j in range(wo):
            patch = xp[:, :, i * s : i * s + k, j * s : j * s + k]
            for g in range(groups):
                ref[:, g * cout_g : (g + 1) * cout_g, i, j] = np.einsum(
                    "ncij,ocij->no", patch[:, g * cin_g : (g + 1) * cin_g], w[g * cout_g : (g + 1) * cout_g])
    return ref


def test_conv2d_matches_naive(rng):
    """The phase-layout GEMM conv against a direct NCHW loop over output
    positions, for dense, grouped (g=2) and depthwise weights, on non-square
    inputs, and for the detector's first conv (5x5, stride 2, padding 2)."""
    for groups, cin, cout in ((1, 3, 4), (2, 4, 6), (3, 3, 3), (4, 4, 8)):  # the last two are depthwise
        for _ in range(10):
            n, k = 2, 3
            s, p = int(rng.integers(1, 3)), int(rng.integers(0, 2))
            h, wd = int(rng.integers(4, 8)), int(rng.integers(4, 8))
            x = rng.standard_normal((n, cin, h, wd))
            w = rng.standard_normal((cout, cin // groups, k, k))
            out = cnhw(ag.conv2d(Tensor(cnhw(x)), Tensor(w), stride=s, padding=p, groups=groups).data)
            assert np.allclose(out, _naive_conv(x, w, s, p, groups), atol=1e-10)
    for h, wd in ((16, 16), (13, 10)):
        x = rng.standard_normal((2, 4, h, wd))
        w = rng.standard_normal((6, 4, 5, 5))
        out = cnhw(ag.conv2d(Tensor(cnhw(x)), Tensor(w), stride=2, padding=2).data)
        assert np.allclose(out, _naive_conv(x, w, 2, 2, 1), atol=1e-10)


def _conv2d_oracle(x, w, b, s, p, groups, g):
    """The strided-window conv on channel-major ``x`` that the phase layout
    replaced: a padded copy, a (Cin, k*k, N, Ho, Wo) column buffer filled
    window by window, and a col2im that adds the column gradient back window
    by window. Returns out, dx, dW and db for the upstream gradient ``g``."""
    cin, n, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    ho, wo = (h + 2 * p - kh) // s + 1, (wd + 2 * p - kw) // s + 1
    xp = np.zeros((cin, n, h + 2 * p, wd + 2 * p), dtype=x.dtype)
    xp[:, :, p : p + h, p : p + wd] = x

    def windows(a):
        return [a[:, :, i : i + ho * s : s, j : j + wo * s : s] for i in range(kh) for j in range(kw)]

    cols = np.stack(windows(xp), axis=1).reshape(groups, cin_g * kh * kw, n * ho * wo)
    w_m = w.reshape(groups, cout // groups, cin_g * kh * kw)
    out = np.matmul(w_m, cols).reshape(cout, n, ho, wo) + b.reshape(cout, 1, 1, 1)
    gm = g.reshape(groups, cout // groups, n * ho * wo)
    dw = np.matmul(gm, cols.transpose(0, 2, 1)).reshape(w.shape)
    dcols = np.matmul(w_m.transpose(0, 2, 1), gm).reshape(cin, kh * kw, n, ho, wo)
    dxp = np.zeros(xp.shape, dtype=dcols.dtype)
    for k, window in enumerate(windows(dxp)):
        window += dcols[:, k]
    return out, dxp[:, :, p : p + h, p : p + wd], dw, g.reshape(cout, -1).sum(axis=1)


# The phase-layout GEMM runs over ho*wq columns where the oracle runs over
# ho*wo, so BLAS may block and order the sums of out and dW differently; over
# 3,000 such cases they stayed within 3.8 (float32) and 7.2 (float64) machine
# epsilons of each array's largest magnitude
def _conv_oracle_tol(dtype):
    return 16 * np.finfo(dtype).eps


def test_conv2d_matches_window_oracle():
    """Against the strided-window conv: dx and db are equal bit for bit (the
    column gradient is the same GEMM per column and each cell gets its taps in
    the same order); out and dW are within 16 epsilons of each array's largest
    magnitude. One exception for dx: where the oracle's GEMMs have a single
    column (N*Ho*Wo = 1), numpy runs them as matrix-vector products, whose
    float64 sums may round differently (by 1 epsilon over 3,000 cases), so
    there dx is held to the same tolerance."""
    rng = np.random.default_rng(13)
    for case in range(150):
        dtype = (np.float32, np.float64)[case % 2]
        k, s, p = int(rng.choice([1, 3, 5])), int(rng.choice([1, 2, 3])), int(rng.integers(0, 3))
        groups = int(rng.choice([1, 2, 4]))
        cin, cout = groups * int(rng.integers(1, 4)), groups * int(rng.integers(1, 4))
        if case % 5 == 0:  # depthwise
            groups, cout = cin, cin * int(rng.integers(1, 3))
        n = int(rng.integers(1, 4))
        h, wd = (int(rng.integers(max(1, k - 2 * p), 12)) for _ in range(2))
        x = rng.standard_normal((cin, n, h, wd)).astype(dtype)
        w = rng.standard_normal((cout, cin // groups, k, k)).astype(dtype)
        b = rng.standard_normal(cout).astype(dtype)
        tensors = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        out = ag.conv2d(*tensors, stride=s, padding=p, groups=groups)
        g = rng.standard_normal(out.data.shape).astype(dtype)
        out.backward(g)
        want = _conv2d_oracle(x, w, b, s, p, groups, g)
        case_id = (k, s, p, groups, (h, wd), dtype.__name__)
        assert np.array_equal(tensors[2].grad, want[3]), case_id
        near = [(out.data, want[0]), (tensors[1].grad, want[2])]
        if out.data[0].size > 1:
            assert np.array_equal(tensors[0].grad, want[1]), case_id
        else:
            near.append((tensors[0].grad, want[1]))
        for got, ref in near:
            assert got.dtype == ref.dtype and got.shape == ref.shape, case_id
            assert np.abs(got - ref).max() <= _conv_oracle_tol(dtype) * np.abs(ref).max(), case_id


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("p", [0, 1])
def test_conv2d_on_one_byte_spikes_equals_float_copy(k, s, p):
    """A conv reading one-byte spikes gives the output, dW and dx of the same
    call on their float32 copy, bit for bit; k = 1, s = 1, p = 0 is the case
    whose phase buffer is the input itself."""
    rng = np.random.default_rng(7)
    spikes = (rng.random((3, 2, 7, 6)) < 0.4).astype(np.uint8)
    w = rng.standard_normal((4, 3, k, k)).astype(np.float32)
    g = None
    runs = []
    for x in (Tensor(spikes, requires_grad=True, dtype=np.uint8), Tensor(spikes.astype(np.float32), requires_grad=True)):
        wt = Tensor(w, requires_grad=True)
        out = ag.conv2d(x, wt, stride=s, padding=p)
        g = rng.standard_normal(out.data.shape).astype(np.float32) if g is None else g
        out.backward(g)
        runs.append((out.data, wt.grad, x.grad))
    assert runs[0][0].dtype == runs[0][2].dtype == np.float32
    for got, want in zip(*runs):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("s", [1, 2])
def test_conv2d_tape_keeps_about_the_input(k, s):
    """What a taped conv keeps for its backward, beyond its output, is at most
    1.5x its input: the padded phase buffer, not a k*k column buffer."""
    rng = np.random.default_rng(3)
    for p in range(3):
        x = Tensor(rng.standard_normal((8, 4, 32, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 8, k, k)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            out = ag.conv2d(x, w, stride=s, padding=p)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - out.data.nbytes <= 1.5 * x.data.nbytes, (k, s, p, held / x.data.nbytes)


def test_batchnorm_tape_keeps_no_xhat():
    """A taped batch norm keeps O(C) beyond its output (the mean and 1/std
    per channel), not a full-size xhat: the backward rebuilds it."""
    rng = np.random.default_rng(4)
    for c in (8, 64):
        x = Tensor(rng.standard_normal((c, 4, 32, 32)).astype(np.float32), requires_grad=True)
        gamma = Tensor(np.ones(c, dtype=np.float32), requires_grad=True)
        beta = Tensor(np.zeros(c, dtype=np.float32), requires_grad=True)
        stats = np.zeros(c, dtype=np.float32), np.ones(c, dtype=np.float32)
        tracemalloc.start()
        try:
            out = batchnorm2d(x, gamma, beta, *stats)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - out.data.nbytes <= 4096 + 64 * c, (c, held - out.data.nbytes)


@pytest.mark.parametrize("learned", [True, False])
def test_plif_tape_keeps_only_the_membrane(learned):
    """A taped PLIF op over three frames keeps one input-sized array beyond
    its spikes, the pre-reset membrane v of every frame: X - V is rebuilt by
    the backward from v, and the reset membrane is a local of the forward."""
    rng = np.random.default_rng(5)
    x = Tensor(2 * rng.standard_normal((3, 16, 4, 32, 32)).astype(np.float32), requires_grad=True)
    w = Tensor(np.zeros(1, dtype=np.float32), requires_grad=learned)
    tracemalloc.start()
    try:
        spikes = plif(x, w)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    beyond = held - spikes.data.nbytes
    assert beyond <= 1.1 * x.data.nbytes, beyond / x.data.nbytes


def test_batchnorm_grad(rng):
    for _ in range(20):
        c = int(rng.integers(1, 5))
        x = cnhw(rng.standard_normal((3, c, 4, 4)))
        gamma = rng.standard_normal(c) + 1.0
        beta = rng.standard_normal(c)

        def run(x_, g_, b_):
            rm, rv = np.zeros(c), np.ones(c)
            return batchnorm2d(x_, g_, b_, rm, rv)

        check_grad(run, [x, gamma, beta], 1e-5)


def test_plif_bn_conv_grad_float64(rng):
    """float64 gradients of batch norm and conv through one-byte spikes: a
    PLIF step's uint8 output feeds a training batch norm (float64 mean of
    the count) and a 3x3 conv. The spikes' own gradient is the surrogate's,
    which finite differences do not see, so it is not checked here. Two
    frames: each has its own batch statistics."""
    for _ in range(5):
        c = int(rng.integers(1, 4))
        x = 2.0 * rng.standard_normal((2, c, 3, 5, 5))
        gamma, beta = rng.standard_normal(c) + 1.0, rng.standard_normal(c)
        w = rng.standard_normal((2, c, 3, 3))

        def run(g_, b_, w_):
            spikes = plif(Tensor(x, requires_grad=True), 0.5)
            assert spikes.data.dtype == np.uint8 and spikes.data.any() and not spikes.data.all()
            return ag.conv2d(batchnorm2d(spikes, g_, b_, np.zeros(c), np.ones(c)), w_, padding=1)

        check_grad(run, [gamma, beta, w], TOL64)


def test_batchnorm_running_stats():
    """The tape sets batch norm's mode, in ``conv2d`` with a bn and in the
    batch norm alone (``batchnorm2d``, conftest). While it records, both
    normalize with the batch statistics and update the running statistics
    (momentum 0.1, unbiased variance); under ``no_grad`` they leave the
    running statistics unchanged: ``batchnorm2d`` normalizes with them. The
    conv folds either into itself."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 4, 3, 3))
    gamma, beta = Tensor(rng.standard_normal(2) + 1.0), Tensor(rng.standard_normal(2))
    w = Tensor(rng.standard_normal((3, 2, 3, 3)))
    bn_ops = {"batchnorm2d": lambda *stats: batchnorm2d(Tensor(x), gamma, beta, *stats),
              "conv2d(bn)": lambda *stats: ag.conv2d(Tensor(x), w, padding=1, bn=(gamma, beta, *stats))}

    def want(name, mean, var):
        y = (x - mean.reshape(2, 1, 1, 1)) / np.sqrt(var.reshape(2, 1, 1, 1) + 1e-5)
        y = y * gamma.data.reshape(2, 1, 1, 1) + beta.data.reshape(2, 1, 1, 1)
        return y if name == "batchnorm2d" else ag.conv2d(Tensor(y), w, padding=1).data

    mean, var, cnt = x.mean(axis=(1, 2, 3)), x.var(axis=(1, 2, 3)), x[0].size
    for name, op in bn_ops.items():
        rm, rv = np.zeros(2), np.ones(2)
        assert np.allclose(op(rm, rv).data, want(name, mean, var)), name
        assert np.allclose(rm, 0.1 * mean) and np.allclose(rv, 0.9 + 0.1 * var * cnt / (cnt - 1)), name
        stats = rng.standard_normal(2), rng.random(2) + 0.5
        rm, rv = (a.copy() for a in stats)
        with ag.no_grad():
            out = op(rm, rv).data
        assert np.allclose(out, want(name, *stats)), name
        assert np.array_equal(rm, stats[0]) and np.array_equal(rv, stats[1]), name


def _batchnorm_oracle(x, gamma, beta, running_mean, running_var, training, g):
    """Batch norm from ``mean``/``var`` and fresh arrays at each step, on
    channel-major ``x``: returns out, dx, dgamma and dbeta, and in training
    updates the running statistics in place. Out of training it normalizes
    with the running statistics, and its gradients go unused."""
    c = x.shape[0]
    xm = x.reshape(c, -1)
    m = xm.shape[1]
    if training:
        mean, var = xm.mean(axis=1), xm.var(axis=1)
        running_mean *= 0.9
        running_mean += 0.1 * mean
        running_var *= 0.9
        running_var += 0.1 * var * m / (m - 1)
    else:
        mean, var = running_mean, running_var
    invstd = (1.0 / np.sqrt(var + 1e-5)).reshape(c, 1)
    xhat = (xm - mean.reshape(c, 1)) * invstd
    out = xhat * gamma.reshape(c, 1) + beta.reshape(c, 1)
    gm = g.reshape(c, -1)
    gi = gamma.reshape(c, 1) * invstd
    gsum = gm.sum(axis=1, keepdims=True)
    gx = (gm * xhat).sum(axis=1, keepdims=True)
    dx = gi * (gm - gsum / m - xhat * gx / m)
    return out.reshape(x.shape), dx.reshape(x.shape), (gm * xhat).sum(axis=1), gm.sum(axis=1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_matches_oracle_bit_for_bit(dtype, training):
    """The in-place batch norm (centred rows squared for the variance, then
    scaled to xhat; the output written over the squares) makes the same
    float ops as ``np.var`` and the fresh-array formula, and its backward
    rebuilds xhat with the forward's ops. Under ``no_grad`` (``training``
    False) the output is the oracle's on the running statistics, which stay
    unchanged. One-byte spikes (``uint8``) with float32
    parameters give the oracle's results on their float32 copy: a binary
    row's mean is an exact count over m."""
    rng = np.random.default_rng(17)
    fdtype = np.float32 if dtype == np.uint8 else dtype
    for _ in range(20):
        c, n, h, w = (int(v) for v in rng.integers(1, 6, size=4))
        n = max(n, 2)
        if dtype == np.uint8:
            x = (rng.random((c, n, h, w)) < rng.random()).astype(dtype)
        else:
            x = (rng.standard_normal((c, n, h, w)) * 3 + 1).astype(dtype)
        gamma, beta, g = (rng.standard_normal(s).astype(fdtype) for s in (c, c, x.shape))
        stats = [rng.standard_normal(c).astype(fdtype), (rng.random(c) + 0.5).astype(fdtype)]
        want_stats = [a.copy() for a in stats]
        want_out, want_dx, *want_dparams = _batchnorm_oracle(x.astype(fdtype), gamma, beta, *want_stats, training, g)
        t = Tensor(x, requires_grad=True, dtype=dtype)
        params = [Tensor(a, requires_grad=True) for a in (gamma, beta)]
        if training:
            out = batchnorm2d(t, *params, *stats)
            out.backward(g)
            assert t.grad.dtype == fdtype and np.array_equal(t.grad, want_dx)
            assert all(np.array_equal(p.grad, want) for p, want in zip(params, want_dparams))
        else:
            with ag.no_grad():
                out = batchnorm2d(t, *params, *stats)
        assert out.data.dtype == fdtype and np.array_equal(out.data, want_out)
        assert all(np.array_equal(a, b) for a, b in zip(stats, want_stats))


# case: (x dtype, Cin, Cout, kernel, stride, padding, groups, bias)
_BN_CONV_CASES = {
    "1x1": (np.float32, 6, 5, 1, 1, 0, 1, False),
    "3x3-pad1": (np.float32, 4, 6, 3, 1, 1, 1, True),
    "stem-3x3-s2": (np.float32, 4, 8, 3, 2, 1, 1, False),
    "grouped": (np.float32, 4, 6, 3, 1, 1, 2, True),
    "depthwise": (np.float32, 5, 5, 3, 1, 1, 5, False),
    "spikes": (np.uint8, 4, 6, 3, 1, 1, 1, True),
}


def _bn_conv_arrays(case):
    """The input, the batch norm's gamma, beta and running statistics, and
    the conv's weight and bias (None without one) of a ``_BN_CONV_CASES``
    case: the stem case reads a float input, the spikes case one-byte
    spikes."""
    dtype, cin, cout, k, s, p, groups, bias = _BN_CONV_CASES[case]
    rng = np.random.default_rng(11)
    if dtype == np.uint8:
        x = (rng.random((cin, 3, 7, 6)) < 0.3).astype(dtype)
    else:
        x = (rng.standard_normal((cin, 3, 7, 6)) * 2 + 0.5).astype(dtype)
    arrays = {
        "gamma": rng.standard_normal(cin).astype(np.float32),
        "beta": rng.standard_normal(cin).astype(np.float32),
        "w": rng.standard_normal((cout, cin // groups, k, k)).astype(np.float32),
        "b": rng.standard_normal(cout).astype(np.float32) if bias else None,
    }
    stats = [rng.standard_normal(cin).astype(np.float32), (rng.random(cin) + 0.5).astype(np.float32)]
    return x, arrays, stats, (s, p, groups)


def _bn_conv(x, ps, stats, s, p, groups):
    """``conv2d`` of x with the batch norm of a ``_BN_CONV_CASES`` case
    folded in: ps holds the Tensors gamma, beta, w and b."""
    return ag.conv2d(x, ps["w"], ps["b"], s, p, groups, (ps["gamma"], ps["beta"], *stats))


@pytest.mark.parametrize("case, x_learns", [pytest.param(case, x_learns, id=case if x_learns else f"{case}-x-frozen")
                                             for x_learns in (True, False) for case in sorted(_BN_CONV_CASES)])
def test_bn_conv_equals_batchnorm_then_conv(case, x_learns):
    """While the tape records, ``conv2d`` with a bn, the batch norm folded
    into the conv on the batch statistics, is ``conv2d(batchnorm2d(...))``
    to float round-off: the output within criterion 5's 1e-5, dx, dW and
    dgamma within 1e-6 of each array's largest magnitude (reordered sums).
    db and the updated running statistics (the same statistics) are bit for
    bit. When x learns, dbeta is the sum of the same dy, bit for bit; when
    it does not, no dy is built and dbeta, like dgamma, comes from the dW
    GEMM within 1e-6, while out, dW, db and the running statistics are
    those of the frame whose x learns, bit for bit."""
    x, arrays, stats, (s, p, groups) = _bn_conv_arrays(case)
    g = None
    runs = []
    for folded, learns in ((True, x_learns), (False, x_learns), *(() if x_learns else ((True, True),))):
        t = Tensor(x, requires_grad=learns, dtype=x.dtype)
        ps = {key: None if a is None else Tensor(a, requires_grad=True) for key, a in arrays.items()}
        run_stats = [a.copy() for a in stats]
        if folded:
            out = _bn_conv(t, ps, run_stats, s, p, groups)
        else:
            y = batchnorm2d(t, ps["gamma"], ps["beta"], *run_stats)
            out = ag.conv2d(y, ps["w"], ps["b"], s, p, groups)
        g = np.random.default_rng(12).standard_normal(out.data.shape).astype(np.float32) if g is None else g
        out.backward(g)
        assert all(q.grad is not None for q in [t, *ps.values()] if q is not None and q.requires_grad)
        runs.append({"out": out.data, "running_mean": run_stats[0], "running_var": run_stats[1],
                     **({"x": t.grad} if learns else {}), **{key: q.grad for key, q in ps.items() if q is not None}})
    got, want, *learning = runs
    assert got.keys() == want.keys()
    for key, a in want.items():
        assert got[key].dtype == a.dtype == np.float32 and got[key].shape == a.shape, key
        if key in ("running_mean", "running_var", "b") or (key == "beta" and x_learns):
            assert np.array_equal(got[key], a), key
        elif key == "out":
            assert np.abs(got[key] - a).max() <= 1e-5
        else:
            assert np.abs(got[key] - a).max() <= 1e-6 * np.abs(a).max(), key
        if learning and key not in ("gamma", "beta"):
            assert np.array_equal(got[key], learning[0][key]), key


def _pad_channels(y, p, values):
    """(C, N, H, W) padded by p, channel c's border filled with values[c]."""
    out = np.empty((y.shape[0], y.shape[1], y.shape[2] + 2 * p, y.shape[3] + 2 * p), dtype=y.dtype)
    out[:] = values.astype(y.dtype).reshape(-1, 1, 1, 1)
    out[:, :, p : p + y.shape[2], p : p + y.shape[3]] = y
    return out


@pytest.mark.parametrize("case", sorted(_BN_CONV_CASES))
def test_bn_conv_eval_folds_within_tolerance(case):
    """Under ``no_grad``, ``conv2d`` with a bn is the batch norm on the
    running statistics folded into the conv: within 1e-5 of
    ``conv2d(batchnorm2d(...))`` (criterion 5's bound), running statistics
    unchanged. A channel with gamma = 0 is the constant beta, and the fold
    pads it with beta, not 0, in both modes: the output is the conv of the
    batch norm's output padded with beta in that channel (and 0 in the
    others), which differs from the zero border. While the tape records the
    same holds on the batch statistics."""
    x, arrays, stats, (s, p, groups) = _bn_conv_arrays(case)
    ps = {key: None if a is None else Tensor(a) for key, a in arrays.items()}

    def both(run_stats):
        got = _bn_conv(Tensor(x), ps, run_stats, s, p, groups).data
        y = batchnorm2d(Tensor(x), ps["gamma"], ps["beta"], *run_stats)
        return got, y, ag.conv2d(y, ps["w"], ps["b"], s, p, groups).data

    run_stats = [a.copy() for a in stats]
    with ag.no_grad():
        got, _, want = both(run_stats)
    assert all(np.array_equal(a, b) for a, b in zip(run_stats, stats))
    assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-5
    ps["gamma"].data[0] = 0.0
    border = np.zeros(len(stats[0]), dtype=np.float32)
    border[0] = ps["beta"].data[0]
    for training in (False, True):
        with contextlib.nullcontext() if training else ag.no_grad():
            got, y, zero_border = both([a.copy() for a in stats])
        beta_border = ag.conv2d(Tensor(_pad_channels(y.data, p, border)), ps["w"], ps["b"], s, 0, groups).data
        assert np.abs(got - beta_border).max() <= 1e-5, training
        if p:
            assert np.abs(got - zero_border).max() > 1e-3, training


def test_bn_fold_runs_once_per_op_under_no_grad(monkeypatch):
    """Under ``no_grad`` the running statistics fold into the conv once per
    op, whatever T is, in ``conv2d`` and in ``conv_plif``; while the tape
    records each frame folds its own batch statistics."""
    calls, fold = [], ops._bn_fold

    def counted(*args):
        calls.append(1)
        return fold(*args)

    monkeypatch.setattr(ops, "_bn_fold", counted)
    x, arrays, stats, (s, p, groups) = _bn_conv_arrays("spikes")
    ps = {key: Tensor(a, requires_grad=True) for key, a in arrays.items()}
    plif_w = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    bn = (ps["gamma"], ps["beta"], *stats)
    for steps in (1, 2, 5):
        frames = Tensor(np.stack([x] * steps), dtype=np.uint8)
        for op in (lambda: _bn_conv(frames, ps, stats, s, p, groups),
                   lambda: ag.conv_plif(frames, plif_w, ps["w"], ps["b"], s, p, groups, bn)):
            calls.clear()
            with ag.no_grad():
                op()
            assert len(calls) == 1, steps
            calls.clear()
            op()
            assert len(calls) == steps


def test_bn_conv_grad_float64(rng):
    """float64 gradients of the pair w.r.t. x, gamma, beta, W and b, in
    training (batch statistics), over kernel, stride, padding and groups."""
    for _ in range(10):
        groups = int(rng.choice([1, 2]))
        cin, cout = groups * int(rng.integers(1, 3)), groups * int(rng.integers(1, 3))
        k, s, p = int(rng.choice([1, 3])), int(rng.integers(1, 3)), int(rng.integers(0, 2))
        x = rng.standard_normal((cin, 2, 5, 5))
        gamma, beta = rng.standard_normal(cin) + 1.0, rng.standard_normal(cin)
        w, b = rng.standard_normal((cout, cin // groups, k, k)), rng.standard_normal(cout)

        def run(x_, g_, be_, w_, b_):
            return ag.conv2d(x_, w_, b_, s, p, groups, (g_, be_, np.zeros(cin), np.ones(cin)))

        check_grad(run, [x, gamma, beta, w, b], TOL64)


@pytest.mark.parametrize("x_learns", [True, False])
def test_bn_conv_grad_float64_gamma_zero_channel(x_learns):
    """float64 gradients of the pair with gamma = 0 in one channel, which
    the fold pads with beta over every tap: dbeta counts that channel's
    border taps too, on both backward paths, with dy built for x's gradient
    (x learns) and with none (x frozen). dgamma of that channel is the
    central difference's, whose two sides (gamma = +-eps) pad it with 0."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 2, 5, 5))
    gamma, beta = np.array([1.0, 0.0, 0.7]), rng.standard_normal(3)
    w, b = rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)

    def run(g_, be_, w_, b_):
        return ag.conv2d(Tensor(x, requires_grad=x_learns), w_, b_, 1, 1, 1, (g_, be_, np.zeros(3), np.ones(3)))

    check_grad(run, [gamma, beta, w, b], TOL64)


def test_bn_conv_tape_keeps_no_bn_output():
    """A taped bn -> conv pair keeps O(C) beyond its output (the mean and
    1/std per channel): no batch norm output is built, and the backward
    rebuilds the conv's phase buffer from the spikes, a parent."""
    rng = np.random.default_rng(4)
    for c, k in ((8, 1), (64, 1), (64, 3)):
        x = Tensor((rng.random((c, 4, 32, 32)) < 0.2).astype(np.uint8), requires_grad=True, dtype=np.uint8)
        gamma = Tensor(np.ones(c, dtype=np.float32), requires_grad=True)
        beta = Tensor(np.zeros(c, dtype=np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((c, c, k, k)).astype(np.float32), requires_grad=True)
        stats = np.zeros(c, dtype=np.float32), np.ones(c, dtype=np.float32)
        tracemalloc.start()
        try:
            out = ag.conv2d(x, w, padding=k // 2, bn=(gamma, beta, *stats))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - out.data.nbytes <= 4096 + 64 * c, (c, k, held - out.data.nbytes)


_FRAMEWISE_OPS = {
    "conv2d": lambda x, p, stats: ag.conv2d(x, p["w"], p["b"], 2, 1),
    "batchnorm2d": lambda x, p, stats: batchnorm2d(x, p["gamma"], p["beta"], *stats),
    "bn_conv": lambda x, p, stats: ag.conv2d(x, p["w"], p["b"], 2, 1, 1, (p["gamma"], p["beta"], *stats)),
    "maxpool2d": lambda x, p, stats: ag.maxpool2d(x, 3, 2, 1),
}


@pytest.mark.parametrize("dtype", [np.float32, np.uint8])
@pytest.mark.parametrize("op", sorted(_FRAMEWISE_OPS))
def test_framewise_op_equals_one_call_per_frame(op, dtype):
    """An op over T frames, (T, C, N, H, W), equals one call per (C, N, H, W)
    frame bit for bit: outputs, the running statistics updated frame after
    frame, the input gradient, and each parameter's gradient added over the
    frames in reverse time order, as separate walks from the last frame's
    loss to the first's add them."""
    rng = np.random.default_rng(11)
    xs = rng.standard_normal((4, 3, 2, 7, 7)) if dtype == np.float32 else rng.random((4, 3, 2, 7, 7)) < 0.4
    xs = xs.astype(dtype)
    arrays = {"w": rng.standard_normal((5, 3, 3, 3)), "b": rng.standard_normal(5),
              "gamma": 1.0 + 0.3 * rng.standard_normal(3), "beta": rng.standard_normal(3)}

    def run(framewise):
        params = {key: Tensor(a.astype(np.float32), requires_grad=True) for key, a in arrays.items()}
        stats = [np.zeros(3, dtype=np.float32), np.ones(3, dtype=np.float32)]
        frames = [Tensor(xs, requires_grad=True, dtype=dtype)] if framewise else [
            Tensor(x, requires_grad=True, dtype=dtype) for x in xs]
        outs = [_FRAMEWISE_OPS[op](x, params, stats) for x in frames]
        out = outs[0].data if framewise else np.stack([o.data for o in outs])
        probes = np.random.default_rng(12).standard_normal(out.shape).astype(np.float32)
        for t in reversed(range(len(outs))):
            (outs[t] * Tensor(probes if framewise else probes[t])).sum().backward()
        x_grad = frames[0].grad if framewise else np.stack([x.grad for x in frames])
        return [out, x_grad, *stats, *(p.grad for p in params.values() if p.grad is not None)]

    got, want = run(True), run(False)
    assert len(got) == len(want) == {"conv2d": 6, "batchnorm2d": 6, "bn_conv": 8, "maxpool2d": 4}[op]
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype and np.array_equal(a, b), i


def test_maxpool_grad(rng):
    for _ in range(20):
        k = int(rng.choice([2, 3]))
        s = int(rng.integers(1, 3))
        h = int(rng.integers(k + 1, k + 5))
        pad = int(rng.integers(0, 2))
        x = cnhw(rng.standard_normal((2, 2, h, h)))
        check_grad(lambda x_: ag.maxpool2d(x_, k, s, padding=pad), [x], TOL64)
        zero_border = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        assert np.array_equal(ag.maxpool2d(Tensor(x), k, s, padding=pad).data, ag.maxpool2d(Tensor(zero_border), k, s).data)


def test_maxpool_tie_first_wins():
    x = np.zeros((1, 1, 2, 2))
    out = ag.maxpool2d(Tensor(x, requires_grad=True), 2, 2)
    t = Tensor(x, requires_grad=True)
    out = ag.maxpool2d(t, 2, 2)
    out.sum().backward()
    expect = np.zeros((1, 1, 2, 2))
    expect[0, 0, 0, 0] = 1.0  # all equal: gradient goes to the first cell
    assert np.array_equal(t.grad, expect)


def _maxpool_oracle(x, k, s, p, g):
    """The im2col / argmax / ``np.add.at`` max pool on NCHW ``x``: returns
    the output and the input gradient for the upstream gradient ``g``."""
    n, c, h, w = x.shape
    ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = np.empty((n, c, k, k, ho, wo), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i : i + ho * s : s, j : j + wo * s : s]
    flat = cols.reshape(n, c, k * k, ho, wo)
    arg = flat.argmax(axis=2)  # first maximum in row-major order
    out = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]
    dxp = np.zeros_like(xp)
    ni, ci, hi, wi = np.indices(arg.shape)
    np.add.at(dxp, (ni, ci, hi * s + arg // k, wi * s + arg % k), g)
    return out, dxp[:, :, p : p + h, p : p + w]


def test_maxpool_matches_scatter_oracle():
    """The running-maximum pool equals the argmax / scatter pool bit for bit,
    forward and backward, on square and non-square maps and at strides 1-3:
    ties (binary spikes at every density) go to the first window cell, and
    overlapping windows add their float32 gradients into a cell in the same
    order. Binary maps are also pooled as one-byte spikes: the output stays
    ``uint8`` with the float32 map's values, the gradient is float32."""
    rng = np.random.default_rng(11)
    for h, w in ((10, 10), (9, 13)):
        inputs = [(lambda d=d: (rng.random((2, 3, h, w)) < d).astype(np.float32), (np.float32, np.uint8))
                  for d in (0.0, 0.05, 0.5, 1.0)]
        inputs.append((lambda: rng.standard_normal((2, 3, h, w)).astype(np.float32), (np.float32,)))
        for k in (2, 3):
            for s in (1, 2, 3):
                for p in (0, 1):
                    for make, dtypes in inputs:
                        for _ in range(3):
                            x = make()
                            ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
                            g = rng.standard_normal((2, 3, ho, wo)).astype(np.float32)
                            want_out, want_dx = _maxpool_oracle(x, k, s, p, g)
                            for dtype in dtypes:
                                t = Tensor(cnhw(x).astype(dtype), requires_grad=True, dtype=dtype)
                                out = ag.maxpool2d(t, k, s, padding=p)
                                out.backward(cnhw(g))
                                assert out.data.dtype == dtype and t.grad.dtype == np.float32
                                assert np.array_equal(cnhw(out.data), want_out)
                                assert np.array_equal(cnhw(t.grad), want_dx), (h, w, k, s, p, dtype)


def test_concat_grad(rng):
    for _ in range(20):
        h = int(rng.integers(2, 5))
        parts = [cnhw(rng.standard_normal((2, int(rng.integers(1, 4)), h, h))) for _ in range(3)]
        check_grad(lambda *xs: ag.concat(list(xs), 0), parts, TOL64)
    with pytest.raises(ValueError):  # the other axes must match
        ag.concat([Tensor(np.zeros((2, 3, 4, 4))), Tensor(np.zeros((2, 2, 4, 4)))], 0)


def test_time_sum_adds_spikes_into_float32():
    """300 one-byte frames of ones sum to 300 in float32, where uint8 adds
    would wrap; every frame gets the sum's gradient in float32. Float frames
    keep their dtype and sum as chained ``add`` ops do."""
    frames = Tensor(np.ones((300, 2, 3), dtype=np.uint8), requires_grad=True, dtype=np.uint8)
    out = ag.time_sum(frames)
    g = np.arange(6, dtype=np.float32).reshape(2, 3)
    out.backward(g)
    assert out.data.dtype == np.float32 and np.all(out.data == 300)
    assert frames.grad.dtype == np.float32 and frames.grad.shape == (300, 2, 3)
    assert all(np.array_equal(frame, g) for frame in frames.grad)
    a = np.random.default_rng(2).standard_normal((5, 4, 3))
    xs = [Tensor(frame) for frame in a]
    chained = xs[0] + xs[1] + xs[2] + xs[3] + xs[4]
    summed = ag.time_sum(Tensor(a))
    assert summed.data.dtype == np.float64 and np.array_equal(summed.data, chained.data)


# --------------------------------------------------------------------------
# Spike nonlinearity and losses
# --------------------------------------------------------------------------


def test_heaviside_forward_and_surrogate():
    """``plif`` from rest with 1/tau = 1: the spike is a step at v = 1 and
    the input gradient is the ATan surrogate at v - 1."""
    u = np.array([[-1.0, -1e-9, 0.0, 1e-9, 2.0]])  # one frame
    x = Tensor(u + 1.0, requires_grad=True)
    out = plif(x, 1.0)
    assert np.array_equal(out.data, [[0, 0, 1, 1, 1]])
    out.sum().backward()
    alpha = 2.0
    expect = alpha / (2 * (1 + (np.pi * alpha * (x.data - 1.0) / 2) ** 2))
    assert np.allclose(x.grad, expect)


def test_softmax_cross_entropy_grad(rng):
    for _ in range(20):
        n, c = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        logits = rng.standard_normal((n, c))
        targets = rng.integers(0, c, size=n)
        check_grad(lambda z: ag.softmax_cross_entropy(z, targets), [logits], TOL64)


def test_cross_entropy_value():
    logits = np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]))
    loss = ag.softmax_cross_entropy(Tensor(logits), [0, 1])
    assert np.isclose(float(loss.data), -(math.log(0.7) + math.log(0.8)) / 2)


def test_focal_loss_grad(rng):
    for _ in range(20):
        n, c = int(rng.integers(2, 8)), int(rng.integers(2, 5))
        logits = rng.standard_normal((n, c))
        targets = rng.integers(0, c, size=n)
        check_grad(lambda z: ag.focal_loss(z, targets, gamma=2.0, alpha=0.25), [logits], 1e-5)


def test_focal_loss_gamma_zero_matches_weighted_ce(rng):
    logits = rng.standard_normal((6, 3))
    targets = rng.integers(0, 3, size=6)
    fl = ag.focal_loss(Tensor(logits), targets, gamma=0.0, alpha=0.25, normalizer=1.0)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    at = np.where(targets > 0, 0.25, 0.75)
    expect = (-at * np.log(p[np.arange(6), targets])).sum()
    assert np.isclose(float(fl.data), expect)


def _softmax_oracle(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def test_softmax_matches_reduce_oracle(monkeypatch):
    """The column-by-column softmax equals numpy's axis reductions bit for
    bit on the class axes used here (2-3 classes), and so do the losses
    built on it."""
    rng = np.random.default_rng(12)
    for shape in ((16, 1280, 3), (50, 2), (64, 3)):
        z = rng.standard_normal(shape) * 4
        assert np.array_equal(ops._softmax(z), _softmax_oracle(z))
    logits = rng.standard_normal((64, 3)) * 4
    targets = rng.integers(0, 3, size=64)
    runs = []
    for softmax in (ops._softmax, _softmax_oracle):
        monkeypatch.setattr(ops, "_softmax", softmax)
        run = []
        for loss in (ag.focal_loss, ag.softmax_cross_entropy):
            t = Tensor(logits, requires_grad=True)
            out = loss(t, targets)
            out.backward()
            run += [out.data, t.grad]
        runs.append(run)
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


def test_smooth_l1_grad(rng):
    for _ in range(20):
        shape = (int(rng.integers(1, 5)), 4)
        pred = rng.standard_normal(shape) * 2
        target = rng.standard_normal(shape)
        mask = (rng.random(shape[:1]) < 0.7).astype(float)[:, None] * np.ones(shape)
        check_grad(lambda p: ag.smooth_l1(p, target, mask=mask, normalizer=3.0), [pred], TOL64)


def test_smooth_l1_values():
    pred = Tensor(np.array([0.5, 2.0]))
    loss = ag.smooth_l1(pred, np.zeros(2), normalizer=1.0)
    assert np.isclose(float(loss.data), 0.125 + 1.5)


# --------------------------------------------------------------------------
# Tape mechanics
# --------------------------------------------------------------------------


def test_no_grad_blocks_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with ag.no_grad():
        y = x * 2.0
    assert not y.requires_grad


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_backward_consumes_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    y = x * 2.0
    loss = (y * y).sum()
    loss.backward()
    assert np.allclose(x.grad, 8.0)
    for t in (loss, y):  # still referenced, but their tape entries are gone
        assert t._parents == () and t._backward is None


def test_grad_accumulates_on_reuse():
    x = Tensor(np.array([3.0]), requires_grad=True)
    (x * x).sum().backward()
    assert np.allclose(x.grad, [6.0])


def test_diamond_graph_grad():
    x = Tensor(np.array([2.0]), requires_grad=True)
    a = x * 3.0
    b = x * 5.0
    (a + b).sum().backward()
    assert np.allclose(x.grad, [8.0])


# --------------------------------------------------------------------------
# Optimizer / schedule / init
# --------------------------------------------------------------------------


def test_cosine_lr_endpoints():
    assert cosine_lr(0, 100, 0.5) == 0.5
    assert np.isclose(cosine_lr(50, 100, 0.5), 0.25)
    assert np.isclose(cosine_lr(100, 100, 0.5), 0.0)
    with pytest.raises(ValueError):
        cosine_lr(101, 100, 0.5)


def test_clip_grad_norm():
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.array([3.0, 4.0, 0.0, 0.0], dtype=np.float32)
    norm = clip_grad_norm([p], max_norm=1.0)
    assert np.isclose(norm, 5.0)
    assert np.isclose(np.linalg.norm(p.grad), 1.0)
    norm2 = clip_grad_norm([p], max_norm=10.0)  # under the cap: untouched
    assert np.isclose(norm2, 1.0)
    assert np.isclose(np.linalg.norm(p.grad), 1.0)


def test_kaiming_uniform_bound():
    rng = np.random.default_rng(0)
    w = kaiming_uniform_init((1000,), fan_in=6, rng=rng)
    b = math.sqrt(6 / 6)
    assert np.abs(w).max() <= b
    assert np.abs(w).max() > 0.9 * b  # actually fills the range


def test_adamw_single_step_reference():
    p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    opt = AdamW([p], lr=0.1, weight_decay=0.01)
    p.grad = np.array([0.5], dtype=np.float32)
    opt.step()
    # decoupled decay first, then bias-corrected Adam update
    expect = 1.0 - 0.1 * 0.01 * 1.0
    mhat, vhat = 0.5, 0.25
    expect -= 0.1 * mhat / (math.sqrt(vhat) + 1e-8)
    assert np.isclose(float(p.data[0]), expect, atol=1e-6)


def test_adamw_decay_is_decoupled():
    """Zero gradient still shrinks the weight; no gradient-coupled L2."""
    p = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
    opt = AdamW([p], lr=0.5, weight_decay=0.1)
    p.grad = np.zeros(1, dtype=np.float32)
    opt.step()
    assert np.isclose(float(p.data[0]), 2.0 * (1 - 0.5 * 0.1))


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "ckpt.bin"
    params = {"a.weight": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.float32(7.0) * np.ones(1, np.float32)}
    ag.save_checkpoint(path, params)
    loaded = ag.load_checkpoint(path)
    assert list(loaded) == list(params)
    for k, v in params.items():
        assert loaded[k].dtype == np.float32 and np.array_equal(loaded[k], v), k


def test_checkpoint_reads_and_drops_a_state_block(tmp_path):
    """A file with a non-empty optimizer-state block, as earlier versions
    wrote it, loads its parameters; the state is checked and dropped, and
    a file cut anywhere inside the state block raises ValueError."""
    rng = np.random.default_rng(0)
    params = {"l0.weight": rng.standard_normal((4, 3)).astype(np.float32), "l0.bias": np.ones(4, np.float32)}
    state = {"step": np.ones(1, np.float32), "l0.weight.m": params["l0.weight"],
             "l0.weight.v": params["l0.weight"] ** 2}
    data = checkpoint_bytes(params, state)
    path = tmp_path / "old.bin"
    path.write_bytes(data)
    loaded = ag.load_checkpoint(path)
    assert list(loaded) == list(params)
    for k, v in params.items():
        assert np.array_equal(loaded[k], v), k
    state_start = len(checkpoint_bytes(params, {})) - 4
    for cut in range(state_start, len(data), 7):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError) as err:  # truncated, or an entry larger than what is left
            ag.load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: checkpoint "), cut


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(ValueError):
        ag.load_checkpoint(path)


def _write_checkpoint(path):
    rng = np.random.default_rng(0)
    params = {f"l{i}.weight": rng.standard_normal((4, 3)).astype(np.float32) for i in range(3)}
    ag.save_checkpoint(path, params)
    return params


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "full.bin"
    _write_checkpoint(path)
    data = path.read_bytes()
    for cut in (10, 100, len(data) // 2, len(data) - 3):
        short = tmp_path / f"cut{cut}.bin"
        short.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated") as err:
            ag.load_checkpoint(short)
        assert str(short) in str(err.value)


def test_checkpoint_entry_larger_than_the_file(tmp_path):
    """An entry whose shape asks for more bytes than the file has left fails
    with a ValueError naming it and both sizes, before any read: a 37-byte
    file that declares one 2**20 x 2**20 entry (4 TiB) does not ask for the
    memory."""
    path = tmp_path / "huge.bin"
    path.write_bytes(ag.checkpoint.MAGIC + struct.pack("<IH", 1, 6) + b"weight"
                     + struct.pack("<BII", 2, 1 << 20, 1 << 20) + b"\x00" * 8)
    assert path.stat().st_size == 37
    with pytest.raises(ValueError, match=r"entry 'weight' of shape \(1048576, 1048576\) needs 4398046511104 "
                                         r"bytes, the file has 8 left"):
        ag.load_checkpoint(path)


def test_checkpoint_write_is_atomic(tmp_path):
    path = tmp_path / "ckpt.bin"
    params = _write_checkpoint(path)
    before = path.read_bytes()
    with pytest.raises(ValueError):  # fails after the first entry is written
        ag.save_checkpoint(path, {"a": np.ones(2, np.float32), "b": np.array(["not a number"])})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]
    loaded = ag.load_checkpoint(path)
    for k, v in params.items():
        assert np.array_equal(loaded[k], v)
