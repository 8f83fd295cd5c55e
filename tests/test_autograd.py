"""Gradient checks and optimizer/checkpoint unit tests."""

import math

import numpy as np
import pytest

import evsnn.autograd as ag
from evsnn.autograd import AdamW, Tensor, clip_grad_norm, cosine_lr, kaiming_uniform_init

from conftest import check_grad

TOL64 = 1e-6
TOL32 = 1e-3


def _shapes(rng, n, ndim, lo=1, hi=6):
    return [tuple(int(rng.integers(lo, hi)) for _ in range(ndim)) for _ in range(n)]


# --------------------------------------------------------------------------
# Elementwise / shape ops
# --------------------------------------------------------------------------


@pytest.mark.parametrize("op", [ag.add, ag.sub, ag.mul])
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
        check_grad(ag.sigmoid, [rng.standard_normal(shape)], TOL64)


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
        x = rng.standard_normal((n, cin, h, h))
        w = rng.standard_normal((cout, cin // groups, k, k))
        b = rng.standard_normal(cout)
        pad_value = rng.standard_normal(cin) if rng.random() < 0.5 else None
        check_grad(
            lambda x_, w_, b_: ag.conv2d(x_, w_, b_, stride=stride, padding=pad, groups=groups, pad_value=pad_value),
            [x, w, b], TOL64,
        )


def test_conv2d_depthwise_grad(rng):
    for _ in range(5):
        c = int(rng.integers(2, 5))
        x = rng.standard_normal((2, c, 6, 6))
        w = rng.standard_normal((c, 1, 3, 3))
        check_grad(lambda x_, w_: ag.conv2d(x_, w_, stride=1, padding=1, groups=c), [x, w], TOL64)


def test_conv2d_float32_grad(rng):
    for _ in range(5):
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        check_grad(lambda x_, w_: ag.conv2d(x_, w_, stride=2, padding=1), [x, w], TOL32, eps=1e-2)


def test_conv2d_matches_naive(rng):
    """im2col conv against a direct loop implementation, with a zero or a
    per-channel constant border."""
    for _ in range(10):
        n, cin, cout, k = 2, 3, 4, 3
        s, p = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        h = int(rng.integers(4, 8))
        x = rng.standard_normal((n, cin, h, h))
        w = rng.standard_normal((cout, cin, k, k))
        pad_value = rng.standard_normal(cin) if rng.random() < 0.5 else None
        out = ag.conv2d(Tensor(x), Tensor(w), stride=s, padding=p, pad_value=pad_value).data
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        if p and pad_value is not None:
            border = np.ones_like(xp, dtype=bool)
            border[:, :, p:-p, p:-p] = False
            xp[border] = np.broadcast_to(pad_value.reshape(1, cin, 1, 1), xp.shape)[border]
        ho = (h + 2 * p - k) // s + 1
        ref = np.zeros((n, cout, ho, ho))
        for i in range(ho):
            for j in range(ho):
                patch = xp[:, :, i * s : i * s + k, j * s : j * s + k]
                ref[:, :, i, j] = np.einsum("ncij,ocij->no", patch, w)
        assert np.allclose(out, ref, atol=1e-10)


def test_batchnorm_grad(rng):
    for _ in range(20):
        c = int(rng.integers(1, 5))
        x = rng.standard_normal((3, c, 4, 4))
        gamma = rng.standard_normal(c) + 1.0
        beta = rng.standard_normal(c)

        def run(x_, g_, b_):
            rm, rv = np.zeros(c), np.ones(c)
            return ag.batchnorm2d(x_, g_, b_, rm, rv, training=True)

        check_grad(run, [x, gamma, beta], 1e-5)


def test_batchnorm_eval_grad(rng):
    c = 3
    rm = rng.standard_normal(c)
    rv = rng.random(c) + 0.5
    x = rng.standard_normal((2, c, 4, 4))
    gamma, beta = rng.standard_normal(c) + 1, rng.standard_normal(c)
    check_grad(lambda x_, g_, b_: ag.batchnorm2d(x_, g_, b_, rm.copy(), rv.copy(), training=False), [x, gamma, beta], TOL64)


def test_batchnorm_running_stats():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 2, 3, 3))
    rm, rv = np.zeros(2), np.ones(2)
    ag.batchnorm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=True, momentum=0.1)
    m = x.mean(axis=(0, 2, 3))
    cnt = x[:, 0].size
    v = x.var(axis=(0, 2, 3)) * cnt / (cnt - 1)
    assert np.allclose(rm, 0.1 * m)
    assert np.allclose(rv, 0.9 + 0.1 * v)


def test_maxpool_grad(rng):
    for _ in range(20):
        k = int(rng.choice([2, 3]))
        s = int(rng.integers(1, 3))
        h = int(rng.integers(k + 1, k + 5))
        pad = int(rng.integers(0, 2))
        x = rng.standard_normal((2, 2, h, h))
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


def test_concat_grad(rng):
    for _ in range(20):
        h = int(rng.integers(2, 5))
        parts = [rng.standard_normal((2, int(rng.integers(1, 4)), h, h)) for _ in range(3)]
        check_grad(lambda *xs: ag.concat_channels(list(xs)), parts, TOL64)


# --------------------------------------------------------------------------
# Spike nonlinearity and losses
# --------------------------------------------------------------------------


def test_heaviside_forward_and_surrogate():
    v = Tensor(np.array([-1.0, -1e-9, 0.0, 1e-9, 2.0]), requires_grad=True)
    out = ag.heaviside_surrogate(v, alpha=2.0)
    assert np.array_equal(out.data, [0, 0, 1, 1, 1])
    out.sum().backward()
    alpha = 2.0
    expect = alpha / (2 * (1 + (np.pi * alpha * v.data / 2) ** 2))
    assert np.allclose(v.grad, expect)


def test_heaviside_alpha_validation():
    with pytest.raises(ValueError):
        ag.heaviside_surrogate(Tensor(np.zeros(2)), alpha=0.0)


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


def test_adamw_state_needs_distinct_names():
    """State is keyed by parameter name, so unnamed parameters would collide."""
    opt = AdamW([Tensor(np.zeros(2), requires_grad=True) for _ in range(2)])
    with pytest.raises(ValueError, match="distinct parameter names"):
        opt.state_arrays()


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "ckpt.bin"
    params = {"a.weight": Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)), "b": np.float32(7.0) * np.ones(1, np.float32)}
    state = {"m0": np.ones((2, 3), dtype=np.float32)}
    ag.save_checkpoint(path, params, state)
    loaded, lstate = ag.load_checkpoint(path)
    assert np.array_equal(loaded["a.weight"], params["a.weight"].data)
    assert np.array_equal(loaded["b"], params["b"])
    assert np.array_equal(lstate["m0"], state["m0"])


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(ValueError):
        ag.load_checkpoint(path)


def _write_checkpoint(path):
    rng = np.random.default_rng(0)
    params = {f"l{i}.weight": rng.standard_normal((4, 3)).astype(np.float32) for i in range(3)}
    ag.save_checkpoint(path, params, {"step": np.ones(1, np.float32), "l0.weight.m": params["l0.weight"]})
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


def test_checkpoint_write_is_atomic(tmp_path):
    path = tmp_path / "ckpt.bin"
    params = _write_checkpoint(path)
    before = path.read_bytes()
    with pytest.raises(ValueError):  # fails after the first entry is written
        ag.save_checkpoint(path, {"a": np.ones(2, np.float32), "b": np.array(["not a number"])})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]
    loaded, _ = ag.load_checkpoint(path)
    for k, v in params.items():
        assert np.array_equal(loaded[k], v)
