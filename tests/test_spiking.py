"""PLIF dynamics, BPTT chain, network graph runtime and its rules, builders."""

import gc
import types
import weakref

import numpy as np
import pytest

import evsnn.autograd as ag
from evsnn.autograd import Tensor, ops
from evsnn.autograd.tensor import _sigmoid
from evsnn.spiking import Network, NetworkSpec, SpikeRecord, convert_dwsep_network
from evsnn.detection import build_detector_spec, build_toy_detector_spec
from evsnn.spiking.builders import (ARCH_NAMES, build_densenet, build_mobilenet, build_squeezenet, build_toy_classifier,
                                    build_vgg, named_spec)
from evsnn.spiking.layers import BatchNormLayer, ConvLayer, MaxPoolLayer, PLIFLayer

from conftest import (batchnorm2d, call_layer, count_tape_ops, numeric_grad, outputs_and_grads, plif, sigmoid,
                      spec_node, stepwise_forward, sub, tape_bytes)


# --------------------------------------------------------------------------
# PLIF neuron
# --------------------------------------------------------------------------


def test_plif_layer_tau_init():
    """The paper's neuron starts at tau = 2: a fresh layer has w = 0,
    sigmoid(w) = 1/2, and a spec cannot ask for another start."""
    layer = PLIFLayer("p")
    assert layer.w.data[0] == 0.0
    assert sigmoid(layer.w).data[0] == 0.5
    for value in (2.0, 3.0):
        spec = NetworkSpec(input_channels=1)
        spec.add("p", "plif", ["input"], tau_init=value)
        with pytest.raises(ValueError, match=r"^p: unknown plif keys \['tau_init'\]"):
            Network(spec)


def test_plif_alpha_must_be_positive_at_build_time():
    """The surrogate width is the constant 2.0. A plif node carrying any
    alpha, positive or not, fails when the network is built, with the
    node's name, not at the first forward."""
    assert ops.PLIF_SURROGATE_ALPHA == 2.0
    for value in (0.0, -1.0, 1.5):
        spec = NetworkSpec(input_channels=1, outputs=["p"])
        spec.add("p", "plif", ["input"], alpha=value)
        with pytest.raises(ValueError, match=r"^p: unknown plif keys \['alpha'\]"):
            Network(spec)


def test_plif_config_validation():
    """A plif node has no settings. A spec asking for another neuron fails
    loudly, naming the node and the key, instead of being ignored."""
    for key, value in (("tau_init", 3.0), ("alpha", 1.5), ("v_threshold", 0.5)):
        spec = NetworkSpec(input_channels=1)
        spec.add("p", "plif", ["input"], **{key: value})
        with pytest.raises(ValueError, match=rf"^p: unknown plif keys \['{key}'\]"):
            Network(spec)
    # a spec exported with the fixed-tau switch is refused, not reinterpreted
    spec = NetworkSpec(input_channels=1)
    spec.add("p", "plif", ["input"], learnable_tau=True)
    with pytest.raises(ValueError, match=r"unknown plif keys \['learnable_tau'\]"):
        Network(spec)


ALPHA = 2.0  # the width of the PLIF neuron's ATan surrogate


def _heaviside_surrogate(v):
    """The oracle's spike op: a step forward, the ATan-shaped surrogate
    dspike/dv = alpha / (2 (1 + (pi alpha v / 2)^2)), alpha = ALPHA, backward."""
    out = (v.data >= 0).astype(v.data.dtype)

    def backward(g):
        s = 0.5 * np.pi * ALPHA * v.data
        v.accumulate_grad(g * (ALPHA / (2.0 * (1.0 + s * s))))

    return Tensor.from_op(out, (v,), backward)


def _plif_step_oracle(state, x, inv_tau, v_threshold=1.0, v_reset=0.0, reset_mode="hard"):
    """The op-by-op PLIF composition with a settable threshold, reset value
    and reset mode (10 tape ops per hard-reset step): the reference that
    ``plif`` must match at threshold 1, hard reset to 0."""
    if state is None:
        state = Tensor(np.full(x.data.shape, v_reset, dtype=x.data.dtype))
    drive = sub(x, sub(state, v_reset))
    v = state + drive * inv_tau
    spikes = _heaviside_surrogate(sub(v, v_threshold))
    if reset_mode == "hard":
        v_next = v * sub(1.0, spikes) + spikes * v_reset
    else:
        v_next = sub(v, spikes * v_threshold)
    return spikes, v_next


def _oracle_step(x, state, w):
    """One step of the oracle neuron: ``w`` is a Tensor with 1/tau =
    sigmoid(w), or 1/tau itself. Returns the spikes and V'."""
    return _plif_step_oracle(state, x, sigmoid(w) if isinstance(w, Tensor) else w)


def _frame(x, t):
    """Frame t of a (T, ...) tensor as a tensor of its own."""

    def backward(g):
        full = np.zeros(x.data.shape, dtype=g.dtype)
        full[t] = g
        x.accumulate_grad(full)

    return Tensor.from_op(x.data[t], (x,), backward)


def _stack(frames):
    """One (T, ...) tensor of T equal-shape tensors."""

    def backward(g):
        for frame, g_t in zip(frames, g):
            if frame.requires_grad:
                frame.accumulate_grad(g_t)

    return Tensor.from_op(np.stack([f.data for f in frames]), tuple(frames), backward)


def _oracle_plif(x, w, states=None):
    """``plif`` with the oracle neuron: ``_oracle_step`` step by step
    over the frames of x from rest. Each step's V' tensor is appended to
    ``states``."""
    state, spikes = None, []
    for t in range(len(x.data)):
        s, state = _oracle_step(_frame(x, t), state, w)
        spikes.append(s)
        if states is not None:
            states.append(state)
    return _stack(spikes)


def _oracle_plif_call(layer, x):
    """A plif layer's neuron on a conv's output, the oracle's."""
    return _oracle_plif(x, layer.w)


def _logged_plif_backward(monkeypatch):
    """A list that gets, for each frame a fused PLIF backward visits (the
    last first), its v and the gradient dL/dV' the next frame hands it (None
    for the last frame)."""
    log, frame_backward = [], ops._plif_frame_backward

    def logged(g, g_m, v, v_prev, a, w):
        log.append((v.copy(), None if g_m is None else g_m.copy()))
        return frame_backward(g, g_m, v, v_prev, a, w)

    monkeypatch.setattr(ops, "_plif_frame_backward", logged)
    return log


def _logged_plif_forward(monkeypatch):
    """A list that gets, for each PLIF op run, the V' of every frame as its
    forward made it; the op keeps every frame's v to log it, as it does
    while the tape records."""
    log, forward = [], ops._plif_forward

    def logged(drive, steps, w, keep):
        spiked, v, a = forward(drive, steps, w, True)
        log.append(v * ~spiked)
        return spiked, v, a

    monkeypatch.setattr(ops, "_plif_forward", logged)
    return log


def _fused_chain(log, spikes):
    """From a ``_logged_plif_backward`` log of one op and its spikes: V' per
    frame, as the forward made it, and the gradients handed back for V' in
    the order they were handed."""
    vs = [v for v, _ in reversed(log)]
    return [v * (s == 0) for v, s in zip(vs, spikes)], [g for _, g in log if g is not None]


def _probe_loss(spikes, probes):
    """sum_t probe_t . s_t over the frames of spikes, leaving out a frame
    whose probe is None."""
    like = next(p for p in probes if p is not None)
    return (spikes * Tensor(np.stack([np.zeros_like(like) if p is None else p for p in probes]))).sum()


def _fused_run(xs, probes, w, monkeypatch):
    """``plif`` over the frames ``xs`` from rest, the loss
    ``_probe_loss``. Returns, per frame, the spikes, V', x's gradient and the
    gradients handed back for V' (in the order handed), and w's gradient."""
    log = _logged_plif_backward(monkeypatch)
    x = Tensor(np.stack(xs), requires_grad=True)
    spikes = plif(x, w)
    _probe_loss(spikes, probes).backward()
    membranes, handed = _fused_chain(log, spikes.data)
    return {"spikes": list(spikes.data), "V'": membranes, "x.grad": list(x.grad), "link.grad": handed,
            "w.grad": [w.grad]}


def _oracle_run(xs, probes, w):
    """``_fused_run`` for the oracle neuron; the gradient handed back for
    V' is that of each step's V' tensor."""
    x = Tensor(np.stack(xs), requires_grad=True)
    states = []
    spikes = _oracle_plif(x, w, states)
    _probe_loss(spikes, probes).backward()
    return {"spikes": list(spikes.data), "V'": [s.data for s in states], "x.grad": list(x.grad),
            "link.grad": [s.grad for s in reversed(states[:-1])], "w.grad": [w.grad]}


def _run_plif(fused, xs, probes, monkeypatch, w0=0.3):
    """One PLIF layer with a learned tau over the frames ``xs``, at their
    dtype: ``plif`` (``fused``) or the oracle, as ``_fused_run`` returns."""
    w = Tensor(np.asarray([w0], dtype=xs[0].dtype), requires_grad=True)
    return _fused_run(xs, probes, w, monkeypatch) if fused else _oracle_run(xs, probes, w)


def _plif_frames(seed, steps=5, shape=(2, 3, 4, 4)):
    rng = np.random.default_rng(seed)
    xs = [(1.5 * rng.standard_normal(shape)).astype(np.float32) for _ in range(steps)]
    probes = [rng.standard_normal(shape).astype(np.float32) for _ in range(steps)]
    return xs, probes


def _assert_plif_equal(got, want, dtype):
    """Spikes, V', input gradients and the gradients handed back for V'
    equal, bit for bit, at ``dtype``; the fused op's spikes are one byte,
    equal in value. w's gradient sums dv (v - V) over each frame with a dot
    product, which adds in another order than the reference's: within 1e-5
    of its magnitude, about 100 float32 epsilons (measured: 6e-7)."""
    assert got.keys() == want.keys()
    for t, (a, b) in enumerate(zip(got["spikes"], want["spikes"])):
        assert a.dtype == np.uint8 and np.array_equal(a, b), f"spikes differ at frame {t}"
    for kind in ("V'", "x.grad", "link.grad", "w.grad"):
        assert len(got[kind]) == len(want[kind]), kind
        for t, (a, b) in enumerate(zip(got[kind], want[kind])):
            if a is None or b is None:
                assert a is None and b is None, f"{kind} at {t}"
                continue
            assert a.dtype == b.dtype == dtype, f"{kind} at {t}"
            if kind == "w.grad":
                assert a.shape == b.shape == (1,) and np.abs(a - b).max() <= 1e-5 * np.abs(b).max()
            else:
                assert np.array_equal(a, b), f"{kind} differ at {t}"


def test_plif_step_matches_oracle_bit_for_bit(monkeypatch):
    """Five float32 frames with a learned tau, every frame's spikes in the
    loss, match the oracle neuron step by step (``_assert_plif_equal``): dv,
    dX and the membrane gradient dv - dX take the oracle's float operations
    in its order."""
    xs, probes = _plif_frames(0)
    got = _run_plif(True, xs, probes, monkeypatch)
    want = _run_plif(False, xs, probes, monkeypatch)
    assert sum(float(s.sum()) for s in got["spikes"][:-1]) > 0  # some neurons spike and reset before the last frame
    assert len(got["link.grad"]) == len(xs) - 1
    _assert_plif_equal(got, want, np.float32)


def test_plif_membrane_gradient_reaches_silent_steps(monkeypatch):
    """With only the last frame's spikes in the loss, the earlier frames'
    spikes get no gradient from downstream; the gradient through V' still
    reaches every earlier frame and matches the oracle."""
    xs, probes = _plif_frames(1)
    probes = [None] * (len(xs) - 1) + probes[-1:]
    got = _run_plif(True, xs, probes, monkeypatch)
    want = _run_plif(False, xs, probes, monkeypatch)
    assert all(np.abs(g).max() > 0 for g in got["x.grad"])  # every frame's input is reached
    _assert_plif_equal(got, want, np.float32)


def test_plif_float32_error_no_larger_than_oracle(monkeypatch):
    """Against a float64 run of the oracle, the fused op's float32 w gradient
    is on average no further off than the oracle's float32 one. Its input
    gradients equal the oracle's (above), so they err alike. A single sum
    in another order can land either side of the other, so the errors are
    averaged over frames of three widths; the oracle reduces a (C, N, H, W)
    frame through W lanes, which on narrow maps adds long runs in float32."""
    errors = []
    for seed, shape in enumerate([(16, 8, 32, 32)] * 4 + [(32, 16, 8, 8)] * 4 + [(64, 16, 4, 4)] * 4):
        xs, probes = _plif_frames(100 + seed, shape=shape)
        exact = _run_plif(False, [x.astype(np.float64) for x in xs], [p.astype(np.float64) for p in probes],
                          monkeypatch)
        fused = _run_plif(True, xs, probes, monkeypatch)
        oracle = _run_plif(False, xs, probes, monkeypatch)
        for spikes, reference in zip(fused["spikes"], exact["spikes"]):
            assert np.array_equal(spikes, reference)  # the same neurons spike, so the gradients compare
        errors.append([abs(run["w.grad"][0][0] - exact["w.grad"][0][0]) / abs(exact["w.grad"][0][0])
                       for run in (fused, oracle)])
    fused_error, oracle_error = np.mean(errors, axis=0)
    assert fused_error <= oracle_error


def _straight_through_plif(xs, w, u0s=None):
    """float64 PLIF whose spike is H(u0) + S(v - 1) - S(u0), with S(u) =
    arctan(pi alpha u / 2) / pi the primitive of the ATan surrogate and u0
    the v - 1 of the base run (``u0s`` None: this run is the base). At the
    base its spikes are the step's, and its exact derivative is the
    surrogate gradient, the reset term included. Returns (spikes, u0s)."""
    a = 1.0 / (1.0 + np.exp(-w))
    membrane, spikes, potentials = 0.0, [], []
    for t, x in enumerate(xs):
        v = membrane + (x - membrane) * a
        u0 = v - 1.0 if u0s is None else u0s[t]
        s = (u0 >= 0) + (np.arctan(0.5 * np.pi * ALPHA * (v - 1.0)) - np.arctan(0.5 * np.pi * ALPHA * u0)) / np.pi
        membrane = v * (1.0 - s)
        spikes.append(s)
        potentials.append(u0)
    return spikes, potentials


def test_plif_finite_differences_with_reset():
    """``plif``'s float64 gradients of sum_t probe_t . s_t with respect to
    every input element and w equal central differences of the
    straight-through PLIF (``_straight_through_plif``) at the same point."""
    steps, shape = 4, (2, 3, 3)
    rng = np.random.default_rng(3)
    arrays = [1.6 * rng.standard_normal((steps, *shape)), np.array([0.4])]
    probes = rng.standard_normal((steps, *shape))
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    spikes = plif(*tensors)
    (spikes * Tensor(probes)).sum().backward()

    base, u0s = _straight_through_plif(arrays[0], arrays[1])
    assert np.array_equal(spikes.data, base)
    assert spikes.data[:-1].sum() > 0  # resets feed later frames

    def loss_of(xs, w):
        out, _ = _straight_through_plif(xs, w, u0s)
        return float(sum((s * p).sum() for s, p in zip(out, probes)))

    for i, t in enumerate(tensors):
        num = numeric_grad(loss_of, arrays, i, eps=1e-6)
        assert np.abs(t.grad - num).max() <= 1e-6 * np.abs(num).max(), f"input {i}"


class _Link:
    """The slot where a keep-drive oracle step's backward leaves dL/dV' for
    the step before; every gradient left there is appended to ``handed``."""

    def __init__(self, handed):
        self.handed, self._grad = handed, None

    @property
    def grad(self):
        return self._grad

    @grad.setter
    def grad(self, g):
        if g is not None:
            self.handed.append(g.copy())
        self._grad = g


def _plif_keep_drive_oracle(x, state, w, handed):
    """One PLIF step as ``plif`` ran it when its tape kept X - V for w's
    gradient and its state was (V', spikes, link): the reference for the op
    that rebuilds X - V in its backward. Returns the spikes and the state."""
    a = _sigmoid(w.data)
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
    if not w.requires_grad:
        drive = None  # the backward needs X - V only for dw
    parents = (x, w) + ((prev_spikes,) if state is not None else ())
    scale = 0.5 * np.pi * ALPHA
    out_link = _Link(handed)

    def backward(g):
        dv = v - 1.0
        dv *= scale
        np.multiply(dv, dv, out=dv)
        dv += 1.0
        dv *= 2.0
        np.divide(ALPHA, dv, out=dv)  # sg(v - 1)
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
                x.accumulate_fresh_grad(dx)
            if feeds_back:
                link.grad = np.subtract(dv, dx, out=dv)
                if prev_spikes.grad is None:
                    prev_spikes.grad = np.zeros_like(prev_spikes.data)

    spikes = Tensor.from_op(spiked.astype(x.data.dtype), parents, backward)
    return spikes, (v * ~spiked, spikes, out_link)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("w_kind", ["learned", "frozen"])
def test_plif_matches_keep_drive_oracle_bit_for_bit(dtype, w_kind, monkeypatch):
    """``plif``, which reads no X - V in its backward, equals a loop of
    the step that kept it (``_plif_keep_drive_oracle``) bit for bit: spikes,
    V', input gradients and every gradient handed back for V', over five
    frames with resets, one of them left out of the loss. Its spikes are one
    byte, the oracle's of the frames' dtype, equal in value. w's gradient
    sums dv (v - V) (1 - a), which equals the oracle's dv (X - V) a (1 - a)
    in exact arithmetic: within 1e-5 of its magnitude, as in
    ``_assert_plif_equal`` (measured: 1e-7 in float32)."""
    rng = np.random.default_rng(21)
    shape = (4, 3, 8, 8)
    xs = [(1.5 * rng.standard_normal(shape) + 0.5).astype(dtype) for _ in range(5)]
    probes = [rng.standard_normal(shape).astype(dtype) for _ in range(5)]
    probes[2] = None

    def make_w():
        return Tensor(np.asarray([0.3], dtype=dtype), requires_grad=w_kind == "learned")

    w, handed = make_w(), []
    x = [Tensor(a, requires_grad=True) for a in xs]
    state, loss, spikes, membranes = None, 0.0, [], []
    for xt, probe in zip(x, probes):
        s, state = _plif_keep_drive_oracle(xt, state, w, handed)
        spikes.append(s.data)
        membranes.append(state[0])
        if probe is not None:
            loss = (s * Tensor(probe)).sum() + loss
    loss.backward()
    want = {"spikes": spikes, "V'": membranes, "x.grad": [t.grad for t in x], "link.grad": handed,
            "w.grad": [w.grad]}
    got = _fused_run(xs, probes, make_w(), monkeypatch)
    assert sum(float(s.sum()) for s in got["spikes"][:-1]) > 0  # some neurons spike and reset before the last frame
    assert len(got["link.grad"]) == len(xs) - 1
    assert [g is not None for g in got["w.grad"]] == [w_kind == "learned"]
    _assert_plif_equal(got, want, dtype)


# (C, N, H, W) input, conv (Cout, kernel, stride, padding) and whether a bn
# reads the input: a bn -> conv -> plif block on one-byte spikes, and
# MobileNet's pointwise conv -> plif on its depthwise conv's float output
_BLOCK_CASES = {"bn": ((4, 3, 9, 9), (6, 3, 2, 1), True), "pointwise": ((8, 3, 6, 6), (5, 1, 1, 0), False)}


def _block_run(case, dtype, blocked, monkeypatch, steps=5):
    """The block of ``_BLOCK_CASES[case]`` over ``steps`` frames from rest,
    as ``ag.conv_plif`` (``blocked``) or as ``ag.conv2d`` (with the bn) then
    ``plif``; the loss is sum_t probe_t . s_t without frame 2's term.
    Returns {name: list of arrays}: spikes, V', input gradients, parameter
    gradients, running statistics and every gradient handed back for V'."""
    (c, n, h, w), (cout, k, s, p), with_bn = _BLOCK_CASES[case]
    rng = np.random.default_rng(31)
    if with_bn:
        xs = [(rng.random((c, n, h, w)) < 0.3).astype(np.uint8) for _ in range(steps)]
    else:
        xs = [rng.standard_normal((c, n, h, w)).astype(dtype) for _ in range(steps)]
    params = {"w": 1.2 * rng.standard_normal((cout, c, k, k)) / k, "plif_w": np.array([0.3])}
    if with_bn:
        params.update(gamma=1.0 + 0.3 * rng.standard_normal(c), beta=0.5 + 0.3 * rng.standard_normal(c),
                      b=0.2 * rng.standard_normal(cout))
    params = {key: Tensor(a.astype(dtype), requires_grad=True) for key, a in params.items()}
    stats = [np.zeros(c, dtype=dtype), np.ones(c, dtype=dtype)]
    ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    probes = [rng.standard_normal((cout, n, ho, wo)).astype(dtype) for _ in range(steps)]
    probes[2] = None
    bn = (params["gamma"], params["beta"], *stats) if with_bn else None
    b = params.get("b")

    log = _logged_plif_backward(monkeypatch)
    x = Tensor(np.stack(xs), requires_grad=True, dtype=xs[0].dtype)
    if blocked:
        spikes = ag.conv_plif(x, params["plif_w"], params["w"], b, s, p, 1, bn)
    else:
        y = ag.conv2d(x, params["w"], b, s, p, bn=bn)
        spikes = plif(y, params["plif_w"])
    _probe_loss(spikes, probes).backward()
    membranes, handed = _fused_chain(log, spikes.data)
    out = {"spikes": list(spikes.data), "V'": membranes, "x.grad": list(x.grad)}
    out.update({f"{key}.grad": [t.grad] for key, t in params.items()})
    out.update(running_stats=stats, link_grads=handed)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_conv_plif_matches_bn_conv_then_plif_bit_for_bit(case, dtype, monkeypatch):
    """``ag.conv_plif`` equals the batch norm and conv (``ag.conv2d``, with
    or without the bn) followed by ``plif``, bit for bit: spikes,
    V', the input spikes' gradient, dW, db, dgamma, dbeta, w's gradient, the
    running statistics and every gradient handed back for V', over five
    frames with resets, one of them left out of the loss."""
    got = _block_run(case, dtype, True, monkeypatch)
    want = _block_run(case, dtype, False, monkeypatch)
    assert sum(int(s.sum()) for s in got["spikes"][:-1]) > 0  # some neurons spike and reset before the last frame
    assert len(got["link_grads"]) == 4
    assert got.keys() == want.keys()
    for kind, arrays in want.items():
        assert len(got[kind]) == len(arrays), kind
        for t, (a, b) in enumerate(zip(got[kind], arrays)):
            assert a.dtype == b.dtype and np.array_equal(a, b), f"{kind} differ at {t}"
            assert a.dtype == (np.uint8 if kind == "spikes" else dtype), kind


@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_conv_plif_under_no_grad_matches_the_composition(case, monkeypatch):
    """Under ``no_grad`` the block folds its batch norm into the conv as
    ``conv2d`` does: spikes and V' equal ``conv2d`` then ``plif`` bit for
    bit, the running statistics stay unchanged, and the V' of the unfolded
    ``batchnorm2d``, ``conv2d``, ``plif`` is within 1e-5 (the fused-eval
    bound), with the same spikes."""
    (c, n, h, w), (cout, k, s, p), with_bn = _BLOCK_CASES[case]
    rng = np.random.default_rng(32)
    xs = (rng.random((4, c, n, h, w)) < 0.3).astype(np.uint8)
    wt, tau_w = Tensor(rng.standard_normal((cout, c, k, k)).astype(np.float32) / k), Tensor(np.array([0.3], np.float32))
    gamma = Tensor(1.0 + 0.3 * rng.standard_normal(c).astype(np.float32))
    beta = Tensor(rng.standard_normal(c).astype(np.float32))
    stats = [0.3 * rng.random(c).astype(np.float32), 0.1 + rng.random(c).astype(np.float32)]
    bn = (gamma, beta, *stats) if with_bn else None
    before = [a.copy() for a in stats]
    log = _logged_plif_forward(monkeypatch)

    def run(block):
        with ag.no_grad():
            spikes = block(Tensor(xs, dtype=np.uint8)).data
        return spikes, log.pop()

    got = run(lambda x: ag.conv_plif(x, tau_w, wt, None, s, p, 1, bn))
    folded = run(lambda x: plif(ag.conv2d(x, wt, None, s, p, bn=bn), tau_w))
    unfolded = run(lambda x: plif(ag.conv2d(x if bn is None else batchnorm2d(x, *bn), wt, None, s, p), tau_w))
    assert not log
    assert all(np.array_equal(a, b) for a, b in zip(stats, before))
    assert got[0].sum() > 0
    assert got[1].shape == (len(xs), cout, n, *got[0].shape[-2:])
    assert np.array_equal(got[0], folded[0]) and np.array_equal(got[1], folded[1])
    assert np.array_equal(got[0], unfolded[0])
    assert np.abs(got[1] - unfolded[1]).max() <= 1e-5


def test_plif_step_records_one_tape_op():
    """A PLIF op over any number of frames records one tape entry."""
    w = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    for steps in (1, 4):
        x = Tensor(np.ones((steps, 2, 1, 3, 3), dtype=np.float32), requires_grad=True)
        with count_tape_ops() as counter:
            plif(x, w)
        assert counter.ops == 1, steps


def test_plif_tape_is_freed_without_a_walk():
    """A recorded PLIF op that is never walked holds no reference cycle: its
    arrays, the spikes and every frame's v, go when the caller drops the
    spikes."""
    gc.disable()
    try:
        w = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        x = Tensor(np.ones((3, 2, 1, 3, 3), dtype=np.float32), requires_grad=True)
        spikes = plif(x, w)
        held = [cell.cell_contents for cell in spikes._backward.__closure__]
        arrays = [weakref.ref(a) for a in [spikes.data, *held] if isinstance(a, np.ndarray)]
        assert len(arrays) >= 2
        del spikes, held
        assert [ref() for ref in arrays] == [None] * len(arrays)
    finally:
        gc.enable()


def test_plif_hand_simulation():
    """tau=2, v_th=1: V <- V + (X - V)/2, spike and hard-reset on V >= 1."""
    x = np.array([[1.5], [0.0], [2.0]])  # three frames of one neuron
    assert plif(Tensor(x), 0.5).data[:, 0].tolist() == [0, 0, 1]
    spiked, v, _ = ops._plif_forward(x.__getitem__, 3, Tensor(np.zeros(1)), True)  # a = sigmoid(0) = 1/2
    assert np.allclose(v[:, 0], [0.75, 0.375, 1.1875])  # 0.375 + (2 - 0.375)/2 = 1.1875 -> spike, reset
    assert np.allclose((v * ~spiked)[:, 0], [0.75, 0.375, 0.0])


def test_plif_threshold_boundary():
    assert plif(Tensor(np.array([[2.0]])), 0.5).data[0, 0] == 1
    spiked, v, _ = ops._plif_forward(np.array([[2.0]]).__getitem__, 1, Tensor(np.zeros(1)), True)
    assert v[0, 0] == 1.0 and spiked[0, 0]  # v hits exactly 1.0: a spike, and V' = 0
    assert (v * ~spiked)[0, 0] == 0.0


def test_bptt_two_step_hand_chain():
    """Autodiff through two PLIF frames matches the hand-derived gradient."""
    a = 0.5
    x = Tensor(np.array([[1.6], [2.4]]), requires_grad=True)
    s = plif(x, a)
    s.sum().backward()

    def sg(u):  # surrogate derivative at membrane excess u
        return ALPHA / (2 * (1 + (np.pi * ALPHA * u / 2) ** 2))

    v1 = a * 1.6                     # 0.8, below threshold -> s1 = 0
    g1 = sg(v1 - 1.0)
    v1_reset = v1 * (1 - 0.0)
    v2 = v1_reset * (1 - a) + a * 2.4  # 1.6 -> s2 = 1
    g2 = sg(v2 - 1.0)
    # dv1'/dv1 = (1 - s1) - v1 * g1 (reset gate feeds back through s1)
    dx1 = g1 * a + g2 * (1 - a) * ((1 - 0.0) - v1 * g1) * a
    dx2 = g2 * a
    assert s.data[:, 0].tolist() == [0, 1]
    assert np.allclose(x.grad[:, 0], [dx1, dx2], rtol=1e-12)


# --------------------------------------------------------------------------
# Network runtime
# --------------------------------------------------------------------------


def _tiny_spec():
    spec = NetworkSpec(input_channels=2, name="tiny")
    spec.add("bn1", "bn", ["input"])
    spec.add("conv1", "conv", ["bn1"], out_channels=4, kernel=3)
    spec.add("plif1", "plif", ["conv1"])
    spec.add("pool1", "maxpool", ["plif1"], kernel=2)
    spec.add("head_bn", "bn", ["pool1"])
    spec.add("head_conv", "conv", ["head_bn"], out_channels=3, kernel=1)
    spec.add("head_plif", "plif", ["head_conv"])
    spec.add("scores", "spatial_sum", ["head_plif"])
    spec.outputs.append("scores")
    return spec


def test_forward_shapes_and_time_unroll():
    net = Network(_tiny_spec(), rng=np.random.default_rng(0))
    batch = (np.random.default_rng(1).random((2, 2, 4, 8, 8)) < 0.3).astype(np.float32)
    outputs = net.forward(batch)
    assert isinstance(outputs["scores"], Tensor)  # summed over the 4 steps
    assert outputs["scores"].data.shape == (2, 3)


def test_forward_channel_mismatch():
    net = Network(_tiny_spec())
    with pytest.raises(ValueError, match="channels"):
        net.forward(np.zeros((1, 3, 2, 8, 8), dtype=np.float32))


def test_state_reset_between_forwards():
    net = Network(_tiny_spec(), rng=np.random.default_rng(0))
    batch = (np.random.default_rng(1).random((1, 2, 3, 8, 8)) < 0.4).astype(np.float32)
    a = net.forward(batch)["scores"].data
    b = net.forward(batch)["scores"].data
    assert np.array_equal(a, b)  # stale membrane state would change the result


def test_run_once_nodes_are_the_heads():
    """The nodes that run once on the time-summed input follow from the
    graph: for every builder, the classifier's spatial sum or the SSD head
    convs, and nothing else."""
    for name in ARCH_NAMES:
        assert Network(named_spec(name)).once == {"scores"}, name
    for spec, head_taps, _ in (build_toy_detector_spec(), build_detector_spec(num_classes=2)):
        assert Network(spec).once == {name for pair in head_taps for name in pair}, spec.name


def test_classifier_scores_equal_stepwise_oracle():
    """Spike counts are exact in float32, so one spatial sum over the
    time-summed spikes equals the per-step spatial sums summed over time
    bit for bit, and so does every parameter gradient."""
    net = Network(_tiny_spec(), rng=np.random.default_rng(0))
    assert net.once == {"scores"}
    batch = (np.random.default_rng(1).random((4, 2, 5, 8, 8)) < 0.5).astype(np.float32)
    labels = np.array([0, 1, 2, 1])

    def loss_of(outputs):
        return ag.softmax_cross_entropy(outputs["scores"], labels)

    new, new_grads = outputs_and_grads(net, lambda: net.forward(batch), loss_of)
    old, old_grads = outputs_and_grads(net, lambda: stepwise_forward(net, batch), loss_of)
    assert isinstance(new["scores"], Tensor) and new["scores"].data.any()
    assert np.array_equal(new["scores"].data, old["scores"].data)
    assert new_grads.keys() == old_grads.keys()
    for name, grad in old_grads.items():
        assert np.array_equal(new_grads[name], grad), name


def test_summed_conv_with_bias_matches_stepwise_oracle():
    """A conv that runs once on T summed frames adds T times its bias;
    outputs and gradients match running it per step within 1e-5 of each
    array's largest magnitude (float32)."""
    spec = NetworkSpec(input_channels=2, name="padded_tail")
    spec.add("conv1", "conv", ["input"], out_channels=3, kernel=3)
    spec.add("plif1", "plif", ["conv1"])
    spec.add("head", "conv", ["plif1"], out_channels=2, kernel=3, bias=True)
    spec.outputs.append("head")
    net = Network(spec, rng=np.random.default_rng(0))
    assert net.once == {"head"}
    rng = np.random.default_rng(1)
    net.layers["head"].bias.data = rng.standard_normal(2).astype(np.float32)
    batch = (rng.random((2, 2, 4, 8, 8)) < 0.5).astype(np.float32)
    probe = Tensor(rng.standard_normal((2, 2, 8, 8)).astype(np.float32))

    def loss_of(outputs):
        return (outputs["head"] * probe).sum()

    new, new_grads = outputs_and_grads(net, lambda: net.forward(batch), loss_of)
    old, old_grads = outputs_and_grads(net, lambda: stepwise_forward(net, batch), loss_of)
    for got, want in [(new["head"].data, old["head"].data)] + [(new_grads[k], g) for k, g in old_grads.items()]:
        assert np.abs(want).max() > 0
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def _layer_attributes(net):
    out = {}
    for name, layer in net.layers.items():
        for key, value in vars(layer).items():
            value = value.data if isinstance(value, Tensor) else value
            out[name, key] = value.copy() if isinstance(value, np.ndarray) else value
    return out


def test_forward_leaves_layers_unchanged():
    """Layers keep no per-step state: under no_grad a forward pass changes
    no attribute of any layer."""
    net = Network(_tiny_spec(), rng=np.random.default_rng(0))
    before = _layer_attributes(net)
    with ag.no_grad():
        net.forward((np.random.default_rng(1).random((1, 2, 3, 8, 8)) < 0.4).astype(np.float32), record=SpikeRecord())
    after = _layer_attributes(net)
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert np.array_equal(after[key], value), key


def test_state_carried_within_forward():
    """The third step spikes only if the membrane left by the first two
    steps is carried into it."""
    spec = NetworkSpec(input_channels=1, name="probe")
    spec.add("conv", "conv", ["input"], out_channels=1, kernel=1, bias=True)
    spec.add("plif", "plif", ["conv"])
    spec.outputs.append("plif")
    net = Network(spec, rng=np.random.default_rng(0))
    net.layers["conv"].weight.data[:] = 1.0
    net.layers["conv"].bias.data[:] = 0.0
    x = np.zeros((1, 1, 3, 1, 1), dtype=np.float32)
    x[0, 0, 0] = 1.9  # v1 = 0.95, no spike
    x[0, 0, 2] = 1.6  # v2 = 0.475 carried -> v3 = 1.0375 spikes; from rest v3 = 0.8
    spikes = net.forward(x)["plif"].data  # (T, C, N, H, W)
    assert spikes.reshape(-1).tolist() == [0, 0, 1]
    alone = net.forward(x[:, :, 2:])["plif"].data
    assert alone.reshape(-1).tolist() == [0]


def _unblocked(call):
    """A ``PLIFLayer.__call__`` that runs a block's conv (with its bn) as
    its own call, ``conv(x, 1, bn)``, as ``stepwise_forward`` does, then the
    neuron as ``call(layer, x)`` runs it: the composition ``ag.conv_plif``
    replaces."""

    def run(layer, x, conv, bn=None):
        return call(layer, conv(x, 1, bn))

    return run


_conv_call = ConvLayer.__call__


def _bn_then_conv(layer, x, steps=1, bn=None):
    """A ``ConvLayer.__call__`` that runs its bn as a call of its own
    (``batchnorm2d``), then the conv: the composition the fold replaces."""
    return _conv_call(layer, x if bn is None else call_layer(bn, x), steps)


def _detector_case():
    spec, _, _ = build_toy_detector_spec(in_channels=4)
    net = Network(spec, rng=np.random.default_rng(0))
    batch = (np.random.default_rng(1).random((2, 4, 3, 32, 32)) < 0.3).astype(np.float32)
    shapes, rng = net.trace_shapes(32, 32), np.random.default_rng(2)
    probes = {o: Tensor(rng.standard_normal((shapes[o][0], 2, *shapes[o][1:])).astype(np.float32)) for o in spec.outputs}

    def loss_of(outputs):
        return sum((outputs[o] * probes[o]).sum() for o in spec.outputs)

    return net, batch, loss_of


def test_toy_detector_forward_tape_ops(monkeypatch):
    """A training forward of the toy detector records one block op for each
    of its P bn -> conv -> PLIF blocks: P fewer entries than with the bn ->
    conv pair and PLIF as two ops ("pair")."""
    net, batch, _ = _detector_case()
    layers = sum(node["type"] == "plif" for node in net.spec.nodes)
    counts = {}
    for name, call in (("block", PLIFLayer.__call__), ("pair", _unblocked(call_layer))):
        monkeypatch.setattr(PLIFLayer, "__call__", call)
        with count_tape_ops() as counter:
            net.forward(batch)
        counts[name] = counter.ops
    assert layers == len(net.conv_of) == 3
    assert counts["pair"] - counts["block"] == layers


def test_toy_detector_tape_entries_do_not_grow_with_timesteps():
    """A toy-detector training forward records the same tape entries at T = 2
    as at T = 5: one per block (3), one time sum per head tap (2), and per
    head conv (4) its bias scaled by T and the conv, 13 in all."""
    net = Network(build_toy_detector_spec(in_channels=4)[0], rng=np.random.default_rng(0))
    rng, counts = np.random.default_rng(1), []
    for steps in (2, 5):
        batch = (rng.random((2, 4, steps, 32, 32)) < 0.3).astype(np.float32)
        with count_tape_ops() as counter:
            net.forward(batch)
        counts.append(counter.ops)
    assert counts == [13, 13]


def test_squeezenet_runs_each_bn_in_its_conv(monkeypatch):
    """Each of SqueezeNet-1.1's 26 batch norms runs inside the conv that
    reads it: with each conv as a call of its own (``_unblocked``), a
    training forward records 26 fewer tape entries than with the batch norm
    and the conv as two ops, and gives the same scores."""
    net = Network(named_spec("squeezenet1.1", in_channels=4), rng=np.random.default_rng(0))
    batch = (np.random.default_rng(5).random((2, 4, 3, 32, 32)) < 0.1).astype(np.float32)
    monkeypatch.setattr(PLIFLayer, "__call__", _unblocked(call_layer))
    assert len(net.bn_of) == sum(node["type"] == "bn" for node in net.spec.nodes) == 26
    counts, scores = {}, {}
    for name, call in (("pair", _conv_call), ("two ops", _bn_then_conv)):
        monkeypatch.setattr(ConvLayer, "__call__", call)
        with count_tape_ops() as counter:
            scores[name] = net.forward(batch)["scores"].data
        counts[name] = counter.ops
    assert counts["two ops"] - counts["pair"] == 26
    assert np.array_equal(scores["pair"], scores["two ops"])


def test_squeezenet_runs_each_block_as_one_op(monkeypatch):
    """Each of SqueezeNet-1.1's 26 convs runs with its batch norm and the
    PLIF that reads it as one op, ``ag.conv_plif``, that records one tape
    entry for all timesteps: a training forward records 26 fewer entries
    than with the bn -> conv pair and PLIF as two ops, and gives the same
    scores."""
    net = Network(named_spec("squeezenet1.1", in_channels=4), rng=np.random.default_rng(0))
    batch = (np.random.default_rng(5).random((2, 4, 3, 32, 32)) < 0.1).astype(np.float32)
    convs = [node["name"] for node in net.spec.nodes if node["type"] == "conv"]
    assert len(convs) == 26 and sorted(net.conv_of.values()) == sorted(convs)
    entries, conv_plif = [], ag.conv_plif

    def counted(*args):
        with count_tape_ops() as counter:
            out = conv_plif(*args)
        entries.append(counter.ops)
        return out

    monkeypatch.setattr(ag, "conv_plif", counted)
    counts, scores = {}, {}
    for name, call in (("block", PLIFLayer.__call__), ("two ops", _unblocked(call_layer))):
        monkeypatch.setattr(PLIFLayer, "__call__", call)
        with count_tape_ops() as counter:
            scores[name] = net.forward(batch)["scores"].data
        counts[name] = counter.ops
    assert entries == [1] * 26
    assert counts["two ops"] - counts["block"] == 26
    assert np.array_equal(scores["block"], scores["two ops"])


def _network_cases():
    """(name, network, input side) for every network a builder makes: the
    classifiers and MobileNet's dense forms at 32x32, the detectors at
    64x64."""
    rng = np.random.default_rng(0)
    for name in ARCH_NAMES:
        yield name, Network(named_spec(name), rng=rng), 32
    for width in (16, 32, 64):
        yield f"mobilenet{width}_dense", convert_dwsep_network(Network(build_mobilenet(width), rng=rng)), 32
    for spec in (build_toy_detector_spec()[0], build_detector_spec(2)[0]):
        yield spec.name, Network(spec, rng=rng), 64


def test_folded_training_matches_the_unfolded_composition_in_float64(monkeypatch):
    """A float64 training forward and backward (batch 2, T=2) of every named
    network, MobileNet's dense forms and the toy detector, each batch norm
    folded into its conv on the batch statistics, against the same network
    with each bn run as a call of its own (``batchnorm2d``) before its conv
    and each block's conv before its neuron: the outputs are bit for bit
    (the same neurons spike, and the heads read the same spikes), every
    gradient within 1e-12 of the network's largest gradient (reordered
    sums), and the running statistics bit for bit (the same statistics)."""
    names = []
    for name, net, side in _network_cases():
        if name == "densenet121_24_ssd":  # the paper's detector: the toy detector stands for it
            continue
        names.append(name)
        for p in net.param_list():
            p.data = p.data.astype(np.float64)
        bns = [layer for layer in net.layers.values() if isinstance(layer, BatchNormLayer)]
        batch = (np.random.default_rng(1).random((2, 4, 2, side, side)) < 0.3).astype(np.float64)
        probes = {}

        def loss_of(outputs):
            for o, out in outputs.items():
                probes.setdefault(o, Tensor(np.random.default_rng(2).standard_normal(out.data.shape)))
            return sum((out * probes[o]).sum() for o, out in outputs.items())

        runs = []
        for unfolded in (False, True):
            for bn in bns:
                bn.running_mean, bn.running_var = np.zeros(bn.channels), np.ones(bn.channels)
            with monkeypatch.context() as m:
                if unfolded:
                    m.setattr(PLIFLayer, "__call__", _unblocked(call_layer))
                    m.setattr(ConvLayer, "__call__", _bn_then_conv)
                outputs, grads = outputs_and_grads(net, lambda: net.forward(batch), loss_of)
            runs.append((outputs, grads, [a.copy() for bn in bns for a in (bn.running_mean, bn.running_var)]))
        (got, got_grads, got_stats), (want, want_grads, want_stats) = runs
        for o, out in want.items():
            assert np.array_equal(got[o].data, out.data), (name, o)
        largest = max(np.abs(g).max() for g in want_grads.values())
        assert largest > 0, name
        for key, g in want_grads.items():
            assert got_grads[key].dtype == np.float64 and np.abs(got_grads[key] - g).max() <= 1e-12 * largest, (name, key)
        assert all(np.array_equal(a, b) for a, b in zip(got_stats, want_stats)), name
    assert len(names) == len(ARCH_NAMES) + 4 and "toy_ssd" in names, names


def test_training_forward_calls_only_the_block_ops(monkeypatch):
    """A training forward (batch 2, T=2) of every network calls only these
    ``ag`` ops: ``conv_plif`` once per plif, ``maxpool2d``, ``concat``,
    ``time_sum``, and ``conv2d`` on run-once nodes and, with a bn, on
    MobileNet's depthwise convs alone."""
    calls = []

    def logged(name, op):
        def run(*args, **kwargs):
            calls.append((name, args))
            return op(*args, **kwargs)

        return run

    for name in ag.__all__:
        if isinstance(getattr(ag, name), types.FunctionType):
            monkeypatch.setattr(ag, name, logged(name, getattr(ag, name)))
    for name, net, side in _network_cases():
        calls.clear()
        net.forward((np.random.default_rng(1).random((2, 4, 2, side, side)) < 0.3).astype(np.float32))
        ops_called = [op for op, _ in calls]
        assert set(ops_called) <= {"conv_plif", "maxpool2d", "concat", "time_sum", "conv2d"}, name
        assert ops_called.count("conv_plif") == len(net.conv_of) > 0, name
        conv_of_weight = {id(layer.weight): n for n, layer in net.layers.items() if isinstance(layer, ConvLayer)}
        for op, args in calls:
            if op == "conv2d":  # the node is the one whose weight the op reads
                node = spec_node(net.spec, conv_of_weight[id(args[1])])
                with_bn = len(args) > 6 and args[6] is not None
                assert node.get("depthwise") if with_bn else node["name"] in net.once, (name, node)


def test_batch_norm_needs_two_values_per_channel_while_training():
    """While the tape records, batch norm needs more than one value per
    channel: a bn -> conv -> plif block trained on a 1x1 map at batch 1 (as
    on the paper detector's 1x1 extra blocks) raises, giving N*H*W. Batch 2
    trains, and batch 1 runs under ``no_grad``, on the running statistics."""
    spec = NetworkSpec(input_channels=2, outputs=["p"])
    spec.add("bn", "bn", ["input"])
    spec.add("c", "conv", ["bn"], out_channels=3, kernel=1)
    spec.add("p", "plif", ["c"])
    net = Network(spec, rng=np.random.default_rng(0))
    one = np.ones((1, 2, 3, 1, 1), dtype=np.float32)
    with pytest.raises(ValueError, match=r"^batch norm needs more than one value per channel while the tape "
                                         r"records; it has N\*H\*W = 1$"):
        net.forward(one)
    with ag.no_grad():
        assert net.forward(one)["p"].data.shape == (3, 3, 1, 1, 1)
    assert net.forward(np.ones((2, 2, 3, 1, 1), dtype=np.float32))["p"].data.shape == (3, 3, 2, 1, 1)


_BN_RULE = "a bn must be the only input of exactly one conv"
_PLIF_RULE = "a plif must be the only reader of a conv"
_READ_RULE = "a (bn|conv) must read spikes"


def _refused_specs():
    """Specs that break a graph rule at node ``a``, by case: (the rule, as
    the start of the message ``Network`` raises after "a: ", the spec)."""
    unread = NetworkSpec(input_channels=1, outputs=["p"])
    unread.add("a", "bn", ["input"])
    unread.add("p", "plif", ["input"])
    to_plif = NetworkSpec(input_channels=1, outputs=["p"])
    to_plif.add("a", "bn", ["input"])
    to_plif.add("p", "plif", ["a"])
    two_convs = NetworkSpec(input_channels=1, outputs=["p", "q"])
    two_convs.add("a", "bn", ["input"])
    for conv, neuron in (("c", "p"), ("d", "q")):
        two_convs.add(conv, "conv", ["a"], out_channels=2, kernel=3)
        two_convs.add(neuron, "plif", [conv])
    with_concat = NetworkSpec(input_channels=1, outputs=["p"])
    with_concat.add("a", "bn", ["input"])
    with_concat.add("cat", "concat", ["a", "input"])
    with_concat.add("c", "conv", ["cat"], out_channels=2, kernel=3)
    with_concat.add("p", "plif", ["c"])
    as_output = NetworkSpec(input_channels=1, outputs=["a", "p"])
    as_output.add("a", "bn", ["input"])
    as_output.add("c", "conv", ["a"], out_channels=2, kernel=3)
    as_output.add("p", "plif", ["c"])
    summed = NetworkSpec(input_channels=1, outputs=["c"])  # c runs once, on the time-summed input
    summed.add("a", "bn", ["input"])
    summed.add("c", "conv", ["a"], out_channels=2, kernel=3)
    cases = {"unread": unread, "to_plif": to_plif, "two_convs": two_convs, "with_concat": with_concat,
             "as_output": as_output, "summed": summed}
    out = {case: (_BN_RULE, spec) for case, spec in cases.items()}

    # a plif that reads something other than a conv of its own
    plif_on = {kind: NetworkSpec(input_channels=1, outputs=["a"]) for kind in
               ("input", "maxpool", "concat", "shared_conv", "output_conv")}
    plif_on["input"].add("a", "plif", ["input"])
    plif_on["maxpool"].add("m", "maxpool", ["input"], kernel=2)
    plif_on["maxpool"].add("a", "plif", ["m"])
    plif_on["concat"].add("cat", "concat", ["input", "input"])
    plif_on["concat"].add("a", "plif", ["cat"])
    for kind in ("shared_conv", "output_conv"):
        plif_on[kind].add("c", "conv", ["input"], out_channels=2, kernel=3)
        plif_on[kind].add("a", "plif", ["c"])
    plif_on["shared_conv"].add("m", "maxpool", ["c"], kernel=2)  # the conv's second reader
    plif_on["shared_conv"].outputs.append("m")
    plif_on["output_conv"].outputs.append("c")
    out.update({f"plif_on_{kind}": (_PLIF_RULE, spec) for kind, spec in plif_on.items()})

    # a bn or conv that reads a conv's float output
    reads = {kind: NetworkSpec(input_channels=1, outputs=["p"]) for kind in ("conv_on_conv", "another_pointwise",
                                                                              "bn_on_conv")}
    for spec in reads.values():
        spec.add("c", "conv", ["input"], out_channels=2, kernel=3)
    reads["conv_on_conv"].add("a", "conv", ["c"], out_channels=2, kernel=1)
    reads["another_pointwise"].add("d", "conv", ["input"], out_channels=2, kernel=3)
    reads["another_pointwise"].add("a", "conv", ["c"], out_channels=2, kernel=1, pointwise_of="d")
    reads["bn_on_conv"].add("a", "bn", ["c"])
    reads["bn_on_conv"].add("e", "conv", ["a"], out_channels=2, kernel=1)
    for spec in reads.values():
        spec.add("p", "plif", [spec.nodes[-1]["name"]])
    out.update({kind: (_READ_RULE, spec) for kind, spec in reads.items()})
    return out


def _refused_cases(rule):
    return {case: spec for case, (case_rule, spec) in _refused_specs().items() if case_rule == rule}


def test_bn_that_does_not_feed_one_conv_names_the_node():
    """A bn must be the only input of exactly one conv that runs every
    timestep, and not an output; otherwise Network raises a ValueError that
    names the bn."""
    for spec in _refused_cases(_BN_RULE).values():
        with pytest.raises(ValueError, match=f"^a: {_BN_RULE}"):
            Network(spec)


@pytest.mark.parametrize("case", ["two_convs", "summed"])
def test_purity_audit_reports_the_bn_network_refuses(case):
    """A bn read by two convs, or in front of a conv that runs once on the
    time-summed input, reads spikes; ``Network`` still refuses it, naming
    the bn, and refuses the same spec loaded from JSON with the same
    message."""
    spec = _refused_cases(_BN_RULE)[case]
    with pytest.raises(ValueError, match=f"^a: {_BN_RULE}") as refused:
        Network(spec)
    with pytest.raises(ValueError) as again:
        Network(NetworkSpec.from_json(spec.to_json()))
    assert str(again.value) == str(refused.value)


def test_plif_that_is_not_a_block_names_the_node():
    """Every plif is a block: the only reader of a conv that runs every
    timestep and is not an output. A plif that reads the input, a max pool,
    a concat, a conv with a second reader or an output conv is refused with
    a ValueError that names the plif."""
    cases = _refused_cases(_PLIF_RULE)
    assert len(cases) == 5
    for spec in cases.values():
        with pytest.raises(ValueError, match=f"^a: {_PLIF_RULE}"):
            Network(spec)


def test_conv_with_a_pad_value_key_names_the_node():
    """A spec whose conv carries the border of a folded batch norm (the
    ``pad_value`` key an earlier exporter wrote) is refused, not run with a
    zero border."""
    spec = NetworkSpec(input_channels=1, outputs=["p"])
    spec.add("c", "conv", ["input"], out_channels=2, kernel=3, bias=True, pad_value=True)
    spec.add("p", "plif", ["c"])
    with pytest.raises(ValueError, match="^c: the conv key 'pad_value' is no longer read"):
        Network(spec)


def test_squeezenet_tape_bytes_per_plif_element():
    """The tape of a SqueezeNet-1.1 training forward (batch 4, 32x32, T=3)
    holds at most 6.25 bytes per PLIF output element (measured 6.10, a 2.5%
    margin; 10.1 when each bn -> conv pair kept its float32 output for
    PLIF's w gradient, 13.9 when each conv kept its batch norm's float32
    output, 19.4 with float32 spikes, 24.9 when PLIF also kept X - V and
    batch norm kept xhat). Every PLIF runs in a block op, whose share is
    its one-byte spikes and float32 pre-reset membrane, 5 bytes, plus per
    step a 1-element a and the batch norm's float32 mean and 1/std; the
    rest is max pooling's and concat's one-byte outputs."""
    net = Network(named_spec("squeezenet1.1", in_channels=4), rng=np.random.default_rng(0))
    batch = (np.random.default_rng(5).random((4, 4, 3, 32, 32)) < 0.1).astype(np.float32)
    tape = tape_bytes(ag.softmax_cross_entropy(net.forward(batch)["scores"], np.array([0, 1, 0, 1])))
    block, steps = "_plif_op.<locals>.backward", batch.shape[2]
    channels = sum(net.layers[bn].channels for bn in net.bn_of.values())
    assert tape.held[block] <= 5 * tape.elements[block] + steps * (8 * channels + 4 * len(net.conv_of))
    assert sum(tape.held.values()) <= 6.25 * tape.elements[block], sum(tape.held.values()) / tape.elements[block]


def test_head_convs_keep_only_their_output_on_the_tape():
    """A run-once head conv keeps nothing on the tape but its output: its
    backward rebuilds the phase buffer from the time-summed spikes, a
    parent. The toy detector's four head convs are its only ``conv2d``
    ops: their entries hold 4 bytes per float32 output element."""
    net, batch, loss_of = _detector_case()
    tape = tape_bytes(loss_of(net.forward(batch)))
    heads = "_conv_frames.<locals>.conv2d_backward"
    shapes = net.trace_shapes(32, 32)
    assert tape.elements[heads] == sum(batch.shape[0] * np.prod(shapes[o]) for o in net.spec.outputs)
    assert tape.held[heads] == 4 * tape.elements[heads]


def test_squeezenet_spikes_are_one_byte_gradients_float():
    """In a SqueezeNet-1.1 training forward and backward every PLIF, max
    pooling and concat output is a one-byte ``uint8`` array, and every
    gradient one receives is float32."""
    net = Network(named_spec("squeezenet1.1", in_channels=4), rng=np.random.default_rng(0))
    outputs = {"plif": [], "maxpool": [], "concat": []}
    for node in net.spec.nodes:
        if node["type"] in outputs:
            def recorded(*args, layer=net.layers[node["name"]], seen=outputs[node["type"]]):
                seen.append(layer(*args))
                return seen[-1]
            net.layers[node["name"]] = recorded
    batch = (np.random.default_rng(5).random((4, 4, 3, 32, 32)) < 0.1).astype(np.float32)
    ag.softmax_cross_entropy(net.forward(batch)["scores"], np.array([0, 1, 0, 1])).backward()
    for kind, seen in outputs.items():
        assert seen, kind
        for out in seen:
            assert out.data.dtype == np.uint8 and out.grad is not None and out.grad.dtype == np.float32, kind


def test_training_gradients_match_oracle_neuron(monkeypatch):
    """Toy detector, one training forward and backward with its blocks as
    ``ag.conv_plif`` ops, and with each conv as its own call followed by
    the oracle neuron: the outputs are equal, and every gradient is within
    1e-5 of its largest magnitude. The fused op adds the spikes' gradient
    from downstream and the reset term's in its own order, where the oracle
    adds them in the tape walk's; it sums w's gradient from v - V, not
    X - V, in another order."""
    net, batch, loss_of = _detector_case()
    new, new_grads = outputs_and_grads(net, lambda: net.forward(batch), loss_of)
    monkeypatch.setattr(PLIFLayer, "__call__", _unblocked(_oracle_plif_call))
    old, old_grads = outputs_and_grads(net, lambda: net.forward(batch), loss_of)
    for o in net.spec.outputs:
        assert np.array_equal(new[o].data, old[o].data), o
    assert new_grads.keys() == old_grads.keys()
    for name, grad in old_grads.items():
        assert np.abs(new_grads[name] - grad).max() <= 1e-5 * np.abs(grad).max(), name


def test_no_grad_forward_matches_oracle_neuron(monkeypatch):
    """Under no_grad, the classifier's ``forward`` and the detector's
    per-step run give the outputs and spike counts of ``stepwise_forward``
    with the oracle neuron, exactly."""
    classifier = Network(_tiny_spec(), rng=np.random.default_rng(0))
    classifier_batch = (np.random.default_rng(1).random((4, 2, 5, 8, 8)) < 0.5).astype(np.float32)
    detector, detector_batch, _ = _detector_case()

    def run(call, classify):
        monkeypatch.setattr(PLIFLayer, "__call__", call)
        records = [SpikeRecord(), SpikeRecord()]
        with ag.no_grad():
            outputs = [classify(classifier_batch, records[0]), stepwise_forward(detector, detector_batch, records[1])]
        return outputs, records

    new, new_records = run(PLIFLayer.__call__, classifier.forward)
    old, old_records = run(_oracle_plif_call, lambda batch, record: stepwise_forward(classifier, batch, record))
    for got, want in zip(new, old):
        assert got.keys() == want.keys()
        for o in want:
            assert np.array_equal(got[o].data, want[o].data), o
    for got, want in zip(new_records, old_records):
        assert got.spikes == want.spikes and got.elements == want.elements
        assert sum(got.spikes.values()) > 0


def test_spike_record_rates():
    net = Network(_tiny_spec(), rng=np.random.default_rng(0))
    batch = (np.random.default_rng(2).random((2, 2, 5, 8, 8)) < 0.4).astype(np.float32)
    record = SpikeRecord()
    net.forward(batch, record=record)
    rates = record.layer_rates()
    assert set(rates) == {"plif1", "head_plif"}
    assert all(0.0 <= r <= 1.0 for r in rates.values())
    assert 0.0 <= record.global_rate() <= 1.0
    assert all(type(n) is int for n in record.spikes.values())  # exact counts


def test_trace_shapes_match_execution():
    """Every node's output is C-contiguous T frames, (T, C, N, H, W), whose
    (C, H, W) is what ``trace_shapes`` predicts; a non-contiguous map would
    make the ops' row reshapes copy. Spatial sums give (N, C) scores."""
    specs = (build_vgg(11, in_channels=4), build_squeezenet("1.1", in_channels=4), build_toy_classifier(in_channels=4),
             build_mobilenet(16, in_channels=4), build_toy_detector_spec(in_channels=4)[0])
    for spec in specs:
        net = Network(spec, rng=np.random.default_rng(0))
        shapes = net.trace_shapes(64, 64)
        n, steps = 3, 2  # unlike every channel count, so a swapped axis shows
        batch = (np.random.default_rng(1).random((n, 4, steps, 64, 64)) < 0.3).astype(np.float32)
        with ag.no_grad():
            values = {"input": Tensor(np.ascontiguousarray(batch.transpose(2, 1, 0, 3, 4)))}
            for node in spec.nodes:
                layer, inputs = net.layers[node["name"]], [values[i] for i in node["inputs"]]
                if node["type"] == "spatial_sum":  # runs once, on the time-summed frame
                    assert layer(ag.time_sum(*inputs)).data.shape == (n, shapes[node["name"]][0])
                    continue
                out = values[node["name"]] = call_layer(layer, *inputs)
                t, c, batch_n, h, w = out.data.shape
                assert (t, batch_n) == (steps, n) and (c, h, w) == shapes[node["name"]], f"{spec.name}/{node['name']}"
                assert out.data.flags.c_contiguous, f"{spec.name}/{node['name']}"


def test_trace_shapes_raises_where_forward_does():
    """A 4x4 pool over a 2x2 map, and a concat of an 8x8 map with its 4x4
    pooling, fail in shape tracing as in execution; shape tracing names the
    node."""
    spec = NetworkSpec(input_channels=1)
    spec.add("pool", "maxpool", ["input"], kernel=4)
    spec.outputs.append("pool")
    net = Network(spec)
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 1, 1, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="does not fit"):
        net.trace_shapes(2, 2)
    assert net.trace_shapes(4, 4)["pool"] == (1, 1, 1)
    spec = NetworkSpec(input_channels=1)
    spec.add("pool", "maxpool", ["input"], kernel=2)
    spec.add("cat", "concat", ["input", "pool"])
    spec.outputs.append("cat")
    net = Network(spec)
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 1, 1, 8, 8), dtype=np.float32))
    with pytest.raises(ValueError, match=r"^cat: concat inputs differ in height or width: \(1, 8, 8\), \(1, 4, 4\)$"):
        net.trace_shapes(8, 8)


def test_maxpool_layer_padding_grad():
    layer = MaxPoolLayer("p", kernel=3, stride=2, padding=1)
    x = Tensor(np.random.default_rng(0).standard_normal((2, 2, 5, 5)), requires_grad=True)
    out = layer(x)
    assert out.data.shape == (2, 2, 3, 3)
    out.sum().backward()
    # each output picks exactly one input cell; gradient mass is conserved
    assert x.grad.sum() == pytest.approx(out.data.size)
    assert (x.grad >= 0).all()


def test_spec_json_roundtrip():
    spec = build_squeezenet("1.0", in_channels=4)
    again = NetworkSpec.from_json(spec.to_json())
    assert again.nodes == spec.nodes
    assert again.outputs == spec.outputs
    net_a = Network(spec, rng=np.random.default_rng(5))
    net_b = Network(again, rng=np.random.default_rng(5))
    assert set(net_a.params()) == set(net_b.params())


def test_unknown_layer_type():
    spec = NetworkSpec(input_channels=1)
    spec.add("x", "lstm", ["input"])
    with pytest.raises(ValueError, match="unknown layer type"):
        Network(spec)


def test_malformed_graph_names_the_node():
    dup = NetworkSpec(input_channels=1)
    dup.add("a", "bn", ["input"])
    dup.add("a", "conv", ["a"], out_channels=2, kernel=3)
    with pytest.raises(ValueError, match="a: duplicate node name"):
        Network(dup)
    undefined = NetworkSpec(input_channels=1)
    undefined.add("a", "bn", ["input"])
    undefined.add("b", "conv", ["nope"], out_channels=2, kernel=3)
    with pytest.raises(ValueError, match=r"b: inputs \['nope'\]"):
        Network(undefined)
    later = NetworkSpec(input_channels=1)
    later.add("a", "bn", ["b"])
    later.add("b", "bn", ["input"])
    with pytest.raises(ValueError, match=r"a: inputs \['b'\]"):
        Network(later)
    no_output = NetworkSpec(input_channels=1, outputs=["ghost"])
    no_output.add("a", "bn", ["input"])
    with pytest.raises(ValueError, match=r"outputs \['ghost'\]"):
        Network(no_output)


def test_load_params_roundtrip():
    net_a = Network(_tiny_spec(), rng=np.random.default_rng(0))
    net_a.forward((np.random.default_rng(1).random((2, 2, 3, 8, 8)) < 0.4).astype(np.float32))  # moves BN stats
    net_b = Network(_tiny_spec(), rng=np.random.default_rng(9))
    net_b.load_state_arrays(net_a.state_arrays())
    want = net_a.state_arrays()
    assert any(k.endswith(".running_mean") for k in want)
    for k, v in net_b.state_arrays().items():
        assert np.array_equal(v, want[k]), k


def test_load_state_arrays_names_every_mismatch():
    net = Network(_tiny_spec(), rng=np.random.default_rng(0))
    arrays = dict(net.state_arrays())
    missing = next(k for k in arrays if k.endswith(".running_var"))
    del arrays[missing]
    arrays["ghost.weight"] = np.zeros(3, dtype=np.float32)
    misshapen = next(k for k in arrays if k.endswith(".weight") and k != "ghost.weight")
    arrays[misshapen] = np.zeros(7, dtype=np.float32)
    before = {k: v.copy() for k, v in net.state_arrays().items()}
    with pytest.raises(ValueError) as err:
        net.load_state_arrays(arrays)
    for name in (missing, "ghost.weight", misshapen):
        assert name in str(err.value)
    for k, v in net.state_arrays().items():  # nothing was loaded
        assert np.array_equal(v, before[k]), k


# --------------------------------------------------------------------------
# Builders and the graph rules
# --------------------------------------------------------------------------


def test_builders_input_channels_follow_micro_bins():
    for n in (1, 2, 4):
        spec = build_toy_classifier(in_channels=2 * n)
        assert Network(spec).channels["input"] == 2 * n


def test_classifier_head_is_spiking():
    spec = build_vgg(11, num_classes=7, in_channels=4)
    types = [node["type"] for node in spec.nodes[-4:]]
    assert types == ["bn", "conv", "plif", "spatial_sum"]
    assert spec.nodes[-3]["out_channels"] == 7


def test_plif_one_tau_per_layer():
    spec = build_vgg(11, in_channels=4)
    net = Network(spec)
    n_plif = sum(1 for n in spec.nodes if n["type"] == "plif")
    taus = [p for name, p in net.params().items() if name.endswith(".w")]
    assert len(taus) == n_plif
    assert all(p.data.size == 1 for p in taus)


@pytest.mark.parametrize("name", [*ARCH_NAMES, "toy_ssd", "densenet121-24_ssd"])
def test_purity_audit_clean_builders(name):
    """Every builder's spec keeps the graph rules, which ``Network`` checks
    when it is built: each bn and conv reads spikes (MobileNet's pointwise
    conv its depthwise conv) and every plif is a block. MobileNet's dense
    form builds too."""
    if name == "toy_ssd":
        spec = build_toy_detector_spec()[0]
    elif name == "densenet121-24_ssd":
        spec = build_detector_spec(2)[0]
    else:
        spec = named_spec(name)
    net = Network(spec)
    assert len(net.conv_of) == sum(node["type"] == "plif" for node in spec.nodes)
    if name.startswith("mobilenet"):
        dense = convert_dwsep_network(net)
        assert not dense.bn_of.keys() - dense.conv_of.values()  # every bn runs in a block
    names = [node["name"] for node in spec.nodes]
    assert len(set(names)) == len(names)


def test_purity_audit_mobilenet_dwsep():
    """MobileNet's pointwise conv reads the float output of the depthwise
    conv its ``pointwise_of`` names. Without that key, or naming another
    conv, the spec is refused, naming the pointwise conv."""
    spec = build_mobilenet(16, in_channels=4)
    Network(spec)
    for pointwise_of in (None, "dw2_dwconv"):
        broken = NetworkSpec.from_json(spec.to_json())
        node = spec_node(broken, "dw1_pwconv")
        if pointwise_of is None:
            del node["pointwise_of"]
        else:
            node["pointwise_of"] = pointwise_of
        with pytest.raises(ValueError, match=r"^dw1_pwconv: a conv must read spikes, its own bn or the depthwise "
                                             r"conv its pointwise_of names; it reads \['dw1_dwconv'\]"):
            Network(broken)


def test_purity_audit_flags_conv_on_real_values():
    """A conv that reads a conv's float output, another conv than its
    ``pointwise_of`` names, or a bn that reads a conv's output, is refused
    with a ValueError that names it."""
    spec = NetworkSpec(input_channels=2)
    spec.add("c1", "conv", ["input"], out_channels=4, kernel=3)
    spec.add("c2", "conv", ["c1"], out_channels=4, kernel=3)  # conv fed raw conv output
    with pytest.raises(ValueError, match=r"^c2: a conv must read spikes"):
        Network(spec)
    cases = _refused_cases(_READ_RULE)
    assert len(cases) == 3
    for spec in cases.values():
        with pytest.raises(ValueError, match=f"^a: {_READ_RULE}"):
            Network(spec)


def test_purity_audit_names_an_undefined_input():
    spec = NetworkSpec(input_channels=2)
    spec.add("c1", "conv", ["nope"], out_channels=4, kernel=3)
    with pytest.raises(ValueError, match=r"c1: inputs \['nope'\]"):
        Network(spec)
    later = NetworkSpec.from_json(spec.to_json())
    later.nodes[0]["inputs"] = ["b"]
    later.add("b", "bn", ["input"])
    with pytest.raises(ValueError, match=r"c1: inputs \['b'\]"):
        Network(later)


def test_densenet_concat_growth():
    spec = build_densenet(121, growth=16, in_channels=4)
    net = Network(spec)
    # block 1: 6 layers of growth 16 on a 32-channel stem -> 128 channels
    assert net.channels["block1_out"] == 32 + 6 * 16


def test_unknown_variant_errors():
    with pytest.raises(ValueError):
        build_vgg(12)
    with pytest.raises(ValueError):
        build_squeezenet("2.0")
    with pytest.raises(ValueError):
        build_densenet(200)
    with pytest.raises(ValueError):
        named_spec("resnet50")
