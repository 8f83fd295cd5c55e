"""Acceptance gate: one test per release criterion.

Each test prints a single ``[criterion N] PASS`` line (visible with
``pytest -rA`` or ``-s``); pytest's own verdict per test is the
authoritative pass/fail signal. Criteria:

 1. parameter-count reproduction for the published architecture table
 2. accumulate-op (ACC) count reproduction
 3. voxel-cube encoder vs brute-force oracle, exact
 4. finite-difference gradient checks + hand-derived 2-step BPTT chain
 5. BN-fusion / depthwise-separable conversion equivalences
 6. COCO mAP vs brute-force oracle + hand cases
 7. end-to-end temporal learning on the moving-bar task
 8. end-to-end detection learning on the moving-squares task
 9. spike-sparsity accounting identities
10. full-dataset results are out of scope at desk scale (statement +
    optional env-configured smoke run)
"""

import math
import os

import numpy as np
import pytest

import evsnn.autograd as ag
from evsnn.autograd import Tensor
from evsnn.detection import AnchorConfig, DetectionModel, build_detector_spec, build_toy_detector_spec
from evsnn.encoding import EncoderConfig, VoxelCube, encode_voxel_cube
from evsnn.events import EventStream, load_events
from evsnn.metrics import box_iou_xywh, coco_map, count_accs_per_timestep, count_params, measure_sparsity
from evsnn.pipeline import TrainConfig, evaluate_classifier, evaluate_detector, train_classifier, train_detector
from evsnn.spiking import Network, convert_dwsep_network, fuse_network
from evsnn.spiking.builders import build_toy_classifier, named_spec
from evsnn.spiking.layers import PLIFConfig, plif_step
from evsnn.spiking.transforms import dwsep_to_normal_conv, fuse_bn_into_conv
from evsnn.spiking.layers import BatchNormLayer, ConvLayer
from evsnn.tasks import make_moving_bar_dataset, make_moving_squares_dataset

from conftest import check_grad
from test_metrics import _coco_map_oracle, _det, _gt, _random_scene


def _report(criterion, detail=""):
    print(f"[criterion {criterion}] PASS {detail}".rstrip())


# --------------------------------------------------------------------------
# 1. Parameter counts
# --------------------------------------------------------------------------

# published core parameter counts (conv + neuron time constants); the
# MobileNet entries refer to the dense-convolution form of the model
PARAM_TARGETS = {
    "vgg11": 9.23e6,
    "vgg13": 9.41e6,
    "vgg16": 14.72e6,
    "squeezenet1.0": 0.74e6,
    "squeezenet1.1": 0.72e6,
    "mobilenet16": 1.18e6,
    "mobilenet64": 18.81e6,
    "densenet121-16": 1.76e6,
    "densenet121-24": 3.93e6,
    "densenet169-16": 3.16e6,
}


def _build(name):
    kw = {"conv_mode": "normal"} if name.startswith("mobilenet") else {}
    return Network(named_spec(name, in_channels=4, num_classes=2, **kw))


def test_criterion_1_parameter_counts():
    failures = []
    details = []
    for name, target in PARAM_TARGETS.items():
        got = count_params(_build(name)).params
        rel = abs(got - target) / target
        details.append(f"{name}={got / 1e6:.3f}M ({rel:+.1%})")
        if rel > 0.05:
            failures.append(f"{name}: {got} vs {target:.0f} ({rel:.1%})")
    # detection model: backbone + extras + SSD heads within +-10% of 8.2M
    spec, taps, cfg = build_detector_spec(num_classes=2, in_channels=4)
    det = DetectionModel(spec, taps, 2, cfg)
    got = count_params(det.net).params
    rel = abs(got - 8.2e6) / 8.2e6
    details.append(f"ssd={got / 1e6:.3f}M ({rel:+.1%})")
    if rel > 0.10:
        failures.append(f"detector: {got} vs 8.2M ({rel:.1%})")
    assert not failures, "; ".join(failures)
    _report(1, "— " + ", ".join(details))


@pytest.mark.xfail(
    strict=True,
    reason="the published 7.41M figure for the width-32 model is inconsistent "
    "with the architecture: widths scale linearly with the first-layer filter "
    "count, so dense-form parameters scale ~4x per doubling (1.18M -> 4.71M -> "
    "18.82M), which the published ACC column (0.27G/1.06G/4.20G) corroborates; "
    "the faithful build gives 4.71M. See notes/decisions.md.",
)
def test_criterion_1_mobilenet32_published_value():
    got = count_params(_build("mobilenet32")).params
    assert abs(got - 7.41e6) / 7.41e6 <= 0.05


# --------------------------------------------------------------------------
# 2. ACC counts
# --------------------------------------------------------------------------


def test_criterion_2_acc_counts():
    details = []
    for name, target in (("vgg11", 0.61e9), ("densenet121-16", 1.01e9)):
        got = count_accs_per_timestep(_build(name), (64, 64)).accs_per_timestep
        rel = abs(got - target) / target
        details.append(f"{name}={got / 1e9:.3f}G ({rel:+.1%})")
        assert rel <= 0.10, f"{name}: {got} vs {target:.0f} ({rel:.1%})"
    # MobileNet-64 after dwsep -> dense conversion, at the sensor's native
    # 240x304 resolution (the published count only matches there)
    net = Network(named_spec("mobilenet64", in_channels=4, num_classes=2))
    dense = convert_dwsep_network(net)
    got = count_accs_per_timestep(dense, (240, 304)).accs_per_timestep
    rel = abs(got - 4.20e9) / 4.20e9
    details.append(f"mobilenet64={got / 1e9:.3f}G ({rel:+.1%})")
    assert rel <= 0.10, f"mobilenet64: {got} ({rel:.1%})"
    _report(2, "— " + ", ".join(details))


# --------------------------------------------------------------------------
# 3. Encoder oracle
# --------------------------------------------------------------------------


def _oracle_encode(stream, config):
    n = config.micro_bins
    dt = config.sample_duration // config.timesteps
    micro = dt // n
    cube = np.zeros((2 * n, config.timesteps, config.height, config.width), dtype=np.uint8)
    for t, x, y, p in zip(stream.ts, stream.xs, stream.ys, stream.ps):
        k = t // dt
        b = (t - k * dt) // micro
        cube[int(p) * n + int(b), k, y, x] = 1
    return cube


def test_criterion_3_encoder_oracle():
    rng = np.random.default_rng(42)
    h, w, dur = 24, 32, 120_000
    checked = 0
    for _ in range(1000):
        m = int(rng.integers(1, 200))
        ts = np.sort(rng.integers(0, dur, m))
        stream = EventStream(ts, rng.integers(0, w, m), rng.integers(0, h, m), rng.integers(0, 2, m), w, h)
        for timesteps in (1, 2, 5, 10):
            for bins in (1, 2, 4):
                cfg = EncoderConfig(sample_duration=dur, timesteps=timesteps, micro_bins=bins, height=h, width=w)
                got = encode_voxel_cube(stream, cfg).data
                assert np.array_equal(got, _oracle_encode(stream, cfg))
                checked += 1
    _report(3, f"— {checked} stream/config cells, exact")


# --------------------------------------------------------------------------
# 4. Gradient checks
# --------------------------------------------------------------------------


def _grad_cases(rng):
    """(name, build, arrays) generators covering every differentiable op."""
    n, c, hh, ww = (int(rng.integers(1, 4)) for _ in range(4))
    h = hh + 3
    w = ww + 3
    x4 = rng.standard_normal((n, c, h, w))
    yield "add", lambda a, b: a + b, [rng.standard_normal((n, c)), rng.standard_normal((n, c))]
    yield "mul", lambda a, b: a * b, [rng.standard_normal((n, c)), rng.standard_normal((1, c))]
    yield "sub/neg", lambda a, b: a - (-b), [rng.standard_normal(n), rng.standard_normal(n)]
    axis = int(rng.integers(0, 2))
    yield "sum", lambda a: a.sum(axis=axis), [rng.standard_normal((n + 1, c + 1))]
    yield "reshape/transpose", lambda a: a.reshape(n * c, h * w).transpose(1, 0), [x4]
    yield "sigmoid", lambda a: ag.sigmoid(a), [rng.standard_normal((n, c))]
    co = int(rng.integers(1, 4))
    k = int(rng.choice([1, 3]))
    wconv = rng.standard_normal((co, c, k, k)) * 0.5
    bias = rng.standard_normal(co)
    stride = int(rng.integers(1, 3))
    yield "conv2d", (
        lambda a, ww_, bb: ag.conv2d(a, ww_, bb, stride=stride, padding=k // 2)
    ), [x4, wconv, bias]
    g = rng.standard_normal(c)
    b2 = rng.standard_normal(c)
    yield "batchnorm", (
        lambda a, gg, bb: ag.batchnorm2d(a, gg, bb, np.zeros(c), np.ones(c), training=True)
    ), [x4 + 0.1 * np.arange(h * w).reshape(h, w), g, b2]
    yield "maxpool", lambda a: ag.maxpool2d(a, 2, 2), [x4 * 3]
    yield "concat", lambda a, b: ag.concat_channels([a, b]), [x4, rng.standard_normal((n, c + 1, h, w))]
    m = n + 2
    t = rng.integers(0, c + 1, m)
    yield "cross_entropy", lambda z: ag.softmax_cross_entropy(z, t), [rng.standard_normal((m, c + 1))]
    yield "focal", lambda z: ag.focal_loss(z, t, gamma=2.0, alpha=0.25), [rng.standard_normal((m, c + 1))]
    mask = (rng.random((m, 4)) < 0.5).astype(float)
    tgt = rng.standard_normal((m, 4))
    yield "smooth_l1", lambda p: ag.smooth_l1(p, tgt, mask=mask, normalizer=3.0), [rng.standard_normal((m, 4)) * 2]


def test_criterion_4_gradient_checks():
    rng = np.random.default_rng(7)
    counts = {}
    for trial in range(20):
        for name, build, arrays in _grad_cases(rng):
            check_grad(build, [np.asarray(a, dtype=np.float64) for a in arrays], tol=1e-6, eps=1e-6)
            counts[name] = counts.get(name, 0) + 1
    assert all(v >= 20 for v in counts.values())
    # 32-bit mode at the looser tolerance
    rng32 = np.random.default_rng(8)
    for _ in range(5):
        x = rng32.standard_normal((2, 3, 6, 6)).astype(np.float32)
        w = (rng32.standard_normal((4, 3, 3, 3)) * 0.5).astype(np.float32)
        check_grad(lambda a, b: ag.conv2d(a, b, None, padding=1), [x, w], tol=1e-3, eps=1e-2)

    # hand-derived 2-timestep PLIF chain: x1, x2 scalars through one neuron
    cfg = PLIFConfig(alpha=2.0)
    a = 0.5  # 1/tau for tau = 2
    x1v, x2v = 1.6, 2.4
    x1 = Tensor(np.array([x1v]), requires_grad=True)
    x2 = Tensor(np.array([x2v]), requires_grad=True)
    s1, v1t = plif_step(None, x1, cfg, a)
    s2, _ = plif_step(v1t, x2, cfg, a)
    (s1 + s2 * 2.0).sum().backward()

    def sg(u):
        return cfg.alpha / (2 * (1 + (math.pi * cfg.alpha * u / 2) ** 2))

    v1 = a * x1v
    g1 = sg(v1 - 1.0)
    s1v = 1.0 if v1 >= 1.0 else 0.0
    v1r = v1 * (1 - s1v)
    v2 = v1r + a * (x2v - v1r)
    g2 = sg(v2 - 1.0)
    dx1 = g1 * a + 2.0 * g2 * (1 - a) * ((1 - s1v) - v1 * g1) * a
    dx2 = 2.0 * g2 * a
    assert x1.grad[0] == pytest.approx(dx1, rel=1e-12)
    assert x2.grad[0] == pytest.approx(dx2, rel=1e-12)
    _report(4, f"— {sum(counts.values())} FD cases over {len(counts)} ops + exact BPTT chain")


# --------------------------------------------------------------------------
# 5. Structural equivalences
# --------------------------------------------------------------------------


def test_criterion_5_structural_equivalences():
    rng = np.random.default_rng(9)
    worst_fuse = worst_dw = 0.0
    for _ in range(100):
        cin, cout = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        k = int(rng.choice([1, 3]))
        bn = BatchNormLayer("bn", cin)
        bn.gamma.data = (rng.standard_normal(cin) + 1.5).astype(np.float32)
        bn.beta.data = rng.standard_normal(cin).astype(np.float32)
        bn.running_mean = rng.standard_normal(cin).astype(np.float32)
        bn.running_var = (rng.random(cin) + 0.5).astype(np.float32)
        conv = ConvLayer("c", cin, cout, k, bias=bool(rng.random() < 0.5), rng=rng)
        x = Tensor(rng.standard_normal((2, cin, 6, 6)).astype(np.float32))
        with ag.no_grad():
            diff = np.abs(fuse_bn_into_conv(bn, conv)(x).data - conv(bn(x)).data).max()
        worst_fuse = max(worst_fuse, float(diff))

        dw = rng.standard_normal((cin, 1, 3, 3)).astype(np.float32)
        pw = rng.standard_normal((cout, cin, 1, 1)).astype(np.float32)
        dwl = ConvLayer("dw", cin, cin, 3, groups=cin)
        dwl.weight.data = dw
        pwl = ConvLayer("pw", cin, cout, 1)
        pwl.weight.data = pw
        dense = ConvLayer("d", cin, cout, 3)
        dense.weight.data = dwsep_to_normal_conv(dw, pw).astype(np.float32)
        with ag.no_grad():
            diff = np.abs(dense(x).data - pwl(dwl(x)).data).max()
        worst_dw = max(worst_dw, float(diff))
    assert worst_fuse <= 1e-5
    assert worst_dw <= 1e-5

    # fused full-network inference keeps the argmax on 500 random inputs
    net = Network(build_toy_classifier(in_channels=4), rng=np.random.default_rng(10))
    for bn in [layer for layer in net.layers.values() if isinstance(layer, BatchNormLayer)]:
        bn.running_mean = rng.standard_normal(bn.channels).astype(np.float32) * 0.1
        bn.running_var = (rng.random(bn.channels) + 0.5).astype(np.float32)
    fused = fuse_network(net)
    agree = 0
    for i in range(10):
        batch = (rng.random((50, 4, 3, 32, 32)) < 0.3).astype(np.float32)
        with ag.no_grad():
            a = net.forward(batch)["scores"].data.argmax(axis=1)
            b = fused.forward(batch)["scores"].data.argmax(axis=1)
        agree += int((a == b).sum())
    assert agree == 500
    _report(5, f"— fuse diff {worst_fuse:.1e}, dwsep diff {worst_dw:.1e}, 500/500 argmax")


# --------------------------------------------------------------------------
# 6. mAP oracle
# --------------------------------------------------------------------------


def test_criterion_6_map_oracle():
    # hand cases
    gts = [_gt(0, 0, (0, 0, 10, 10))]
    perfect = coco_map([_det(0, 0, 0.9, (0, 0, 10, 10))], gts)
    assert perfect.map == pytest.approx(1.0)
    off = [_det(0, 0, 0.9, (0.0, 2.5, 10.0, 10.0))]
    assert box_iou_xywh(off[0]["box"], gts[0]["box"]) == pytest.approx(0.6)
    assert coco_map(off, gts).map == pytest.approx(0.3)
    # brute-force agreement on 200 random <=5-box scenes
    rng = np.random.default_rng(11)
    scenes = 0
    while scenes < 200:
        gt_all, det_all = [], []
        n_img = int(rng.integers(1, 5))
        for img in range(n_img):
            g, d = _random_scene(rng, img)
            gt_all += g
            det_all += d
        if not gt_all:
            continue
        scenes += n_img
        assert coco_map(det_all, gt_all).map == pytest.approx(_coco_map_oracle(det_all, gt_all), abs=1e-12)
    _report(6, f"— {scenes} scenes, exact agreement + hand cases")


# --------------------------------------------------------------------------
# 7-9. End-to-end learning and sparsity
# --------------------------------------------------------------------------


def _train_bar_classifier(timesteps, micro_bins):
    encoder = EncoderConfig(sample_duration=100_000, timesteps=timesteps, micro_bins=micro_bins, height=64, width=64)
    samples = make_moving_bar_dataset(96, seed=0)
    val = make_moving_bar_dataset(48, seed=1)
    net = Network(build_toy_classifier(in_channels=encoder.channels), rng=np.random.default_rng(0))
    train_classifier(net, samples, encoder, TrainConfig(epochs=6, batch_size=32, lr=5e-3, seed=0))
    acc, _ = evaluate_classifier(net, val, encoder)
    return net, encoder, val, acc


@pytest.fixture(scope="module")
def trained_bar_classifier():
    return _train_bar_classifier(5, 2)


def test_criterion_7_temporal_learning(trained_bar_classifier):
    _, _, _, acc_rich = trained_bar_classifier
    assert acc_rich >= 0.95, f"T=5 n=2 accuracy {acc_rich:.3f} < 0.95"
    _, _, _, acc_flat = _train_bar_classifier(1, 1)
    assert acc_rich - acc_flat >= 0.10, f"T=1 n=1 accuracy {acc_flat:.3f} not >=10 points below {acc_rich:.3f}"
    _report(7, f"— acc(T=5,n=2)={acc_rich:.3f}, acc(T=1,n=1)={acc_flat:.3f}")


def test_criterion_8_detection_learning():
    encoder = EncoderConfig(sample_duration=100_000, timesteps=5, micro_bins=2, height=64, width=64)
    scenes = make_moving_squares_dataset(160, seed=0)
    val = make_moving_squares_dataset(40, seed=1)
    spec, taps, cfg = build_toy_detector_spec(num_classes=2, in_channels=encoder.channels)
    model = DetectionModel(spec, taps, 2, cfg, rng=np.random.default_rng(0))
    train_detector(model, scenes, encoder, TrainConfig(epochs=60, batch_size=16, lr=2e-3, seed=0))
    report, _ = evaluate_detector(model, val, encoder)
    assert report.map50 >= 0.5, f"mAP@0.5 {report.map50:.3f} < 0.5"
    _report(8, f"— mAP@0.5={report.map50:.3f}, mAP={report.map:.3f} on 40 held-out scenes")


def test_criterion_9_sparsity_accounting(trained_bar_classifier):
    net, encoder, val, _ = trained_bar_classifier
    from evsnn.tasks import encode_samples

    cubes, _ = encode_samples(val, encoder)
    report = measure_sparsity(net, cubes)
    assert 0.0 <= report.global_rate <= 1.0
    for rate in report.per_layer.values():
        assert 0.0 <= rate <= 1.0
    assert report.global_rate < 1.0
    # dense x rate x T identity on the recorded counts (e.g. a rate of 0.4
    # at T=5 would mean exactly 2x the dense single-pass accumulate count)
    assert report.dense_multiplier() == pytest.approx(report.global_rate * encoder.timesteps, abs=1e-15)
    dense = count_accs_per_timestep(net, (encoder.height, encoder.width)).accs_per_timestep
    effective = dense * report.dense_multiplier()
    assert effective == pytest.approx(dense * report.global_rate * encoder.timesteps)
    _report(9, f"— rate={report.global_rate:.3f}, dense multiplier {report.dense_multiplier():.2f}x over T={encoder.timesteps}")


# --------------------------------------------------------------------------
# 10. Desk-scale scope statement
# --------------------------------------------------------------------------


def test_criterion_10_full_dataset_scope():
    """Published full-dataset results (car-vs-background accuracies around
    0.92 and automotive detection mAP 0.189) are NOT reproducible here:
    they need the proprietary event-camera recordings and GPU-scale
    training budgets. This suite substitutes the synthetic end-to-end
    criteria 7-8 and the exact counting criteria 1-2. When a real dataset
    is available, point EVSNN_REAL_DATA at a directory of .dat/.evt1b
    files split into one subdirectory per class and this test runs one
    training epoch over it end-to-end.
    """
    root = os.environ.get("EVSNN_REAL_DATA")
    if not root:
        _report(10, "— full-dataset reproduction out of scope at desk scale (no EVSNN_REAL_DATA set)")
        return
    from evsnn.events import ClassificationSample

    classes = sorted(d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d)))
    samples = []
    for label, cls in enumerate(classes):
        for fname in sorted(os.listdir(os.path.join(root, cls))):
            if fname.endswith((".dat", ".evt1b", ".evt1")):
                stream = load_events(os.path.join(root, cls, fname))
                samples.append(ClassificationSample(stream=stream, label=label))
    assert samples, f"no event files under {root}"
    encoder = EncoderConfig(sample_duration=100_000, timesteps=5, micro_bins=2, height=64, width=64)
    net = Network(build_toy_classifier(in_channels=encoder.channels, num_classes=len(classes)),
                  rng=np.random.default_rng(0))
    hist = train_classifier(net, samples, encoder, TrainConfig(epochs=1, batch_size=32, lr=1e-3, seed=0))
    assert np.isfinite(hist.epoch_losses[-1])
    _report(10, f"— one epoch over {len(samples)} real samples, loss {hist.epoch_losses[-1]:.4f}")
