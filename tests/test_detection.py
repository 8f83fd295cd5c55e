"""Anchor geometry, matching, box codecs, detection loss and post-processing."""

import json
import math

import numpy as np
import pytest

import evsnn.autograd as ag
from evsnn.autograd import Tensor
from evsnn.autograd.ops import _softmax
from evsnn.detection import (
    AnchorConfig,
    Detection,
    DetectionModel,
    build_anchor_targets,
    build_detector_spec,
    build_toy_detector_spec,
    cxcywh_to_xyxy,
    decode_boxes,
    decode_detections,
    detection_loss,
    detections_to_json,
    detections_to_text,
    encode_boxes,
    generate_anchors,
    iou_matrix,
    match_anchors,
    nms,
    xywh_to_xyxy,
    xyxy_to_cxcywh,
)
from evsnn.spiking import Network

from conftest import cnhw, outputs_and_grads, spec_node, stepwise_forward


# --------------------------------------------------------------------------
# IoU
# --------------------------------------------------------------------------


def test_iou_identical_boxes():
    b = np.array([[0.1, 0.2, 0.5, 0.9]])
    assert iou_matrix(b, b)[0, 0] == pytest.approx(1.0)


def test_iou_disjoint_boxes():
    a = np.array([[0.0, 0.0, 0.2, 0.2]])
    b = np.array([[0.5, 0.5, 0.8, 0.8]])
    assert iou_matrix(a, b)[0, 0] == 0.0


def test_iou_partial_overlap_hand_value():
    # unit-area overlap of two 2x2 boxes offset by (1, 1): 1 / (4+4-1)
    a = np.array([[0.0, 0.0, 2.0, 2.0]])
    b = np.array([[1.0, 1.0, 3.0, 3.0]])
    assert iou_matrix(a, b)[0, 0] == pytest.approx(1.0 / 7.0)


def test_iou_matrix_shape_and_symmetry():
    rng = np.random.default_rng(0)
    xy = rng.random((5, 2))
    a = np.concatenate([xy, xy + rng.random((5, 2))], axis=1)
    xy = rng.random((3, 2))
    b = np.concatenate([xy, xy + rng.random((3, 2))], axis=1)
    m = iou_matrix(a, b)
    assert m.shape == (5, 3)
    assert np.allclose(m, iou_matrix(b, a).T)
    assert (m >= 0).all() and (m <= 1).all()


def _iou_matrix_oracle(a_xyxy, b_xyxy):
    """IoU with the corners broadcast as (N, M, 2) pairs."""
    a = np.asarray(a_xyxy, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b_xyxy, dtype=np.float64).reshape(-1, 4)
    lt = np.maximum(a[:, None, :2], b[None, :, :2])
    rb = np.minimum(a[:, None, 2:], b[None, :, 2:])
    wh = np.clip(rb - lt, 0.0, None)
    inter = wh[..., 0] * wh[..., 1]
    area_a = np.clip(a[:, 2] - a[:, 0], 0, None) * np.clip(a[:, 3] - a[:, 1], 0, None)
    area_b = np.clip(b[:, 2] - b[:, 0], 0, None) * np.clip(b[:, 3] - b[:, 1], 0, None)
    union = area_a[:, None] + area_b[None, :] - inter
    return np.where(union > 0, inter / np.maximum(union, 1e-12), 0.0)


def test_iou_matrix_equals_pairwise_corner_oracle():
    rng = np.random.default_rng(6)
    for trial in range(30):
        a = rng.uniform(-0.2, 1.2, size=(int(rng.integers(1, 70)), 4))
        b = rng.uniform(-0.2, 1.2, size=(int(rng.integers(1, 70)), 4))  # some corners inverted
        if trial % 2:
            a, b = np.round(a * 8) / 8, np.round(b * 8) / 8
            a[::3, 2] = a[::3, 0]  # zero width
            b[::4] = b[0]
        assert np.array_equal(iou_matrix(a, b), _iou_matrix_oracle(a, b))
    assert iou_matrix([0.0, 0.0, 1.0, 1.0], [[0.0, 0.0, 1.0, 1.0]]).shape == (1, 1)


def test_box_conversions_round_trip():
    rng = np.random.default_rng(1)
    xy = rng.random((20, 2))
    wh = rng.random((20, 2)) + 0.05
    xyxy = np.concatenate([xy, xy + wh], axis=1)
    assert np.allclose(cxcywh_to_xyxy(xyxy_to_cxcywh(xyxy)), xyxy)
    xywh = np.concatenate([xy, wh], axis=1)
    assert np.allclose(xywh_to_xyxy(xywh)[:, 2:], xyxy[:, 2:])


# --------------------------------------------------------------------------
# Anchors
# --------------------------------------------------------------------------


def test_anchor_scales_linear_interpolation():
    cfg = AnchorConfig(scale_min=0.5, scale_max=0.8)
    assert cfg.scales(4) == pytest.approx([0.5, 0.6, 0.7, 0.8])


def test_anchor_count_and_order():
    cfg = AnchorConfig()
    shapes = [(4, 6), (2, 3)]
    anchors = generate_anchors(shapes, cfg)
    per_cell = cfg.anchors_per_cell
    assert per_cell == 4
    assert anchors.shape == (sum(h * w for h, w in shapes) * per_cell, 4)
    # first cell is centered at (0.5/6, 0.5/4); cells advance along columns first
    assert anchors[0, 0] == pytest.approx(0.5 / 6)
    assert anchors[0, 1] == pytest.approx(0.5 / 4)
    assert anchors[per_cell, 0] == pytest.approx(1.5 / 6)
    assert anchors[per_cell, 1] == pytest.approx(0.5 / 4)


def test_anchor_ratio_shapes_and_extra_square():
    cfg = AnchorConfig(scale_min=0.5, scale_max=0.8, ratios=(1.0, 2.0, 0.5))
    anchors = generate_anchors([(1, 1), (1, 1)], cfg)
    s, s_next = 0.5, 0.8
    # ratio r anchor has w = s*sqrt(r), h = s/sqrt(r)
    assert anchors[0, 2:] == pytest.approx([s, s])
    assert anchors[1, 2:] == pytest.approx([s * math.sqrt(2), s / math.sqrt(2)])
    assert anchors[2, 2:] == pytest.approx([s / math.sqrt(2), s * math.sqrt(2)])
    # extra square anchor at the geometric mean of adjacent scales
    assert anchors[3, 2:] == pytest.approx([math.sqrt(s * s_next)] * 2)


def test_anchor_areas_preserved_across_ratios():
    cfg = AnchorConfig(ratios=(1.0, 2.0, 0.5), extra_square=False)
    anchors = generate_anchors([(1, 1)], cfg)
    areas = anchors[:, 2] * anchors[:, 3]
    assert np.allclose(areas, areas[0])


# --------------------------------------------------------------------------
# Matching
# --------------------------------------------------------------------------


def _simple_anchors():
    # four anchors on a 2x2 grid with 0.5-wide square boxes
    return generate_anchors([(2, 2)], AnchorConfig(ratios=(1.0,), extra_square=False))


def test_match_no_ground_truth_all_background():
    anchors = _simple_anchors()
    labels, matched = match_anchors(anchors, np.zeros((0, 4)), np.zeros(0, dtype=int), AnchorConfig())
    assert (labels == 0).all()
    assert (matched == -1).all()


def test_match_forced_below_threshold():
    # a ground truth whose best IoU is ~0.3 still claims its best anchor
    anchors = np.array([[0.5, 0.5, 0.4, 0.4], [0.1, 0.1, 0.1, 0.1]])
    gt = cxcywh_to_xyxy(np.array([[0.5, 0.5, 0.4, 0.12]]))
    iou = iou_matrix(cxcywh_to_xyxy(anchors), gt)
    assert iou[0, 0] == pytest.approx(0.3)
    labels, matched = match_anchors(anchors, gt, [1], AnchorConfig(iou_threshold=0.5))
    assert matched[0] == 0 and labels[0] == 2
    assert matched[1] == -1 and labels[1] == 0


def test_match_threshold_positives():
    anchors = _simple_anchors()
    # ground truth exactly on anchor 0: anchor 0 matches, others stay background
    gt = cxcywh_to_xyxy(anchors[:1])
    labels, matched = match_anchors(anchors, gt, [0], AnchorConfig(iou_threshold=0.5))
    assert labels[0] == 1 and matched[0] == 0
    assert (labels[1:] == 0).all()


def test_match_two_ground_truths_best_assignment():
    anchors = _simple_anchors()
    gt = cxcywh_to_xyxy(np.stack([anchors[0], anchors[3]]))
    labels, matched = match_anchors(anchors, gt, [0, 1], AnchorConfig())
    assert matched[0] == 0 and labels[0] == 1
    assert matched[3] == 1 and labels[3] == 2


# --------------------------------------------------------------------------
# Box codec
# --------------------------------------------------------------------------


def test_encode_decode_inverse():
    rng = np.random.default_rng(2)
    anchors = rng.random((50, 4)) * 0.5 + 0.25
    gt = rng.random((50, 4)) * 0.5 + 0.25
    deltas = encode_boxes(gt, anchors)
    back = decode_boxes(deltas, anchors)
    assert np.abs(back - gt).max() <= 1e-6


def test_encode_identical_box_zero_offsets():
    a = np.array([[0.5, 0.5, 0.2, 0.3]])
    assert np.allclose(encode_boxes(a, a), 0.0)


def test_encode_doubled_width_log_ratio():
    a = np.array([[0.5, 0.5, 0.2, 0.3]])
    g = np.array([[0.5, 0.5, 0.4, 0.3]])
    d = encode_boxes(g, a)
    assert d[0, 2] == pytest.approx(math.log(2.0) / 0.2)
    assert d[0, 0] == d[0, 1] == d[0, 3] == 0.0


def test_encode_rejects_non_positive_size():
    a = np.array([[0.5, 0.5, 0.2, 0.3]])
    with pytest.raises(ValueError, match="non-positive"):
        encode_boxes(np.array([[0.5, 0.5, 0.0, 0.3]]), a)


def test_build_anchor_targets_pixel_boxes():
    cfg = AnchorConfig(ratios=(1.0,), extra_square=False, iou_threshold=0.5)
    anchors = generate_anchors([(2, 2)], cfg)
    # pixel-space box covering exactly anchor 0 on a 100x80 image
    w, h = 100, 80
    box = [0.25 * w - 0.25 * w, 0.25 * h - 0.25 * h, 0.5 * w, 0.5 * h]
    labels, loc = build_anchor_targets(anchors, [box], [1], (w, h), cfg)
    assert labels[0] == 2
    assert np.allclose(loc[0], 0.0, atol=1e-6)
    assert (labels[1:] == 0).all()
    assert np.allclose(loc[1:], 0.0)


# --------------------------------------------------------------------------
# Loss
# --------------------------------------------------------------------------


def test_focal_hand_value_in_detection_loss():
    # single foreground anchor with p_t = 0.9, gamma=2, alpha_t=1:
    # (1 - 0.9)^2 * -ln(0.9) = 0.01 * 0.10536 ~= 1.054e-3
    logits = Tensor(np.array([[0.0, math.log(9.0)]], dtype=np.float64))
    loss = ag.focal_loss(logits, np.array([1]), gamma=2.0, alpha=None)
    assert float(loss.data) == pytest.approx(0.01 * -math.log(0.9), rel=1e-6)
    assert float(loss.data) == pytest.approx(1.054e-3, rel=1e-3)


def test_focal_gamma_zero_matches_cross_entropy():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((10, 4))
    t = rng.integers(0, 4, 10)
    fl = ag.focal_loss(Tensor(z), t, gamma=0.0, alpha=None, normalizer=10)
    ce = ag.softmax_cross_entropy(Tensor(z), t)
    assert float(fl.data) == pytest.approx(float(ce.data), rel=1e-10)


def test_detection_loss_normalized_by_positive_count():
    """Both terms are sums divided by the batch's positive count: the focal
    term sums over every anchor, the smooth-L1 term over the positive ones.
    With four positives and with eight (the same predictions), each term
    equals its sum divided by 4 and by 8."""
    rng = np.random.default_rng(4)
    n, a, c = 2, 6, 3
    logits = Tensor(rng.standard_normal((n, a, c)))
    loc = Tensor(rng.standard_normal((n, a, 4)))
    labels = np.zeros((n, a), dtype=int)
    labels[0, :4] = 1  # four positives
    labels2 = labels.copy()
    labels2[1, :4] = 2  # eight positives, same logits
    targets = rng.standard_normal((n, a, 4))
    z = logits.data.reshape(n * a, c)
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    d = np.abs(loc.data - targets)
    smooth = np.where(d < 1, 0.5 * d**2, d - 0.5)
    for lab, positives in ((labels, 4), (labels2, 8)):
        flat = lab.reshape(-1)
        pt = p[np.arange(n * a), flat]
        focal_sum = (np.where(flat > 0, 0.25, 0.75) * (1 - pt) ** 2 * -np.log(pt)).sum()
        _, cls_term, loc_term = detection_loss(logits, loc, lab, targets)
        assert cls_term == pytest.approx(focal_sum / positives, rel=1e-6), positives
        assert loc_term == pytest.approx(smooth[lab > 0].sum() / positives, rel=1e-5), positives


def test_detection_loss_no_positives_is_finite():
    rng = np.random.default_rng(5)
    logits = Tensor(rng.standard_normal((2, 5, 3)), requires_grad=True)
    loc = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
    total, cls_v, loc_v = detection_loss(logits, loc, np.zeros((2, 5), dtype=int), np.zeros((2, 5, 4)))
    assert np.isfinite(total.data)
    assert loc_v == 0.0
    total.backward()
    assert np.isfinite(logits.grad).all()


# --------------------------------------------------------------------------
# Model assembly
# --------------------------------------------------------------------------


def test_detector_extra_blocks_halve_feature_maps():
    spec, head_taps, cfg = build_detector_spec(num_classes=2, in_channels=4)
    model = DetectionModel(spec, head_taps, 2, cfg)
    # backbone taps at stride 16 and 32, then three stride-2 extras; each
    # stride-2 conv (k=3, pad 1) maps a side of s to ceil(s / 2)
    assert model.feature_shapes(240, 304) == [(15, 19), (7, 9), (4, 5), (2, 3), (1, 2)]
    assert model.feature_shapes(512, 384) == [(32, 24), (16, 12), (8, 6), (4, 3), (2, 2)]


def test_detector_feature_taps_are_binary():
    spec, head_taps, cfg = build_detector_spec(num_classes=1, in_channels=2)
    Network(spec)  # refuses a bn or conv that reads anything but spikes
    # forward the backbone with the taps as outputs and check spike trains
    tap_names = sorted({t for pair in head_taps for t in spec_node(spec, pair[0])["inputs"]})
    spec.outputs = tap_names
    net = Network(spec, rng=np.random.default_rng(6))
    rng = np.random.default_rng(6)
    x = (rng.random((1, 2, 2, 64, 64)) < 0.3).astype(np.float32)
    with ag.no_grad():
        outs = net.forward(x)
    for name in tap_names:
        assert outs[name].data.shape[0] == 2  # one frame per timestep
        assert set(np.unique(outs[name].data)) <= {0, 1}


def test_toy_detector_anchor_grid():
    spec, head_taps, cfg = build_toy_detector_spec(num_classes=2, in_channels=4)
    model = DetectionModel(spec, head_taps, 2, cfg)
    shapes = model.feature_shapes(64, 64)
    assert shapes == [(16, 16), (8, 8)]
    anchors = model.anchors(64, 64)
    assert anchors.shape == ((16 * 16 + 8 * 8) * cfg.anchors_per_cell, 4)


def test_detection_model_gather_order():
    """Head maps must flatten in the same rows, cols, anchor order as the
    anchor grid."""
    spec, head_taps, cfg = build_toy_detector_spec(num_classes=1, in_channels=2)
    model = DetectionModel(spec, head_taps, 1, cfg)
    h_f, w_f = model.feature_shapes(32, 32)[0]
    a = cfg.anchors_per_cell
    c = 2  # classes + background
    fake = np.zeros((1, a * c, h_f, w_f), dtype=np.float32)
    # tag each (row, col, anchor, channel) cell with a unique value
    for ai in range(a):
        for ci in range(c):
            fake[0, ai * c + ci] = np.arange(h_f * w_f).reshape(h_f, w_f) * 100 + ai * 10 + ci
    flat = model._gather(Tensor(cnhw(fake)), c).data
    for cell in range(h_f * w_f):
        for ai in range(a):
            row = flat[0, cell * a + ai]
            assert row[0] == cell * 100 + ai * 10
            assert row[1] == cell * 100 + ai * 10 + 1


def test_detector_heads_match_stepwise_oracle():
    """The heads run once on the time-summed spikes with T times their
    bias. Outputs and every parameter gradient match running each head at
    every timestep and summing the outputs, within 1e-5 of each array's
    largest magnitude (float32 round-off)."""
    spec, head_taps, cfg = build_toy_detector_spec(num_classes=2, in_channels=4)
    model = DetectionModel(spec, head_taps, 2, cfg, rng=np.random.default_rng(3))
    net = model.net
    heads = [name for pair in head_taps for name in pair]
    rng = np.random.default_rng(4)
    for name in heads:
        bias = net.layers[name].bias
        bias.data = bias.data + rng.standard_normal(bias.data.shape).astype(np.float32)
    batch = (rng.random((4, 4, 5, 32, 32)) < 0.3).astype(np.float32)
    shapes = net.trace_shapes(32, 32)
    probes = {name: Tensor(cnhw(rng.standard_normal((4, *shapes[name])).astype(np.float32))) for name in heads}

    def loss_of(outputs):
        return sum((outputs[name] * probes[name]).sum() for name in heads)

    new, new_grads = outputs_and_grads(net, lambda: net.forward(batch), loss_of)
    old, old_grads = outputs_and_grads(net, lambda: stepwise_forward(net, batch), loss_of)
    pairs = [(new[name].data, old[name].data) for name in heads]
    assert new_grads.keys() == old_grads.keys()
    pairs += [(new_grads[name], grad) for name, grad in old_grads.items()]
    for got, want in pairs:
        assert np.abs(want).max() > 0
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def test_detection_model_forward_shapes():
    spec, head_taps, cfg = build_toy_detector_spec(num_classes=2, in_channels=4)
    model = DetectionModel(spec, head_taps, 2, cfg, rng=np.random.default_rng(7))
    rng = np.random.default_rng(8)
    x = (rng.random((2, 4, 2, 32, 32)) < 0.3).astype(np.float32)
    with ag.no_grad():
        cls, loc = model.forward(x)
    n_anchor = len(model.anchors(32, 32))
    assert cls.data.shape == (2, n_anchor, 3)
    assert loc.data.shape == (2, n_anchor, 4)


def test_background_bias_initialization():
    spec, head_taps, cfg = build_toy_detector_spec(num_classes=2, in_channels=4)
    model = DetectionModel(spec, head_taps, 2, cfg, rng=np.random.default_rng(0))
    for cls_name, _ in head_taps:
        b = model.net.layers[cls_name].bias.data.reshape(-1, 3)
        assert (b[:, 0] == 4.0).all()
    # fresh model predicts background nearly everywhere
    rng = np.random.default_rng(9)
    x = (rng.random((1, 4, 2, 32, 32)) < 0.3).astype(np.float32)
    with ag.no_grad():
        cls, _ = model.forward(x)
    assert (cls.data.argmax(axis=2) == 0).mean() > 0.99


# --------------------------------------------------------------------------
# Post-processing
# --------------------------------------------------------------------------


def test_nms_suppresses_overlaps():
    boxes = np.array([
        [0.0, 0.0, 1.0, 1.0],
        [0.05, 0.05, 1.05, 1.05],  # heavy overlap with the first
        [2.0, 2.0, 3.0, 3.0],
    ])
    keep = nms(boxes, [0.9, 0.8, 0.7], iou_threshold=0.5)
    assert keep == [0, 2]


def test_nms_keeps_highest_score_first():
    boxes = np.tile(np.array([[0.0, 0.0, 1.0, 1.0]]), (3, 1))
    keep = nms(boxes, [0.1, 0.9, 0.5], iou_threshold=0.5)
    assert keep == [1]


def _nms_oracle(boxes_xyxy, scores, iou_threshold=0.45, top_k=200):
    """Greedy NMS one box at a time: the IoU of the top remaining box
    against all the rest, once for every box kept."""
    order = np.argsort(-np.asarray(scores), kind="stable")
    boxes = np.asarray(boxes_xyxy, dtype=np.float64)
    keep = []
    while len(order) and len(keep) < top_k:
        i = order[0]
        keep.append(int(i))
        if len(order) == 1:
            break
        ious = iou_matrix(boxes[i : i + 1], boxes[order[1:]])[0]
        order = order[1:][ious <= iou_threshold]
    return keep


def _random_corner_boxes(rng, n, grid):
    """Corner boxes in [0, 4]. On the 1/8 grid many pairs have an IoU of
    exactly 0.5, so ``<=`` against ``<`` shows at that threshold."""
    if grid:
        xy, wh = rng.integers(0, 24, size=(n, 2)) / 8, rng.integers(1, 12, size=(n, 2)) / 8
    else:
        xy, wh = rng.uniform(0, 3, size=(n, 2)), rng.uniform(0.05, 1.5, size=(n, 2))
    return np.concatenate([xy, xy + wh], axis=1)


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 100, 1280])
def test_nms_matches_greedy_oracle(n, grid):
    rng = np.random.default_rng(n)
    boxes = _random_corner_boxes(rng, n, grid)
    scores = rng.random(n)
    for iou_threshold in (0.45, 0.5):
        assert nms(boxes, scores, iou_threshold, top_k=n) == _nms_oracle(boxes, scores, iou_threshold, top_k=n)
        assert nms(boxes, scores, iou_threshold) == _nms_oracle(boxes, scores, iou_threshold)


def test_nms_identical_boxes():
    boxes = np.tile([[0.1, 0.2, 0.6, 0.9]], (70, 1))
    scores = np.random.default_rng(0).random(70)
    best = int(scores.argmax())
    assert nms(boxes, scores, 0.45) == _nms_oracle(boxes, scores, 0.45) == [best]
    # an IoU of exactly 1.0 does not exceed a threshold of 1.0
    everything = _nms_oracle(boxes, scores, 1.0, top_k=70)
    assert nms(boxes, scores, 1.0, top_k=70) == everything
    assert sorted(everything) == list(range(70))


def test_nms_zero_area_boxes():
    rng = np.random.default_rng(1)
    boxes = _random_corner_boxes(rng, 90, grid=True)
    boxes[::3, 2] = boxes[::3, 0]  # zero width
    boxes[1::3, 3] = boxes[1::3, 1]  # zero height
    boxes[::9] = boxes[0]  # repeated zero-area boxes: union 0, IoU 0
    scores = rng.random(90)
    keep = nms(boxes, scores, 0.5, top_k=90)
    assert keep == _nms_oracle(boxes, scores, 0.5, top_k=90)
    assert set(range(0, 90, 3)) | set(range(1, 90, 3)) <= set(keep)


def test_nms_tied_scores_keep_stable_order():
    rng = np.random.default_rng(2)
    same = np.tile([[0.0, 0.0, 1.0, 1.0]], (100, 1))
    assert nms(same, np.full(100, 0.5)) == _nms_oracle(same, np.full(100, 0.5)) == [0]
    for n in (65, 100, 300):
        boxes = _random_corner_boxes(rng, n, grid=True)
        scores = rng.integers(0, 4, size=n) / 4  # many ties
        assert nms(boxes, scores, 0.5, top_k=n) == _nms_oracle(boxes, scores, 0.5, top_k=n)


@pytest.mark.parametrize("top_k", [0, 1, 63, 64, 65, 100, 199, 200])
def test_nms_stops_at_top_k(top_k):
    # 200 disjoint unit squares: nothing is suppressed, so top_k decides
    cells = np.stack(np.meshgrid(np.arange(20), np.arange(10)), axis=-1).reshape(-1, 2) * 2.0
    boxes = np.concatenate([cells, cells + 1.0], axis=1)
    scores = np.random.default_rng(3).random(200)
    keep = nms(boxes, scores, top_k=top_k)
    assert keep == _nms_oracle(boxes, scores, top_k=top_k)
    assert len(keep) == top_k


def test_decode_detections_recovers_planted_box():
    cfg = AnchorConfig(ratios=(1.0,), extra_square=False)
    anchors = generate_anchors([(2, 2)], cfg)
    n_a = len(anchors)
    cls = np.zeros((1, n_a, 2))
    cls[:, :, 0] = 5.0
    cls[0, 1, 1] = 10.0  # confident object at anchor 1
    loc = np.zeros((1, n_a, 4))
    dets = decode_detections(cls, loc, anchors, image_size=(100, 80), score_threshold=0.5)
    assert len(dets) == 1
    d = dets[0]
    assert d.class_id == 0 and d.image_id == 0
    cx, cy, w, h = anchors[1]
    assert d.box[0] == pytest.approx((cx - w / 2) * 100)
    assert d.box[2] == pytest.approx(w * 100)
    assert d.box[3] == pytest.approx(h * 80)


def test_decode_detections_clips_to_image():
    anchors = np.array([[0.02, 0.5, 0.3, 0.3]])  # spills past the left edge
    cls = np.array([[[0.0, 8.0]]])
    loc = np.zeros((1, 1, 4))
    dets = decode_detections(cls, loc, anchors, image_size=(100, 100))
    assert dets[0].box[0] == 0.0


def _decode_detections_oracle(cls_logits, loc_pred, anchors, image_size, image_ids=None,
                              score_threshold=0.3, nms_iou=0.45, top_k=100, variances=(0.1, 0.2)):
    """Decoding one image at a time, and each kept box row by row."""
    cls_logits = np.asarray(cls_logits)
    loc_pred = np.asarray(loc_pred)
    w, h = image_size
    n = cls_logits.shape[0]
    if image_ids is None:
        image_ids = list(range(n))
    probs = _softmax(cls_logits.astype(np.float64))
    results = []
    for i in range(n):
        boxes = cxcywh_to_xyxy(decode_boxes(loc_pred[i], anchors, variances))
        boxes = np.clip(boxes, 0.0, 1.0)
        for cls in range(1, probs.shape[2]):
            scores = probs[i, :, cls]
            sel = np.nonzero(scores >= score_threshold)[0]
            if len(sel) == 0:
                continue
            keep = _nms_oracle(boxes[sel], scores[sel], iou_threshold=nms_iou, top_k=top_k)
            for k in keep:
                a = sel[k]
                x0, y0, x1, y1 = boxes[a]
                results.append(Detection(
                    image_id=image_ids[i], class_id=cls - 1, score=float(scores[a]),
                    box=(x0 * w, y0 * h, (x1 - x0) * w, (y1 - y0) * h),
                ))
    return results


def test_decode_detections_matches_per_image_oracle():
    rng = np.random.default_rng(4)
    anchors = generate_anchors([(8, 8), (4, 4)], AnchorConfig(scale_min=0.15, scale_max=0.28))
    cls = rng.normal(0.0, 1.5, size=(5, len(anchors), 4)).astype(np.float32)  # 3 classes
    cls[2, :, 2] += 6.0  # image 2, class 1: confident everywhere, so top_k cuts it
    loc = rng.normal(0.0, 1.0, size=(5, len(anchors), 4)).astype(np.float32)
    ids = [7, 8, 9, 10, 11]
    for top_k in (12, 100):
        kwargs = dict(image_ids=ids, top_k=top_k)
        got = decode_detections(cls, loc, anchors, (64, 48), **kwargs)
        want = _decode_detections_oracle(cls, loc, anchors, (64, 48), **kwargs)
        assert got == want
        assert {d.image_id for d in got} == set(ids) and {d.class_id for d in got} == {0, 1, 2}
        assert sum(d.image_id == 9 and d.class_id == 1 for d in got) == top_k
        for d in got:
            assert type(d.score) is float and all(type(v) is float for v in d.box)
        assert _detections_from_json(detections_to_json(got)) == got


def _detections_from_json(text):
    return [Detection(**dict(d, box=tuple(d["box"]))) for d in json.loads(text)]


def test_detection_dumps_round_trip(tmp_path):
    dets = [
        Detection(image_id=0, class_id=1, score=0.75, box=(1.0, 2.0, 3.0, 4.0)),
        Detection(image_id=3, class_id=0, score=0.5, box=(10.0, 20.0, 30.0, 40.0)),
    ]
    text = detections_to_json(dets)
    assert _detections_from_json(text) == dets
    assert list(json.loads(text)[0].items()) == [("image_id", 0), ("class_id", 1), ("score", 0.75),
                                                 ("box", [1.0, 2.0, 3.0, 4.0])]
    lines = detections_to_text(dets).strip().split("\n")
    assert lines[0].split() == ["0", "1", "0.750000", "1.00", "2.00", "3.00", "4.00"]
    assert json.loads(text)[1]["image_id"] == 3
