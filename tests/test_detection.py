"""Anchor geometry, matching, box codecs, detection loss and post-processing."""

import json
import math

import numpy as np
import pytest

import evsnn.autograd as ag
from evsnn.autograd import Tensor
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
    detections_from_json,
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

from conftest import outputs_and_grads, stepwise_forward


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
    rng = np.random.default_rng(4)
    n, a, c = 2, 6, 3
    logits = Tensor(rng.standard_normal((n, a, c)))
    loc = Tensor(rng.standard_normal((n, a, 4)))
    labels = np.zeros((n, a), dtype=int)
    labels[0, :4] = 1  # four positives
    targets = rng.standard_normal((n, a, 4))
    _, cls4, loc4 = detection_loss(logits, loc, labels, targets)
    labels2 = labels.copy()
    labels2[1, :4] = 2  # eight positives, same logits
    _, _, _ = detection_loss(logits, loc, labels2, targets)
    # same positives but doubled normalizer halves the loc term
    _, _, loc_half = detection_loss(logits, loc, labels, targets, gamma=2.0)
    assert loc_half == pytest.approx(loc4)
    mask_sum = np.abs(np.where(np.abs(loc.data - targets) < 1, 0.5 * (loc.data - targets) ** 2,
                               np.abs(loc.data - targets) - 0.5))[labels > 0].sum()
    assert loc4 == pytest.approx(mask_sum / 4, rel=1e-5)


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
    from evsnn.spiking import audit_spike_purity

    spec, head_taps, cfg = build_detector_spec(num_classes=1, in_channels=2)
    assert audit_spike_purity(spec) == []
    # forward the backbone with the taps as outputs and check spike trains
    tap_names = sorted({t for pair in head_taps for t in spec.node(pair[0])["inputs"]})
    spec.outputs = tap_names
    net = Network(spec, rng=np.random.default_rng(6))
    rng = np.random.default_rng(6)
    x = (rng.random((1, 2, 2, 64, 64)) < 0.3).astype(np.float32)
    with ag.no_grad():
        outs = net.forward(x)
    for name in tap_names:
        for step in outs[name]:
            assert set(np.unique(step.data)) <= {0.0, 1.0}


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
    flat = model._gather(Tensor(fake), c).data
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
    probes = {name: Tensor(rng.standard_normal((4, *shapes[name])).astype(np.float32)) for name in heads}

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


def test_detection_dumps_round_trip(tmp_path):
    dets = [
        Detection(image_id=0, class_id=1, score=0.75, box=(1.0, 2.0, 3.0, 4.0)),
        Detection(image_id=3, class_id=0, score=0.5, box=(10.0, 20.0, 30.0, 40.0)),
    ]
    text = detections_to_json(dets)
    back = detections_from_json(text)
    assert back == dets
    lines = detections_to_text(dets).strip().split("\n")
    assert lines[0].split() == ["0", "1", "0.750000", "1.00", "2.00", "3.00", "4.00"]
    assert json.loads(text)[1]["image_id"] == 3
