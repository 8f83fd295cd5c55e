"""Accuracy, operation counting, sparsity and COCO mAP."""

import numpy as np
import pytest

import evsnn.autograd as ag
from evsnn.metrics import (
    COCO_IOU_THRESHOLDS,
    MAPReport,
    accuracy,
    coco_map,
    count_accs_per_timestep,
    count_params,
    format_table,
    human_count,
    measure_sparsity,
    sparsity_from_record,
)
from evsnn.detection import iou_matrix, xywh_to_xyxy
from evsnn.encoding import VoxelCube, batch_cubes
from evsnn.spiking import Network, NetworkSpec
from evsnn.spiking.builders import build_toy_classifier, build_vgg
from evsnn.spiking.layers import BatchNormLayer, SpikeRecord

from conftest import stepwise_forward


# --------------------------------------------------------------------------
# Accuracy
# --------------------------------------------------------------------------


def test_accuracy_basic():
    assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75
    assert accuracy([1], [1]) == 1.0


def test_accuracy_rejects_bad_input():
    with pytest.raises(ValueError):
        accuracy([0, 1], [0])
    with pytest.raises(ValueError):
        accuracy([], [])


# --------------------------------------------------------------------------
# Parameter / ACC counting
# --------------------------------------------------------------------------


def _tiny_spec():
    spec = NetworkSpec(input_channels=2, name="tiny")
    spec.add("bn1", "bn", ["input"])
    spec.add("c1", "conv", ["bn1"], out_channels=3, kernel=3)
    spec.add("s1", "plif", ["c1"])
    spec.outputs = ["s1"]
    return spec


def test_count_params_hand_values():
    net = Network(_tiny_spec())
    rep = count_params(net)
    # conv 2*3*3*3 = 54, plif one shared time constant, bn gamma+beta = 4
    assert rep.params == 54 + 1
    assert rep.params_fusable_bn == 4
    assert rep.per_layer["c1"]["params"] == 54


def test_count_accs_hand_values():
    net = Network(_tiny_spec())
    rep = count_accs_per_timestep(net, (8, 8))
    # conv: 3*8*8 outputs x fan-in 2*9 = 3456; plif: one update per neuron
    assert rep.per_layer["c1"]["accs_per_timestep"] == 3 * 8 * 8 * 18
    assert rep.per_layer["s1"]["accs_per_timestep"] == 3 * 8 * 8
    assert rep.accs_per_timestep == 3456 + 192
    assert rep.input_size == (8, 8)


def test_count_accs_additive_over_layers():
    net = Network(build_vgg(11, in_channels=4, num_classes=10))
    rep = count_accs_per_timestep(net, (64, 64))
    total = sum(v.get("accs_per_timestep", 0) for v in rep.per_layer.values())
    assert total == rep.accs_per_timestep


def test_count_accs_proportional_to_resolution():
    # stride-1 conv + plif only: dense ACCs scale exactly with H x W
    net = Network(_tiny_spec())
    a1 = count_accs_per_timestep(net, (8, 8)).accs_per_timestep
    a2 = count_accs_per_timestep(net, (16, 16)).accs_per_timestep
    a3 = count_accs_per_timestep(net, (8, 24)).accs_per_timestep
    assert a2 == 4 * a1
    assert a3 == 3 * a1


def test_count_excludes_bn_and_pool_accs():
    net = Network(build_toy_classifier(in_channels=4))
    rep = count_accs_per_timestep(net, (32, 32))
    for node in net.spec.nodes:
        if node["type"] in ("bn", "maxpool", "concat"):
            assert "accs_per_timestep" not in rep.per_layer.get(node["name"], {})


# --------------------------------------------------------------------------
# Sparsity
# --------------------------------------------------------------------------


def _random_cubes(rng, n, channels=4, timesteps=3, size=16, density=0.2):
    return [
        VoxelCube((rng.random((channels, timesteps, size, size)) < density).astype(np.uint8))
        for _ in range(n)
    ]


def test_sparsity_rate_bounds_and_multiplier():
    rng = np.random.default_rng(0)
    net = Network(build_toy_classifier(in_channels=4), rng=rng)
    report = measure_sparsity(net, _random_cubes(rng, 6))
    assert 0.0 <= report.global_rate <= 1.0
    for rate in report.per_layer.values():
        assert 0.0 <= rate <= 1.0
    assert report.timesteps == 3
    assert report.dense_multiplier() == pytest.approx(report.global_rate * 3)


def test_sparsity_trained_networks_are_sparse():
    # untrained but sanely initialized nets already spike well below 100%
    rng = np.random.default_rng(1)
    net = Network(build_toy_classifier(in_channels=4), rng=rng)
    report = measure_sparsity(net, _random_cubes(rng, 4))
    assert report.global_rate < 1.0


def test_sparsity_from_record_extremes():
    silent = SpikeRecord()
    silent.add("a", 0, 1000)
    assert sparsity_from_record(silent, 4).global_rate == 0.0
    saturated = SpikeRecord()
    saturated.add("a", 1000, 1000)
    assert sparsity_from_record(saturated, 4).global_rate == 1.0
    assert sparsity_from_record(saturated, 4).dense_multiplier() == 4.0


def test_sparsity_invariant_under_bn_fusion():
    """The spike rates ``measure_sparsity`` reads with each bn folded into
    its conv are those of the unfolded reference (each bn, then its conv)."""
    rng = np.random.default_rng(2)
    net = Network(build_toy_classifier(in_channels=4), rng=rng)
    for bn in [layer for layer in net.layers.values() if isinstance(layer, BatchNormLayer)]:
        bn.running_mean = rng.standard_normal(bn.channels).astype(np.float32) * 0.1
        bn.running_var = (rng.random(bn.channels) + 0.5).astype(np.float32)
    cubes = _random_cubes(rng, 4)
    a = measure_sparsity(net, cubes)
    record = SpikeRecord()
    with ag.no_grad():
        stepwise_forward(net, batch_cubes(cubes), record, unfolded=True)
    b = sparsity_from_record(record, cubes[0].data.shape[1])
    assert a.global_rate == pytest.approx(b.global_rate, abs=1e-12)
    for name, rate in a.per_layer.items():
        assert b.per_layer[name] == pytest.approx(rate, abs=1e-12)


# --------------------------------------------------------------------------
# COCO mAP
# --------------------------------------------------------------------------


def _det(img, cls, score, box):
    return {"image_id": img, "class_id": cls, "score": score, "box": box}


def _gt(img, cls, box):
    return {"image_id": img, "class_id": cls, "box": box}


def _iou_xywh(a, b):
    """IoU of two (x, y, w, h) boxes as ``coco_map`` computes it."""
    return iou_matrix(xywh_to_xyxy(a), xywh_to_xyxy(b))[0, 0]


def test_box_iou_xywh_hand_value():
    assert _iou_xywh((0, 0, 2, 2), (1, 1, 2, 2)) == pytest.approx(1.0 / 7.0)
    assert _iou_xywh((0, 0, 1, 1), (5, 5, 1, 1)) == 0.0
    assert _iou_xywh((0, 0, 3, 4), (0, 0, 3, 4)) == 1.0


def test_coco_map_perfect_detections():
    gts = [_gt(0, 0, (0, 0, 10, 10)), _gt(0, 1, (20, 20, 5, 8)), _gt(1, 0, (3, 3, 7, 7))]
    dets = [_det(g["image_id"], g["class_id"], 0.9, g["box"]) for g in gts]
    rep = coco_map(dets, gts)
    assert rep.map == pytest.approx(1.0)
    assert rep.map50 == pytest.approx(1.0)
    assert rep.per_class == {0: pytest.approx(1.0), 1: pytest.approx(1.0)}


def test_coco_map_iou_point_six_hits_three_thresholds():
    # IoU exactly 0.6: TP at tau in {0.50, 0.55, 0.60}, FP above -> mAP 0.3
    gts = [_gt(0, 0, (0.0, 0.0, 10.0, 10.0))]
    dets = [_det(0, 0, 0.9, (0.0, 2.5, 10.0, 10.0))]
    assert _iou_xywh(dets[0]["box"], gts[0]["box"]) == pytest.approx(0.6)
    rep = coco_map(dets, gts)
    assert rep.map == pytest.approx(0.3)
    assert rep.map50 == pytest.approx(1.0)
    assert rep.per_threshold[0.6] == pytest.approx(1.0)
    assert rep.per_threshold[0.65] == pytest.approx(0.0)


def test_coco_map_false_positive_on_empty_image():
    gts = [_gt(0, 0, (0, 0, 10, 10))]
    dets = [
        _det(0, 0, 0.9, (0, 0, 10, 10)),
        _det(5, 0, 0.95, (0, 0, 10, 10)),  # image 5 has no ground truth
    ]
    rep = coco_map(dets, gts)
    # higher-scoring FP comes first: precision at recall 1 is 1/2
    assert rep.map50 == pytest.approx(0.5)


def test_coco_map_class_without_gt_excluded():
    gts = [_gt(0, 0, (0, 0, 10, 10))]
    dets = [_det(0, 0, 0.9, (0, 0, 10, 10)), _det(0, 7, 0.9, (0, 0, 10, 10))]
    rep = coco_map(dets, gts)
    assert 7 not in rep.per_class
    assert rep.map == pytest.approx(1.0)


def test_coco_map_no_ground_truth_at_all():
    rep = coco_map([_det(0, 0, 0.9, (0, 0, 1, 1))], [])
    assert rep.map == 0.0 and rep.map50 == 0.0 and rep.per_class == {}


def test_coco_map_missed_detection_caps_recall():
    gts = [_gt(0, 0, (0, 0, 10, 10)), _gt(1, 0, (0, 0, 10, 10))]
    dets = [_det(0, 0, 0.9, (0, 0, 10, 10))]
    rep = coco_map(dets, gts)
    # recall stops at 0.5 with perfect precision: 51 of 101 points covered
    assert rep.map50 == pytest.approx(51 / 101)


# -- brute-force oracle -----------------------------------------------------


def _ap_oracle(dets, gts, thr):
    """Naive AP: explicit greedy matching then direct 101-point scan."""
    n_gt = sum(len(v) for v in gts.values())
    if n_gt == 0:
        return None
    used = {img: [False] * len(v) for img, v in gts.items()}
    tp_flags = []
    for img, _, box in dets:
        best, best_i = 0.0, -1
        for i, g in enumerate(gts.get(img, [])):
            if used[img][i]:
                continue
            iou = _box_iou_xywh_scalar(box, g)
            if iou > best:
                best, best_i = iou, i
        if best_i >= 0 and best >= thr:
            used[img][best_i] = True
            tp_flags.append(True)
        else:
            tp_flags.append(False)
    recs, precs = [], []
    tp = fp = 0
    for flag in tp_flags:
        tp += flag
        fp += not flag
        recs.append(tp / n_gt)
        precs.append(tp / (tp + fp))
    ap = 0.0
    for r in np.linspace(0, 1, 101):
        best_p = 0.0
        for rec, prec in zip(recs, precs):
            if rec >= r and prec > best_p:
                best_p = prec
        ap += best_p
    return ap / 101


def _coco_map_oracle(dets, gts):
    classes = sorted({g["class_id"] for g in gts})
    per_class = {}
    for cls in classes:
        gt_map = {}
        for g in gts:
            if g["class_id"] == cls:
                gt_map.setdefault(g["image_id"], []).append(g["box"])
        cls_dets = sorted(
            [(d["image_id"], d["score"], d["box"]) for d in dets if d["class_id"] == cls],
            key=lambda d: -d[1],
        )
        aps = [_ap_oracle(cls_dets, gt_map, t - 1e-9) for t in COCO_IOU_THRESHOLDS]
        per_class[cls] = float(np.mean(aps))
    return float(np.mean(list(per_class.values()))) if per_class else 0.0


def _random_scene(rng, image_id):
    gts, dets = [], []
    for _ in range(int(rng.integers(0, 6))):
        cls = int(rng.integers(0, 3))
        box = (float(rng.uniform(0, 50)), float(rng.uniform(0, 50)),
               float(rng.uniform(4, 20)), float(rng.uniform(4, 20)))
        gts.append(_gt(image_id, cls, box))
        if rng.random() < 0.8:  # jittered detection near the object
            jitter = rng.uniform(-4, 4, size=4)
            dbox = (box[0] + jitter[0], box[1] + jitter[1],
                    max(box[2] + jitter[2], 1.0), max(box[3] + jitter[3], 1.0))
            dets.append(_det(image_id, cls, float(rng.random()), dbox))
    for _ in range(int(rng.integers(0, 3))):  # spurious detections
        dets.append(_det(image_id, int(rng.integers(0, 3)), float(rng.random()),
                         (float(rng.uniform(0, 60)), float(rng.uniform(0, 60)), 8.0, 8.0)))
    return gts, dets


def test_coco_map_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    for trial in range(25):
        gts, dets = [], []
        for img in range(int(rng.integers(1, 5))):
            g, d = _random_scene(rng, img)
            gts += g
            dets += d
        if not gts:
            continue
        got = coco_map(dets, gts).map
        want = _coco_map_oracle(dets, gts)
        assert got == pytest.approx(want, abs=1e-12)


# -- the per-pair matching loop, kept as an exact oracle ---------------------


def _box_iou_xywh_scalar(a, b):
    ax0, ay0, aw, ah = a
    bx0, by0, bw, bh = b
    ix0, iy0 = max(ax0, bx0), max(ay0, by0)
    ix1, iy1 = min(ax0 + aw, bx0 + bw), min(ay0 + ah, by0 + bh)
    iw, ih = max(ix1 - ix0, 0.0), max(iy1 - iy0, 0.0)
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def _interp_ap_101_loop(recalls, precisions):
    if len(recalls) == 0:
        return 0.0
    recalls = np.asarray(recalls)
    precisions = np.asarray(precisions)
    prec_env = np.maximum.accumulate(precisions[::-1])[::-1]
    ap = 0.0
    for r in np.linspace(0, 1, 101):
        idx = np.searchsorted(recalls, r, side="left")
        ap += prec_env[idx] if idx < len(prec_env) else 0.0
    return ap / 101.0


def _ap_single_loop(dets, gts, iou_t):
    n_gt = sum(len(v) for v in gts.values())
    matched = {img: [False] * len(v) for img, v in gts.items()}
    tps, fps = [], []
    for img, _, box in dets:
        best, best_i = 0.0, -1
        for i, g in enumerate(gts.get(img, ())):
            if matched.get(img, [])[i]:
                continue
            iou = _box_iou_xywh_scalar(box, g)
            if iou > best:
                best, best_i = iou, i
        if best_i >= 0 and best >= iou_t:
            matched[img][best_i] = True
            tps.append(1)
            fps.append(0)
        else:
            tps.append(0)
            fps.append(1)
    if not tps:
        return 0.0
    tp = np.cumsum(tps)
    fp = np.cumsum(fps)
    return _interp_ap_101_loop(tp / n_gt, tp / (tp + fp))


def _coco_map_loop(detections, ground_truth):
    """coco_map with one box_iou call per (detection, ground truth) pair
    and threshold, and a 101-step interpolation loop."""
    gt_by_class, det_by_class = {}, {}
    for g in ground_truth:
        gt_by_class.setdefault(g["class_id"], {}).setdefault(g["image_id"], []).append(g["box"])
    for d in detections:
        det_by_class.setdefault(d["class_id"], []).append((d["image_id"], d["score"], d["box"]))
    per_class = {}
    per_threshold = {t: [] for t in COCO_IOU_THRESHOLDS}
    ap50 = []
    for cls, gts in sorted(gt_by_class.items()):
        dets = sorted(det_by_class.get(cls, []), key=lambda d: -d[1])
        aps = []
        for t in COCO_IOU_THRESHOLDS:
            ap = _ap_single_loop(dets, gts, t - 1e-9)
            aps.append(ap)
            per_threshold[t].append(ap)
            if abs(t - 0.50) < 1e-9:
                ap50.append(ap)
        per_class[cls] = float(np.mean(aps))
    return MAPReport(
        map=float(np.mean(list(per_class.values()))),
        per_class=per_class,
        per_threshold={float(t): float(np.mean(v)) for t, v in per_threshold.items()},
        map50=float(np.mean(ap50)),
    )


EXACT_CASES = {
    "iou_exactly_half": (
        [_gt(0, 0, (0, 0, 10, 5))],
        [_det(0, 0, 0.9, (0, 0, 10, 10)), _det(0, 0, 0.8, (0.0, 0.0, 10.0, 5.0))],
    ),
    "tied_scores_across_images": (
        [_gt(0, 0, (0, 0, 10, 10)), _gt(1, 0, (5, 5, 10, 10)), _gt(2, 0, (0, 0, 4, 4))],
        [_det(2, 0, 0.5, (20, 20, 4, 4)), _det(0, 0, 0.5, (1, 1, 10, 10)),
         _det(1, 0, 0.5, (5, 5, 10, 10)), _det(0, 0, 0.5, (30, 30, 2, 2)), _det(2, 0, 0.5, (0, 0, 4, 4))],
    ),
    "detections_on_images_without_ground_truth": (
        [_gt(0, 0, (0, 0, 10, 10)), _gt(0, 1, (3, 3, 6, 6))],
        [_det(4, 0, 0.99, (0, 0, 10, 10)), _det(0, 0, 0.7, (0, 1, 10, 10)),
         _det(5, 1, 0.6, (3, 3, 6, 6)), _det(0, 1, 0.4, (3, 4, 6, 6))],
    ),
    "class_with_ground_truth_but_no_detections": (
        [_gt(0, 0, (0, 0, 10, 10)), _gt(0, 2, (10, 10, 5, 5)), _gt(1, 2, (0, 0, 5, 5))],
        [_det(0, 0, 0.9, (0, 0, 10, 9))],
    ),
    "two_detections_on_one_ground_truth": (
        [_gt(0, 0, (0, 0, 10, 10)), _gt(0, 0, (8, 0, 10, 10))],
        [_det(0, 0, 0.9, (0, 0, 10, 10)), _det(0, 0, 0.8, (0.5, 0, 10, 10)), _det(0, 0, 0.7, (7, 0, 10, 10))],
    ),
}


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_coco_map_equals_pairwise_loop_on_edge_cases(case):
    gts, dets = EXACT_CASES[case]
    got, want = coco_map(dets, gts), _coco_map_loop(dets, gts)
    assert (got.map, got.map50, got.per_class, got.per_threshold) == (
        want.map, want.map50, want.per_class, want.per_threshold)


def test_coco_map_equals_pairwise_loop_on_random_scenes():
    rng = np.random.default_rng(5)
    for trial in range(40):
        gts, dets = [], []
        for img in range(int(rng.integers(1, 8))):
            g, d = _random_scene(rng, img)
            gts += g
            dets += d
        if trial % 2:  # coarse scores: ties within and across images
            dets = [dict(d, score=round(d["score"], 1)) for d in dets]
        if not gts:
            continue
        got, want = coco_map(dets, gts), _coco_map_loop(dets, gts)
        assert (got.map, got.map50, got.per_class, got.per_threshold) == (
            want.map, want.map50, want.per_class, want.per_threshold)


# --------------------------------------------------------------------------
# Report formatting
# --------------------------------------------------------------------------


def test_format_table_alignment():
    text = format_table(["name", "params"], [["vgg11", "9.22M"], ["sq1.1", "0.72M"]])
    lines = text.split("\n")
    assert len(lines) == 4
    assert len(set(len(l) for l in lines)) == 1 or all(len(l) <= len(lines[0]) for l in lines)
    assert lines[0].startswith("name")
    assert "9.22M" in lines[2]


def test_human_count():
    assert human_count(950) == "950"
    assert human_count(9_220_000) == "9.22M"
    assert human_count(1_260_000_000) == "1.26G"
    assert human_count(1_260) == "1.26K"
