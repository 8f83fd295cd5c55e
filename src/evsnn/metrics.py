"""Accuracy, COCO mAP and hardware-relevant accounting.

ACCs per timestep count dense synaptic accumulations (an upper bound that
is a model constant): every convolution contributes output_elements x
fan_in additions, every PLIF neuron one potential update per timestep.
Batch norm contributes nothing: in both modes ``ag.conv2d`` and
``ag.conv_plif`` fold it into the conv that reads it, so every conv reads
spikes. Pooling and
concatenation involve no arithmetic accumulation. The spike-driven
effective cost is the dense count scaled by the measured spike rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detection import iou_matrix, xywh_to_xyxy
from .spiking.layers import BatchNormLayer, ConvLayer, Network, PLIFLayer, SpikeRecord

COCO_IOU_THRESHOLDS = np.arange(0.50, 0.96, 0.05).round(2)


def accuracy(predictions, labels):
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels differ in length")
    if predictions.size == 0:
        raise ValueError("empty prediction set")
    return float((predictions == labels).mean())


# --------------------------------------------------------------------------
# Parameter and operation counting
# --------------------------------------------------------------------------


@dataclass
class OpCountReport:
    params: int = 0
    params_fusable_bn: int = 0  # BN gamma/beta, reported separately
    accs_per_timestep: int = 0
    per_layer: dict = field(default_factory=dict)
    input_size: tuple | None = None

    def to_dict(self):
        return {
            "params": self.params,
            "params_fusable_bn": self.params_fusable_bn,
            "accs_per_timestep": self.accs_per_timestep,
            "input_size": self.input_size,
            "per_layer": self.per_layer,
        }


def count_params(net: Network) -> OpCountReport:
    """Conv weights/biases and PLIF time constants; BN affine parameters
    are tallied separately since they fold into the convs."""
    rep = OpCountReport()
    for name, layer in net.layers.items():
        n = 0
        if isinstance(layer, ConvLayer):
            n = layer.weight.data.size + (layer.bias.data.size if layer.bias is not None else 0)
            rep.params += n
        elif isinstance(layer, BatchNormLayer):
            n = layer.gamma.data.size + layer.beta.data.size
            rep.params_fusable_bn += n
        elif isinstance(layer, PLIFLayer):
            n = layer.w.data.size
            rep.params += n
        if n:
            rep.per_layer[name] = {"params": int(n)}
    return rep


def count_accs_per_timestep(net: Network, input_size) -> OpCountReport:
    """Dense accumulate count for one timestep at the given (H, W) input."""
    h, w = input_size
    shapes = net.trace_shapes(h, w)
    rep = count_params(net)
    rep.input_size = (h, w)
    for node in net.spec.nodes:
        name = node["name"]
        layer = net.layers[name]
        accs = 0
        if isinstance(layer, ConvLayer):
            co, ho, wo = shapes[name]
            fan_in = (layer.in_channels // layer.groups) * layer.kernel * layer.kernel
            accs = co * ho * wo * fan_in
            if layer.bias is not None:
                accs += co * ho * wo
        elif isinstance(layer, PLIFLayer):
            c, ho, wo = shapes[name]
            accs = c * ho * wo  # one potential update per neuron per timestep
        if accs:
            rep.per_layer.setdefault(name, {})["accs_per_timestep"] = int(accs)
            rep.accs_per_timestep += accs
    return rep


# --------------------------------------------------------------------------
# Sparsity
# --------------------------------------------------------------------------


@dataclass
class SparsityReport:
    global_rate: float
    per_layer: dict
    timesteps: int

    def dense_multiplier(self):
        """rate x T: effective dense-pass multiplier of the T-step SNN."""
        return self.global_rate * self.timesteps


def sparsity_from_record(record: SpikeRecord, timesteps) -> SparsityReport:
    return SparsityReport(global_rate=record.global_rate(), per_layer=record.layer_rates(), timesteps=timesteps)


def measure_sparsity(net: Network, cubes, batch_size=16) -> SparsityReport:
    """Mean spike rate per layer and globally over an evaluation set of
    voxel cubes (fraction of neurons spiking per timestep)."""
    from . import autograd as ag
    from .encoding import batch_cubes

    record = SpikeRecord()
    cubes = list(cubes)
    timesteps = cubes[0].data.shape[1]
    with ag.no_grad():
        for i in range(0, len(cubes), batch_size):
            batch = batch_cubes(cubes[i : i + batch_size])
            net.forward(batch, record=record)
    return sparsity_from_record(record, timesteps)


# --------------------------------------------------------------------------
# COCO mAP
# --------------------------------------------------------------------------


@dataclass
class MAPReport:
    map: float
    per_class: dict  # class_id -> mean AP over thresholds
    per_threshold: dict  # iou threshold -> mean AP over classes
    map50: float


def _get(obj, key):
    if isinstance(obj, dict):
        return obj[key]
    return getattr(obj, key)


def _interp_ap_101(recalls, precisions):
    """COCO 101-point interpolated AP from a monotone recall sequence."""
    # precision envelope: max precision at recall >= r; 0 past the last recall
    prec_env = np.append(np.maximum.accumulate(precisions[::-1])[::-1], 0.0)
    points = prec_env[np.searchsorted(recalls, np.linspace(0, 1, 101), side="left")]
    return np.cumsum(points)[-1] / 101.0  # a running sum, added in grid order


def _class_aps(dets, gts):
    """AP of one class at each COCO IoU threshold. dets: (image_id, score,
    box) in any order; gts: image_id -> [box], at least one box in all.

    Detections are stably sorted by descending score and matched greedily,
    each to the unmatched ground truth of its image with the highest IoU
    (first on ties) if that reaches the threshold. One IoU matrix per image
    serves every threshold; only detections that reach the lowest
    threshold against some ground truth take part in the walk.
    """
    n_gt = sum(len(v) for v in gts.values())
    thresholds = COCO_IOU_THRESHOLDS - 1e-9
    order = np.argsort(-np.array([s for _, s, _ in dets], dtype=np.float64), kind="stable")
    ranks_by_image = {}
    for rank, k in enumerate(order.tolist()):
        ranks_by_image.setdefault(dets[k][0], []).append(rank)
    tp = np.zeros((len(thresholds), len(dets)), dtype=bool)
    for img, ranks in ranks_by_image.items():
        if img not in gts:
            continue
        boxes = [dets[order[r]][2] for r in ranks]
        iou = iou_matrix(xywh_to_xyxy(boxes), xywh_to_xyxy(gts[img]))
        matched = np.zeros((len(thresholds), iou.shape[1]), dtype=bool)
        for d in np.flatnonzero(iou.max(axis=1) >= thresholds.min()):
            free = np.where(matched, -1.0, iou[d])
            best, top = free.argmax(axis=1), free.max(axis=1)
            hit = (top > 0) & (top >= thresholds)
            matched[hit, best[hit]] = True
            tp[hit, ranks[d]] = True
    tp_cum = np.cumsum(tp, axis=1)
    fp_cum = np.cumsum(~tp, axis=1)
    return [_interp_ap_101(r, p) for r, p in zip(tp_cum / n_gt, tp_cum / (tp_cum + fp_cum))]


def coco_map(detections, ground_truth) -> MAPReport:
    """COCO-style mAP: per class and per IoU threshold in [.50:.05:.95],
    greedy matching by descending score (stable on ties), 101-point
    interpolated AP, averaged over thresholds then classes. Classes
    without ground truth are excluded from the mean. Matching builds one
    detections x ground-truth ``iou_matrix`` per class and image and reuses
    it for all ten thresholds.

    detections: iterable with fields image_id, class_id, score, box (x,y,w,h)
    ground_truth: iterable with fields image_id, class_id, box
    """
    gt_by_class = {}
    for g in ground_truth:
        gt_by_class.setdefault(_get(g, "class_id"), {}).setdefault(_get(g, "image_id"), []).append(_get(g, "box"))
    det_by_class = {}
    for d in detections:
        det_by_class.setdefault(_get(d, "class_id"), []).append((_get(d, "image_id"), _get(d, "score"), _get(d, "box")))
    per_class = {}
    per_threshold = {t: [] for t in COCO_IOU_THRESHOLDS}
    ap50 = []
    for cls, gts in sorted(gt_by_class.items()):
        aps = _class_aps(det_by_class.get(cls, []), gts)
        for t, ap in zip(COCO_IOU_THRESHOLDS, aps):
            per_threshold[t].append(ap)
            if abs(t - 0.50) < 1e-9:
                ap50.append(ap)
        per_class[cls] = float(np.mean(aps))
    if not per_class:
        return MAPReport(map=0.0, per_class={}, per_threshold={float(t): 0.0 for t in COCO_IOU_THRESHOLDS}, map50=0.0)
    return MAPReport(
        map=float(np.mean(list(per_class.values()))),
        per_class=per_class,
        per_threshold={float(t): float(np.mean(v)) for t, v in per_threshold.items()},
        map50=float(np.mean(ap50)),
    )


# --------------------------------------------------------------------------
# Report emission
# --------------------------------------------------------------------------


def format_table(headers, rows):
    """Aligned plain-text table."""
    cols = [headers] + [[str(c) for c in r] for r in rows]
    widths = [max(len(row[i]) for row in cols) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in cols[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def human_count(n):
    if n >= 1e9:
        return f"{n / 1e9:.2f}G"
    if n >= 1e6:
        return f"{n / 1e6:.2f}M"
    if n >= 1e3:
        return f"{n / 1e3:.2f}K"
    return str(int(n))
