"""Single-shot detection on spiking feature maps.

The detector reads binary feature maps from a spiking backbone at several
scales, applies plain (non-spiking, biased) convolutional heads for class
logits and box offsets once, on the spikes summed over the timesteps (the
heads are affine, so this is the sum of their per-step outputs), and
decodes against a fixed anchor grid. Training uses softmax focal loss for
classification and smooth-L1 for localization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .autograd.ops import _softmax
from .spiking.builders import _Builder, build_densenet, build_toy_classifier
from .spiking.layers import Network, NetworkSpec


# --------------------------------------------------------------------------
# Box geometry (all normalized to [0, 1] unless stated otherwise)
# --------------------------------------------------------------------------


def cxcywh_to_xyxy(b):
    b = np.asarray(b, dtype=np.float64)
    out = np.empty_like(b)
    out[..., 0] = b[..., 0] - b[..., 2] / 2
    out[..., 1] = b[..., 1] - b[..., 3] / 2
    out[..., 2] = b[..., 0] + b[..., 2] / 2
    out[..., 3] = b[..., 1] + b[..., 3] / 2
    return out


def xyxy_to_cxcywh(b):
    b = np.asarray(b, dtype=np.float64)
    out = np.empty_like(b)
    out[..., 0] = (b[..., 0] + b[..., 2]) / 2
    out[..., 1] = (b[..., 1] + b[..., 3]) / 2
    out[..., 2] = b[..., 2] - b[..., 0]
    out[..., 3] = b[..., 3] - b[..., 1]
    return out


def xywh_to_xyxy(b):
    b = np.asarray(b, dtype=np.float64)
    out = b.copy()
    out[..., 2] = b[..., 0] + b[..., 2]
    out[..., 3] = b[..., 1] + b[..., 3]
    return out


def iou_matrix(a_xyxy, b_xyxy):
    """Pairwise IoU between (N,4) and (M,4) corner-form boxes -> (N,M)."""
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


# --------------------------------------------------------------------------
# Anchors
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AnchorConfig:
    """Per-feature-map anchor grid. Scales are linear from scale_min on the
    first (finest) map to scale_max on the last; each cell gets one anchor
    per aspect ratio plus an extra square one at the geometric-mean scale
    of this map and the next."""

    scale_min: float = 0.5
    scale_max: float = 0.8
    ratios: tuple = (1.0, 2.0, 0.5)
    extra_square: bool = True
    variances: tuple = (0.1, 0.2)
    iou_threshold: float = 0.5

    @property
    def anchors_per_cell(self):
        return len(self.ratios) + (1 if self.extra_square else 0)

    def scales(self, num_maps):
        if num_maps < 1:
            raise ValueError("need at least one feature map")
        if num_maps == 1:
            return [self.scale_min]
        step = (self.scale_max - self.scale_min) / (num_maps - 1)
        return [self.scale_min + k * step for k in range(num_maps)]


def generate_anchors(feature_shapes, config: AnchorConfig):
    """Anchor boxes (cx, cy, w, h), normalized, for feature maps of the
    given (h, w) sizes. Cell order is rows, columns, then anchor index."""
    scales = config.scales(len(feature_shapes))
    step = scales[1] - scales[0] if len(scales) > 1 else scales[0] * 0.5
    all_anchors = []
    for k, (fh, fw) in enumerate(feature_shapes):
        s = scales[k]
        s_next = scales[k + 1] if k + 1 < len(scales) else scales[k] + step
        shapes = [(s * math.sqrt(r), s / math.sqrt(r)) for r in config.ratios]
        if config.extra_square:
            se = math.sqrt(s * s_next)
            shapes.append((se, se))
        cy, cx = np.meshgrid((np.arange(fh) + 0.5) / fh, (np.arange(fw) + 0.5) / fw, indexing="ij")
        grid = np.stack([cx, cy], axis=-1).reshape(-1, 1, 2)  # (fh*fw, 1, 2)
        wh = np.asarray(shapes).reshape(1, -1, 2)
        cells = np.concatenate(np.broadcast_arrays(grid, wh), axis=-1)
        all_anchors.append(cells.reshape(-1, 4))
    return np.concatenate(all_anchors, axis=0)


def match_anchors(anchors_cxcywh, gt_xyxy, gt_labels, config: AnchorConfig):
    """SSD bipartite + threshold matching.

    Each ground-truth box claims its best-IoU anchor unconditionally; every
    other anchor is matched to its best ground truth if the IoU reaches the
    threshold, else stays background.

    Returns (labels, matched): labels (A,) with 0 = background and
    class_id + 1 for matched anchors; matched (A,) ground-truth indices,
    -1 for background.
    """
    n_anchor = len(anchors_cxcywh)
    labels = np.zeros(n_anchor, dtype=np.int64)
    matched = np.full(n_anchor, -1, dtype=np.int64)
    gt_xyxy = np.asarray(gt_xyxy, dtype=np.float64).reshape(-1, 4)
    if len(gt_xyxy) == 0:
        return labels, matched
    gt_labels = np.asarray(gt_labels, dtype=np.int64)
    iou = iou_matrix(cxcywh_to_xyxy(anchors_cxcywh), gt_xyxy)  # (A, G)
    best_gt = iou.argmax(axis=1)
    best_iou = iou[np.arange(n_anchor), best_gt]
    pos = best_iou >= config.iou_threshold
    matched[pos] = best_gt[pos]
    # force-match the best anchor for every ground truth
    for g in range(len(gt_xyxy)):
        a = iou[:, g].argmax()
        matched[a] = g
    fg = matched >= 0
    labels[fg] = gt_labels[matched[fg]] + 1
    return labels, matched


def encode_boxes(gt_cxcywh, anchors_cxcywh, variances=(0.1, 0.2)):
    """SSD box regression targets: center offsets scaled by anchor size and
    log size ratios, divided by the variances."""
    g = np.asarray(gt_cxcywh, dtype=np.float64)
    a = np.asarray(anchors_cxcywh, dtype=np.float64)
    if g.size and (g[..., 2:] <= 0).any():
        raise ValueError("cannot encode a box with non-positive width or height")
    vc, vs = variances
    out = np.empty_like(g)
    out[..., :2] = (g[..., :2] - a[..., :2]) / (a[..., 2:] * vc)
    out[..., 2:] = np.log(g[..., 2:] / a[..., 2:]) / vs
    return out


def decode_boxes(deltas, anchors_cxcywh, variances=(0.1, 0.2)):
    d = np.asarray(deltas, dtype=np.float64)
    a = np.asarray(anchors_cxcywh, dtype=np.float64)
    vc, vs = variances
    out = np.empty_like(d)
    out[..., :2] = a[..., :2] + d[..., :2] * vc * a[..., 2:]
    out[..., 2:] = a[..., 2:] * np.exp(np.clip(d[..., 2:] * vs, -10, 10))
    return out


def build_anchor_targets(anchors, gt_boxes_xywh, gt_labels, image_size, config: AnchorConfig):
    """Per-anchor class labels and regression targets for one image.

    gt_boxes_xywh are in pixels; image_size is (width, height).
    """
    w, h = image_size
    gt = np.asarray(gt_boxes_xywh, dtype=np.float64).reshape(-1, 4) / np.array([w, h, w, h])
    gt_xyxy = xywh_to_xyxy(gt)
    labels, matched = match_anchors(anchors, gt_xyxy, gt_labels, config)
    loc = np.zeros((len(anchors), 4), dtype=np.float64)
    fg = matched >= 0
    if fg.any():
        loc[fg] = encode_boxes(xyxy_to_cxcywh(gt_xyxy[matched[fg]]), anchors[fg], config.variances)
    return labels, loc.astype(np.float32)


# --------------------------------------------------------------------------
# Loss
# --------------------------------------------------------------------------


def detection_loss(cls_logits: Tensor, loc_pred: Tensor, labels, loc_targets, gamma=2.0, alpha=0.25):
    """Focal classification + smooth-L1 localization loss.

    cls_logits: (N, A, C) with background at class 0; loc_pred: (N, A, 4);
    labels: (N, A) int; loc_targets: (N, A, 4). Both terms are normalized
    by the number of positive anchors in the batch (floored at one).
    """
    n, a, c = cls_logits.data.shape
    labels = np.asarray(labels).reshape(n * a)
    n_pos = max(int((labels > 0).sum()), 1)
    cls_loss = ag.focal_loss(cls_logits.reshape(n * a, c), labels, gamma=gamma, alpha=alpha, normalizer=n_pos)
    mask = (labels > 0).astype(np.float32).reshape(n, a, 1)
    loc_loss = ag.smooth_l1(loc_pred, np.asarray(loc_targets, dtype=np.float32), mask=mask, normalizer=n_pos)
    return cls_loss + loc_loss, float(cls_loss.data), float(loc_loss.data)


# --------------------------------------------------------------------------
# Model assembly
# --------------------------------------------------------------------------


def _add_heads(spec: NetworkSpec, taps, num_classes, anchors_per_cell):
    """Biased 3x3 conv heads per feature tap; records output names."""
    head_taps = []
    spec.outputs = []
    for k, tap in enumerate(taps):
        cls = spec.add(f"cls{k}", "conv", [tap], out_channels=anchors_per_cell * (num_classes + 1), kernel=3, bias=True)
        loc = spec.add(f"loc{k}", "conv", [tap], out_channels=anchors_per_cell * 4, kernel=3, bias=True)
        spec.outputs += [cls, loc]
        head_taps.append((cls, loc))
    return head_taps


def build_detector_spec(num_classes, in_channels=4, depth=121, growth=24, extra_channels=(512, 512, 512), anchor_config=None, **kw):
    """Spiking DenseNet backbone (standard layout, taps at the last two
    dense blocks) + strided spiking extra blocks + SSD heads."""
    if anchor_config is None:
        anchor_config = AnchorConfig()
    spec = build_densenet(depth=depth, growth=growth, in_channels=in_channels, layout="standard", backbone_taps=True, **kw)
    taps = list(spec.outputs)
    b = _Builder(spec, **kw)
    b.counter = 10_000  # keep generated names clear of the backbone's
    cur = taps[-1]
    for i, ch in enumerate(extra_channels):
        cur = b.conv_block(cur, ch // 2, kernel=1, prefix=f"extra{i + 1}a")
        cur = b.conv_block(cur, ch, kernel=3, stride=2, prefix=f"extra{i + 1}b")
        taps.append(cur)
    head_taps = _add_heads(spec, taps, num_classes, anchor_config.anchors_per_cell)
    spec.name = f"densenet{depth}_{growth}_ssd"
    return spec, head_taps, anchor_config


def build_toy_detector_spec(num_classes=2, in_channels=4, anchor_config=None, **kw):
    """Small two-scale detector for the synthetic moving-shapes task.

    Feature taps at strides 4 and 8 so the anchor grid is fine enough for
    the roughly 8-18 pixel objects; anchor scales sized to match, and a
    slightly relaxed matching threshold to give small boxes more positives.
    """
    if anchor_config is None:
        anchor_config = AnchorConfig(scale_min=0.15, scale_max=0.28, iou_threshold=0.4)
    spec = NetworkSpec(input_channels=in_channels, name="toy_ssd")
    b = _Builder(spec, **kw)
    cur = b.conv_block("input", 16, kernel=5, stride=2, padding=2, prefix="c1")
    t1 = b.conv_block(cur, 32, kernel=3, stride=2, prefix="c2")
    t2 = b.conv_block(t1, 48, kernel=3, stride=2, prefix="c3")
    head_taps = _add_heads(spec, [t1, t2], num_classes, anchor_config.anchors_per_cell)
    return spec, head_taps, anchor_config


class DetectionModel:
    """A spiking backbone with SSD heads plus its anchor bookkeeping.

    Convolution weights are Kaiming-uniform draws from ``rng``, or zeros
    when ``rng`` is None (for counting, or to load state into); a
    zero-weight detector cannot be trained.
    """

    def __init__(self, spec, head_taps, num_classes, anchor_config: AnchorConfig, rng=None):
        self.spec = spec
        self.head_taps = list(head_taps)
        self.num_classes = num_classes
        self.anchor_config = anchor_config
        self.net = Network(spec, rng=rng)
        self._init_background_bias()
        self._anchor_cache = {}

    def _init_background_bias(self):
        """Bias the class heads toward background so the focal loss starts
        from a low-confidence state instead of a sea of false positives."""
        c = self.num_classes + 1
        for cls_name, _ in self.head_taps:
            bias = self.net.layers[cls_name].bias
            b = bias.data.reshape(-1, c)
            b[:, 0] = 4.0
            bias.data = b.reshape(-1)

    def feature_shapes(self, height, width):
        shapes = self.net.trace_shapes(height, width)
        return [(shapes[cls][1], shapes[cls][2]) for cls, _ in self.head_taps]

    def anchors(self, height, width):
        key = (height, width)
        if key not in self._anchor_cache:
            self._anchor_cache[key] = generate_anchors(self.feature_shapes(height, width), self.anchor_config)
        return self._anchor_cache[key]

    def _gather(self, head, channels_per_anchor):
        """Flatten a head's (N, anchors * channels_per_anchor, H, W) map to
        (N, H * W * anchors, channels_per_anchor) in anchor-grid order."""
        n, ch, h, w = head.data.shape
        a = ch // channels_per_anchor
        out = head.reshape(n, a, channels_per_anchor, h, w)
        out = out.transpose(0, 3, 4, 1, 2)
        return out.reshape(n, h * w * a, channels_per_anchor)

    def forward(self, batch, record=None):
        """(N, C, T, H, W) batch -> (cls_logits (N, A, K+1), loc (N, A, 4))."""
        outputs = self.net.forward(batch, record=record)
        cls_parts = [self._gather(outputs[c], self.num_classes + 1) for c, _ in self.head_taps]
        loc_parts = [self._gather(outputs[l], 4) for _, l in self.head_taps]
        return ag.concat_channels(cls_parts), ag.concat_channels(loc_parts)


# --------------------------------------------------------------------------
# Post-processing
# --------------------------------------------------------------------------


@dataclass
class Detection:
    image_id: int
    class_id: int
    score: float
    box: tuple  # (x, y, w, h) in pixels

    def to_dict(self):
        return {"image_id": self.image_id, "class_id": self.class_id, "score": self.score, "box": list(self.box)}


def nms(boxes_xyxy, scores, iou_threshold=0.45, top_k=200):
    """Greedy non-maximum suppression; returns kept indices by score."""
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


def decode_detections(cls_logits, loc_pred, anchors, image_size, image_ids=None,
                      score_threshold=0.3, nms_iou=0.45, top_k=100, variances=(0.1, 0.2)):
    """Raw head outputs -> per-image Detection lists (pixel xywh boxes).

    cls_logits: (N, A, K+1) numpy, loc_pred: (N, A, 4) numpy.
    """
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
            keep = nms(boxes[sel], scores[sel], iou_threshold=nms_iou, top_k=top_k)
            for k in keep:
                a = sel[k]
                x0, y0, x1, y1 = boxes[a]
                results.append(Detection(
                    image_id=image_ids[i], class_id=cls - 1, score=float(scores[a]),
                    box=(x0 * w, y0 * h, (x1 - x0) * w, (y1 - y0) * h),
                ))
    return results


# --------------------------------------------------------------------------
# Detection dumps
# --------------------------------------------------------------------------


def detections_to_json(detections):
    return json.dumps([d.to_dict() for d in detections], indent=2)


def detections_from_json(text):
    return [Detection(image_id=d["image_id"], class_id=d["class_id"], score=d["score"], box=tuple(d["box"]))
            for d in json.loads(text)]


def detections_to_text(detections):
    """One line per box: image_id class_id score x y w h."""
    lines = []
    for d in detections:
        x, y, w, h = d.box
        lines.append(f"{d.image_id} {d.class_id} {d.score:.6f} {x:.2f} {y:.2f} {w:.2f} {h:.2f}")
    return "\n".join(lines) + ("\n" if lines else "")
