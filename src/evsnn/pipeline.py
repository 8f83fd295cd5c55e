"""Training and evaluation loops.

Classifier and detector training share one loop, ``_fit``: AdamW with
decoupled weight decay, cosine learning-rate annealing to zero over the
whole run, global gradient-norm clipping, and surrogate-gradient BPTT
through all timesteps, each network node run once over all T frames from
the PLIF membranes at rest and its backward in reverse time. The
classification head is trained with cross-entropy on the time-summed class
scores; the detection heads with focal + smooth-L1 loss on the time-summed
logits. Every trainer call trains all parameters from a fresh AdamW.

A checkpoint (``save_network``, ``load_network``) holds a network's
parameters and BN running statistics, no optimizer state, and loads only
into a network of the same architecture."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import AdamW, clip_grad_norm, cosine_lr, load_checkpoint, save_checkpoint
from .detection import DetectionModel, build_anchor_targets, decode_detections, detection_loss
from .encoding import EncoderConfig, batch_cubes, encode_voxel_cube
from .metrics import accuracy, coco_map
from .spiking import Network
from .tasks import detection_ground_truth, encode_samples


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient turns non-finite; carries the step."""


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 64
    lr: float = 5e-3
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


WEIGHT_DECAY = 1e-4  # AdamW's decoupled decay
GRAD_CLIP = 1.0  # the global gradient-norm bound


@dataclass
class TrainHistory:
    losses: list = field(default_factory=list)  # one entry per step
    epoch_losses: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    lrs: list = field(default_factory=list)
    wall_time: float = 0.0


def _check_finite(loss, step, extra=""):
    if not np.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss {loss!r} at step {step}{extra}")


def _fit(params, loss_fn, n, config: TrainConfig, log):
    """The training loop. Each epoch visits the ``n`` samples in a fresh
    random order; ``loss_fn(idx)`` returns the loss Tensor of the batch of
    sample indices ``idx``. Returns a TrainHistory."""
    opt = AdamW(params, lr=config.lr, weight_decay=WEIGHT_DECAY)
    rng = np.random.default_rng(config.seed)
    total_steps = config.epochs * max(1, -(-n // config.batch_size))
    hist = TrainHistory()
    t0 = time.monotonic()
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for i in range(0, n, config.batch_size):
            idx = order[i : i + config.batch_size]
            opt.zero_grad()
            loss = loss_fn(idx)
            _check_finite(float(loss.data), step)
            loss.backward()
            norm = clip_grad_norm(params, GRAD_CLIP)
            _check_finite(norm, step, " (gradient norm)")
            opt.lr = cosine_lr(step, total_steps, config.lr)
            opt.step()
            hist.losses.append(float(loss.data))
            hist.grad_norms.append(norm)
            hist.lrs.append(opt.lr)
            epoch_loss += float(loss.data) * len(idx)
            step += 1
        hist.epoch_losses.append(epoch_loss / n)
        if log:
            log(f"epoch {epoch + 1}/{config.epochs}  loss {hist.epoch_losses[-1]:.4f}")
    hist.wall_time = time.monotonic() - t0
    return hist


def train_classifier(net: Network, samples, encoder: EncoderConfig, config: TrainConfig, log=None):
    """Surrogate-gradient BPTT training of a spiking classifier on
    ClassificationSamples. Returns a TrainHistory; the net is trained in
    place."""
    cubes, labels = encode_samples(samples, encoder)
    data = batch_cubes(cubes)

    def loss_fn(idx):
        return ag.softmax_cross_entropy(net.forward(data[idx])["scores"], labels[idx])

    return _fit(net.param_list(), loss_fn, len(samples), config, log)


def evaluate_classifier(net: Network, samples, encoder: EncoderConfig, batch_size=64):
    """Returns (accuracy, predictions). The forward runs under ``no_grad``,
    where each batch norm folds into its conv."""
    cubes, labels = encode_samples(samples, encoder)
    data = batch_cubes(cubes)
    preds = []
    with ag.no_grad():
        for i in range(0, len(cubes), batch_size):
            scores = net.forward(data[i : i + batch_size])["scores"]
            preds.append(scores.data.argmax(axis=1))
    preds = np.concatenate(preds)
    return accuracy(preds, labels), preds


# --------------------------------------------------------------------------
# Detection
# --------------------------------------------------------------------------


def _encode_scenes(scenes, encoder: EncoderConfig):
    return batch_cubes([encode_voxel_cube(stream, encoder) for stream, _ in scenes])


def train_detector(model: DetectionModel, scenes, encoder: EncoderConfig, config: TrainConfig, log=None):
    """Train the backbone and the SSD heads on (stream, boxes) scenes.
    Returns a TrainHistory; the model is trained in place."""
    data = _encode_scenes(scenes, encoder)
    anchors = model.anchors(encoder.height, encoder.width)
    labels = np.empty((len(scenes), len(anchors)), dtype=np.int64)
    locs = np.empty((len(scenes), len(anchors), 4), dtype=np.float32)
    image_size = (encoder.width, encoder.height)
    for i, (_, boxes) in enumerate(scenes):
        gt = np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)
        cls = [b.class_id for b in boxes]
        labels[i], locs[i] = build_anchor_targets(anchors, gt, cls, image_size, model.anchor_config)

    def loss_fn(idx):
        cls_logits, loc_pred = model.forward(data[idx])
        loss, _, _ = detection_loss(cls_logits, loc_pred, labels[idx], locs[idx])
        return loss

    return _fit(model.net.param_list(), loss_fn, len(scenes), config, log)


def evaluate_detector(model: DetectionModel, scenes, encoder: EncoderConfig, batch_size=16,
                      score_threshold=0.3, nms_iou=0.45):
    """Run the detector over scenes and score against their boxes.

    Returns (MAPReport, detections).
    """
    data = _encode_scenes(scenes, encoder)
    anchors = model.anchors(encoder.height, encoder.width)
    detections = []
    with ag.no_grad():
        for i in range(0, len(scenes), batch_size):
            cls_logits, loc_pred = model.forward(data[i : i + batch_size])
            detections += decode_detections(
                cls_logits.data, loc_pred.data, anchors, (encoder.width, encoder.height),
                image_ids=list(range(i, i + cls_logits.data.shape[0])),
                score_threshold=score_threshold, nms_iou=nms_iou,
                variances=model.anchor_config.variances,
            )
    return coco_map(detections, detection_ground_truth(scenes)), detections


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------


def save_network(path, net: Network):
    """Write the network's parameters and BN running statistics."""
    save_checkpoint(path, net.state_arrays())


def load_network(path, net: Network):
    """Restore a ``save_network`` file into a network of the same
    architecture; any mismatch raises ValueError and loads nothing."""
    net.load_state_arrays(load_checkpoint(path))


# --------------------------------------------------------------------------
# Experiments
# --------------------------------------------------------------------------


def run_encoding_ablation(build_net, samples, val_samples, grid, config: TrainConfig, sample_duration=100_000, height=64,
                          width=64, log=None):
    """Train/evaluate one fresh network per (timesteps, micro_bins) cell on
    height x width voxel cubes.

    ``build_net`` maps an input channel count to a fresh Network. Returns
    {(T, n): accuracy}.
    """
    results = {}
    for timesteps, micro_bins in grid:
        encoder = EncoderConfig(
            sample_duration=sample_duration, timesteps=timesteps, micro_bins=micro_bins,
            height=height, width=width,
        )
        net = build_net(encoder.channels)
        train_classifier(net, samples, encoder, config, log=log)
        acc, _ = evaluate_classifier(net, val_samples, encoder)
        results[(timesteps, micro_bins)] = acc
        if log:
            log(f"T={timesteps} n={micro_bins}: accuracy {acc:.3f}")
    return results
