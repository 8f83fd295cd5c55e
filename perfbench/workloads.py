"""The four benchmark workloads.

Each workload is a closed loop with one client: the harness calls ``op``
again as soon as the previous call returns, until the timed calls add up
to the run length. ``setup`` builds everything the timed calls need from
the seed (inputs through the program's own generators and writers, the
model, and warm-up work) and is repeated by the harness; ``check`` verifies
an op's outputs outside the timed region; ``counts`` reports exact,
seed-determined counts that repeat bit for bit between runs.

The benchmark calls the program only through module attributes
(``pipeline.train_detector``, ``events.parse_dat``, ...) so that a traced
run, which swaps those attributes for timing wrappers, sees every call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

import inputs
import reference
from evsnn import autograd as ag
from evsnn import detection, encoding, events, pipeline, tasks
from evsnn.encoding import EncoderConfig
from evsnn.pipeline import TrainConfig, TrainingDiverged
from evsnn.spiking import Network, SpikeRecord
from evsnn.spiking.builders import named_spec

TIMESTEPS, MICRO_BINS, SIZE, BATCH = 5, 2, 64, 16
ENCODER = EncoderConfig(sample_duration=inputs.WINDOW_US, timesteps=TIMESTEPS, micro_bins=MICRO_BINS, height=SIZE, width=SIZE)
POOL_BATCHES = 4  # training workloads rotate over this many distinct batches
LR = 2e-3


@dataclass
class OpResult:
    step_ms: list  # one entry per step, eval batch or crop
    samples: int  # training samples, windows or crops processed
    events: int  # input events consumed
    payload: object = None
    error: str | None = None  # set when the program raised a documented failure


def conv_macs(layer, n, ho, wo):
    """Multiply-accumulates of one ConvLayer call on n inputs with an ho x wo output."""
    return n * layer.out_channels * ho * wo * (layer.in_channels // layer.groups) * layer.kernel * layer.kernel


def conv_macs_per_sample(net: Network, height, width, timesteps):
    """Conv multiply-accumulates for one sample over all timesteps, from the traced shapes."""
    shapes = net.trace_shapes(height, width)
    convs = (node["name"] for node in net.spec.nodes if node["type"] == "conv")
    return timesteps * sum(conv_macs(net.layers[name], 1, *shapes[name][1:]) for name in convs)


def probe_spikes(forward, batch):
    """Spike and element counts per PLIF layer for one no-grad forward."""
    record = SpikeRecord()
    with ag.no_grad():
        forward(batch, record=record)
    return {name: {"spikes": int(record.spikes[name]), "elements": int(record.elements[name])} for name in record.spikes}


def _global_rate(spikes):
    return sum(v["spikes"] for v in spikes.values()) / max(1, sum(v["elements"] for v in spikes.values()))


def toy_detector(seed):
    spec, heads, anchors = detection.build_toy_detector_spec(in_channels=ENCODER.channels)
    return detection.DetectionModel(spec, heads, num_classes=2, anchor_config=anchors, rng=np.random.default_rng(seed))


class _Training:
    """Shared loop for the two training workloads: each op is one call of
    the program's training function on the next of ``POOL_BATCHES``
    batches, for a fixed number of epochs of one step each; the ``log``
    callback the trainer calls after every epoch stamps the step
    boundaries. Subclasses provide ``make_pool``, ``stream_of``, ``build``
    (which sets ``self.forward``), ``train`` and ``network``."""

    epochs_per_call: int
    warmup_steps: int

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.pool = self.make_pool(POOL_BATCHES * BATCH, seed=self.seed)
        self.build()
        self.train(self.pool[:BATCH], TrainConfig(epochs=self.warmup_steps, batch_size=BATCH, lr=LR, seed=self.seed))

    def events_in(self, batch):
        return sum(len(self.stream_of(s)) for s in batch)

    def op(self, i):
        batch = self.pool[(i % POOL_BATCHES) * BATCH:(i % POOL_BATCHES + 1) * BATCH]
        config = TrainConfig(epochs=self.epochs_per_call, batch_size=BATCH, lr=LR, seed=self.seed * 1000 + i)
        stamps = [time.perf_counter()]
        try:
            hist = self.train(batch, config, log=lambda _msg: stamps.append(time.perf_counter()))
        except TrainingDiverged as exc:
            return OpResult([], 0, 0, error=str(exc))
        return OpResult(list(np.diff(stamps) * 1e3), len(hist.losses) * BATCH, self.events_in(batch), hist)

    def check(self, result):
        if result.error is not None:  # a diverged call counts as one failed step
            return self.epochs_per_call, 1
        hist = result.payload
        bad = sum(1 for loss, norm in zip(hist.losses, hist.grad_norms) if not (math.isfinite(loss) and math.isfinite(norm)))
        return len(hist.losses), bad

    def counts(self):
        cubes = encoding.batch_cubes([encoding.encode_voxel_cube(self.stream_of(s), ENCODER) for s in self.pool[:BATCH]])
        spikes = probe_spikes(self.forward, cubes)
        return {
            "conv_macs_per_sample": conv_macs_per_sample(self.network(), SIZE, SIZE, TIMESTEPS),
            "graph_nodes": len(self.network().spec.nodes),
            "events_per_batch": [self.events_in(self.pool[b * BATCH:(b + 1) * BATCH]) for b in range(POOL_BATCHES)],
            "probe_spikes_per_plif": spikes,
            "probe_spike_rate": _global_rate(spikes),
            "cube_density": float(cubes.mean()),
        }


class DetectTrain(_Training):
    name = "detect-train"
    unit = "train step"
    epochs_per_call = 4
    warmup_steps = 2
    make_pool = staticmethod(tasks.make_moving_squares_dataset)

    @staticmethod
    def stream_of(scene):
        return scene[0]

    def build(self):
        self.model = toy_detector(self.seed)
        self.forward = self.model.forward

    def train(self, batch, config, log=None):
        return pipeline.train_detector(self.model, batch, ENCODER, config, log=log)

    def network(self):
        return self.model.net


class ClassifyTrain(_Training):
    name = "classify-train"
    unit = "train step"
    epochs_per_call = 1
    warmup_steps = 1  # warms the timed network; earlier set-ups warm only the process (BLAS, allocator)
    make_pool = staticmethod(tasks.make_moving_bar_dataset)

    @staticmethod
    def stream_of(sample):
        return sample.stream

    def build(self):
        self.net = Network(named_spec("squeezenet1.1", in_channels=ENCODER.channels), rng=np.random.default_rng(self.seed))
        self.forward = self.net.forward

    def train(self, batch, config, log=None):
        return pipeline.train_classifier(self.net, batch, ENCODER, config, log=log)

    def network(self):
        return self.net


class DetectStream:
    """Inference over one long recording: parse, cut into 100 ms windows,
    score each batch of windows with ``evaluate_detector``."""

    name = "detect-stream"
    unit = "eval batch"
    windows = 64
    # The detector is the same in every run; only the stream follows --seed.
    # It is trained on noise-free scenes, so the background events in the
    # stream yield about 116 low-confidence detections per window (113 to
    # 121 on seeds 1-10), which is what loads decode, NMS and mAP.
    pretrain_seed = 0
    pretrain_scenes = 8
    pretrain_steps = 12
    pretrain_lr = 1e-2
    score_threshold = 0.3  # evaluate_detector's default, used by the output check

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        scenes = tasks.make_moving_squares_dataset(self.pretrain_scenes, seed=self.pretrain_seed)
        self.model = toy_detector(self.pretrain_seed)
        pipeline.train_detector(self.model, scenes, ENCODER, TrainConfig(
            epochs=self.pretrain_steps, batch_size=self.pretrain_scenes, lr=self.pretrain_lr, seed=self.pretrain_seed))
        self.recording, self.boxes = inputs.stitched_recording(self.windows, self.seed)
        self.dat = events.write_dat(self.recording)
        pipeline.evaluate_detector(self.model, self._scenes(events.parse_dat(self.dat))[:BATCH], ENCODER)

    def _scenes(self, stream):
        """The recording cut into 100 ms windows, each with its boxes."""
        return [(events.slice_time(stream, k * inputs.WINDOW_US, (k + 1) * inputs.WINDOW_US), self.boxes[k])
                for k in range(self.windows)]

    def op(self, i):
        stream = events.parse_dat(self.dat)
        scenes = self._scenes(stream)
        step_ms, results = [], []
        for b in range(0, self.windows, BATCH):
            t0 = time.perf_counter()
            results.append(pipeline.evaluate_detector(self.model, scenes[b:b + BATCH], ENCODER))
            step_ms.append((time.perf_counter() - t0) * 1e3)
        return OpResult(step_ms, self.windows, len(stream), (stream, results))

    def check(self, result):
        # the model is frozen, so every pass must repeat the checked reference pass exactly
        _, results = result.payload
        same = [
            rep.map == ref_rep.map and dets == ref_dets
            for (rep, dets), (ref_rep, ref_dets) in zip(results, self.first["results"])
        ]
        failed = sum(BATCH for ok in same if not ok) + self.first["failed_windows"]
        return self.windows, min(failed, self.windows)

    def _validate(self, stream, results):
        failed = set()
        if stream != self.recording:  # parse_dat(write_dat(x)) must round-trip
            failed.update(range(self.windows))
        for b, (rep, dets) in enumerate(results):
            if not (0.0 <= rep.map <= 1.0 and 0.0 <= rep.map50 <= 1.0):
                failed.update(range(b * BATCH, (b + 1) * BATCH))
            for d in dets:
                if not reference.detection_ok(d, SIZE, SIZE, self.score_threshold):
                    failed.add(d.image_id + b * BATCH)
        return {"results": results, "failed_windows": len(failed),
                "detections": sum(len(d) for _, d in results),
                "map": [rep.map for rep, _ in results]}

    def network(self):
        return self.model.net

    def counts(self):
        """Runs and fully checks the reference pass that later passes must repeat."""
        self.first = first = self._validate(*self.op(0).payload)
        cubes = encoding.batch_cubes([encoding.encode_voxel_cube(s, ENCODER) for s, _ in self._scenes(self.recording)[:BATCH]])
        spikes = probe_spikes(self.model.forward, cubes)
        return {
            "conv_macs_per_sample": conv_macs_per_sample(self.model.net, SIZE, SIZE, TIMESTEPS),
            "graph_nodes": len(self.model.net.spec.nodes),
            "events_parsed": len(self.recording),
            "windows": self.windows,
            "detections": first["detections"],
            "dets_per_window": first["detections"] / self.windows,
            "map_per_batch": first["map"],
            "probe_spikes_per_plif": spikes,
            "probe_spike_rate": _global_rate(spikes),
            "cube_density": float(cubes.mean()),
        }


class Gen1Prep:
    """The paper's dataset preparation: GEN1 ``.dat`` events and ``.npy``
    boxes in, rebalanced and flipped crops encoded, resized to 64x64 and
    serialized out."""

    name = "gen1-prep"
    unit = "crop"

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.recording, self.boxes = inputs.gen1_recording(self.seed)
        self.dat = events.write_dat(self.recording)
        self.npy = inputs.write_npy_boxes(self.boxes)
        self.op(0)  # warm-up pass

    def op(self, i):
        stream = events.parse_dat(self.dat)
        boxes = events.parse_npy_boxes(self.npy, sensor_size=inputs.GEN1_SIZE)
        samples = events.build_classification_dataset([(stream, boxes)], window=inputs.WINDOW_US,
                                                      rebalance=True, seed=self.seed)
        blobs, step_ms = [], []
        for s in samples:
            t0 = time.perf_counter()
            config = EncoderConfig(sample_duration=s.duration, timesteps=TIMESTEPS, micro_bins=MICRO_BINS,
                                   height=s.stream.height, width=s.stream.width)
            cube = encoding.encode_voxel_cube(s.stream, config)
            blobs.append(encoding.write_vxc(encoding.resize_nearest(cube, SIZE, SIZE)))
            step_ms.append((time.perf_counter() - t0) * 1e3)
        return OpResult(step_ms, len(samples), len(stream), (stream, boxes, samples, blobs))

    def check(self, result):
        # same inputs and rebalance seed, so every pass repeats the checked reference pass byte for byte
        blobs = result.payload[3]
        if len(blobs) != len(self.first["blobs"]):
            return max(len(blobs), 1), max(len(blobs), 1)
        failed = sum(1 for a, b in zip(blobs, self.first["blobs"]) if a != b) + self.first["failed"]
        return len(blobs), min(failed, len(blobs))

    def _validate(self, stream, boxes, samples, blobs):
        whole_pass_bad = (
            stream != self.recording  # parse_dat(write_dat(x)) round trip
            or len(boxes) != len(self.boxes)
            or any((a.t, a.x, a.y, a.w, a.h, a.class_id) != (b.t, b.x, b.y, b.w, b.h, b.class_id)
                   for a, b in zip(boxes, self.boxes))
            or len(samples) != reference.expected_crop_count(self.boxes)
        )
        by_key = {}
        for b in self.boxes:
            by_key.setdefault((b.t, b.class_id), []).append(b)
        failed = ones = cells = 0
        for s, blob in zip(samples, blobs):
            cube = encoding.parse_vxc(blob).data
            # the cube must equal the reference encoding of the recording's
            # events in some box with the crop's time, class and size,
            # mirrored for a flipped crop
            mirror = bool(s.metadata.get("flipped"))
            crops = (reference.window_crop(self.recording, b, inputs.WINDOW_US, mirror)
                     for b in by_key.get((s.metadata["t_box"], s.label), ()))
            ok = any(np.array_equal(cube, reference.reference_resized_cube(c, c.duration, TIMESTEPS, MICRO_BINS, SIZE, SIZE))
                     for c in crops if (c.width, c.height, c.duration) == (s.stream.width, s.stream.height, s.duration))
            failed += not ok
            ones += int(cube.sum())
            cells += cube.size
        return {
            "blobs": blobs,
            "failed": len(blobs) if whole_pass_bad else failed,
            "crops": len(samples),
            "flipped": sum(1 for s in samples if s.metadata.get("flipped")),
            "crop_events": sum(len(s.stream) for s in samples),
            "vxc_bytes": sum(len(b) for b in blobs),
            "cube_density": ones / max(cells, 1),
        }

    def network(self):
        return None

    def counts(self):
        """Runs and fully checks the reference pass that later passes must repeat."""
        self.first = first = self._validate(*self.op(0).payload)
        return {
            "events_parsed": len(self.recording),
            "boxes": len(self.boxes),
            "crops": first["crops"],
            "flipped_crops": first["flipped"],
            "crop_events": first["crop_events"],
            "vxc_bytes": first["vxc_bytes"],
            "cube_density": first["cube_density"],
            "conv_macs_per_sample": 0,
        }


WORKLOADS = {w.name: w for w in (DetectTrain, DetectStream, ClassifyTrain, Gen1Prep)}
