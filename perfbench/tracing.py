"""Span tracing from outside the program, for traced runs only.

``Tracer.install`` swaps the program's public functions and methods for
wrappers that record a span (name, start, end, parent) around each call,
and replaces each entry of ``Network.layers`` with a timing proxy.
``Tracer.uninstall`` puts every original back, so an untraced run executes
the program exactly as shipped. Spans stay in memory until the run ends.

A span's self time is its duration minus the time its direct children
cover. Every ``*_ms`` per-layer metric is a self time in milliseconds per
workload step, except ``spiking.forward_ms``, which is the whole
``Network.forward`` including its layers.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from evsnn import autograd as ag
from evsnn import detection, encoding, events, pipeline, tasks
from evsnn.autograd import AdamW, Tensor
from evsnn.detection import DetectionModel
from evsnn.spiking import Network
from workloads import conv_macs

_now = time.perf_counter_ns

# (owner, attribute, span name). pipeline and tasks bind some helpers by
# name at import, so those names are wrapped where they are looked up.
TRACED_CALLS = (
    (pipeline, "train_detector", "pipeline.train_detector"),
    (pipeline, "train_classifier", "pipeline.train_classifier"),
    (pipeline, "evaluate_detector", "pipeline.evaluate_detector"),
    (events, "parse_dat", "events.parse_dat"),
    (events, "parse_npy_boxes", "events.parse_npy_boxes"),
    (events, "build_classification_dataset", "events.build_classification_dataset"),
    (events, "slice_time", "events.slice_time"),
    (encoding, "encode_voxel_cube", "encoding.encode_voxel_cube"),
    (pipeline, "encode_voxel_cube", "encoding.encode_voxel_cube"),
    (tasks, "encode_voxel_cube", "encoding.encode_voxel_cube"),
    (encoding, "resize_nearest", "encoding.resize_nearest"),
    (encoding, "write_vxc", "encoding.write_vxc"),
    (Network, "forward", "spiking.forward"),
    (DetectionModel, "forward", "detection.model_forward"),
    (Tensor, "backward", "autograd.backward"),
    (pipeline, "clip_grad_norm", "autograd.clip_grad_norm"),
    (AdamW, "step", "autograd.adamw_step"),
    (ag, "softmax_cross_entropy", "autograd.softmax_cross_entropy"),
    (pipeline, "detection_loss", "detection.detection_loss"),
    (pipeline, "build_anchor_targets", "detection.build_anchor_targets"),
    (pipeline, "decode_detections", "detection.decode_detections"),
    (detection, "nms", "detection.nms"),
    (pipeline, "coco_map", "metrics.coco_map"),
)

ROOT_SPAN = "bench.op"

# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "events.parse_ms": ("events.parse_dat", "events.parse_npy_boxes"),
    "events.dataset_ms": ("events.build_classification_dataset",),
    "events.slice_ms": ("events.slice_time",),
    "encoding.encode_ms": ("encoding.encode_voxel_cube",),
    "encoding.resize_ms": ("encoding.resize_nearest",),
    "encoding.vxc_ms": ("encoding.write_vxc",),
    "spiking.walk_ms": ("spiking.forward",),
    "spiking.conv_ms": ("spiking.conv",),
    "spiking.bn_ms": ("spiking.bn",),
    "spiking.plif_ms": ("spiking.plif",),
    "spiking.pool_ms": ("spiking.pool",),
    "spiking.concat_ms": ("spiking.concat",),
    "spiking.head_ms": ("spiking.head",),
    "autograd.backward_ms": ("autograd.backward",),
    "autograd.optim_ms": ("autograd.clip_grad_norm", "autograd.adamw_step"),
    "autograd.ce_ms": ("autograd.softmax_cross_entropy",),
    "detection.gather_ms": ("detection.model_forward",),
    "detection.loss_ms": ("detection.detection_loss",),
    "detection.targets_ms": ("detection.build_anchor_targets",),
    "detection.decode_ms": ("detection.decode_detections",),
    "detection.nms_ms": ("detection.nms",),
    "metrics.coco_map_ms": ("metrics.coco_map",),
    "pipeline.self_ms": ("pipeline.train_detector", "pipeline.train_classifier", "pipeline.evaluate_detector"),
    "bench.self_ms": (ROOT_SPAN,),
}
INCLUSIVE_METRICS = {"spiking.forward_ms": ("spiking.forward",)}

_LAYER_KIND = {"conv": "spiking.conv", "bn": "spiking.bn", "plif": "spiking.plif",
               "maxpool": "spiking.pool", "concat": "spiking.concat", "spatial_sum": "spiking.head"}


def layer_kind(spec, node):
    """Span name for a graph node. Head nodes are the network outputs (SSD
    head convs, the classifier's spatial sum) and the classifier head block,
    which the builders name ``head_*``."""
    if node["name"] in spec.outputs or node["name"].startswith("head_"):
        return "spiking.head"
    return _LAYER_KIND[node["type"]]


class LayerProxy:
    """Stands in for a layer in ``Network.layers``: times each call and
    forwards every attribute read and write to the real layer."""

    __slots__ = ("_layer", "_kind", "_node", "_tracer", "_is_conv", "_is_plif")

    def __init__(self, layer, kind, node, tracer):
        # MACs are counted for the convs timed as spiking.conv, so that
        # conv_gmac_per_s divides like by like; head convs are left out
        for name, value in (("_layer", layer), ("_kind", kind), ("_node", node["name"]), ("_tracer", tracer),
                            ("_is_conv", kind == "spiking.conv"), ("_is_plif", node["type"] == "plif")):
            object.__setattr__(self, name, value)

    def __getattr__(self, name):
        return getattr(self._layer, name)

    def __setattr__(self, name, value):
        setattr(self._layer, name, value)

    def __call__(self, *xs):
        tracer = self._tracer
        index = tracer.open(self._kind, self._node)
        try:
            out = self._layer(*xs)
        finally:
            tracer.close(index)
        tracer.layer_calls += 1
        if self._is_conv:
            n, _, ho, wo = out.data.shape
            tracer.conv_macs += conv_macs(self._layer, n, ho, wo)
        elif self._is_plif:
            tracer.spikes += int(np.count_nonzero(out.data))
            tracer.spike_elements += out.data.size
        return out


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, graph node or None]
        self._stack = []
        self._undo = []
        self.tape_ops = 0
        self.layer_calls = 0
        self.conv_macs = 0
        self.spikes = 0
        self.spike_elements = 0

    def open(self, name, node=None):
        self.spans.append([name, _now(), 0, self._stack[-1] if self._stack else -1, node])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = _now()
        self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def _patch(self, owner, attr, make):
        """Set owner.attr to make(original) and remember the original."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def install(self, net: Network | None):
        for owner, attr, name in TRACED_CALLS:
            self._patch(owner, attr, lambda fn, name=name: self._wrap(fn, name))

        def count_tape_ops(original):
            from_op = original.__func__

            def counted_from_op(data, parents, backward):
                self.tape_ops += 1
                return from_op(data, parents, backward)
            return staticmethod(counted_from_op)

        self._patch(Tensor, "from_op", count_tape_ops)
        if net is not None:
            for node in net.spec.nodes:
                name = node["name"]
                self._undo.append((net.layers, name, net.layers[name]))
                net.layers[name] = LayerProxy(net.layers[name], layer_kind(net.spec, node), node, self)

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def self_times(self):
        """{span name: [calls, inclusive ns, self ns]}."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table = {}
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            row = table.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - children
        return table

    def node_times(self):
        """{graph node: [calls, ns]} for the layer proxies (layers have no
        traced children, so inclusive equals self)."""
        table = {}
        for name, start, end, _, node in self.spans:
            if node is not None:
                row = table.setdefault(node, [0, 0])
                row[0] += 1
                row[1] += end - start
        return table

    def layer_metrics(self, steps):
        """Per-layer metrics per workload step from the recorded spans."""
        table = self.self_times()
        out = {}
        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = sum(table.get(n, (0, 0, 0))[2] for n in names) / 1e6 / steps
        for metric, names in INCLUSIVE_METRICS.items():
            out[metric] = sum(table.get(n, (0, 0, 0))[1] for n in names) / 1e6 / steps
        conv_s = table.get("spiking.conv", (0, 0, 0))[2] / 1e9
        out["spiking.conv_gmac_per_s"] = self.conv_macs / conv_s / 1e9 if conv_s else 0.0
        out["spiking.layer_calls"] = self.layer_calls / steps
        out["spiking.spike_rate"] = self.spikes / self.spike_elements if self.spike_elements else 0.0
        out["autograd.tape_ops"] = self.tape_ops / steps
        return out

    def dump(self):
        t0 = self.spans[0][1] if self.spans else 0
        return [{"name": n, "start_us": (s - t0) / 1e3, "end_us": (e - t0) / 1e3, "parent": p, **({"node": d} if d else {})}
                for n, s, e, p, d in self.spans]
