"""Spiking layers and the network graph runtime.

A network is described declaratively as a ``NetworkSpec`` (a DAG of layer
descriptors, JSON-serializable) and instantiated as a ``Network`` holding
parameter tensors. Execution is stepwise: one (N, C, H, W) frame per
timestep. Layers keep no per-step state: ``Network.forward`` holds the PLIF
membranes in a dict local to the call and carries them between steps.

The trailing convs and spatial sums (the SSD heads, the classifier's
spatial sum) commute with the sum over time, so they run once per sample
on the time-summed input: sum_t(W*x_t + b) = W*(sum_t x_t) + T*b.

Batch norm takes its mode from the autograd tape: while the tape records it
normalizes with batch statistics and updates its running statistics; under
``ag.no_grad()`` it uses the running statistics and leaves them unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .. import autograd as ag
from ..autograd import Tensor
from ..autograd.checkpoint import check_state
from ..autograd.ops import _out_size


@dataclass(frozen=True)
class PLIFConfig:
    """The paper's PLIF neuron (SpikingJelly's definition): threshold 1 and
    hard reset to 0 are constants; tau = 1/sigmoid(w) is learned unless
    ``learnable_tau`` is off (a plain LIF neuron with tau = tau_init)."""

    tau_init: float = 2.0
    alpha: float = 2.0  # surrogate width
    learnable_tau: bool = True

    def __post_init__(self):
        if self.tau_init <= 1.0:
            raise ValueError("tau_init must be > 1 for a stable leak")


def plif_step(state, x, config: PLIFConfig, inv_tau):
    """One membrane update: v = V + (X - V) / tau, spike s = H(v - 1), then
    hard reset V' = v (1 - s). Returns (spikes, V').

    ``inv_tau`` is 1/tau, either a float or a scalar Tensor (learnable).
    ``state`` is None on the first step, a membrane at rest (0), so v = X / tau.
    """
    v = x * inv_tau if state is None else state + (x - state) * inv_tau
    spikes = ag.heaviside_surrogate(v - 1.0, config.alpha)
    return spikes, v * (1.0 - spikes)


class ConvLayer:
    def __init__(self, name, in_channels, out_channels, kernel, stride=1, padding=None, groups=1, bias=False,
                 pad_value=False, rng=None):
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = kernel // 2 if padding is None else padding
        self.groups = groups
        fan_in = (in_channels // groups) * kernel * kernel
        if rng is None:
            w = np.zeros((out_channels, in_channels // groups, kernel, kernel), dtype=np.float32)
        else:
            w = ag.kaiming_uniform_init((out_channels, in_channels // groups, kernel, kernel), fan_in, rng)
        self.weight = Tensor(w, requires_grad=True, name=f"{name}.weight")
        self.bias = Tensor(np.zeros(out_channels, dtype=np.float32), requires_grad=True, name=f"{name}.bias") if bias else None
        # per-input-channel constant used instead of zero padding; filled by
        # BN fusion so a folded bn -> conv stays exact at the borders
        self.pad_value = np.zeros(in_channels, dtype=np.float32) if pad_value else None

    def __call__(self, x, steps=1):
        """One frame, or the sum of ``steps`` frames: then the bias and the
        border value count once per frame."""
        bias = self.bias if self.bias is None or steps == 1 else self.bias * float(steps)
        pad_value = None if self.pad_value is None else self.pad_value * np.float32(steps)
        return ag.conv2d(x, self.weight, bias, self.stride, self.padding, self.groups, pad_value)

    def out_shape(self, shape):
        return (self.out_channels, *_out_size(*shape[1:], self.kernel, self.kernel, self.stride, self.padding))

    def params(self):
        out = {f"{self.name}.weight": self.weight}
        if self.bias is not None:
            out[f"{self.name}.bias"] = self.bias
        return out


class BatchNormLayer:
    """Batch statistics (and a running-statistics update) while the tape
    records; the running statistics under ``ag.no_grad()``."""

    momentum = 0.1
    eps = 1e-5

    def __init__(self, name, channels):
        self.name = name
        self.channels = channels
        self.gamma = Tensor(np.ones(channels, dtype=np.float32), requires_grad=True, name=f"{name}.gamma")
        self.beta = Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True, name=f"{name}.beta")
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def __call__(self, x):
        return ag.batchnorm2d(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            training=ag.grad_enabled(), momentum=self.momentum, eps=self.eps,
        )

    def out_shape(self, shape):
        return shape

    def params(self):
        return {f"{self.name}.gamma": self.gamma, f"{self.name}.beta": self.beta}


class PLIFLayer:
    def __init__(self, name, config: PLIFConfig):
        self.name = name
        self.config = config
        if config.learnable_tau:
            # 1/tau = sigmoid(w); w chosen so tau starts at tau_init
            w0 = -math.log(config.tau_init - 1.0)
            self.w = Tensor(np.asarray([w0], dtype=np.float32), requires_grad=True, name=f"{name}.w")
        else:
            self.w = None

    def inv_tau(self):
        if self.w is not None:
            return ag.sigmoid(self.w)
        return 1.0 / self.config.tau_init

    def __call__(self, x, membranes):
        """One timestep. Reads this layer's membrane from ``membranes`` (none
        on the first step), stores the updated one there, returns spikes."""
        spikes, membranes[self.name] = plif_step(membranes.get(self.name), x, self.config, self.inv_tau())
        return spikes

    def out_shape(self, shape):
        return shape

    def params(self):
        return {f"{self.name}.w": self.w} if self.w is not None else {}


class MaxPoolLayer:
    def __init__(self, name, kernel, stride=None, padding=0):
        self.name = name
        self.kernel = kernel
        self.stride = stride if stride is not None else kernel
        self.padding = padding

    def __call__(self, x):
        return ag.maxpool2d(x, self.kernel, self.stride, self.padding)

    def out_shape(self, shape):
        return (shape[0], *_out_size(*shape[1:], self.kernel, self.kernel, self.stride, self.padding))

    def params(self):
        return {}


class ConcatLayer:
    def __init__(self, name):
        self.name = name

    def __call__(self, *xs):
        return ag.concat_channels(list(xs))

    def out_shape(self, *shapes):
        c = sum(s[0] for s in shapes)
        return (c, shapes[0][1], shapes[0][2])

    def params(self):
        return {}


class SpatialSumLayer:
    """Sum over H and W, producing (N, C) class scores."""

    def __init__(self, name):
        self.name = name

    def __call__(self, x):
        return x.sum(axis=(2, 3))

    def out_shape(self, shape):
        return (shape[0], 1, 1)

    def params(self):
        return {}


@dataclass
class NetworkSpec:
    """Declarative architecture graph; single source of truth for the
    trainer and the counting tools."""

    input_channels: int
    nodes: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    name: str = "net"

    def add(self, name, type, inputs, **params):
        self.nodes.append({"name": name, "type": type, "inputs": list(inputs), **params})
        return name

    def to_json(self, indent=2):
        return json.dumps(
            {"name": self.name, "input_channels": self.input_channels, "outputs": self.outputs, "nodes": self.nodes},
            indent=indent,
        )

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(input_channels=d["input_channels"], nodes=d["nodes"], outputs=d["outputs"], name=d.get("name", "net"))

    def node(self, name):
        for n in self.nodes:
            if n["name"] == name:
                return n
        raise KeyError(name)


class SpikeRecord:
    """Per-PLIF-layer spike and element counts, accumulated per timestep."""

    def __init__(self):
        self.spikes = {}
        self.elements = {}
        self.steps = 0

    def add(self, layer, n_spikes, n_elements):
        self.spikes[layer] = self.spikes.get(layer, 0.0) + n_spikes
        self.elements[layer] = self.elements.get(layer, 0) + n_elements

    def layer_rates(self):
        return {k: (self.spikes[k] / self.elements[k] if self.elements[k] else 0.0) for k in self.spikes}

    def global_rate(self):
        tot_e = sum(self.elements.values())
        return sum(self.spikes.values()) / tot_e if tot_e else 0.0


def _plif_config_from_node(node):
    keys = {k: v for k, v in node.items() if k not in ("name", "type", "inputs")}
    unknown = sorted(set(keys) - {f.name for f in fields(PLIFConfig)})
    if unknown:
        raise ValueError(f"{node['name']}: unknown plif keys {unknown}")
    return PLIFConfig(**keys)


class Network:
    """Runtime instantiation of a NetworkSpec."""

    def __init__(self, spec: NetworkSpec, rng=None):
        """Convolution weights are Kaiming-uniform draws from ``rng``, or
        zeros when ``rng`` is None (for counting, or to load state into)."""
        self.spec = spec
        self.layers = {}
        self.channels = {"input": spec.input_channels}
        for node in spec.nodes:
            name, typ = node["name"], node["type"]
            cin = sum(self.channels[i] for i in node["inputs"])
            if typ == "conv":
                layer = ConvLayer(
                    name, cin, node["out_channels"], node["kernel"],
                    stride=node.get("stride", 1), padding=node.get("padding"),
                    groups=cin if node.get("depthwise") else node.get("groups", 1),
                    bias=node.get("bias", False), pad_value=node.get("pad_value", False), rng=rng,
                )
                self.channels[name] = node["out_channels"]
            elif typ == "bn":
                layer = BatchNormLayer(name, cin)
                self.channels[name] = cin
            elif typ == "plif":
                layer = PLIFLayer(name, _plif_config_from_node(node))
                self.channels[name] = cin
            elif typ == "maxpool":
                layer = MaxPoolLayer(name, node["kernel"], node.get("stride"), node.get("padding", 0))
                self.channels[name] = cin
            elif typ == "concat":
                layer = ConcatLayer(name)
                self.channels[name] = cin
            elif typ == "spatial_sum":
                layer = SpatialSumLayer(name)
                self.channels[name] = cin
            else:
                raise ValueError(f"unknown layer type {typ!r}")
            self.layers[name] = layer
        # the nodes that run once per sample on the time-summed input: a conv
        # or spatial sum (they commute with that sum) whose consumers all do
        self.once, read_per_step = set(), set()
        for node in reversed(spec.nodes):  # consumers before producers
            if node["type"] in ("conv", "spatial_sum") and node["name"] not in read_per_step:
                self.once.add(node["name"])
            else:
                read_per_step.update(node["inputs"])

    # -- bookkeeping ----------------------------------------------------------

    def params(self):
        out = {}
        for node in self.spec.nodes:
            out.update(self.layers[node["name"]].params())
        return out

    def param_list(self):
        return list(self.params().values())

    def state_arrays(self):
        """Parameters, BN running statistics and fused-conv pad values by name: what a checkpoint holds."""
        out = {name: p.data for name, p in self.params().items()}
        for name, layer in self.layers.items():
            for buffer in ("running_mean", "running_var", "pad_value"):
                value = getattr(layer, buffer, None)
                if value is not None:
                    out[f"{name}.{buffer}"] = value
        return out

    def load_state_arrays(self, arrays):
        """Inverse of ``state_arrays``. Raises ValueError naming every
        missing, unexpected or misshapen entry, before loading any."""
        check_state(self.state_arrays(), arrays, "state does not match the network")
        params = self.params()
        for name, arr in arrays.items():
            arr = np.array(arr, dtype=np.float32)
            if name in params:
                params[name].data = arr
            else:
                layer, buffer = name.rsplit(".", 1)
                setattr(self.layers[layer], buffer, arr)

    # -- execution ------------------------------------------------------------

    def forward(self, batch, record: SpikeRecord | None = None):
        """Run a (N, C, T, H, W) batch over all timesteps.

        Returns {tap: value}: one Tensor summed over time for the nodes that
        run once, a list of one Tensor per timestep for the others. The
        PLIF membranes live only in this call, so every call starts from rest.
        """
        if batch.shape[1] != self.spec.input_channels:
            raise ValueError(f"batch has {batch.shape[1]} channels, network expects {self.spec.input_channels}")
        steps = batch.shape[2]
        stepwise = [node for node in self.spec.nodes if node["name"] not in self.once]
        once = [node for node in self.spec.nodes if node["name"] in self.once]
        summed = list(dict.fromkeys(i for node in once for i in node["inputs"] if i not in self.once))
        per_step = {tap: [] for tap in summed + [o for o in self.spec.outputs if o not in self.once]}
        membranes = {}
        for t in range(steps):
            values = {"input": Tensor(np.ascontiguousarray(batch[:, :, t]))}
            for node in stepwise:
                name, extra = node["name"], [membranes] if node["type"] == "plif" else []
                values[name] = out = self.layers[name](*[values[i] for i in node["inputs"]], *extra)
                if extra and record is not None:
                    record.add(name, float(out.data.sum()), out.data.size)
            for tap, seq in per_step.items():
                seq.append(values[tap])
        if record is not None:
            record.steps += steps
        # each tap is summed once (T - 1 adds), shared by every node that
        # reads it; the sum's backward hands every timestep the same gradient
        values = {tap: sum(per_step[tap][1:], per_step[tap][0]) for tap in summed}
        for node in once:
            name, extra = node["name"], [steps] if node["type"] == "conv" else []
            values[name] = self.layers[name](*[values[i] for i in node["inputs"]], *extra)
        return {o: values[o] if o in self.once else per_step[o] for o in self.spec.outputs}

    def trace_shapes(self, height, width):
        """Propagate (C, H, W) shapes through the graph without executing."""
        shapes = {"input": (self.spec.input_channels, height, width)}
        for node in self.spec.nodes:
            layer = self.layers[node["name"]]
            shapes[node["name"]] = layer.out_shape(*[shapes[i] for i in node["inputs"]])
        return shapes


def audit_spike_purity(spec: NetworkSpec, allow_dwsep=False):
    """Check that convolutions only ever see binary spike tensors or the
    immediately preceding BN output. Returns a list of violations."""
    kind = {"input": "binary"}
    violations = []
    for node in spec.nodes:
        name, typ = node["name"], node["type"]
        in_kinds = [kind[i] for i in node["inputs"]]
        if typ == "plif":
            kind[name] = "binary"
        elif typ == "bn":
            if in_kinds[0] != "binary":
                violations.append(f"{name}: bn input is {in_kinds[0]}, not spikes")
            kind[name] = "bn"
        elif typ == "conv":
            ok = in_kinds[0] in ("binary", "bn")
            if not ok and allow_dwsep and node.get("pointwise_of"):
                ok = True
            if not ok:
                violations.append(f"{name}: conv input is {in_kinds[0]}, not spikes or a preceding bn")
            kind[name] = "conv"
        elif typ in ("maxpool", "concat"):
            if all(k == "binary" for k in in_kinds):
                kind[name] = "binary"
            else:
                kind[name] = "real"
        elif typ == "spatial_sum":
            kind[name] = "real"
        else:
            kind[name] = "real"
    return violations
