"""Spiking layers and the network graph runtime.

A network is described declaratively as a ``NetworkSpec`` (a DAG of layer
descriptors, JSON-serializable) and instantiated as a ``Network`` holding
parameter tensors. ``Network.forward`` visits each node once: values pass
between nodes as T-major (T, C, N, H, W) tensors, all T frames at once, so
frame t is the contiguous channel-major (C, N, H, W) array each conv turns
into one GEMM over the whole batch (see ``autograd.ops``). Layers keep no
per-step state: a PLIF layer's call runs its block over all T frames from
rest, one fused op (``autograd.ops.conv_plif``) whose membrane is a local
of its time loop.

Spikes are one byte: PLIF outputs ``uint8`` arrays, max pooling and concat
pass them on as ``uint8``, batch norm and conv read them into float, and
every gradient is float. ``SpikeRecord`` counts them exactly.

The trailing convs and spatial sums (the SSD heads, the classifier's
spatial sum) commute with the sum over time, so they run once per sample
on the time-summed input: sum_t(W*x_t + b) = W*(sum_t x_t) + T*b. The
time sum (``ag.time_sum``) adds into float32, where spike counts are exact.

``Network`` checks the graph rules once, when it is built (``_schedule``),
and refuses a spec that breaks one with a ValueError naming the node:
- each bn is the only input of exactly one conv that runs every timestep,
  and not an output;
- a bn reads spikes, and a conv reads spikes, its own bn, or the depthwise
  conv its ``pointwise_of`` names (MobileNet's pointwise conv); spikes are
  the input, a plif's output, and max pooling or concat of spikes. At
  inference every conv on spikes only accumulates;
- every plif is a block: the only reader of a conv that runs every
  timestep and is not an output.

A spiking block is bn -> conv -> plif, or conv -> plif (MobileNet's
pointwise conv). ``forward`` skips the block's bn and conv nodes and calls
the plif's layer with the block's input, the conv layer and the bn layer;
the block runs as one op, ``ag.conv_plif``. Per block the training tape
holds one entry: the spikes (1 byte each), the pre-reset membrane (4 bytes
each in float32) and the bn's O(C) statistics per frame. The conv's float
output never reaches it. A bn -> conv pair outside a block (MobileNet's
depthwise conv, read by its pointwise conv) runs in the conv's call as one
op, ``ag.conv2d`` with the bn.

Batch norm keeps no training flag, neither here nor in its ops: it folds
into its conv in both modes, and ``ag.conv2d`` and ``ag.conv_plif`` read
the statistics to fold from the autograd tape. While the tape records they
fold each frame's batch statistics and update the running statistics frame
after frame; under ``ag.no_grad()`` they fold the running statistics,
unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .. import autograd as ag
from ..autograd import Tensor
from ..autograd.checkpoint import check_state
from ..autograd.ops import _out_size


def _bn_args(bn):
    """The ``bn`` argument of ``ag.conv2d`` and ``ag.conv_plif`` for a batch
    norm layer, or None."""
    return None if bn is None else (bn.gamma, bn.beta, bn.running_mean, bn.running_var)


class ConvLayer:
    def __init__(self, name, in_channels, out_channels, kernel, stride=1, padding=None, groups=1, bias=False, rng=None):
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = kernel // 2 if padding is None else padding
        self.groups = groups
        shape = (out_channels, in_channels // groups, kernel, kernel)
        fan_in = (in_channels // groups) * kernel * kernel
        w = np.zeros(shape, dtype=np.float32) if rng is None else ag.kaiming_uniform_init(shape, fan_in, rng)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, dtype=np.float32), requires_grad=True) if bias else None

    def __call__(self, x, steps=1, bn=None):
        """All T frames, (T, C, N, H, W), or one (C, N, H, W) frame, which
        may be the sum of ``steps`` frames: then the bias counts once per
        frame. With ``bn``, the batch norm layer that reads x, the pair runs
        as one op, the batch norm folded into the conv."""
        bias = self.bias if self.bias is None or steps == 1 else self.bias * float(steps)
        return ag.conv2d(x, self.weight, bias, self.stride, self.padding, self.groups, _bn_args(bn))

    def out_shape(self, shape):
        return (self.out_channels, *_out_size(*shape[1:], self.kernel, self.kernel, self.stride, self.padding))

    def params(self):
        out = {f"{self.name}.weight": self.weight}
        if self.bias is not None:
            out[f"{self.name}.bias"] = self.bias
        return out


class BatchNormLayer:
    """A bn node's parameters and running statistics. It has no call of its
    own: it runs in the call of the conv that reads it (``ag.conv2d``) or of
    that conv's plif (``ag.conv_plif``), folded into the conv with batch
    statistics (and a running-statistics update) while the tape records and
    the running statistics under ``ag.no_grad()``."""

    def __init__(self, name, channels):
        self.name = name
        self.channels = channels
        self.gamma = Tensor(np.ones(channels, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def out_shape(self, shape):
        return shape

    def params(self):
        return {f"{self.name}.gamma": self.gamma, f"{self.name}.beta": self.beta}


class PLIFLayer:
    """The paper's PLIF neuron (SpikingJelly's): threshold 1, hard reset to 0
    and 1/tau = sigmoid(w), w learned from 0 (tau = 2). A plif node has no
    settings."""

    def __init__(self, name):
        self.name = name
        self.w = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)

    def __call__(self, x, conv, bn=None):
        """The spikes of this layer's block over all T frames of x,
        (T, C, N, H, W), from rest: x is the input of ``conv``, the conv layer
        whose output this layer reads, or of its ``bn`` layer if it has one.
        The block runs as one op, ``ag.conv_plif``."""
        return ag.conv_plif(x, self.w, conv.weight, conv.bias, conv.stride, conv.padding, conv.groups, _bn_args(bn))

    def out_shape(self, shape):
        return shape

    def params(self):
        return {f"{self.name}.w": self.w}


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
        return ag.concat(list(xs), 1)

    def out_shape(self, *shapes):
        if any(shape[1:] != shapes[0][1:] for shape in shapes):
            raise ValueError(f"{self.name}: concat inputs differ in height or width: {', '.join(map(str, shapes))}")
        return (sum(s[0] for s in shapes), *shapes[0][1:])

    def params(self):
        return {}


class SpatialSumLayer:
    """Sum a (C, N, H, W) map over H and W, producing (N, C) class scores."""

    def __init__(self, name):
        self.name = name

    def __call__(self, x):
        return x.sum(axis=(2, 3)).transpose(1, 0)

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


class SpikeRecord:
    """Per-PLIF-layer spike and element counts over all timesteps."""

    def __init__(self):
        self.spikes = {}
        self.elements = {}

    def add(self, layer, n_spikes, n_elements):
        self.spikes[layer] = self.spikes.get(layer, 0) + n_spikes
        self.elements[layer] = self.elements.get(layer, 0) + n_elements

    def layer_rates(self):
        return {k: (self.spikes[k] / self.elements[k] if self.elements[k] else 0.0) for k in self.spikes}

    def global_rate(self):
        tot_e = sum(self.elements.values())
        return sum(self.spikes.values()) / tot_e if tot_e else 0.0


def _schedule(spec: NetworkSpec):
    """Checks the graph rules (see the module docstring) of a spec whose
    inputs are all defined, in node order, and raises a ValueError naming
    the first node that breaks one. Returns the nodes that run once per
    sample on the time-summed input (a conv or spatial sum, which commute
    with that sum, whose consumers all do), the bn each conv runs in its
    call (conv name -> bn name) and the conv each plif runs in its call
    (plif name -> conv name: its block)."""
    once, read_per_step = set(), set()
    for node in reversed(spec.nodes):  # consumers before producers
        if node["type"] in ("conv", "spatial_sum") and node["name"] not in read_per_step:
            once.add(node["name"])
        else:
            read_per_step.update(node["inputs"])
    readers = {}
    for node in spec.nodes:
        for i in node["inputs"]:
            readers.setdefault(i, []).append(node)
    types = {node["name"]: node["type"] for node in spec.nodes}
    spikes, bn_of, conv_of = {"input"}, {}, {}
    for node in spec.nodes:
        name, typ, inputs = node["name"], node["type"], node["inputs"]
        if typ == "bn":
            read_by = readers.get(name, [])
            if (len(read_by) != 1 or read_by[0]["type"] != "conv" or read_by[0]["inputs"] != [name]
                    or read_by[0]["name"] in once or name in spec.outputs):
                raise ValueError(f"{name}: a bn must be the only input of exactly one conv that runs every "
                                 f"timestep, and not an output; it is read by {[n['name'] for n in read_by]}")
            bn_of[read_by[0]["name"]] = name
        if typ in ("bn", "conv") and not all(i in spikes for i in inputs):
            dwconv = node.get("pointwise_of") if types.get(node.get("pointwise_of")) == "conv" else None
            if typ == "bn" or inputs not in ([bn_of.get(name)], [dwconv]):
                also = "" if typ == "bn" else ", its own bn or the depthwise conv its pointwise_of names"
                raise ValueError(f"{name}: a {typ} must read spikes{also}; it reads {inputs}")
        elif typ == "plif":
            # a conv that a plif reads runs every timestep
            conv = inputs[0] if len(inputs) == 1 else None
            if types.get(conv) != "conv" or len(readers[conv]) != 1 or conv in spec.outputs:
                raise ValueError(f"{name}: a plif must be the only reader of a conv that runs every timestep "
                                 f"and is not an output; it reads {inputs}")
            conv_of[name] = conv
            spikes.add(name)
        elif typ in ("maxpool", "concat") and all(i in spikes for i in inputs):
            spikes.add(name)
    return once, bn_of, conv_of


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
            if name in self.channels:
                raise ValueError(f"{name}: duplicate node name")
            undefined = [i for i in node["inputs"] if i not in self.channels]
            if undefined:
                raise ValueError(f"{name}: inputs {undefined} are not defined by an earlier node")
            cin = sum(self.channels[i] for i in node["inputs"])
            if typ == "conv":
                if "pad_value" in node:  # a conv with a bn folded in, as an earlier exporter wrote it
                    raise ValueError(f"{name}: the conv key 'pad_value' is no longer read; a bn folds into "
                                     f"its conv under no_grad, so export the network with its bn nodes")
                layer = ConvLayer(
                    name, cin, node["out_channels"], node["kernel"],
                    stride=node.get("stride", 1), padding=node.get("padding"),
                    groups=cin if node.get("depthwise") else node.get("groups", 1),
                    bias=node.get("bias", False), rng=rng,
                )
            elif typ == "bn":
                layer = BatchNormLayer(name, cin)
            elif typ == "plif":
                unknown = sorted(set(node) - {"name", "type", "inputs"})
                if unknown:
                    raise ValueError(f"{name}: unknown plif keys {unknown}")
                layer = PLIFLayer(name)
            elif typ == "maxpool":
                layer = MaxPoolLayer(name, node["kernel"], node.get("stride"), node.get("padding", 0))
            elif typ == "concat":
                layer = ConcatLayer(name)
            elif typ == "spatial_sum":
                layer = SpatialSumLayer(name)
            else:
                raise ValueError(f"unknown layer type {typ!r}")
            self.layers[name] = layer
            self.channels[name] = node["out_channels"] if typ == "conv" else cin
        undefined = [o for o in spec.outputs if o not in self.channels]
        if undefined:
            raise ValueError(f"outputs {undefined} are not defined by any node")
        # each bn runs inside the one conv that reads it (ag.conv2d), and
        # each block's conv inside its plif (ag.conv_plif)
        self.once, self.bn_of, self.conv_of = _schedule(spec)

    # -- bookkeeping ----------------------------------------------------------

    def params(self):
        out = {}
        for node in self.spec.nodes:
            out.update(self.layers[node["name"]].params())
        return out

    def param_list(self):
        return list(self.params().values())

    def state_arrays(self):
        """Parameters and BN running statistics by name: what a checkpoint holds."""
        out = {name: p.data for name, p in self.params().items()}
        for name, layer in self.layers.items():
            for buffer in ("running_mean", "running_var"):
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
        """Run a (N, C, T, H, W) batch over all timesteps, visiting each
        node once.

        Returns {output: Tensor}: the value on the time-summed input for a
        node that runs once, all T frames, (T, C, N, H, W), for any other.
        Frames are (C, N, H, W); a spatial sum gives (N, C). Every call
        starts the PLIF membranes from rest. A bn node runs in the call of
        the conv that reads it, a block's conv in the call of its plif. The
        tape reads ``batch`` itself, so it must not change before backward;
        the training loops pass each step a copy.
        """
        if batch.shape[1] != self.spec.input_channels:
            raise ValueError(f"batch has {batch.shape[1]} channels, network expects {self.spec.input_channels}")
        # strided views of the batch: an op copies a frame only while it reads it
        values = {"input": Tensor(batch.transpose(2, 1, 0, 3, 4))}
        inputs_of = {node["name"]: node["inputs"] for node in self.spec.nodes}
        in_call = set(self.bn_of.values()) | set(self.conv_of.values())  # run in the call of their reader
        for node in self.spec.nodes:
            name, inputs, extra = node["name"], node["inputs"], []
            if name in in_call:
                continue
            if name in self.once:
                # each tap is summed once into float32, shared by every node that reads it
                for i in inputs:
                    if i not in self.once and (i, "sum") not in values:
                        values[i, "sum"] = ag.time_sum(values[i])
                inputs = [i if i in self.once else (i, "sum") for i in inputs]
                extra = [batch.shape[2]] if node["type"] == "conv" else []
            elif name in self.bn_of:
                bn = self.bn_of[name]
                inputs, extra = inputs_of[bn], [1, self.layers[bn]]
            elif name in self.conv_of:
                conv = self.conv_of[name]
                bn = self.bn_of.get(conv)
                inputs = inputs_of[conv if bn is None else bn]
                extra = [self.layers[conv], None if bn is None else self.layers[bn]]
            values[name] = out = self.layers[name](*[values[i] for i in inputs], *extra)
            if node["type"] == "plif" and record is not None:
                record.add(name, int(np.count_nonzero(out.data)), out.data.size)
        return {o: values[o] for o in self.spec.outputs}

    def trace_shapes(self, height, width):
        """Propagate (C, H, W) shapes through the graph without executing."""
        shapes = {"input": (self.spec.input_channels, height, width)}
        for node in self.spec.nodes:
            layer = self.layers[node["name"]]
            shapes[node["name"]] = layer.out_shape(*[shapes[i] for i in node["inputs"]])
        return shapes
