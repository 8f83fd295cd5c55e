"""Spiking layers and the network graph runtime.

A network is described declaratively as a ``NetworkSpec`` (a DAG of layer
descriptors, JSON-serializable) and instantiated as a ``Network`` holding
parameter tensors. Execution is stepwise: one channel-major (C, N, H, W)
frame per timestep, so each convolution is one GEMM over the whole batch
(see ``autograd.ops``). Layers keep no per-step state: ``Network.forward``
holds the PLIF membranes in a dict local to the call and carries them
between steps. Each PLIF step is one fused op, ``autograd.ops.plif``; a
layer's entry in that dict is the (membrane, spikes, link) triple the op
returns; through the link the next step's backward reads the pre-reset
membrane and hands the membrane's gradient back.

Spikes are one byte: PLIF outputs ``uint8`` arrays, max pooling and concat
pass them on as ``uint8``, batch norm and conv read them into float, and
every gradient is float. ``SpikeRecord`` counts them exactly.

The trailing convs and spatial sums (the SSD heads, the classifier's
spatial sum) commute with the sum over time, so they run once per sample
on the time-summed input: sum_t(W*x_t + b) = W*(sum_t x_t) + T*b. The
time sum (``ag.time_sum``) adds into float32, where spike counts are exact.

Batch norm keeps no training flag, neither here nor in its ops:
``ag.batchnorm2d`` and ``ag.bn_conv`` read the mode from the autograd tape.
While the tape records they normalize with batch statistics and update the
running statistics; under ``ag.no_grad()`` they use the running statistics
and leave them unchanged. Each bn is the only input of exactly one conv,
which ``Network`` checks at build time: ``forward`` skips the bn node and
calls the conv's layer with the bn's input and the bn layer. The pair is
one op, ``ag.bn_conv``: one tape entry, or under ``ag.no_grad()`` the bn
folded into the conv.

A spiking block is a conv that runs every timestep, is not an output and is
read by one plif alone, with the conv's bn if it has one: bn -> conv ->
plif, or conv -> plif (MobileNet's pointwise conv, which reads its
depthwise conv). ``forward`` skips the block's bn and conv nodes and calls
the plif's layer with the block's input, the conv layer and the bn layer;
the block runs as one op, ``ag.conv_plif``. Per block and timestep the
training tape holds one entry: the spikes (1 byte each), the pre-reset
membrane (4 bytes each in float32) and the bn's O(C) statistics. The
conv's float output never reaches it. A bn -> conv pair outside a block
(MobileNet's depthwise conv, read by its pointwise conv) is ``ag.bn_conv``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .. import autograd as ag
from ..autograd import Tensor
from ..autograd.checkpoint import check_state
from ..autograd.ops import _out_size


class ConvLayer:
    def __init__(self, name, in_channels, out_channels, kernel, stride=1, padding=None, groups=1, bias=False, rng=None):
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

    def __call__(self, x, steps=1, bn=None):
        """One frame, or the sum of ``steps`` frames: then the bias counts
        once per frame. With ``bn``, the batch norm layer that reads x, the
        pair runs as one op, ``ag.bn_conv``."""
        bias = self.bias if self.bias is None or steps == 1 else self.bias * float(steps)
        if bn is None:
            return ag.conv2d(x, self.weight, bias, self.stride, self.padding, self.groups)
        return ag.bn_conv(x, bn.gamma, bn.beta, bn.running_mean, bn.running_var, self.weight, bias, self.stride,
                          self.padding, self.groups)

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

    def __init__(self, name, channels):
        self.name = name
        self.channels = channels
        self.gamma = Tensor(np.ones(channels, dtype=np.float32), requires_grad=True, name=f"{name}.gamma")
        self.beta = Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True, name=f"{name}.beta")
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def __call__(self, x):
        return ag.batchnorm2d(x, self.gamma, self.beta, self.running_mean, self.running_var)

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
        self.w = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True, name=f"{name}.w")

    def __call__(self, x, membranes, conv=None, bn=None):
        """One timestep. Reads this layer's state from ``membranes`` (none on
        the first step), stores the next one there, returns spikes. With
        ``conv``, the conv layer whose output this layer reads, and its
        ``bn`` layer if it has one, x is their input and the block runs as
        one op, ``ag.conv_plif``."""
        state = membranes.get(self.name)
        if conv is None:
            spikes, membranes[self.name] = ag.plif(x, state, self.w)
        else:
            norm = None if bn is None else (bn.gamma, bn.beta, bn.running_mean, bn.running_var)
            spikes, membranes[self.name] = ag.conv_plif(x, state, self.w, conv.weight, conv.bias, conv.stride,
                                                        conv.padding, conv.groups, norm)
        return spikes

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
        return ag.concat(list(xs), 0)

    def out_shape(self, *shapes):
        c = sum(s[0] for s in shapes)
        return (c, shapes[0][1], shapes[0][2])

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

    def add(self, layer, n_spikes, n_elements):
        self.spikes[layer] = self.spikes.get(layer, 0) + n_spikes
        self.elements[layer] = self.elements.get(layer, 0) + n_elements

    def layer_rates(self):
        return {k: (self.spikes[k] / self.elements[k] if self.elements[k] else 0.0) for k in self.spikes}

    def global_rate(self):
        tot_e = sum(self.elements.values())
        return sum(self.spikes.values()) / tot_e if tot_e else 0.0


def _schedule(spec: NetworkSpec):
    """For a spec whose inputs are all defined: the nodes that run once per
    sample on the time-summed input (a conv or spatial sum, which commute
    with that sum, whose consumers all do), the bn each conv runs in its
    call (conv name -> bn name), the conv each plif runs in its call (plif
    name -> conv name: a spiking block), and a message naming each bn that
    cannot."""
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
    bn_of, problems = {}, []
    for node in (n for n in spec.nodes if n["type"] == "bn"):
        name, read_by = node["name"], readers.get(node["name"], [])
        if (len(read_by) != 1 or read_by[0]["type"] != "conv" or read_by[0]["inputs"] != [name]
                or read_by[0]["name"] in once or name in spec.outputs):
            problems.append(f"{name}: a bn must be the only input of exactly one conv that runs every "
                            f"timestep, and not an output; it is read by {[n['name'] for n in read_by]}")
        else:
            bn_of[read_by[0]["name"]] = name
    # a conv that runs every timestep, is no output and is read by one plif
    # alone runs in that plif's call
    convs = {n["name"] for n in spec.nodes if n["type"] == "conv"} - once - set(spec.outputs)
    conv_of = {read_by[0]["name"]: name for name, read_by in readers.items()
               if name in convs and len(read_by) == 1 and read_by[0]["type"] == "plif"}
    return once, bn_of, conv_of, problems


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
        # each bn runs inside the one conv that reads it (ag.bn_conv), and
        # each block's conv inside its plif (ag.conv_plif)
        self.once, self.bn_of, self.conv_of, problems = _schedule(spec)
        if problems:
            raise ValueError(problems[0])

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
        """Run a (N, C, T, H, W) batch over all timesteps.

        Returns {tap: value}: one Tensor summed over time for the nodes that
        run once, a list of one Tensor per timestep for the others. Maps are
        (C, N, H, W); a spatial sum gives (N, C). The PLIF membranes live
        only in this call, so every call starts from rest. A bn node runs in
        the call of the conv that reads it, a block's conv in the call of
        its plif.
        """
        if batch.shape[1] != self.spec.input_channels:
            raise ValueError(f"batch has {batch.shape[1]} channels, network expects {self.spec.input_channels}")
        steps = batch.shape[2]
        stepwise = [node for node in self.spec.nodes if node["name"] not in self.once]
        once = [node for node in self.spec.nodes if node["name"] in self.once]
        summed = list(dict.fromkeys(i for node in once for i in node["inputs"] if i not in self.once))
        per_step = {tap: [] for tap in summed + [o for o in self.spec.outputs if o not in self.once]}
        membranes = {}
        calls = []  # (name, layer, inputs, extra arguments, is plif)
        inputs_of = {node["name"]: node["inputs"] for node in stepwise}
        in_call = set(self.bn_of.values()) | set(self.conv_of.values())  # run in the call of their reader
        for node in stepwise:
            name, inputs, extra = node["name"], node["inputs"], []
            if name in in_call:
                continue
            if name in self.bn_of:
                bn = self.bn_of[name]
                inputs, extra = inputs_of[bn], [1, self.layers[bn]]
            elif name in self.conv_of:
                conv = self.conv_of[name]
                bn = self.bn_of.get(conv)
                inputs = inputs_of[conv if bn is None else bn]
                extra = [membranes, self.layers[conv], None if bn is None else self.layers[bn]]
            elif node["type"] == "plif":
                extra = [membranes]
            calls.append((name, self.layers[name], inputs, extra, node["type"] == "plif"))
        for t in range(steps):
            values = {"input": Tensor(np.ascontiguousarray(batch[:, :, t].transpose(1, 0, 2, 3)))}
            for name, layer, inputs, extra, is_plif in calls:
                values[name] = out = layer(*[values[i] for i in inputs], *extra)
                if is_plif and record is not None:
                    record.add(name, int(np.count_nonzero(out.data)), out.data.size)
            for tap, seq in per_step.items():
                seq.append(values[tap])
        # each tap is summed once into float32 (spike counts are exact), shared
        # by every node that reads it
        values = {tap: ag.time_sum(per_step[tap]) for tap in summed}
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
    immediately preceding BN output, and that each bn pairs with its conv
    (``Network`` raises the same message). Returns a list of violations;
    raises ValueError naming the node that reads an undefined input."""
    kind = {"input": "binary"}
    violations = []
    for node in spec.nodes:
        name, typ = node["name"], node["type"]
        undefined = [i for i in node["inputs"] if i not in kind]
        if undefined:
            raise ValueError(f"{name}: inputs {undefined} are not defined by an earlier node")
        in_kinds = [kind[i] for i in node["inputs"]]
        if typ == "plif":
            kind[name] = "binary"
        elif typ == "bn":
            if in_kinds[0] != "binary":
                violations.append(f"{name}: bn input is {in_kinds[0]}, not spikes")
            kind[name] = "bn"
        elif typ == "conv":
            if in_kinds[0] not in ("binary", "bn") and not (allow_dwsep and node.get("pointwise_of")):
                violations.append(f"{name}: conv input is {in_kinds[0]}, not spikes or a preceding bn")
            kind[name] = "conv"
        elif typ in ("maxpool", "concat") and all(k == "binary" for k in in_kinds):
            kind[name] = "binary"
        else:
            kind[name] = "real"
    return violations + _schedule(spec)[-1]
