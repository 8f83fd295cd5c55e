"""Spiking architecture builders.

Every block follows the same grammar: batch normalization, then a
convolution, then PLIF neurons (bn -> conv -> plif), with max pooling and
channel concatenation as the only other structural ops. Every neuron is
the paper's PLIF neuron: threshold 1 and hard reset to 0. The classifier
is spike-compatible: bn -> 1x1 conv to num_classes -> plif -> spatial sum,
taken once over the spikes summed over time (see ``Network.forward``).

MobileNet is built depthwise-separable; its dense form (each pair folded
into one convolution) comes from ``transforms.convert_dwsep_network``.
"""

from __future__ import annotations

from .layers import NetworkSpec


class _Builder:
    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self.counter = 0

    def _name(self, kind):
        self.counter += 1
        return f"{kind}{self.counter}"

    def conv_block(self, src, out_channels, kernel=3, stride=1, padding=None, prefix=None):
        """bn -> conv -> plif."""
        p = prefix or self._name("blk")
        cur = self.spec.add(f"{p}_bn", "bn", [src])
        cur = self.spec.add(
            f"{p}_conv", "conv", [cur], out_channels=out_channels, kernel=kernel, stride=stride,
            **({"padding": padding} if padding is not None else {}),
        )
        return self.spec.add(f"{p}_plif", "plif", [cur])

    def maxpool(self, src, kernel=2, stride=None, padding=0, prefix=None):
        p = prefix or self._name("pool")
        return self.spec.add(p, "maxpool", [src], kernel=kernel, stride=stride, padding=padding)

    def concat(self, srcs, prefix=None):
        p = prefix or self._name("cat")
        return self.spec.add(p, "concat", srcs)

    def classifier(self, src, num_classes):
        cur = self.conv_block(src, num_classes, kernel=1, prefix="head")
        self.spec.add("scores", "spatial_sum", [cur])
        self.spec.outputs.append("scores")
        return "scores"


_VGG_CFGS = {
    11: [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    13: [64, 64, "M", 128, 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    16: [64, 64, "M", 128, 128, "M", 256, 256, 256, "M", 512, 512, 512, "M", 512, 512, 512, "M"],
}


def build_vgg(variant=11, num_classes=2, in_channels=4):
    if variant not in _VGG_CFGS:
        raise ValueError(f"unknown VGG variant {variant}; choose from {sorted(_VGG_CFGS)}")
    spec = NetworkSpec(input_channels=in_channels, name=f"vgg{variant}")
    b = _Builder(spec)
    cur = "input"
    for item in _VGG_CFGS[variant]:
        if item == "M":
            cur = b.maxpool(cur, kernel=2)
        else:
            cur = b.conv_block(cur, item, kernel=3)
    b.classifier(cur, num_classes)
    return spec


_FIRE_CFGS = {
    # version: (conv1 filters, conv1 kernel, pool positions, fire configs)
    "1.0": (96, 7, {2, 4, 8}, [(16, 64, 64), (16, 64, 64), (32, 128, 128), (32, 128, 128),
                               (48, 192, 192), (48, 192, 192), (64, 256, 256), (64, 256, 256)]),
    "1.1": (64, 3, {2, 3, 5}, [(16, 64, 64), (16, 64, 64), (32, 128, 128), (32, 128, 128),
                               (48, 192, 192), (48, 192, 192), (64, 256, 256), (64, 256, 256)]),
}


def build_squeezenet(version="1.1", num_classes=2, in_channels=4):
    version = str(version)
    if version not in _FIRE_CFGS:
        raise ValueError(f"unknown SqueezeNet version {version!r}")
    c1, k1, pools, fires = _FIRE_CFGS[version]
    spec = NetworkSpec(input_channels=in_channels, name=f"squeezenet{version.replace('.', '')}")
    b = _Builder(spec)
    cur = b.conv_block("input", c1, kernel=k1, stride=2, prefix="stem")
    stage = 1
    for i, (s, e1, e3) in enumerate(fires):
        if stage in pools:
            cur = b.maxpool(cur, kernel=3, stride=2, padding=1, prefix=f"pool{stage}")
        stage += 1
        p = f"fire{i + 2}"
        sq = b.conv_block(cur, s, kernel=1, prefix=f"{p}_squeeze")
        x1 = b.conv_block(sq, e1, kernel=1, prefix=f"{p}_expand1")
        x3 = b.conv_block(sq, e3, kernel=3, prefix=f"{p}_expand3")
        cur = b.concat([x1, x3], prefix=f"{p}_cat")
    if stage in pools:
        cur = b.maxpool(cur, kernel=3, stride=2, padding=1, prefix=f"pool{stage}")
    b.classifier(cur, num_classes)
    return spec


# MobileNet-v1 skeleton with the five identical mid layers reduced to one.
# The variant name is the filter count of the first depthwise-separable
# layer, acting as a width multiplier: MobileNet-64 is the standard width.
_MOBILENET_BASE = [
    # (out_channels at width 64, stride)
    (64, 1), (128, 2), (128, 1), (256, 2), (256, 1), (512, 2), (512, 1), (1024, 2), (1024, 1),
]


def build_mobilenet(first_filters=64, num_classes=2, in_channels=4):
    if first_filters not in (16, 32, 64):
        raise ValueError("first_filters must be one of 16, 32, 64")
    scale = first_filters / 64
    spec = NetworkSpec(input_channels=in_channels, name=f"mobilenet{first_filters}_dwsep")
    b = _Builder(spec)
    cur_ch = int(32 * scale)
    cur = b.conv_block("input", cur_ch, kernel=3, stride=2, prefix="stem")
    for i, (ch, stride) in enumerate(_MOBILENET_BASE):
        out = int(ch * scale)
        p = f"dw{i + 1}"
        # bn -> depthwise 3x3 -> pointwise 1x1 -> plif, no activation
        # between the two convs so they stay fusable into one dense conv
        cur = spec.add(f"{p}_bn", "bn", [cur])
        cur = spec.add(f"{p}_dwconv", "conv", [cur], out_channels=cur_ch, kernel=3, stride=stride, depthwise=True)
        cur = spec.add(f"{p}_pwconv", "conv", [cur], out_channels=out, kernel=1, pointwise_of=f"{p}_dwconv")
        cur = spec.add(f"{p}_plif", "plif", [cur])
        cur_ch = out
    b.classifier(cur, num_classes)
    return spec


_DENSENET_BLOCKS = {121: (6, 12, 24, 16), 169: (6, 12, 32, 32)}


def build_densenet(depth=121, growth=16, num_classes=2, in_channels=4, backbone_taps=False):
    """Spiking DenseNet-BC (bottleneck 4k, transition compression 0.5).

    As a classifier: stem stride 1, pooling only in the first two
    transitions, and the spiking classifier head; sized for 64x64 inputs.
    With ``backbone_taps``: the standard layout (7x7 stride-2 stem + pool,
    pooling in every transition) and no head, the last two dense blocks'
    outputs as the spec's outputs; the detection backbone at native sensor
    resolution.
    """
    if depth not in _DENSENET_BLOCKS:
        raise ValueError(f"unknown DenseNet depth {depth}; choose from {sorted(_DENSENET_BLOCKS)}")
    blocks = _DENSENET_BLOCKS[depth]
    spec = NetworkSpec(input_channels=in_channels, name=f"densenet{depth}_{growth}")
    b = _Builder(spec)
    channels = 2 * growth
    if backbone_taps:
        cur = b.conv_block("input", channels, kernel=7, stride=2, prefix="stem")
        cur = b.maxpool(cur, kernel=3, stride=2, padding=1, prefix="stempool")
    else:
        cur = b.conv_block("input", channels, kernel=3, stride=1, prefix="stem")
    taps = []
    for bi, n_layers in enumerate(blocks):
        feats = [cur]
        for li in range(n_layers):
            p = f"b{bi + 1}l{li + 1}"
            src = feats[0] if len(feats) == 1 else b.concat(feats, prefix=f"{p}_in")
            mid = b.conv_block(src, 4 * growth, kernel=1, prefix=f"{p}_bottleneck")
            out = b.conv_block(mid, growth, kernel=3, prefix=f"{p}_grow")
            feats.append(out)
            channels += growth
        cur = b.concat(feats, prefix=f"block{bi + 1}_out")
        taps.append(cur)
        if bi < len(blocks) - 1:
            channels = channels // 2
            cur = b.conv_block(cur, channels, kernel=1, prefix=f"trans{bi + 1}")
            if backbone_taps or bi < 2:
                cur = b.maxpool(cur, kernel=2, stride=2, prefix=f"transpool{bi + 1}")
    if backbone_taps:
        spec.outputs.extend([taps[-2], taps[-1]])
    else:
        b.classifier(cur, num_classes)
    return spec


def build_toy_classifier(num_classes=2, in_channels=4):
    """Small spiking CNN for the synthetic temporal tasks: three strided
    conv blocks then the spiking classifier."""
    spec = NetworkSpec(input_channels=in_channels, name="toy")
    b = _Builder(spec)
    cur = b.conv_block("input", 12, kernel=5, stride=4, padding=2, prefix="c1")
    cur = b.conv_block(cur, 24, kernel=3, stride=2, prefix="c2")
    cur = b.conv_block(cur, 32, kernel=3, stride=2, prefix="c3")
    b.classifier(cur, num_classes)
    return spec


# Named classification variants, e.g. for the CLI and reporting tables.
_NAMED = {
    "vgg11": (build_vgg, {"variant": 11}),
    "vgg13": (build_vgg, {"variant": 13}),
    "vgg16": (build_vgg, {"variant": 16}),
    "squeezenet1.0": (build_squeezenet, {"version": "1.0"}),
    "squeezenet1.1": (build_squeezenet, {"version": "1.1"}),
    "mobilenet16": (build_mobilenet, {"first_filters": 16}),
    "mobilenet32": (build_mobilenet, {"first_filters": 32}),
    "mobilenet64": (build_mobilenet, {"first_filters": 64}),
    "densenet121-16": (build_densenet, {"depth": 121, "growth": 16}),
    "densenet121-24": (build_densenet, {"depth": 121, "growth": 24}),
    "densenet169-16": (build_densenet, {"depth": 169, "growth": 16}),
    "toy": (build_toy_classifier, {}),
}


def named_spec(name, in_channels=4, num_classes=2):
    """Build a classification NetworkSpec by its variant name."""
    if name not in _NAMED:
        raise ValueError(f"unknown architecture {name!r}; choose from {sorted(_NAMED)}")
    fn, base = _NAMED[name]
    return fn(in_channels=in_channels, num_classes=num_classes, **base)


ARCH_NAMES = tuple(sorted(_NAMED))
