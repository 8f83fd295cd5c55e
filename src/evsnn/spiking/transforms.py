"""Inference-time structural transformations: BN fusion and
depthwise-separable to dense convolution conversion."""

from __future__ import annotations

import copy

import numpy as np

from ..autograd import Tensor
from .layers import BatchNormLayer, ConvLayer, Network, NetworkSpec


def fuse_bn_into_conv(bn: BatchNormLayer, conv: ConvLayer) -> ConvLayer:
    """Fold a BN that *precedes* a conv into the conv weights.

    Folds the running statistics, which are what the BN uses under
    ``ag.no_grad()``; while the tape records it uses batch statistics
    instead. Returns a new conv with conv'(x) == conv(bn(x)) under
    ``no_grad``; originals untouched.
    """
    scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
    offset = bn.beta.data - bn.running_mean * scale
    w = conv.weight.data
    cout, cin_g = w.shape[:2]
    group_size = cout // conv.groups
    # input channel index for each (group, local channel) position
    ic = (np.arange(cout)[:, None] // group_size) * cin_g + np.arange(cin_g)[None, :]
    w_new = w * scale[ic][:, :, None, None]
    b_new = (w * offset[ic][:, :, None, None]).sum(axis=(1, 2, 3))
    if conv.bias is not None:
        b_new = b_new + conv.bias.data
    fused = ConvLayer(
        conv.name, conv.in_channels, conv.out_channels, conv.kernel,
        stride=conv.stride, padding=conv.padding, groups=conv.groups, bias=True,
    )
    fused.weight.data = w_new.astype(np.float32)
    fused.bias.data = b_new.astype(np.float32)
    if conv.padding:
        # the original conv pads with zeros *after* the bn; the fused conv
        # must pad with the input value the bn would map to zero
        fused.pad_value = np.where(scale != 0, -offset / np.where(scale == 0, 1, scale), 0.0).astype(np.float32)
    return fused


def dwsep_to_normal_conv(dw_weight, pw_weight):
    """Dense conv weight equivalent to depthwise (C,1,kh,kw) followed by
    pointwise (O,C,1,1): W[o,i,:,:] = pw[o,i] * dw[i,0,:,:]."""
    dw = dw_weight.data if isinstance(dw_weight, Tensor) else np.asarray(dw_weight)
    pw = pw_weight.data if isinstance(pw_weight, Tensor) else np.asarray(pw_weight)
    if dw.shape[1] != 1:
        raise ValueError(f"depthwise weight must have one channel per group, got {dw.shape}")
    if pw.shape[1] != dw.shape[0] or pw.shape[2:] != (1, 1):
        raise ValueError(f"pointwise weight {pw.shape} does not match depthwise {dw.shape}")
    return pw[:, :, 0, 0][:, :, None, None] * dw[:, 0][None]


def _consumers(spec: NetworkSpec, name):
    return [n for n in spec.nodes if name in n["inputs"]]


def _clone_with_params(old: Network, new_spec: NetworkSpec, overrides):
    """Network(new_spec) holding the old network's state for every entry
    both share, replaced by the flat ``{"layer.entry": array}`` overrides."""
    net = Network(new_spec)
    own = net.state_arrays()
    net.load_state_arrays({**{k: v for k, v in old.state_arrays().items() if k in own}, **overrides})
    return net


def fuse_network(net: Network) -> Network:
    """Return a copy of the network with every BN that feeds exactly one
    convolution folded into that convolution. Remaining BNs stay as-is."""
    spec = net.spec
    fused_bns = {}  # bn name -> upstream source
    for node in spec.nodes:
        if node["type"] != "bn":
            continue
        cons = _consumers(spec, node["name"])
        if len(cons) == 1 and cons[0]["type"] == "conv" and not cons[0].get("depthwise"):
            fused_bns[node["name"]] = node["inputs"][0]
    new_spec = NetworkSpec(input_channels=spec.input_channels, outputs=list(spec.outputs), name=spec.name + "_fused")
    overrides = {}
    for node in spec.nodes:
        if node["name"] in fused_bns:
            continue
        node = copy.deepcopy(node)
        node["inputs"] = [fused_bns.get(i, i) for i in node["inputs"]]
        if node["type"] == "conv":
            src_conv = net.layers[node["name"]]
            orig_input = spec.node(node["name"])["inputs"][0]
            if orig_input in fused_bns:
                bn = net.layers[orig_input]
                fused = fuse_bn_into_conv(bn, src_conv)
                node["bias"] = True
                overrides.update({k: p.data for k, p in fused.params().items()})
                if fused.pad_value is not None:
                    node["pad_value"] = True
                    overrides[f"{fused.name}.pad_value"] = fused.pad_value
        new_spec.nodes.append(node)
    return _clone_with_params(net, new_spec, overrides)


def convert_dwsep_network(net: Network) -> Network:
    """Replace every depthwise + pointwise conv pair (marked by the builder
    with ``pointwise_of``) by the equivalent single dense convolution."""
    spec = net.spec
    pairs = {}  # dw name -> pw node
    for node in spec.nodes:
        if node["type"] == "conv" and node.get("pointwise_of"):
            pairs[node["pointwise_of"]] = node
    new_spec = NetworkSpec(input_channels=spec.input_channels, outputs=list(spec.outputs), name=spec.name.replace("dwsep", "normal"))
    overrides = {}
    for node in spec.nodes:
        if node["type"] == "conv" and node.get("pointwise_of"):
            continue  # merged into its depthwise partner
        node = copy.deepcopy(node)
        if node["name"] in pairs:
            pw_node = pairs[node["name"]]
            dw = net.layers[node["name"]]
            pw = net.layers[pw_node["name"]]
            w = dwsep_to_normal_conv(dw.weight, pw.weight)
            merged = {
                "name": pw_node["name"],
                "type": "conv",
                "inputs": node["inputs"],
                "out_channels": pw_node["out_channels"],
                "kernel": node["kernel"],
                "stride": node.get("stride", 1),
                "bias": dw.bias is not None or pw.bias is not None,
            }
            overrides[f"{pw_node['name']}.weight"] = w
            if merged["bias"]:
                b = np.zeros(w.shape[0], dtype=np.float32)
                if pw.bias is not None:
                    b += pw.bias.data
                if dw.bias is not None:
                    b += pw.weight.data[:, :, 0, 0] @ dw.bias.data
                overrides[f"{pw_node['name']}.bias"] = b
            new_spec.nodes.append(merged)
            continue
        new_spec.nodes.append(node)
    return _clone_with_params(net, new_spec, overrides)
