"""Depthwise-separable to dense convolution conversion, an inference-time
rewrite of the network. Batch norm needs no rewrite: ``ag.conv2d`` and
``ag.conv_plif`` fold each bn into its conv in both modes."""

from __future__ import annotations

import copy

import numpy as np

from ..autograd import Tensor
from .layers import Network, NetworkSpec


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
    converted = Network(new_spec)
    own = converted.state_arrays()  # the state both networks share, replaced by the merged weights
    converted.load_state_arrays({**{k: v for k, v in net.state_arrays().items() if k in own}, **overrides})
    return converted
