"""Batch norm folded into its conv under no_grad, and depthwise-separable
conversion, against the unfolded reference."""

import numpy as np
import pytest

import evsnn.autograd as ag
from evsnn.autograd import Tensor, save_checkpoint
from evsnn.pipeline import load_network
from evsnn.spiking import Network, convert_dwsep_network, dwsep_to_normal_conv
from evsnn.spiking.builders import build_mobilenet, build_toy_classifier
from evsnn.spiking.layers import BatchNormLayer, ConvLayer

from conftest import call_layer, cnhw, stepwise_forward


def _random_bn(rng, c):
    bn = BatchNormLayer("bn", c)
    bn.gamma.data = (rng.standard_normal(c) + 1.5).astype(np.float32)
    bn.beta.data = rng.standard_normal(c).astype(np.float32)
    bn.running_mean = rng.standard_normal(c).astype(np.float32)
    bn.running_var = (rng.random(c) + 0.5).astype(np.float32)
    return bn


def _random_conv(rng, cin, cout, k, groups=1, bias=False):
    conv = ConvLayer("conv", cin, cout, k, groups=groups, bias=bias, rng=rng)
    if bias:
        conv.bias.data = rng.standard_normal(cout).astype(np.float32)
    return conv


def test_fuse_bn_into_conv_equivalence():
    """Under no_grad a conv called with its bn (the fold) is within 1e-5 of
    the bn layer, then the conv, as two calls."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        cin = int(rng.integers(1, 6))
        cout = int(rng.integers(1, 6))
        k = int(rng.choice([1, 3]))
        bn = _random_bn(rng, cin)
        conv = _random_conv(rng, cin, cout, k, bias=bool(rng.random() < 0.5))
        x = Tensor(cnhw(rng.standard_normal((2, cin, 6, 6)).astype(np.float32)))
        with ag.no_grad():
            ref = conv(call_layer(bn, x)).data
            got = conv(x, 1, bn).data
        assert np.abs(got - ref).max() <= 1e-5


def test_fuse_bn_grouped_conv():
    rng = np.random.default_rng(1)
    for _ in range(20):
        groups = int(rng.choice([2, 4]))
        cin = groups * int(rng.integers(1, 3))
        cout = groups * int(rng.integers(1, 3))
        bn = _random_bn(rng, cin)
        conv = _random_conv(rng, cin, cout, 3, groups=groups)
        x = Tensor(cnhw(rng.standard_normal((2, cin, 5, 5)).astype(np.float32)))
        with ag.no_grad():
            assert np.abs(conv(x, 1, bn).data - conv(call_layer(bn, x)).data).max() <= 1e-5


def test_dwsep_to_normal_weight_equivalence():
    rng = np.random.default_rng(3)
    for _ in range(100):
        c = int(rng.integers(1, 6))
        o = int(rng.integers(1, 6))
        dw = rng.standard_normal((c, 1, 3, 3)).astype(np.float32)
        pw = rng.standard_normal((o, c, 1, 1)).astype(np.float32)
        w = dwsep_to_normal_conv(dw, pw)
        x = Tensor(cnhw(rng.standard_normal((2, c, 6, 6)).astype(np.float32)))
        dwl = ConvLayer("dw", c, c, 3, groups=c)
        dwl.weight.data = dw
        pwl = ConvLayer("pw", c, o, 1)
        pwl.weight.data = pw
        dense = ConvLayer("dense", c, o, 3)
        dense.weight.data = w.astype(np.float32)
        with ag.no_grad():
            ref = pwl(dwl(x)).data
            got = dense(x).data
        assert np.abs(got - ref).max() <= 1e-5


def test_dwsep_shape_validation():
    with pytest.raises(ValueError):
        dwsep_to_normal_conv(np.zeros((3, 2, 3, 3)), np.zeros((4, 3, 1, 1)))
    with pytest.raises(ValueError):
        dwsep_to_normal_conv(np.zeros((3, 1, 3, 3)), np.zeros((4, 2, 1, 1)))


def _randomize_bn_stats(net, rng):
    for bn in [layer for layer in net.layers.values() if isinstance(layer, BatchNormLayer)]:
        bn.running_mean = rng.standard_normal(bn.channels).astype(np.float32) * 0.1
        bn.running_var = (rng.random(bn.channels) + 0.5).astype(np.float32)
        bn.gamma.data = (rng.standard_normal(bn.channels) * 0.2 + 1).astype(np.float32)
        bn.beta.data = (rng.standard_normal(bn.channels) * 0.1).astype(np.float32)


def test_fuse_network_preserves_predictions():
    """The no_grad forward, each bn folded into its conv, keeps the argmax
    of the unfolded reference (each bn, then its conv, as two calls)."""
    rng = np.random.default_rng(4)
    net = Network(build_toy_classifier(in_channels=4), rng=rng)
    _randomize_bn_stats(net, rng)
    batch = (rng.random((8, 4, 3, 32, 32)) < 0.3).astype(np.float32)
    with ag.no_grad():
        a = stepwise_forward(net, batch, unfolded=True)["scores"].data
        b = net.forward(batch)["scores"].data
    assert np.array_equal(a.argmax(axis=1), b.argmax(axis=1))
    assert np.abs(a - b).max() <= 1e-3  # scores drift only by float round-off


def test_load_network_refuses_pad_value_entries(tmp_path):
    """A checkpoint holding the per-channel borders of folded convs
    (``*.pad_value``, as an earlier exporter wrote them) does not load, and
    the error names every such entry; the network is left as it was."""
    net = Network(build_toy_classifier(in_channels=4), rng=np.random.default_rng(7))
    padded = [name for name, layer in net.layers.items() if isinstance(layer, ConvLayer) and layer.padding]
    assert padded
    arrays = dict(net.state_arrays())
    arrays.update({f"{name}.pad_value": np.ones(net.layers[name].in_channels, dtype=np.float32) for name in padded})
    path = str(tmp_path / "folded.ckpt")
    save_checkpoint(path, arrays)
    target = Network(build_toy_classifier(in_channels=4), rng=np.random.default_rng(8))
    before = {k: v.copy() for k, v in target.state_arrays().items()}
    with pytest.raises(ValueError, match="state does not match the network") as refused:
        load_network(path, target)
    for name in padded:
        assert f"unexpected {name}.pad_value" in str(refused.value)
    for k, v in target.state_arrays().items():
        assert np.array_equal(v, before[k]), k


def test_convert_dwsep_network_equivalence():
    rng = np.random.default_rng(5)
    net = Network(build_mobilenet(16, in_channels=4), rng=rng)
    _randomize_bn_stats(net, rng)
    converted = convert_dwsep_network(net)
    assert not any(n.get("pointwise_of") for n in converted.spec.nodes)
    assert not any(n.get("depthwise") for n in converted.spec.nodes)
    batch = (rng.random((2, 4, 2, 32, 32)) < 0.3).astype(np.float32)
    with ag.no_grad():
        a = net.forward(batch)["scores"].data
        b = converted.forward(batch)["scores"].data
    assert np.abs(a - b).max() <= 1e-3


def test_convert_then_fuse_chain():
    """Full inference-prep path: dwsep -> dense, then the no_grad forward
    folds the bns; the argmax of the unfolded dwsep network stays."""
    rng = np.random.default_rng(6)
    net = Network(build_mobilenet(16, in_channels=4), rng=rng)
    _randomize_bn_stats(net, rng)
    final = convert_dwsep_network(net)
    batch = (rng.random((2, 4, 2, 32, 32)) < 0.3).astype(np.float32)
    with ag.no_grad():
        a = stepwise_forward(net, batch, unfolded=True)["scores"].data
        b = final.forward(batch)["scores"].data
    assert np.array_equal(a.argmax(axis=1), b.argmax(axis=1))
