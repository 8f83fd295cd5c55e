"""BN-fusion and depthwise-separable conversion equivalences."""

import numpy as np
import pytest

import evsnn.autograd as ag
from evsnn.autograd import Tensor
from evsnn.pipeline import load_network, save_network
from evsnn.spiking import (Network, SpikeRecord, convert_dwsep_network, dwsep_to_normal_conv,
                           fuse_bn_into_conv, fuse_network)
from evsnn.spiking.builders import build_mobilenet, build_toy_classifier
from evsnn.spiking.layers import BatchNormLayer, ConvLayer


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
    rng = np.random.default_rng(0)
    for _ in range(100):
        cin = int(rng.integers(1, 6))
        cout = int(rng.integers(1, 6))
        k = int(rng.choice([1, 3]))
        bn = _random_bn(rng, cin)
        conv = _random_conv(rng, cin, cout, k, bias=bool(rng.random() < 0.5))
        fused = fuse_bn_into_conv(bn, conv)
        x = Tensor(rng.standard_normal((2, cin, 6, 6)).astype(np.float32))
        with ag.no_grad():
            ref = conv(bn(x)).data
            got = fused(x).data
        assert np.abs(got - ref).max() <= 1e-5


def test_fuse_bn_grouped_conv():
    rng = np.random.default_rng(1)
    for _ in range(20):
        groups = int(rng.choice([2, 4]))
        cin = groups * int(rng.integers(1, 3))
        cout = groups * int(rng.integers(1, 3))
        bn = _random_bn(rng, cin)
        conv = _random_conv(rng, cin, cout, 3, groups=groups)
        fused = fuse_bn_into_conv(bn, conv)
        x = Tensor(rng.standard_normal((2, cin, 5, 5)).astype(np.float32))
        with ag.no_grad():
            assert np.abs(fused(x).data - conv(bn(x)).data).max() <= 1e-5


def test_dwsep_to_normal_weight_equivalence():
    rng = np.random.default_rng(3)
    for _ in range(100):
        c = int(rng.integers(1, 6))
        o = int(rng.integers(1, 6))
        dw = rng.standard_normal((c, 1, 3, 3)).astype(np.float32)
        pw = rng.standard_normal((o, c, 1, 1)).astype(np.float32)
        w = dwsep_to_normal_conv(dw, pw)
        x = Tensor(rng.standard_normal((2, c, 6, 6)).astype(np.float32))
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
    rng = np.random.default_rng(4)
    net = Network(build_toy_classifier(in_channels=4), rng=rng)
    _randomize_bn_stats(net, rng)
    fused = fuse_network(net)
    assert not any(n["type"] == "bn" for n in fused.spec.nodes)
    batch = (rng.random((8, 4, 3, 32, 32)) < 0.3).astype(np.float32)
    with ag.no_grad():
        a = net.forward(batch)["scores"].data
        b = fused.forward(batch)["scores"].data
    assert np.array_equal(a.argmax(axis=1), b.argmax(axis=1))
    assert np.abs(a - b).max() <= 1e-3  # scores drift only by float round-off


def _pad_values(net):
    return {k: v.pad_value for k, v in net.layers.items() if isinstance(v, ConvLayer) and v.pad_value is not None}


def _fused_toy(seed):
    rng = np.random.default_rng(seed)
    net = Network(build_toy_classifier(in_channels=4), rng=rng)
    _randomize_bn_stats(net, rng)  # non-zero betas: the fused convs pad with non-zero values
    fused = fuse_network(net)
    assert any(np.abs(pad).max() > 0 for pad in _pad_values(fused).values())
    batch = (rng.random((4, 4, 3, 64, 64)) < 0.3).astype(np.float32)
    return fused, batch


def _eval(net, batch):
    """Time-summed scores and per-layer spike counts of one no-grad forward."""
    record = SpikeRecord()
    with ag.no_grad():
        scores = net.forward(batch, record=record)["scores"].data
    return scores, record.spikes


def test_fused_network_checkpoint_round_trip(tmp_path):
    fused, batch = _fused_toy(7)
    path = str(tmp_path / "fused.ckpt")
    save_network(path, fused)
    again = Network(fused.spec)
    load_network(path, again)
    for k, v in fused.state_arrays().items():
        assert np.array_equal(again.state_arrays()[k], v), k
    want_scores, want_spikes = _eval(fused, batch)
    got_scores, got_spikes = _eval(again, batch)
    assert np.array_equal(got_scores, want_scores)
    assert got_spikes == want_spikes


def test_fuse_network_twice_keeps_pad_values():
    fused, batch = _fused_toy(8)
    twice = fuse_network(fused)
    assert twice.spec.nodes == fused.spec.nodes
    pads = _pad_values(fused)
    assert pads.keys() == _pad_values(twice).keys()
    for k, v in pads.items():
        assert np.array_equal(_pad_values(twice)[k], v), k
    want_scores, want_spikes = _eval(fused, batch)
    got_scores, got_spikes = _eval(twice, batch)
    assert np.array_equal(got_scores, want_scores)
    assert got_spikes == want_spikes


def test_convert_dwsep_network_equivalence():
    rng = np.random.default_rng(5)
    net = Network(build_mobilenet(16, in_channels=4, conv_mode="dwsep"), rng=rng)
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
    """Full inference-prep path: dwsep -> dense, then fold the BNs."""
    rng = np.random.default_rng(6)
    net = Network(build_mobilenet(16, in_channels=4, conv_mode="dwsep"), rng=rng)
    _randomize_bn_stats(net, rng)
    final = fuse_network(convert_dwsep_network(net))
    batch = (rng.random((2, 4, 2, 32, 32)) < 0.3).astype(np.float32)
    with ag.no_grad():
        a = net.forward(batch)["scores"].data
        b = final.forward(batch)["scores"].data
    assert np.array_equal(a.argmax(axis=1), b.argmax(axis=1))
