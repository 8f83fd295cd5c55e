"""PLIF dynamics, BPTT chain, network graph runtime, builders, audits."""

import numpy as np
import pytest

import evsnn.autograd as ag
from evsnn.autograd import Tensor
from evsnn.spiking import (
    Network,
    NetworkSpec,
    PLIFConfig,
    SpikeRecord,
    audit_spike_purity,
    plif_step,
)
from evsnn.detection import build_detector_spec, build_toy_detector_spec
from evsnn.spiking.builders import (ARCH_NAMES, build_densenet, build_squeezenet, build_toy_classifier, build_vgg,
                                    named_spec)
from evsnn.spiking.layers import MaxPoolLayer, PLIFLayer

from conftest import outputs_and_grads, stepwise_forward


# --------------------------------------------------------------------------
# PLIF neuron
# --------------------------------------------------------------------------


def test_plif_config_validation():
    with pytest.raises(ValueError):
        PLIFConfig(tau_init=1.0)
    # a spec asking for another neuron fails loudly instead of being ignored
    spec = NetworkSpec(input_channels=1)
    spec.add("p", "plif", ["input"], tau_init=3.0, v_threshold=0.5)
    with pytest.raises(ValueError, match="unknown plif keys.*v_threshold"):
        Network(spec)


def _plif_step_oracle(state, x, inv_tau, v_threshold=1.0, v_reset=0.0, reset_mode="hard", alpha=2.0):
    """The op-by-op PLIF composition with a settable threshold, reset value
    and reset mode (10 tape ops per hard-reset step): the reference that
    ``plif_step`` must match bit for bit at threshold 1, hard reset to 0."""
    if state is None:
        state = Tensor(np.full(x.data.shape, v_reset, dtype=x.data.dtype))
    drive = x - (state - v_reset)
    v = state + drive * inv_tau
    spikes = ag.heaviside_surrogate(v - v_threshold, alpha)
    if reset_mode == "hard":
        v_next = v * (1.0 - spikes) + spikes * v_reset
    else:
        v_next = v - spikes * v_threshold
    return spikes, v_next


def test_plif_step_matches_oracle_bit_for_bit():
    """Five float32 steps with a learnable tau: spikes, membranes and the
    gradients of the inputs and of w equal the oracle's exactly."""
    rng = np.random.default_rng(0)
    xs = [(1.5 * rng.standard_normal((2, 3, 4, 4))).astype(np.float32) for _ in range(5)]
    probes = [rng.standard_normal((2, 3, 4, 4)).astype(np.float32) for _ in range(5)]

    def run(step):
        w = Tensor(np.asarray([0.3], dtype=np.float32), requires_grad=True)
        x = [Tensor(a, requires_grad=True) for a in xs]
        state, spikes, membranes, loss = None, [], [], 0.0
        for xt, probe in zip(x, probes):
            s, state = step(state, xt, ag.sigmoid(w))
            spikes.append(s.data)
            membranes.append(state.data)
            loss = (s * probe).sum() + (state * probe).sum() + loss
        loss.backward()
        return spikes, membranes, [t.grad for t in x], [w.grad]

    got = run(lambda state, x, a: plif_step(state, x, PLIFConfig(), a))
    want = run(_plif_step_oracle)
    assert sum(float(s.sum()) for s in got[0]) > 0  # some neurons spike and reset
    for kind, g, r in zip(("spikes", "membranes", "x.grad", "w.grad"), got, want):
        for t, (a, b) in enumerate(zip(g, r)):
            assert a.dtype == b.dtype == np.float32 and np.array_equal(a, b), f"{kind} differ at step {t}"


def test_plif_hand_simulation():
    """tau=2, v_th=1: V <- V + (X - V)/2, spike and hard-reset on V >= 1."""
    cfg = PLIFConfig(learnable_tau=False)
    state = None
    spikes = []
    vs = []
    for x in (1.5, 0.0, 2.0):
        s, state = plif_step(state, Tensor(np.array([x])), cfg, 1.0 / cfg.tau_init)
        spikes.append(float(s.data[0]))
        vs.append(float(state.data[0]))
    assert spikes == [0.0, 0.0, 1.0]
    assert np.allclose(vs, [0.75, 0.375, 0.0])  # 0.375 + (2 - 0.375)/2 = 1.1875 -> spike, reset


def test_plif_threshold_boundary():
    cfg = PLIFConfig(learnable_tau=False)
    s, v = plif_step(None, Tensor(np.array([2.0])), cfg, 0.5)  # v hits exactly 1.0
    assert float(s.data[0]) == 1.0
    assert float(v.data[0]) == 0.0


def test_plif_layer_tau_init():
    layer = PLIFLayer("p", PLIFConfig(tau_init=2.0))
    assert np.isclose(layer.inv_tau().data[0], 0.5)  # sigmoid(0) = 1/tau_init
    layer3 = PLIFLayer("p3", PLIFConfig(tau_init=3.0))
    assert np.isclose(layer3.inv_tau().data[0], 1.0 / 3.0)


def test_bptt_two_step_hand_chain():
    """Autodiff through two PLIF steps matches the hand-derived gradient."""
    alpha, a = 2.0, 0.5
    cfg = PLIFConfig(learnable_tau=False, alpha=alpha)
    x1 = Tensor(np.array([1.6]), requires_grad=True)
    x2 = Tensor(np.array([2.4]), requires_grad=True)
    s1, v1p = plif_step(None, x1, cfg, a)
    s2, _ = plif_step(v1p, x2, cfg, a)
    (s1 + s2).sum().backward()

    def sg(u):  # surrogate derivative at membrane excess u
        return alpha / (2 * (1 + (np.pi * alpha * u / 2) ** 2))

    v1 = a * 1.6                     # 0.8, below threshold -> s1 = 0
    g1 = sg(v1 - 1.0)
    v1_reset = v1 * (1 - 0.0)
    v2 = v1_reset * (1 - a) + a * 2.4  # 1.6 -> s2 = 1
    g2 = sg(v2 - 1.0)
    # dv1'/dv1 = (1 - s1) - v1 * g1 (reset gate feeds back through s1)
    dx1 = g1 * a + g2 * (1 - a) * ((1 - 0.0) - v1 * g1) * a
    dx2 = g2 * a
    assert float(s1.data[0]) == 0.0 and float(s2.data[0]) == 1.0
    assert np.allclose(x1.grad, [dx1], rtol=1e-12)
    assert np.allclose(x2.grad, [dx2], rtol=1e-12)


# --------------------------------------------------------------------------
# Network runtime
# --------------------------------------------------------------------------


def _tiny_spec():
    spec = NetworkSpec(input_channels=2, name="tiny")
    spec.add("bn1", "bn", ["input"])
    spec.add("conv1", "conv", ["bn1"], out_channels=4, kernel=3)
    spec.add("plif1", "plif", ["conv1"])
    spec.add("pool1", "maxpool", ["plif1"], kernel=2)
    spec.add("head_bn", "bn", ["pool1"])
    spec.add("head_conv", "conv", ["head_bn"], out_channels=3, kernel=1)
    spec.add("head_plif", "plif", ["head_conv"])
    spec.add("scores", "spatial_sum", ["head_plif"])
    spec.outputs.append("scores")
    return spec


def test_forward_shapes_and_time_unroll():
    net = Network(_tiny_spec(), rng=np.random.default_rng(0))
    batch = (np.random.default_rng(1).random((2, 2, 4, 8, 8)) < 0.3).astype(np.float32)
    outputs = net.forward(batch)
    assert isinstance(outputs["scores"], Tensor)  # summed over the 4 steps
    assert outputs["scores"].data.shape == (2, 3)


def test_forward_channel_mismatch():
    net = Network(_tiny_spec())
    with pytest.raises(ValueError, match="channels"):
        net.forward(np.zeros((1, 3, 2, 8, 8), dtype=np.float32))


def test_state_reset_between_forwards():
    net = Network(_tiny_spec(), rng=np.random.default_rng(0))
    batch = (np.random.default_rng(1).random((1, 2, 3, 8, 8)) < 0.4).astype(np.float32)
    a = net.forward(batch)["scores"].data
    b = net.forward(batch)["scores"].data
    assert np.array_equal(a, b)  # stale membrane state would change the result


def test_run_once_nodes_are_the_heads():
    """The nodes that run once on the time-summed input follow from the
    graph: for every builder, the classifier's spatial sum or the SSD head
    convs, and nothing else."""
    for name in ARCH_NAMES:
        assert Network(named_spec(name)).once == {"scores"}, name
    for spec, head_taps, _ in (build_toy_detector_spec(), build_detector_spec(num_classes=2)):
        assert Network(spec).once == {name for pair in head_taps for name in pair}, spec.name


def test_classifier_scores_equal_stepwise_oracle():
    """Spike counts are exact in float32, so one spatial sum over the
    time-summed spikes equals the per-step spatial sums summed over time
    bit for bit, and so does every parameter gradient."""
    net = Network(_tiny_spec(), rng=np.random.default_rng(0))
    assert net.once == {"scores"}
    batch = (np.random.default_rng(1).random((4, 2, 5, 8, 8)) < 0.5).astype(np.float32)
    labels = np.array([0, 1, 2, 1])

    def loss_of(outputs):
        return ag.softmax_cross_entropy(outputs["scores"], labels)

    new, new_grads = outputs_and_grads(net, lambda: net.forward(batch), loss_of)
    old, old_grads = outputs_and_grads(net, lambda: stepwise_forward(net, batch), loss_of)
    assert isinstance(new["scores"], Tensor) and new["scores"].data.any()
    assert np.array_equal(new["scores"].data, old["scores"].data)
    assert new_grads.keys() == old_grads.keys()
    for name, grad in old_grads.items():
        assert np.array_equal(new_grads[name], grad), name


def test_summed_conv_with_pad_value_matches_stepwise_oracle():
    """A conv that runs once on T summed frames adds T times its bias and
    uses T times its border value; outputs and gradients match running it
    per step within 1e-5 of each array's largest magnitude (float32)."""
    spec = NetworkSpec(input_channels=2, name="padded_tail")
    spec.add("conv1", "conv", ["input"], out_channels=3, kernel=3)
    spec.add("plif1", "plif", ["conv1"])
    spec.add("head", "conv", ["plif1"], out_channels=2, kernel=3, bias=True, pad_value=True)
    spec.outputs.append("head")
    net = Network(spec, rng=np.random.default_rng(0))
    assert net.once == {"head"}
    rng = np.random.default_rng(1)
    net.layers["head"].bias.data = rng.standard_normal(2).astype(np.float32)
    net.layers["head"].pad_value = rng.standard_normal(3).astype(np.float32)
    batch = (rng.random((2, 2, 4, 8, 8)) < 0.5).astype(np.float32)
    probe = Tensor(rng.standard_normal((2, 2, 8, 8)).astype(np.float32))

    def loss_of(outputs):
        return (outputs["head"] * probe).sum()

    new, new_grads = outputs_and_grads(net, lambda: net.forward(batch), loss_of)
    old, old_grads = outputs_and_grads(net, lambda: stepwise_forward(net, batch), loss_of)
    for got, want in [(new["head"].data, old["head"].data)] + [(new_grads[k], g) for k, g in old_grads.items()]:
        assert np.abs(want).max() > 0
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def _layer_attributes(net):
    out = {}
    for name, layer in net.layers.items():
        for key, value in vars(layer).items():
            value = value.data if isinstance(value, Tensor) else value
            out[name, key] = value.copy() if isinstance(value, np.ndarray) else value
    return out


def test_forward_leaves_layers_unchanged():
    """Layers keep no per-step state: under no_grad a forward pass changes
    no attribute of any layer."""
    net = Network(_tiny_spec(), rng=np.random.default_rng(0))
    before = _layer_attributes(net)
    with ag.no_grad():
        net.forward((np.random.default_rng(1).random((1, 2, 3, 8, 8)) < 0.4).astype(np.float32), record=SpikeRecord())
    after = _layer_attributes(net)
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert np.array_equal(after[key], value), key


def test_state_carried_within_forward():
    """The third step spikes only if the membrane left by the first two
    steps is carried into it."""
    spec = NetworkSpec(input_channels=1, name="probe")
    spec.add("conv", "conv", ["input"], out_channels=1, kernel=1, bias=True)
    spec.add("plif", "plif", ["conv"])
    spec.outputs.append("plif")
    net = Network(spec, rng=np.random.default_rng(0))
    net.layers["conv"].weight.data[:] = 1.0
    net.layers["conv"].bias.data[:] = 0.0
    x = np.zeros((1, 1, 3, 1, 1), dtype=np.float32)
    x[0, 0, 0] = 1.9  # v1 = 0.95, no spike
    x[0, 0, 2] = 1.6  # v2 = 0.475 carried -> v3 = 1.0375 spikes; from rest v3 = 0.8
    spikes = [float(s.data.sum()) for s in net.forward(x)["plif"]]
    assert spikes == [0.0, 0.0, 1.0]
    alone = net.forward(x[:, :, 2:])["plif"]
    assert float(alone[0].data.sum()) == 0.0


def test_spike_record_rates():
    net = Network(_tiny_spec(), rng=np.random.default_rng(0))
    batch = (np.random.default_rng(2).random((2, 2, 5, 8, 8)) < 0.4).astype(np.float32)
    record = SpikeRecord()
    net.forward(batch, record=record)
    rates = record.layer_rates()
    assert set(rates) == {"plif1", "head_plif"}
    assert all(0.0 <= r <= 1.0 for r in rates.values())
    assert 0.0 <= record.global_rate() <= 1.0
    assert record.steps == 5


def test_trace_shapes_match_execution():
    for spec in (build_vgg(11, in_channels=4), build_squeezenet("1.1", in_channels=4), build_toy_classifier(in_channels=4)):
        net = Network(spec, rng=np.random.default_rng(0))
        shapes = net.trace_shapes(64, 64)
        batch = np.zeros((1, 4, 1, 64, 64), dtype=np.float32)
        with ag.no_grad():
            values = {"input": Tensor(batch[:, :, 0])}
            membranes = {}
            for node in spec.nodes:
                layer = net.layers[node["name"]]
                extra = (membranes,) if node["type"] == "plif" else ()
                values[node["name"]] = layer(*[values[i] for i in node["inputs"]], *extra)
                got = values[node["name"]].data.shape[1:]
                want = shapes[node["name"]]
                if node["type"] == "spatial_sum":
                    continue
                assert got == want, f"{spec.name}/{node['name']}: {got} != {want}"


def test_trace_shapes_raises_where_forward_does():
    """A 4x4 pool over a 2x2 map fails in shape tracing as in execution."""
    spec = NetworkSpec(input_channels=1)
    spec.add("pool", "maxpool", ["input"], kernel=4)
    spec.outputs.append("pool")
    net = Network(spec)
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 1, 1, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="does not fit"):
        net.trace_shapes(2, 2)
    assert net.trace_shapes(4, 4)["pool"] == (1, 1, 1)


def test_maxpool_layer_padding_grad():
    layer = MaxPoolLayer("p", kernel=3, stride=2, padding=1)
    x = Tensor(np.random.default_rng(0).standard_normal((2, 2, 5, 5)), requires_grad=True)
    out = layer(x)
    assert out.data.shape == (2, 2, 3, 3)
    out.sum().backward()
    # each output picks exactly one input cell; gradient mass is conserved
    assert x.grad.sum() == pytest.approx(out.data.size)
    assert (x.grad >= 0).all()


def test_spec_json_roundtrip():
    spec = build_squeezenet("1.0", in_channels=4)
    again = NetworkSpec.from_json(spec.to_json())
    assert again.nodes == spec.nodes
    assert again.outputs == spec.outputs
    net_a = Network(spec, rng=np.random.default_rng(5))
    net_b = Network(again, rng=np.random.default_rng(5))
    assert set(net_a.params()) == set(net_b.params())


def test_unknown_layer_type():
    spec = NetworkSpec(input_channels=1)
    spec.add("x", "lstm", ["input"])
    with pytest.raises(ValueError, match="unknown layer type"):
        Network(spec)


def test_load_params_roundtrip():
    net_a = Network(_tiny_spec(), rng=np.random.default_rng(0))
    net_a.forward((np.random.default_rng(1).random((2, 2, 3, 8, 8)) < 0.4).astype(np.float32))  # moves BN stats
    net_b = Network(_tiny_spec(), rng=np.random.default_rng(9))
    net_b.load_state_arrays(net_a.state_arrays())
    want = net_a.state_arrays()
    assert any(k.endswith(".running_mean") for k in want)
    for k, v in net_b.state_arrays().items():
        assert np.array_equal(v, want[k]), k


def test_load_state_arrays_names_every_mismatch():
    net = Network(_tiny_spec(), rng=np.random.default_rng(0))
    arrays = dict(net.state_arrays())
    missing = next(k for k in arrays if k.endswith(".running_var"))
    del arrays[missing]
    arrays["ghost.weight"] = np.zeros(3, dtype=np.float32)
    misshapen = next(k for k in arrays if k.endswith(".weight") and k != "ghost.weight")
    arrays[misshapen] = np.zeros(7, dtype=np.float32)
    before = {k: v.copy() for k, v in net.state_arrays().items()}
    with pytest.raises(ValueError) as err:
        net.load_state_arrays(arrays)
    for name in (missing, "ghost.weight", misshapen):
        assert name in str(err.value)
    for k, v in net.state_arrays().items():  # nothing was loaded
        assert np.array_equal(v, before[k]), k


# --------------------------------------------------------------------------
# Builders and purity audit
# --------------------------------------------------------------------------


def test_builders_input_channels_follow_micro_bins():
    for n in (1, 2, 4):
        spec = build_toy_classifier(in_channels=2 * n)
        assert Network(spec).channels["input"] == 2 * n


def test_classifier_head_is_spiking():
    spec = build_vgg(11, num_classes=7, in_channels=4)
    types = [node["type"] for node in spec.nodes[-4:]]
    assert types == ["bn", "conv", "plif", "spatial_sum"]
    assert spec.nodes[-3]["out_channels"] == 7


def test_bn_placement_variants():
    pre = build_toy_classifier(in_channels=4, bn_placement="pre")
    post = build_toy_classifier(in_channels=4, bn_placement="post")
    none = build_toy_classifier(in_channels=4, bn_placement="none")
    assert any(n["type"] == "bn" for n in pre.nodes)
    first_conv = next(n for n in none.nodes if n["type"] == "conv")
    assert first_conv["bias"] is True  # no BN -> conv carries the bias
    assert not any(n["type"] == "bn" for n in none.nodes)
    # post: bn comes after its conv
    idx = {n["name"]: i for i, n in enumerate(post.nodes)}
    bn = next(n for n in post.nodes if n["type"] == "bn")
    assert idx[bn["inputs"][0]] < idx[bn["name"]]
    assert post.node(bn["inputs"][0])["type"] == "conv"


def test_lif_variant_has_no_tau_params():
    spec = build_toy_classifier(in_channels=4, neuron="lif")
    net = Network(spec)
    assert not any(name.endswith(".w") for name in net.params())
    spec_p = build_toy_classifier(in_channels=4, neuron="plif")
    assert any(name.endswith(".w") for name in Network(spec_p).params())


def test_plif_one_tau_per_layer():
    spec = build_vgg(11, in_channels=4)
    net = Network(spec)
    n_plif = sum(1 for n in spec.nodes if n["type"] == "plif")
    taus = [p for name, p in net.params().items() if name.endswith(".w")]
    assert len(taus) == n_plif
    assert all(p.data.size == 1 for p in taus)


def test_purity_audit_clean_builders():
    for spec in (build_vgg(11, in_channels=4), build_squeezenet("1.0", in_channels=4),
                 build_densenet(121, 16, in_channels=4), build_toy_classifier(in_channels=4)):
        assert audit_spike_purity(spec) == []


def test_purity_audit_mobilenet_dwsep():
    from evsnn.spiking.builders import build_mobilenet

    spec = build_mobilenet(16, in_channels=4, conv_mode="dwsep")
    assert audit_spike_purity(spec, allow_dwsep=True) == []
    assert audit_spike_purity(spec, allow_dwsep=False) != []


def test_purity_audit_flags_conv_on_real_values():
    spec = NetworkSpec(input_channels=2)
    spec.add("c1", "conv", ["input"], out_channels=4, kernel=3)
    spec.add("c2", "conv", ["c1"], out_channels=4, kernel=3)  # conv fed raw conv output
    violations = audit_spike_purity(spec)
    assert any("c2" in v for v in violations)


def test_densenet_concat_growth():
    spec = build_densenet(121, growth=16, in_channels=4)
    net = Network(spec)
    # block 1: 6 layers of growth 16 on a 32-channel stem -> 128 channels
    assert net.channels["block1_out"] == 32 + 6 * 16


def test_unknown_variant_errors():
    with pytest.raises(ValueError):
        build_vgg(12)
    with pytest.raises(ValueError):
        build_squeezenet("2.0")
    with pytest.raises(ValueError):
        build_densenet(200)
    with pytest.raises(ValueError):
        named_spec("resnet50")
