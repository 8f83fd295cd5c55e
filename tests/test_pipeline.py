"""Training loops, checkpointing, synthetic tasks and the CLI."""

import json
import os
import re

import numpy as np
import pytest

import evsnn.autograd as ag
import evsnn.cli as cli
import evsnn.pipeline as pipeline
from evsnn.autograd import AdamW, ops
from evsnn.detection import DetectionModel, build_toy_detector_spec
from evsnn.encoding import EncoderConfig, batch_cubes, parse_vxc
from evsnn.pipeline import (
    TrainConfig,
    TrainingDiverged,
    evaluate_classifier,
    evaluate_detector,
    load_backbone,
    load_network,
    run_encoding_ablation,
    save_network,
    train_classifier,
    train_detector,
)
from evsnn.spiking import Network, NetworkSpec
from evsnn.spiking.builders import build_toy_classifier, named_spec
from evsnn.tasks import (
    SQUARE_SIZES,
    detection_ground_truth,
    encode_samples,
    make_moving_bar_dataset,
    make_moving_squares_dataset,
)

from conftest import stepwise_forward

ENC = EncoderConfig(sample_duration=100_000, timesteps=2, micro_bins=1, height=64, width=64)
FAST = TrainConfig(epochs=2, batch_size=8, lr=2e-3, seed=0)


def _toy_net(seed=0):
    return Network(build_toy_classifier(in_channels=ENC.channels), rng=np.random.default_rng(seed))


def _toy_detector(seed=0, in_channels=None):
    spec, taps, cfg = build_toy_detector_spec(num_classes=2, in_channels=in_channels or ENC.channels)
    return DetectionModel(spec, taps, 2, cfg, rng=np.random.default_rng(seed))


# --------------------------------------------------------------------------
# Synthetic tasks
# --------------------------------------------------------------------------


def test_moving_bar_dataset_deterministic():
    a = make_moving_bar_dataset(4, seed=7)
    b = make_moving_bar_dataset(4, seed=7)
    for sa, sb in zip(a, b):
        assert sa.label == sb.label
        assert np.array_equal(sa.stream.ts, sb.stream.ts)
        assert np.array_equal(sa.stream.xs, sb.stream.xs)
    c = make_moving_bar_dataset(4, seed=8)
    assert any(not np.array_equal(sa.stream.ts, sc.stream.ts) for sa, sc in zip(a, c))


def test_moving_bar_direction_readable_from_events():
    # rightward bars drift to larger x over time, leftward to smaller
    for s in make_moving_bar_dataset(8, seed=1):
        early = s.stream.xs[s.stream.ts < 20_000].mean()
        late = s.stream.xs[s.stream.ts > 80_000].mean()
        assert (late > early) == bool(s.label)


def test_moving_squares_scene_boxes():
    scenes = make_moving_squares_dataset(6, seed=2)
    for stream, boxes in scenes:
        assert 1 <= len(boxes) <= 2
        for b in boxes:
            lo, hi = SQUARE_SIZES[b.class_id]
            assert lo <= b.w <= hi and b.w == b.h
            assert 0 <= b.x and b.x + b.w <= 64
    gt = detection_ground_truth(scenes)
    assert len(gt) == sum(len(b) for _, b in scenes)
    assert gt[0]["image_id"] == 0


def test_encode_samples_shapes():
    samples = make_moving_bar_dataset(3, seed=3)
    cubes, labels = encode_samples(samples, ENC)
    assert len(cubes) == 3 and labels.shape == (3,)
    assert cubes[0].data.shape == (2, 2, 64, 64)


# --------------------------------------------------------------------------
# Classifier training
# --------------------------------------------------------------------------


def test_train_classifier_deterministic():
    samples = make_moving_bar_dataset(8, seed=0)
    hists = []
    nets = []
    for _ in range(2):
        net = _toy_net(seed=5)
        hists.append(train_classifier(net, samples, ENC, FAST))
        nets.append(net)
    assert hists[0].losses == hists[1].losses
    for (name, p0), p1 in zip(nets[0].params().items(), nets[1].params().values()):
        assert np.array_equal(p0.data, p1.data), name


def test_training_loops_hand_forward_a_batch_they_own(monkeypatch):
    """``Network.forward``'s tape reads the batch it is given until the
    backward: ``train_classifier`` and ``train_detector`` pass each step a
    batch that shares no memory with their encoded data set."""
    datasets, batches = [], []
    real_cubes, real_forward = pipeline.batch_cubes, Network.forward

    def cubes(*args):
        datasets.append(real_cubes(*args))
        return datasets[-1]

    def forward(net, batch, record=None):
        batches.append(batch)
        return real_forward(net, batch, record)

    monkeypatch.setattr(pipeline, "batch_cubes", cubes)
    monkeypatch.setattr(Network, "forward", forward)
    train_classifier(_toy_net(), make_moving_bar_dataset(4, seed=0), ENC, TrainConfig(epochs=1, batch_size=4))
    train_detector(_toy_detector(), make_moving_squares_dataset(4, seed=0), ENC, TrainConfig(epochs=1, batch_size=4))
    assert len(datasets) == len(batches) == 2
    for data, batch in zip(datasets, batches):
        assert batch.shape == data.shape and not np.shares_memory(batch, data)


def test_detector_stem_builds_no_dy(monkeypatch):
    """One toy-SSD training step, T = 5: the stem reads the voxel cube,
    which needs no gradient, so its five frames take the batch norm's
    gradients from the dW GEMM and build no dy (no ``_conv_dx``, no
    ``_bn_backward``). c2 and c3 build dy for their input in each frame,
    and each run-once head conv once, with no batch norm."""
    model = _toy_detector(in_channels=4)
    # both functions take the conv's weight array or the batch norm's gamma third
    owner = {id(layer.weight.data if hasattr(layer, "weight") else layer.gamma): name
             for name, layer in model.net.layers.items() if hasattr(layer, "weight") or hasattr(layer, "gamma")}
    calls = {"_conv_dx": [], "_bn_backward": []}

    def counted(fn):
        def call(*args):
            calls[fn.__name__].append(owner[id(args[2])])
            return fn(*args)
        return call

    for name in calls:
        monkeypatch.setattr(ops, name, counted(getattr(ops, name)))
    encoder = EncoderConfig(sample_duration=100_000, timesteps=5, micro_bins=2, height=64, width=64)
    train_detector(model, make_moving_squares_dataset(4, seed=0), encoder, TrainConfig(epochs=1, batch_size=4))
    count = {fn: {name: names.count(name) for name in sorted(set(names))} for fn, names in calls.items()}
    assert count == {"_conv_dx": {"c2_conv": 5, "c3_conv": 5, "cls0": 1, "cls1": 1, "loc0": 1, "loc1": 1},
                     "_bn_backward": {"c2_bn": 5, "c3_bn": 5}}


def test_train_classifier_zero_lr_keeps_params():
    samples = make_moving_bar_dataset(8, seed=0)
    net = _toy_net()
    before = {k: v.data.copy() for k, v in net.params().items()}
    train_classifier(net, samples, ENC, TrainConfig(epochs=1, batch_size=8, lr=0.0))
    for k, v in net.params().items():
        assert np.array_equal(before[k], v.data), k


def test_train_classifier_reduces_loss():
    samples = make_moving_bar_dataset(16, seed=0)
    net = _toy_net()
    hist = train_classifier(net, samples, ENC, TrainConfig(epochs=4, batch_size=16, lr=5e-3))
    assert hist.epoch_losses[-1] < hist.epoch_losses[0]
    assert len(hist.losses) == 4
    assert hist.lrs[0] == pytest.approx(5e-3)
    assert hist.lrs[-1] < 5e-3


def test_train_classifier_diverged_on_nan():
    samples = make_moving_bar_dataset(8, seed=0)
    net = _toy_net()
    first = next(iter(net.params().values()))
    first.data[...] = np.nan
    with pytest.raises(TrainingDiverged, match="step 0"):
        train_classifier(net, samples, ENC, FAST)


def test_evaluate_classifier_fused_matches_unfused():
    """``evaluate_classifier``, each bn folded into its conv, predicts what
    the unfolded reference (each bn, then its conv) predicts."""
    samples = make_moving_bar_dataset(8, seed=0)
    net = _toy_net()
    train_classifier(net, samples, ENC, TrainConfig(epochs=1, batch_size=8, lr=1e-3))
    acc, preds = evaluate_classifier(net, samples, ENC)
    cubes, labels = encode_samples(samples, ENC)
    with ag.no_grad():
        unfolded = stepwise_forward(net, batch_cubes(cubes), unfolded=True)["scores"].data.argmax(axis=1)
    assert np.array_equal(preds, unfolded)
    assert acc == float((unfolded == labels).mean())


def test_no_grad_forward_after_training_uses_running_statistics():
    """Batch norm takes its mode from the tape: right after training, a
    no_grad forward reads the running statistics, folded into the convs,
    and leaves them as they are; it predicts what the unfolded reference
    predicts, with no mode switch."""
    samples = make_moving_bar_dataset(8, seed=0)
    net = _toy_net()
    train_classifier(net, samples, ENC, TrainConfig(epochs=1, batch_size=8, lr=1e-3))
    before = {k: v.copy() for k, v in net.state_arrays().items()}
    with ag.no_grad():
        scores = net.forward(batch_cubes(encode_samples(samples, ENC)[0]))["scores"].data
    for k, v in net.state_arrays().items():
        assert np.array_equal(v, before[k]), k
    _, preds = evaluate_classifier(net, samples, ENC)
    with ag.no_grad():
        unfolded = stepwise_forward(net, batch_cubes(encode_samples(samples, ENC)[0]), unfolded=True)["scores"]
    assert np.array_equal(scores.argmax(axis=1), preds)
    assert np.array_equal(unfolded.data.argmax(axis=1), preds)


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    # long enough a run that eval with the BN running statistics dropped
    # predicts differently (one class for all held-out samples)
    enc = EncoderConfig(sample_duration=100_000, timesteps=5, micro_bins=2, height=64, width=64)
    net = Network(build_toy_classifier(in_channels=enc.channels), rng=np.random.default_rng(1))
    opt = AdamW(net.param_list(), lr=1e-3)
    samples = make_moving_bar_dataset(48, seed=0)
    train_classifier(net, samples, enc, TrainConfig(epochs=4, batch_size=16, lr=5e-3))
    path = str(tmp_path / "net.ckpt")
    save_network(path, net, opt)
    other = Network(build_toy_classifier(in_channels=enc.channels), rng=np.random.default_rng(99))
    opt2 = AdamW(other.param_list(), lr=1e-3)
    load_network(path, other, opt2)
    for k, v in net.state_arrays().items():  # parameters and BN running statistics
        assert np.array_equal(other.state_arrays()[k], v), k
    held_out = make_moving_bar_dataset(16, seed=5)
    _, preds = evaluate_classifier(net, held_out, enc)
    _, preds_other = evaluate_classifier(other, held_out, enc)
    assert len(set(preds)) == 2
    assert np.array_equal(preds_other, preds)
    with pytest.raises(ValueError, match="missing .*unexpected"):  # another architecture
        load_network(path, _toy_detector().net)


def test_optimizer_state_keyed_by_parameter_name(tmp_path):
    model = _toy_detector()
    head_names = {n for pair in model.head_taps for n in pair}
    heads = [p for k, p in model.net.params().items() if k.split(".")[0] in head_names]
    frozen = AdamW(heads, lr=1e-3)
    for p in heads:
        p.grad = np.ones_like(p.data)
    frozen.step()
    path = str(tmp_path / "heads.ckpt")
    save_network(path, model.net, frozen)

    again = AdamW(heads, lr=1e-3)
    load_network(path, model.net, again)
    assert again.step_count == 1
    for k, v in frozen.state_arrays().items():
        assert np.array_equal(again.state_arrays()[k], v), k

    full = AdamW(model.net.param_list(), lr=1e-3)
    with pytest.raises(ValueError, match="optimizer state") as err:
        load_network(path, model.net, full)
    assert "missing c1_conv.weight.m" in str(err.value)
    assert full.step_count == 0
    save_network(path, _toy_detector(seed=1).net)  # another init, no optimizer state to restore
    before = {k: v.copy() for k, v in model.net.state_arrays().items()}
    with pytest.raises(ValueError, match="missing step"):
        load_network(path, model.net, again)
    for k, v in model.net.state_arrays().items():  # the failed load changed nothing
        assert np.array_equal(v, before[k]), k


def test_load_backbone_partial(tmp_path):
    src = _toy_detector(seed=1)
    path = str(tmp_path / "det.ckpt")
    save_network(path, src.net)
    dst = _toy_detector(seed=2)
    n, skipped = load_backbone(dst, path)
    assert n == len(src.net.params()) and skipped == []
    for k, v in src.net.params().items():
        assert np.array_equal(dst.net.params()[k].data, v.data)
    # a mismatched input width loads fewer arrays but does not fail
    other = _toy_detector(seed=3, in_channels=ENC.channels * 2)
    m, skipped = load_backbone(other, path)
    assert 0 < m < n
    assert skipped == ["c1_bn.beta", "c1_bn.gamma", "c1_conv.weight"]  # they see the input channels
    fresh = _toy_detector(seed=3, in_channels=ENC.channels * 2).net.params()
    for k, v in other.net.params().items():
        assert np.array_equal(v.data, (fresh if k in skipped else src.net.params())[k].data), k


# --------------------------------------------------------------------------
# Detector training
# --------------------------------------------------------------------------


def test_train_detector_runs_and_scores():
    scenes = make_moving_squares_dataset(6, seed=0)
    model = _toy_detector()
    hist = train_detector(model, scenes, ENC, TrainConfig(epochs=1, batch_size=6, lr=1e-3))
    assert len(hist.losses) == 1 and np.isfinite(hist.losses[0])
    report, dets = evaluate_detector(model, scenes, ENC)
    assert 0.0 <= report.map <= 1.0
    for d in dets:
        assert 0 <= d.image_id < 6 and d.class_id in (0, 1)


def test_evaluate_detector_postprocessing_goes_through_module_names(monkeypatch):
    """perfbench/tracing.py times NMS, decoding and mAP by replacing
    ``detection.nms``, ``pipeline.decode_detections`` and
    ``pipeline.coco_map``; evaluation must look all three up there."""
    import evsnn.detection as detection
    import evsnn.pipeline as pipeline
    from evsnn.autograd.ops import _softmax

    calls = {"nms": 0, "decode": 0, "coco_map": 0}
    expected_nms = []
    real_nms, real_decode, real_map = detection.nms, pipeline.decode_detections, pipeline.coco_map

    def nms(*args, **kwargs):
        calls["nms"] += 1
        return real_nms(*args, **kwargs)

    def decode_detections(cls_logits, *args, score_threshold, **kwargs):
        calls["decode"] += 1
        probs = _softmax(np.asarray(cls_logits, dtype=np.float64))[:, :, 1:]
        expected_nms.append(int((probs >= score_threshold).any(axis=1).sum()))  # (image, class) pairs
        return real_decode(cls_logits, *args, score_threshold=score_threshold, **kwargs)

    def coco_map(*args, **kwargs):
        calls["coco_map"] += 1
        return real_map(*args, **kwargs)

    monkeypatch.setattr(detection, "nms", nms)
    monkeypatch.setattr(pipeline, "decode_detections", decode_detections)
    monkeypatch.setattr(pipeline, "coco_map", coco_map)
    model = _toy_detector()
    bias = model.net.layers[model.head_taps[0][0]].bias
    bias.data.reshape(-1, 3)[:, 1] = 8.0  # class 0 beats background on the first map; class 1 never
    evaluate_detector(model, make_moving_squares_dataset(2, seed=0), ENC, batch_size=1)
    assert calls["decode"] == 2 and calls["coco_map"] == 1
    assert expected_nms == [1, 1]
    assert calls["nms"] == 2


def test_train_detector_frozen_backbone():
    scenes = make_moving_squares_dataset(4, seed=0)
    model = _toy_detector()
    head_names = {n for pair in model.head_taps for n in pair}
    before = {k: v.data.copy() for k, v in model.net.params().items()}
    train_detector(model, scenes, ENC, TrainConfig(epochs=1, batch_size=4, lr=1e-2), freeze_backbone=True)
    changed_heads = changed_backbone = 0
    for k, v in model.net.params().items():
        moved = not np.array_equal(before[k], v.data)
        if k.split(".")[0] in head_names:
            changed_heads += moved
        else:
            changed_backbone += moved
    assert changed_heads > 0
    assert changed_backbone == 0


def test_train_detector_unfreezes_backbone():
    """A frozen-backbone call makes the backbone trainable again when it
    returns or raises, so a later unfrozen call trains it."""
    scenes = make_moving_squares_dataset(4, seed=0)
    model = _toy_detector()
    train_detector(model, scenes, ENC, TrainConfig(epochs=1, batch_size=4, lr=1e-2), freeze_backbone=True)
    weight = model.net.params()["c1_conv.weight"]
    before = weight.data.copy()
    train_detector(model, scenes, ENC, TrainConfig(epochs=2, batch_size=4, lr=1e-2))
    assert weight.requires_grad
    assert not np.array_equal(weight.data, before)

    model.net.params()[f"{model.head_taps[0][0]}.weight"].data[...] = np.nan
    with pytest.raises(TrainingDiverged):
        train_detector(model, scenes, ENC, TrainConfig(epochs=1, batch_size=4, lr=1e-2), freeze_backbone=True)
    assert all(p.requires_grad for p in model.net.params().values())


# --------------------------------------------------------------------------
# Ablation + manifest
# --------------------------------------------------------------------------


def test_run_encoding_ablation_grid():
    samples = make_moving_bar_dataset(8, seed=0)
    val = make_moving_bar_dataset(4, seed=1)
    results = run_encoding_ablation(
        lambda ch: Network(build_toy_classifier(in_channels=ch), rng=np.random.default_rng(0)),
        samples, val, [(1, 1), (2, 1)], TrainConfig(epochs=1, batch_size=8, lr=1e-3),
    )
    assert set(results) == {(1, 1), (2, 1)}
    assert all(0.0 <= v <= 1.0 for v in results.values())


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def test_cli_count_and_export(tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    assert cli.main(["count", "--arch", "vgg11", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "vgg11" in text and "accs/timestep" in text
    rep = json.load(open(out))
    assert rep["params"] > 0

    arch_out = str(tmp_path / "arch.json")
    assert cli.main(["export-arch", "--arch", "squeezenet1.1", "--out", arch_out]) == 0
    arch = json.load(open(arch_out))
    assert arch["nodes"]
    # the exported spec builds the same network as the builder
    exported = Network(NetworkSpec.from_json(open(arch_out).read()))
    shapes = {k: p.data.shape for k, p in exported.params().items()}
    assert shapes == {k: p.data.shape for k, p in Network(named_spec("squeezenet1.1")).params().items()}


def test_cli_synth_and_encode(tmp_path, capsys):
    out_dir = str(tmp_path / "bars")
    assert cli.main(["synth", "bars", "--count", "2", "--out-dir", out_dir]) == 0
    index = json.load(open(os.path.join(out_dir, "index.json")))
    assert len(index) == 2 and {"file", "label", "duration"} <= set(index[0])

    cube_path = str(tmp_path / "bar.vxc")
    events = os.path.join(out_dir, index[0]["file"])
    assert cli.main(["encode", events, "--out", cube_path, "-T", "2", "-n", "1"]) == 0
    cube = parse_vxc(open(cube_path, "rb").read())
    assert cube.data.shape[:2] == (2, 2)
    assert cube.data.sum() > 0


def test_cli_train_and_eval_classifier(tmp_path, capsys):
    ckpt = str(tmp_path / "toy.ckpt")
    args = ["-T", "2", "-n", "1", "--samples", "8", "--epochs", "1", "--batch-size", "8"]
    assert cli.main(["train-classifier", *args, "--out", ckpt]) == 0
    assert os.path.exists(ckpt)
    assert cli.main(["eval-classifier", *args[:4], "--ckpt", ckpt, "--sparsity", "--samples", "4"]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out and "spike rate" in out


def test_cli_train_then_eval_round_trip(tmp_path, capsys):
    """eval-classifier on the trainer's validation set (16 samples, seed + 1)
    reproduces the trainer's in-process accuracy, and so does the unfolded
    reference (each bn, then its conv) on the saved network."""
    ckpt = str(tmp_path / "toy.ckpt")
    assert cli.main(["train-classifier", "--samples", "48", "--epochs", "4", "--batch-size", "16", "--out", ckpt]) == 0
    trained = re.search(r"validation accuracy: (\S+)", capsys.readouterr().out).group(1)
    assert cli.main(["eval-classifier", "--ckpt", ckpt, "--samples", "16"]) == 0
    assert re.search(r"accuracy: (\S+)", capsys.readouterr().out).group(1) == trained
    enc = EncoderConfig(sample_duration=100_000, timesteps=5, micro_bins=2, height=64, width=64)  # the CLI's defaults
    net = Network(build_toy_classifier(in_channels=enc.channels))
    load_network(ckpt, net)
    cubes, labels = encode_samples(make_moving_bar_dataset(16, seed=1), enc)
    with ag.no_grad():
        preds = stepwise_forward(net, batch_cubes(cubes), unfolded=True)["scores"].data.argmax(axis=1)
    assert f"{float((preds == labels).mean()):.3f}" == trained


def test_cli_ablate(tmp_path, capsys):
    out = str(tmp_path / "ablate.json")
    assert cli.main([
        "ablate", "--grid", "1x1", "--samples", "8", "--epochs", "1",
        "--batch-size", "8", "--out", out,
    ]) == 0
    results = json.load(open(out))
    assert set(results) == {"1x1"}


def test_cli_ablate_non_square(tmp_path, monkeypatch, capsys):
    """--height and --width both reach the encoder of every grid cell."""
    shapes = []
    train = pipeline.train_classifier

    def recording_train(net, samples, encoder, *args, **kwargs):
        shapes.append((encoder.height, encoder.width))
        return train(net, samples, encoder, *args, **kwargs)

    monkeypatch.setattr(pipeline, "train_classifier", recording_train)
    out = str(tmp_path / "ablate.json")
    assert cli.main([
        "ablate", "--grid", "1x1,2x1", "--height", "64", "--width", "80", "--samples", "8", "--epochs", "1",
        "--batch-size", "8", "--out", out,
    ]) == 0
    assert shapes == [(64, 80), (64, 80)]
    assert set(json.load(open(out))) == {"1x1", "2x1"}


@pytest.mark.parametrize("grid", ["5", "5x2x1", "ax2", "1x1,0x2", "1x1,"])
def test_cli_ablate_rejects_malformed_grid(grid, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["ablate", "--grid", grid, "--samples", "8", "--epochs", "1"])
    assert exit_.value.code == 2
    bad = grid.split(",")[-1]
    assert f"bad grid cell {bad!r}" in capsys.readouterr().err


def test_cli_reports_divergence(monkeypatch, capsys):
    def boom(*a, **kw):
        raise TrainingDiverged("non-finite loss at step 0")

    monkeypatch.setattr(cli, "train_classifier", boom)
    code = cli.main(["train-classifier", "--samples", "8", "--epochs", "1"])
    assert code == cli.EXIT_DIVERGED
    assert "non-finite" in capsys.readouterr().err
