"""Command-line interface.

Subcommands cover the full loop: synthesizing event data, encoding voxel
cubes, training/evaluating classifiers and detectors, parameter and
operation counting, the encoding ablation grid, and architecture export.
All commands are seeded and deterministic for a fixed platform.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .detection import build_toy_detector_spec, DetectionModel, detections_to_json, detections_to_text
from .encoding import EncoderConfig, encode_voxel_cube, resize_nearest, write_vxc
from .events import load_events, save_events
from .metrics import count_accs_per_timestep, format_table, human_count, measure_sparsity
from .pipeline import (
    TrainConfig,
    TrainingDiverged,
    evaluate_classifier,
    evaluate_detector,
    load_network,
    run_encoding_ablation,
    save_network,
    train_classifier,
    train_detector,
)
from .spiking import Network, convert_dwsep_network
from .spiking.builders import ARCH_NAMES, named_spec
from .tasks import encode_samples, make_moving_bar_dataset, make_moving_squares_dataset

EXIT_DIVERGED = 3


def _encoder_args(p, duration=100_000, timesteps=5, micro_bins=2, size=64):
    p.add_argument("--duration", type=int, default=duration, help="sample duration in microseconds")
    p.add_argument("--timesteps", "-T", type=int, default=timesteps)
    p.add_argument("--micro-bins", "-n", type=int, default=micro_bins)
    p.add_argument("--height", type=int, default=size)
    p.add_argument("--width", type=int, default=size)


def _encoder_from(args):
    return EncoderConfig(
        sample_duration=args.duration, timesteps=args.timesteps, micro_bins=args.micro_bins,
        height=args.height, width=args.width,
    )


def cmd_encode(args):
    stream = load_events(args.events)
    cfg = EncoderConfig(
        sample_duration=args.duration, timesteps=args.timesteps, micro_bins=args.micro_bins,
        height=stream.height, width=stream.width,
    )
    cube = encode_voxel_cube(stream, cfg)
    if args.height or args.width:
        cube = resize_nearest(cube, args.height or stream.height, args.width or stream.width)
    with open(args.out, "wb") as fh:
        fh.write(write_vxc(cube))
    print(f"wrote {args.out}: shape {cube.shape}, {int(cube.data.sum())} active cells")
    return 0


def cmd_synth(args):
    os.makedirs(args.out_dir, exist_ok=True)
    index = []
    if args.task == "bars":
        samples = make_moving_bar_dataset(args.count, seed=args.seed)
        for i, s in enumerate(samples):
            path = os.path.join(args.out_dir, f"bar{i:04d}.evt1b")
            save_events(path, s.stream)
            index.append({"file": os.path.basename(path), "label": s.label, "duration": s.duration})
    else:
        scenes = make_moving_squares_dataset(args.count, seed=args.seed)
        for i, (stream, boxes) in enumerate(scenes):
            path = os.path.join(args.out_dir, f"scene{i:04d}.evt1b")
            save_events(path, stream)
            index.append({
                "file": os.path.basename(path),
                "boxes": [{"t": b.t, "x": b.x, "y": b.y, "w": b.w, "h": b.h, "class_id": b.class_id} for b in boxes],
            })
    with open(os.path.join(args.out_dir, "index.json"), "w") as fh:
        json.dump(index, fh, indent=2)
    print(f"wrote {args.count} {args.task} samples to {args.out_dir}")
    return 0


def cmd_count(args):
    spec = named_spec(args.arch, in_channels=2 * args.micro_bins, num_classes=args.num_classes)
    # MobileNet is counted in its dense form, as the paper's table gives it
    net = convert_dwsep_network(Network(spec))
    rep = count_accs_per_timestep(net, (args.height, args.width))
    rows = [[
        args.arch, f"{args.height}x{args.width}",
        human_count(rep.params), human_count(rep.params_fusable_bn), human_count(rep.accs_per_timestep),
    ]]
    print(format_table(["model", "input", "params", "bn params", "accs/timestep"], rows))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rep.to_dict(), fh, indent=2)
    return 0


def cmd_export_arch(args):
    spec = named_spec(args.arch, in_channels=2 * args.micro_bins, num_classes=args.num_classes)
    text = spec.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


def _toy_net(channels, seed):
    spec = named_spec("toy", in_channels=channels)
    return Network(spec, rng=np.random.default_rng(seed))


def cmd_train_classifier(args):
    encoder = _encoder_from(args)
    samples = make_moving_bar_dataset(args.samples, seed=args.seed)
    net = _toy_net(encoder.channels, args.seed)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr, seed=args.seed)
    hist = train_classifier(net, samples, encoder, cfg, log=print)
    if args.out:
        save_network(args.out, net)
        print(f"saved checkpoint to {args.out}")
    val = make_moving_bar_dataset(max(args.samples // 4, 16), seed=args.seed + 1)
    acc, _ = evaluate_classifier(net, val, encoder)
    print(f"validation accuracy: {acc:.3f}  (final loss {hist.epoch_losses[-1]:.4f})")
    return 0


def cmd_eval_classifier(args):
    encoder = _encoder_from(args)
    net = _toy_net(encoder.channels, args.seed)
    load_network(args.ckpt, net)
    samples = make_moving_bar_dataset(args.samples, seed=args.seed + 1)
    acc, _ = evaluate_classifier(net, samples, encoder)
    print(f"accuracy: {acc:.3f}")
    if args.sparsity:
        cubes, _ = encode_samples(samples, encoder)
        rep = measure_sparsity(net, cubes)
        print(f"global spike rate: {rep.global_rate:.4f} per timestep ({rep.dense_multiplier():.3f}x dense over T={rep.timesteps})")
    return 0


def cmd_train_detector(args):
    encoder = _encoder_from(args)
    scenes = make_moving_squares_dataset(args.samples, seed=args.seed)
    spec, taps, anchor_cfg = build_toy_detector_spec(in_channels=encoder.channels)
    model = DetectionModel(spec, taps, 2, anchor_cfg, rng=np.random.default_rng(args.seed))
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr, seed=args.seed)
    train_detector(model, scenes, encoder, cfg, log=print)
    if args.out:
        save_network(args.out, model.net)
        print(f"saved checkpoint to {args.out}")
    val = make_moving_squares_dataset(max(args.samples // 4, 8), seed=args.seed + 1)
    report, _ = evaluate_detector(model, val, encoder)
    print(f"validation mAP: {report.map:.3f} (mAP@50 {report.map50:.3f})")
    return 0


def cmd_eval_detector(args):
    encoder = _encoder_from(args)
    spec, taps, anchor_cfg = build_toy_detector_spec(in_channels=encoder.channels)
    model = DetectionModel(spec, taps, 2, anchor_cfg, rng=np.random.default_rng(args.seed))
    load_network(args.ckpt, model.net)
    scenes = make_moving_squares_dataset(args.samples, seed=args.seed + 1)
    report, detections = evaluate_detector(model, scenes, encoder)
    print(f"mAP: {report.map:.3f} (mAP@50 {report.map50:.3f})")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(detections_to_json(detections) if args.out.endswith(".json") else detections_to_text(detections))
        print(f"wrote detections to {args.out}")
    return 0


def cmd_ablate(args):
    samples = make_moving_bar_dataset(args.samples, seed=args.seed)
    val = make_moving_bar_dataset(max(args.samples // 4, 16), seed=args.seed + 1)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr, seed=args.seed)
    results = run_encoding_ablation(
        lambda ch: _toy_net(ch, args.seed), samples, val, args.grid, cfg,
        sample_duration=args.duration, height=args.height, width=args.width, log=print,
    )
    rows = [[f"T={t}", f"n={n}", f"{acc:.3f}"] for (t, n), acc in results.items()]
    print(format_table(["timesteps", "micro bins", "accuracy"], rows))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({f"{t}x{n}": acc for (t, n), acc in results.items()}, fh, indent=2)
    return 0


def _ablation_grid(text):
    """'1x1,5x2' -> [(1, 1), (5, 2)]: comma-separated TxN cells of positive
    integers. A bad cell is an argparse error that names it (exit code 2)."""
    grid = []
    for cell in text.split(","):
        parts = [part.strip() for part in cell.split("x")]
        if len(parts) != 2 or not all(part.isdigit() and int(part) > 0 for part in parts):
            raise argparse.ArgumentTypeError(f"bad grid cell {cell!r}: expected TxN with positive integers, e.g. 5x2")
        grid.append((int(parts[0]), int(parts[1])))
    return grid


def main(argv=None):
    parser = argparse.ArgumentParser(prog="evsnn", description="Spiking neural networks on event-camera data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode an event file into a voxel cube dump")
    p.add_argument("events")
    p.add_argument("--out", required=True)
    p.add_argument("--duration", type=int, default=100_000)
    p.add_argument("--timesteps", "-T", type=int, default=5)
    p.add_argument("--micro-bins", "-n", type=int, default=2)
    p.add_argument("--height", type=int, default=0, help="resize target (0 = keep)")
    p.add_argument("--width", type=int, default=0)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("synth", help="generate synthetic event datasets")
    p.add_argument("task", choices=["bars", "squares"])
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("count", help="parameter and ACC/timestep accounting for an architecture "
                                     "(MobileNet in its dense form)")
    p.add_argument("--arch", choices=list(ARCH_NAMES), required=True)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--micro-bins", "-n", type=int, default=2)
    p.add_argument("--num-classes", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("export-arch", help="dump an architecture graph as JSON")
    p.add_argument("--arch", choices=list(ARCH_NAMES), required=True)
    p.add_argument("--micro-bins", "-n", type=int, default=2)
    p.add_argument("--num-classes", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_export_arch)

    for name, fn in (("train-classifier", cmd_train_classifier), ("train-detector", cmd_train_detector)):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} on synthetic data")
        _encoder_args(p)
        p.add_argument("--samples", type=int, default=128)
        p.add_argument("--epochs", type=int, default=10)
        p.add_argument("--batch-size", type=int, default=64)
        p.add_argument("--lr", type=float, default=5e-3 if name == "train-classifier" else 1e-3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="checkpoint path")
        p.set_defaults(fn=fn)

    for name, fn in (("eval-classifier", cmd_eval_classifier), ("eval-detector", cmd_eval_detector)):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} from a checkpoint")
        _encoder_args(p)
        p.add_argument("--ckpt", required=True)
        p.add_argument("--samples", type=int, default=64)
        p.add_argument("--seed", type=int, default=0)
        if name == "eval-classifier":
            p.add_argument("--sparsity", action="store_true", help="also report spike rates")
        else:
            p.add_argument("--out", help="detection dump (.json or text)")
        p.set_defaults(fn=fn)

    p = sub.add_parser("ablate", help="encoding ablation grid over (T, n)")
    _encoder_args(p)
    p.add_argument("--grid", type=_ablation_grid, default="1x1,5x2", help="comma-separated TxN cells, e.g. 1x1,5x2")
    p.add_argument("--samples", type=int, default=128)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ablate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
