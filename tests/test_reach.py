"""What the program's traffic reaches: every function in ``src/evsnn``.

The traffic is the CLI and the benchmark. One run of every CLI subcommand
on tiny inputs, then of each ``perfbench`` workload's ``setup`` and
``counts`` at seed 1, runs under ``sys.setprofile``, which records each
code object entered. Every function and method that ``src/evsnn`` defines
(nested ones included, dunder methods left out) must be among them or in
``ALLOWED`` with its reason. A reached ``ALLOWED`` entry fails too, so the
list cannot go stale.
"""

import ast
import functools
import os
import struct
import sys
from pathlib import Path

import evsnn
import evsnn.cli as cli

SRC = Path(os.path.realpath(evsnn.__file__)).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# "module:qualname" -> why nothing in the CLI or the benchmark reaches it
ALLOWED = {
    "detection:build_detector_spec": "the paper's DenseNet SSD: criterion 1 counts its parameters; the CLI "
                                      "trains it once ROADMAP item 10 lands",
    "spiking.layers:NetworkSpec.from_json": "reads what export-arch writes; the CLI takes it as --arch input "
                                            "once ROADMAP item 8 lands",
}


def _defined():
    """"module:qualname" -> (file, first line, name) of every function and
    method in ``src/evsnn``, nested ones included, dunder methods left out.
    The first line is the code object's: that of the first decorator."""
    found = {}

    def visit(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found[f"{module}:{prefix}{child.name}"] = (path, first, child.name)
                visit(child, module, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, path, f"{prefix}{child.name}.")
            else:
                visit(child, module, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        visit(ast.parse(path.read_text(), str(path)), module, str(path), "")
    return found


def _reached(run):
    """(file, first line, name) of every code object entered while ``run()`` runs."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # an lru_cache hit enters no code: start every cache empty
    for name, module in list(sys.modules.items()):
        if name.startswith("evsnn"):
            for value in vars(module).values():
                if isinstance(value, functools._lru_cache_wrapper):
                    value.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in codes}


def _cli_traffic(tmp):
    """Every subcommand once, on inputs small enough for a unit test."""
    small = ["-T", "1", "-n", "1"]

    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0, argv

    run("synth", "bars", "--count", 2, "--out-dir", tmp / "bars")
    run("synth", "squares", "--count", 2, "--seed", 1, "--out-dir", tmp / "squares")
    run("encode", tmp / "bars" / "bar0000.evt1b", "--out", tmp / "bar.vxc", "--height", 32, "--width", 32)
    for name in ("events.dat", "empty.dat", "events.evt1"):
        run("encode", tmp / name, "--out", tmp / f"{name}.vxc")
    for arch in ("vgg11", "mobilenet16", "densenet121-16"):
        run("count", "--arch", arch, "--out", tmp / f"{arch}.json")
    run("export-arch", "--arch", "toy", "--out", tmp / "toy.json")
    run("train-classifier", *small, "--samples", 4, "--epochs", 1, "--batch-size", 4, "--out", tmp / "cls.ckpt")
    run("eval-classifier", *small, "--samples", 2, "--ckpt", tmp / "cls.ckpt", "--sparsity")
    run("train-detector", *small, "--samples", 2, "--epochs", 1, "--batch-size", 2, "--out", tmp / "det.ckpt")
    for out in ("dets.json", "dets.txt"):
        run("eval-detector", *small, "--samples", 2, "--ckpt", tmp / "det.ckpt", "--out", tmp / out)
    run("ablate", "--grid", "1x1,2x1", "--samples", 2, "--epochs", 1, "--batch-size", 2)


def _benchmark_traffic():
    """Each workload's set-up and counts at seed 1, imported as
    ``perfbench/run.py`` imports them."""
    import workloads

    for workload in workloads.WORKLOADS.values():
        bench = workload(1)
        bench.setup()
        bench.counts()


def test_cli_and_benchmark_reach_every_function(tmp_path, monkeypatch):
    # the .dat files: one with a geometry header and two events, one empty (no header: the default sensor)
    records = struct.pack("<4I", 10, 3 | 4 << 14 | 1 << 28, 20, 5 | 2 << 14)
    (tmp_path / "events.dat").write_bytes(b"% Width 16\n% Height 12\n" + bytes([0, 8]) + records)
    (tmp_path / "empty.dat").write_bytes(b"")
    (tmp_path / "events.evt1").write_bytes(b"EVT1 4 4 2\n1 0 0 1\n5 3 2 0\n")
    monkeypatch.syspath_prepend(str(PERFBENCH))

    def traffic():
        _cli_traffic(tmp_path)
        _benchmark_traffic()

    reached = _reached(traffic)
    unreached = {name for name, key in _defined().items() if key not in reached}
    assert unreached - set(ALLOWED) == set(), "reached by neither the CLI nor the benchmark"
    assert set(ALLOWED) - unreached == set(), "reached, so no longer ALLOWED"
