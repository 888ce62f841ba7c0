"""Tests of the benchmark itself: span arithmetic, patch lifetime, inputs."""

import contextlib
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import inputs
import run
import tracing
from mono3d import cli, evaluation, geometry, locality, toy_trainer

PERFBENCH = Path(run.__file__).resolve().parent


def _main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_self_times_subtract_the_union_of_children_clipped_to_the_parent():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 3.0, 6.0, 0),       # overlaps a: [1, 6] is covered once
        ("c", 9.0, 12.0, 0),      # runs past the parent: only [9, 10] counts
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_self_times_of_a_nested_tree_add_up_to_the_root_duration():
    spans = [
        ("cmd", 0.0, 8.0, -1),
        ("parse", 0.5, 1.5, 0),
        ("eval", 2.0, 7.0, 0),
        ("iou", 2.5, 3.0, 2),
        ("clip", 2.6, 2.9, 3),
        ("iou", 4.0, 4.25, 2),
        ("write", 7.5, 7.75, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([1.75, 1.0, 4.25, 0.2, 0.3, 0.25, 0.25])
    assert tracing.subtree_self_time(spans, selfs, 0) == pytest.approx(8.0)
    assert tracing.subtree_self_time(spans, selfs, 2) == pytest.approx(5.0)


def _patched_attributes():
    """Every (module, attribute) the tracer wraps, with its current value."""
    found = {}
    for module in (cli, evaluation, geometry, locality, toy_trainer, cli.kitti_io):
        for short, names in tracing.SPANS.items():
            for name in names:
                if name in vars(module):
                    found[(module.__name__, name)] = getattr(module, name)
    return found


def test_tracer_wraps_every_lookup_site_and_restores_the_originals(tmp_path):
    before = _patched_attributes()
    assert ("mono3d.toy_trainer", "build_graph") in before
    assert ("mono3d.evaluation", "bev_footprint") in before
    tracer = tracing.Tracer()
    with tracer:
        inside = _patched_attributes()
        assert all(inside[key] is not before[key] for key in before)
        code = _main(["train-toy", "--out", str(tmp_path / "toy.json"), "--n-seeds", "1",
                      "--epochs", "30", "--n-objects", "20"])
    assert code == 0
    assert _patched_attributes() == before
    assert all(_patched_attributes()[key] is before[key] for key in before)

    metrics = tracing.summarize(tracer)
    assert metrics["cli.cmd_train_toy.calls"] == 1
    assert metrics["toy_trainer.train.calls"] == 2
    assert metrics["locality.build_graph.calls"] == 2
    assert metrics["toy_trainer.epochs_run"] == 60
    assert metrics["locality.graph_entries"] == 2 * 20 * 20
    assert metrics["toy_trainer.violation_pairs"] == 2 * 20 * 19 // 2
    assert tracing.command_span_error(tracer) < 1e-6

    # untraced: the originals run and the finished tracer records nothing more
    recorded = len(tracer.spans)
    assert _main(["iou-oracle", "--out", str(tmp_path / "o.json"), "--n-pairs", "2",
                  "--n-samples", "1000"]) == 0
    assert len(tracer.spans) == recorded


def test_iou_counters_count_distinct_pairs_and_monte_carlo_samples(tmp_path):
    tracer = tracing.Tracer()
    with tracer:
        assert _main(["iou-oracle", "--out", str(tmp_path / "o.json"), "--n-pairs", "3",
                      "--n-samples", "2000"]) == 0
    metrics = tracing.summarize(tracer)
    assert metrics["evaluation.iou_3d.calls"] == 3
    assert metrics["evaluation.iou.pairs_distinct"] == 3
    assert metrics["evaluation.iou.useful_ratio"] == 1.0
    assert metrics["evaluation.mc_samples"] == 6000
    assert metrics["geometry.bev_footprint.calls"] == 6


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_eval_inputs_are_deterministic_per_seed_and_differ_across_seeds(tmp_path):
    first = inputs.prepare("eval-val", 3, tmp_path / "a")
    inputs.prepare("eval-val", 3, tmp_path / "b")
    inputs.prepare("eval-val", 4, tmp_path / "c")
    a, b, c = (_tree_bytes(tmp_path / name) for name in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c

    # every (cars, false positives) cell appears once, whatever the seed
    cells = []
    for frame in sorted(first["gt_dir"].iterdir()):
        cars = frame.read_text().count("Car ")
        preds = (first["pred_dir"] / frame.name).read_text().count("\n")
        cells.append((cars, preds - cars))
    assert sorted(cells) == sorted((n, f) for n in inputs.GT_CARS
                                   for f in inputs.FALSE_POSITIVES)


def test_toy_wide_does_not_diverge_on_the_default_seed(tmp_path):
    seed = run.parse_args(["--workload", "toy-wide"]).seed
    argv = inputs.command("toy-wide", seed, {}, tmp_path)
    assert _main(argv) == 0
    assert run.check_output("toy-wide", tmp_path, inputs) is None


def test_benchmark_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval-val",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize("change, expected", [
    ([0.80, 0.81, 0.79, 0.80, 0.82, 0.78, 0.80, 0.81, 0.79, 0.80], "improved"),
    ([1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.02, 1.00], "no worse"),
    ([1.30, 1.31, 1.29, 1.30, 1.32, 1.28, 1.30, 1.31, 1.29, 1.30], "regressed"),
])
def test_compare_verdicts(change, expected):
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(list(zip(base, change)), "lower", 0.1) == expected


def test_compare_is_unresolved_when_the_parent_spreads_wider_than_the_bound():
    base = [1.0, 1.5, 0.7, 1.2, 0.9, 1.4, 0.8, 1.1, 1.3, 0.6]
    change = [b * 1.05 for b in base]
    assert compare.verdict(list(zip(base, change)), "lower", 0.1) == "unresolved"


def test_compare_needs_ten_pairs_unless_every_pair_ties():
    assert compare.verdict([(1.0, 0.5)] * 9, "lower", 0.1) == "unresolved"
    assert compare.verdict([(3.0, 3.0)] * 2, "lower", None) == "unchanged"
    assert compare.verdict([(3.0, 3.0)] * 2, "lower", 0.1) == "no worse"
