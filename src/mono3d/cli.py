"""Command-line entry point for validation, evaluation, and toy experiments.

Commands:
  validate    parse every label/calib file on a split and report problems
  eval        AP tables, localization report, and depth-bin CSV for a split
  train-toy   paired regularised/unregularised toy training runs, with a
              per-seed table of both arms on stdout
  iou-oracle  analytic rotated-box overlap vs Monte-Carlo sampling

Outputs are JSON (stable key order, 6-decimal floats) plus CSV sidecars,
byte-identical across reruns for fixed inputs and seed. Exit codes:
0 success, 1 validation or input error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluation, kitti_io, toy_trainer
from .losses import LossConfig

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NUMERIC_ERROR = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1, not argparse's 2
        raise _UsageError(message)


def _round6(value):
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    return value


def write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_round6(payload), indent=2) + "\n", encoding="utf-8")


def build_parser() -> _Parser:
    parser = _Parser(prog="mono3d", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="check a label/calib corpus")
    validate.add_argument("--gt-dir", required=True, type=Path)
    validate.add_argument("--calib-dir", required=True, type=Path)
    validate.add_argument("--split", required=True, type=Path)
    validate.add_argument("--out", type=Path, default=None)

    ev = sub.add_parser("eval", help="evaluate predictions against ground truth")
    ev.add_argument("--gt-dir", required=True, type=Path)
    ev.add_argument("--pred-dir", required=True, type=Path)
    ev.add_argument("--calib-dir", required=True, type=Path)
    ev.add_argument("--split", required=True, type=Path)
    ev.add_argument("--out", required=True, type=Path)
    ev.add_argument("--thresholds", nargs="+", type=float, default=[0.3, 0.5, 0.7])
    ev.add_argument("--ap-mode", choices=["11", "40"], default="11")

    toy = sub.add_parser("train-toy", help="paired toy regulariser experiment")
    toy.add_argument("--out", required=True, type=Path)
    toy.add_argument("--seed", type=int, default=1)
    toy.add_argument("--n-seeds", type=int, default=20)
    toy.add_argument("--n-objects", type=int, default=50)
    toy.add_argument("--feature-dim", type=int, default=24)
    toy.add_argument("--noise-sigma", type=float, default=0.1)
    toy.add_argument("--epochs", type=int, default=2000)
    toy.add_argument("--lr", type=float, default=1e-3)
    toy.add_argument("--lambda", dest="lam", type=float, default=100.0)
    toy.add_argument("--beta", type=float, default=10.0)
    toy.add_argument("--no-reg", action="store_true",
                     help="run only the unregularised arm")

    oracle = sub.add_parser("iou-oracle", help="cross-check analytic 3D IoU")
    oracle.add_argument("--out", required=True, type=Path)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--n-pairs", type=int, default=200)
    oracle.add_argument("--n-samples", type=int, default=1_000_000)

    return parser


def _read_split(args, pred_dir: Path | None = None):
    """Each frame of ``args.split`` as ``{frame: (gts, preds, calib)}``, and
    every error as ``(file, line, exception)``. A part is None where its file
    failed or, for predictions, is absent; after a label error the frame's
    calibration and predictions are not read."""
    frames, errors = {}, []

    def parse(label: str, path: Path, parser):
        try:
            return parser(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            errors.append((label, getattr(exc, "line_number", None), exc))

    for frame in kitti_io.read_split_file(args.split.read_text(encoding="utf-8")):
        name = f"{frame}.txt"
        gts = parse(name, args.gt_dir / name, kitti_io.parse_label_file)
        calib = preds = None
        if gts is not None:
            calib = parse(f"calib/{name}", args.calib_dir / name, kitti_io.parse_calib_file)
            if pred_dir is not None and (pred_dir / name).exists():
                preds = parse(f"pred/{name}", pred_dir / name, kitti_io.parse_label_file)
        frames[frame] = (gts, preds, calib)
    return frames, errors


def _located(file: str, line: int | None, exc: Exception) -> str:
    return f"{file}{'' if line is None else f':{line}'}: {exc}"


def cmd_validate(args) -> int:
    frames, errors = _read_split(args)
    class_counts: dict[str, int] = {}
    difficulty_counts = {d.name.lower(): 0 for d in kitti_io.Difficulty}
    for gts, _, _ in frames.values():
        for a in gts or ():
            class_counts[a.class_name] = class_counts.get(a.class_name, 0) + 1
            difficulty_counts[kitti_io.assign_difficulty(a).name.lower()] += 1
    summary = {
        "frames": len(frames),
        "errors": [{"file": f, "line": n, "message": str(e)} for f, n, e in errors],
        "class_counts": dict(sorted(class_counts.items())),
        "difficulty_counts": difficulty_counts,
    }
    if args.out:
        write_json(args.out, summary)
    print(f"validate: {len(frames)} frames, {len(errors)} errors")
    for error in errors:
        print(f"  {_located(*error)}")
    return EXIT_INPUT_ERROR if errors else EXIT_OK


def _write_csv(path: Path, header: list[str], rows: list[list]):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.6f}" if isinstance(v, float) else ("" if v is None else v)
                         for v in row])
    path.write_text(buffer.getvalue(), encoding="utf-8")


def cmd_eval(args) -> int:
    if any(not (0.0 < t <= 1.0) for t in args.thresholds):
        raise ValueError(f"thresholds must lie in (0, 1], got {args.thresholds}")
    # The report keys each threshold by f"{thr:g}", so two thresholds
    # with one key would leave one entry for two requested.
    keys = [f"{t:g}" for t in args.thresholds]
    duplicates = sorted({k for k in keys if keys.count(k) > 1})
    if duplicates:
        raise ValueError(f"thresholds must be distinct, got {', '.join(duplicates)} "
                         f"more than once in {args.thresholds}")
    frames, errors = _read_split(args, args.pred_dir)
    if errors:
        raise ValueError(_located(*errors[0]))
    gts_by_frame = {frame: gts for frame, (gts, _, _) in frames.items()}
    preds_by_frame = {frame: preds or [] for frame, (_, preds, _) in frames.items()}
    missing = [frame for frame, (_, preds, _) in frames.items() if preds is None]

    report = evaluation.evaluate_frames(gts_by_frame, preds_by_frame,
                                        thresholds=args.thresholds,
                                        ap_mode=args.ap_mode)
    pr_curves = report.pop("pr_curves")
    report["missing_prediction_frames"] = missing
    report["config"] = {
        "thresholds": list(args.thresholds),
        "ap_mode": args.ap_mode,
        "split": args.split.name,
    }
    write_json(args.out, report)

    if missing:
        sidecar = args.out.with_suffix(args.out.suffix + ".missing.txt")
        sidecar.write_text("".join(f"{f}\n" for f in missing), encoding="utf-8")

    pr_rows = []
    for key in sorted(pr_curves):
        for recall, precision in pr_curves[key]:
            pr_rows.append([key, recall, precision])
    _write_csv(args.out.with_name(args.out.stem + "_pr.csv"),
               ["curve", "recall", "precision"], pr_rows)

    bin_rows = []
    if report["localization"]:
        for b in report["localization"]["depth_bins"]:
            bin_rows.append([b["lo"], b["hi"], b["count"],
                             b["ra_u"], b["ra_v"], b["ra_z"]])
    _write_csv(args.out.with_name(args.out.stem + "_depth_bins.csv"),
               ["depth_lo", "depth_hi", "count", "ra_u", "ra_v", "ra_z"], bin_rows)

    print(f"eval: {len(frames)} frames, {len(missing)} without predictions "
          f"-> {args.out}")
    return EXIT_OK


def cmd_train_toy(args) -> int:
    if args.n_seeds < 1:
        raise ValueError(f"--n-seeds must be at least 1, got {args.n_seeds}")
    cfg = LossConfig(beta=args.beta, lam=args.lam)
    seeds = list(range(args.seed, args.seed + args.n_seeds))
    arms = (False,) if args.no_reg else (True, False)
    try:
        outcome = toy_trainer.run_paired_experiment(
            seeds, cfg, n_objects=args.n_objects, feature_dim=args.feature_dim,
            noise_sigma=args.noise_sigma, lr=args.lr, epochs=args.epochs, arms=arms)
    except toy_trainer.TrainingDiverged as exc:
        print(f"train-toy: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    payload = {
        "config": {
            "seeds": seeds,
            "n_objects": args.n_objects,
            "feature_dim": args.feature_dim,
            "noise_sigma": args.noise_sigma,
            "epochs": args.epochs,
            "lr": args.lr,
            "beta": cfg.beta,
            "lambda": cfg.lam,
        },
        "arms": {key: [r.to_dict() for r in reports]
                 for key, reports in outcome["reports"].items() if reports},
        "comparison": outcome["summary"],
    }
    write_json(args.out, payload)
    for line in _toy_table(seeds, outcome["reports"]):
        print(line)
    for key, value in outcome["summary"].items():
        print(f"train-toy: {key} = {value:.4f}")
    return EXIT_OK


def _toy_table(seeds: list[int], reports: dict) -> list[str]:
    """Per seed, each arm's held-out ordering violations, epochs to
    tolerance ("-" if never reached) and final mean L1 error."""
    arms = [(key, short) for key, short in (("regularized", "reg"),
                                            ("unregularized", "unreg"))
            if reports[key]]
    if not arms:
        return []
    lines = [f"{'seed':>6}" + "".join(f" {'viol ' + short:>11} {'epochs ' + short:>13}"
                                      f" {'final L1 ' + short:>15}"
                                      for _, short in arms)]
    for i, seed in enumerate(seeds):
        row = f"{seed:>6}"
        for key, _ in arms:
            r = reports[key][i]
            epochs = "-" if r.epochs_to_tolerance is None else r.epochs_to_tolerance
            row += f" {r.neighbor_order_violations:>11} {epochs:>13} {r.final_l1:>15.4f}"
        lines.append(row)
    return lines


def cmd_iou_oracle(args) -> int:
    if args.n_pairs < 1:
        raise ValueError(f"--n-pairs must be at least 1, got {args.n_pairs}")
    rng = np.random.default_rng(args.seed)
    deviations = []
    for k in range(args.n_pairs):
        a, b = evaluation.random_box_pair(rng)
        analytic = evaluation.iou_3d(a, b)
        sampled = evaluation.monte_carlo_iou_3d(a, b, n_samples=args.n_samples,
                                                seed=args.seed + k + 1)
        deviations.append(abs(analytic - sampled))
    payload = {
        "n_pairs": args.n_pairs,
        "n_samples": args.n_samples,
        "seed": args.seed,
        "max_abs_deviation": float(np.max(deviations)),
        "mean_abs_deviation": float(np.mean(deviations)),
    }
    write_json(args.out, payload)
    print(f"iou-oracle: max |analytic - sampled| = {payload['max_abs_deviation']:.6f} "
          f"over {args.n_pairs} pairs")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"mono3d: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    handlers = {
        "validate": cmd_validate,
        "eval": cmd_eval,
        "train-toy": cmd_train_toy,
        "iou-oracle": cmd_iou_oracle,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, kitti_io.LabelFormatError,
            kitti_io.CalibFormatError) as exc:
        print(f"mono3d: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
