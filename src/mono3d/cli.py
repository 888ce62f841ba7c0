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
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import evaluation, kitti_io, locality, toy_trainer
from .losses import LossConfig

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NUMERIC_ERROR = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1, not argparse's 2
        raise _UsageError(message)


def _rounded_floats(values) -> list[float]:
    """``[round(v, 6) for v in values]`` for Python floats, rounded in one
    numpy step. With q = v * 1e6, ``rint(q) / 1e6`` is that double whenever
    q lies more than one ulp from a half-integer: ``rint`` then picks the
    correctly rounded integer k despite the product's error, and the
    division returns the double nearest k / 10**6, as ``round`` does. The
    test fails for NaN, infinities, near-ties and every |q| >= 2**51 (an ulp
    of at least 0.5); those values go through ``round``."""
    with np.errstate(all="ignore"):
        q = np.array(values, dtype=np.float64) * 1e6
        exact = np.abs(q - np.floor(q) - 0.5) > np.abs(np.spacing(q))
        rounded = (np.rint(q) / 1e6).tolist()
    for i in np.flatnonzero(~exact).tolist():
        rounded[i] = round(values[i], 6)
    return rounded


def _json_text(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2)`` at nesting ``depth``, each float
    rounded to 6 decimals. A dict or list that holds no non-empty dict or
    list is written in one call of json's C encoder, which ``indent`` would
    turn off, with the indented separator passed in its place; a list of
    Python floats is rounded by ``_rounded_floats``."""
    if isinstance(value, float):
        return json.dumps(round(value, 6))
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    is_dict = isinstance(value, dict)
    newline = "\n" + "  " * (depth + 1)
    separators = ("," + newline, ": ")
    if not is_dict and all(type(v) is float for v in value):
        body = json.dumps(_rounded_floats(value), separators=separators)[1:-1]
    elif any(isinstance(v, (dict, list, tuple)) and v
             for v in (value.values() if is_dict else value)):
        # json.dumps writes a non-str key as its JSON text in quotes
        # (1 -> "1"); encoding a one-entry dict applies that rule.
        parts = [f"{json.dumps({k: 0})[1:-4]}: {_json_text(v, depth + 1)}"
                 for k, v in value.items()] if is_dict else \
            [_json_text(v, depth + 1) for v in value]
        body = ("," + newline).join(parts)
    else:
        flat = {k: round(v, 6) if isinstance(v, float) else v for k, v in value.items()} \
            if is_dict else [round(v, 6) if isinstance(v, float) else v for v in value]
        body = json.dumps(flat, separators=separators)[1:-1]
    opening, closing = "{}" if is_dict else "[]"
    return opening + newline + body + "\n" + "  " * depth + closing


def write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json_text(payload) + "\n", encoding="utf-8")


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
    toy.add_argument("--lambda", dest="lam", type=float, default=locality.DEFAULT_LAMBDA)
    toy.add_argument("--beta", type=float, default=locality.DEFAULT_BETA)
    toy.add_argument("--no-reg", action="store_true",
                     help="run only the unregularised arm")

    oracle = sub.add_parser("iou-oracle", help="cross-check analytic 3D IoU")
    oracle.add_argument("--out", required=True, type=Path)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--n-pairs", type=int, default=200)
    oracle.add_argument("--n-samples", type=int, default=1_000_000)

    return parser


def _read_split(args, pred_dir: Path | None = None):
    """``{frame: table}`` of ``args.split``'s labels and of the predictions
    in ``pred_dir`` that have a file (None where a file failed), and every
    error as ``(file, line, exception)``. Calibrations are parsed for their
    errors; after a label error the frame's other files are not read."""
    gts_by_frame, preds_by_frame, errors = {}, {}, []

    def parse(label: str, path: Path, parser):
        try:
            return parser(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            errors.append((label, getattr(exc, "line_number", None), exc))

    for frame in kitti_io.read_split_file(args.split.read_text(encoding="utf-8")):
        name = f"{frame}.txt"
        gts_by_frame[frame] = parse(name, args.gt_dir / name, kitti_io.parse_label_file)
        if gts_by_frame[frame] is not None:
            parse(f"calib/{name}", args.calib_dir / name, kitti_io.parse_calib_file)
            if pred_dir is not None and (pred_dir / name).exists():
                preds_by_frame[frame] = parse(f"pred/{name}", pred_dir / name,
                                              kitti_io.parse_label_file)
    return gts_by_frame, preds_by_frame, errors


def _located(file: str, line: int | None, exc: Exception) -> str:
    return f"{file}{'' if line is None else f':{line}'}: {exc}"


def cmd_validate(args) -> int:
    gts_by_frame, _, errors = _read_split(args)
    gts = kitti_io.LabelTable.concat([t for t in gts_by_frame.values() if t is not None])
    tiers = kitti_io.assign_difficulty(gts)
    summary = {
        "frames": len(gts_by_frame),
        "errors": [{"file": f, "line": n, "message": str(e)} for f, n, e in errors],
        "class_counts": dict(sorted(Counter(gts.class_names).items())),
        "difficulty_counts": {d.name.lower(): int((tiers == d).sum())
                              for d in kitti_io.Difficulty},
    }
    if args.out:
        write_json(args.out, summary)
    print(f"validate: {len(gts_by_frame)} frames, {len(errors)} errors")
    for error in errors:
        print(f"  {_located(*error)}")
    return EXIT_INPUT_ERROR if errors else EXIT_OK


def _write_csv(path: Path, header: list[str], rows: list[list]):
    """Comma-joined rows: floats as ``f"{v:.6f}"``, None empty, the rest ``str``."""
    lines = [",".join(header)]
    lines += [",".join([f"{v:.6f}" if isinstance(v, float) else ("" if v is None else str(v))
                        for v in row]) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_eval(args) -> int:
    evaluation.check_thresholds(args.thresholds)
    if not args.pred_dir.is_dir():
        raise ValueError(f"--pred-dir {args.pred_dir} is not a directory")
    gts_by_frame, preds_by_frame, errors = _read_split(args, args.pred_dir)
    if errors:
        raise ValueError(_located(*errors[0]))
    missing = [frame for frame in gts_by_frame if frame not in preds_by_frame]

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

    # A rerun with every prediction present leaves no stale sidecar behind.
    sidecar = args.out.with_suffix(args.out.suffix + ".missing.txt")
    if missing:
        sidecar.write_text("".join(f"{f}\n" for f in missing), encoding="utf-8")
    else:
        sidecar.unlink(missing_ok=True)

    _write_csv(args.out.with_name(args.out.stem + "_pr.csv"), ["curve", "recall", "precision"],
               [[key, *point] for key in sorted(pr_curves) for point in pr_curves[key].tolist()])

    bins = report["localization"]["depth_bins"] if report["localization"] else []
    _write_csv(args.out.with_name(args.out.stem + "_depth_bins.csv"),
               ["depth_lo", "depth_hi", "count", "ra_u", "ra_v", "ra_z"],
               [list(b.values()) for b in bins])

    print(f"eval: {len(gts_by_frame)} frames, {len(missing)} without predictions -> {args.out}")
    return EXIT_OK


def cmd_train_toy(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
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
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
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
    except (OSError, ValueError) as exc:
        print(f"mono3d: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
