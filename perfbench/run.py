#!/usr/bin/env python3
"""Benchmark of the ``mono3d`` commands: one workload per process.

    python3 perfbench/run.py --workload eval-val --seed 0 --seconds 25 --trace 0

Generates the workload's inputs from ``--seed``, runs the command
in-process through ``mono3d.cli.main`` from ``src/`` for ``--seconds``
seconds, checks every execution's output, and prints the metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-module metrics of BENCHMARK.json with ``--trace 1``.
``--record FILE`` also appends the full result, with the machine, to a
JSON-lines file that ``perfbench/compare.py`` reads.

Set-up is measured in fresh interpreters (``--probe-setup``), which
import ``mono3d`` and write the workload's inputs, so it can be repeated.
Exit code 2 means the benchmark could not set up (for example, ``src/`` is
missing); no result is printed then.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# BLAS/OpenMP threads; one keeps runs steady and below any machine's nproc.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("eval-val", "toy-convoy", "toy-wide", "iou-oracle")
SETUP_PROBES = 7
ORACLE_MAX_DEVIATION = 0.01     # criterion 5's bound
SPAN_CHECK_TOLERANCE_S = 1e-6
EXIT_SETUP_FAILED = 2


class SetupError(Exception):
    pass


def _load():
    """Pin threads, then import the generator, tracer and ``mono3d.cli``."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    if not (SRC / "mono3d" / "__init__.py").is_file():
        raise SetupError(f"no mono3d package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import inputs
    import tracing
    from mono3d import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported mono3d from {cli.__file__}, not {SRC}")
    return inputs, tracing, cli


def _probe_setup(workload: str, seed: int, directory: Path) -> float:
    """Wall time of a fresh interpreter that imports mono3d and writes the inputs."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe-setup", str(directory)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SetupError(f"set-up probe failed:\n{done.stderr}")
    return elapsed


def machine(seed: int) -> dict:
    """The hardware and software a result was measured on."""
    import numpy as np
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
    blas = "unknown"
    with contextlib.suppress(Exception):  # show_config's layout differs across numpy versions
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": THREADS,
        "seed": seed,
    }


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _finite_unit(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0


def check_output(workload: str, out: Path, inputs) -> str | None:
    """Workload-specific checks of one execution's outputs; a problem or None."""
    if workload == "eval-val":
        report = json.loads((out / "report.json").read_text())
        aps = [ap for key in ("ap_3d", "ap_bev") for tier in report[key].values()
               for ap in tier.values()]
        if len(aps) != 18 or not all(_finite_unit(ap) for ap in aps):
            return f"AP values not all finite in [0, 1]: {aps}"
        if report["frames"] != inputs.EVAL_FRAMES or report["localization"] is None:
            return "report misses frames or the localization block"
        for csv in ("report_pr.csv", "report_depth_bins.csv"):
            if not (out / csv).is_file():
                return f"missing {csv}"
        return None
    if workload in ("toy-convoy", "toy-wide"):
        payload = json.loads((out / "toy.json").read_text())
        n_seeds = len(payload["config"]["seeds"])
        epochs = payload["config"]["epochs"]
        if 2 * n_seeds * epochs != inputs.work_per_execution(workload)[0]:
            return f"ran {n_seeds} seeds x {epochs} epochs, not the workload's size"
        for arm in ("regularized", "unregularized"):
            reports = payload["arms"][arm]
            if len(reports) != n_seeds or any(len(r["loss_curve"]) != epochs
                                              for r in reports):
                return f"{arm} arm incomplete"
        if not all(math.isfinite(v) for v in payload["comparison"].values()):
            return f"non-finite comparison {payload['comparison']}"
        return None
    payload = json.loads((out / "oracle.json").read_text())
    if payload["n_pairs"] != inputs.ORACLE_PAIRS:
        return f"oracle ran {payload['n_pairs']} pairs"
    if not payload["max_abs_deviation"] <= ORACLE_MAX_DEVIATION:
        return f"max_abs_deviation {payload['max_abs_deviation']} > {ORACLE_MAX_DEVIATION}"
    return None


class Runner:
    """Executes one workload's command repeatedly and checks each output."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.inputs, self.tracing, self.cli = _load()
        self.workload = workload
        self.out = work / "out"
        self.argv = self.inputs.command(
            workload, seed, self.inputs.prepare(workload, seed, work / "inputs"), self.out)
        self.reference: str | None = None
        self.attempted = 0
        self.failed = 0

    def execute(self, tracer=None) -> float:
        """Run the command once; return its wall time and count a failure
        if it raises, exits non-zero, or its output fails a check."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        code = None
        with contextlib.redirect_stdout(io.StringIO()), \
                (tracer or contextlib.nullcontext()):
            start = time.perf_counter()
            try:
                code = self.cli.main(self.argv)
            except Exception:  # a failed execution is counted, not fatal
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        self.attempted += 1
        problem = f"exit code {code}" if code != 0 else None
        if problem is None:
            try:
                problem = check_output(self.workload, self.out, self.inputs)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem is None:
            digest = _digest(self.out)
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                problem = "output differs from the first execution"
        if tracer is not None:
            tracer.counts["cli.output_bytes"] = sum(
                p.stat().st_size for p in self.out.rglob("*") if p.is_file())
            error = self.tracing.command_span_error(tracer)
            if problem is None and error > SPAN_CHECK_TOLERANCE_S:
                problem = f"self times miss the command span by {error:.3g} s"
        if problem is not None:
            self.failed += 1
            print(f"perfbench: execution {self.attempted} failed: {problem}",
                  file=sys.stderr)
        return elapsed


def _percentile_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n <= 20:
        return f"median of {n}"
    q = math.floor(100 * (n - 10) / n)
    return f"median of {n}, p{q} {statistics.quantiles(samples, n=100)[q - 1]:.6g}"


def measure(args, work: Path) -> tuple[dict, list[str]]:
    runner = Runner(args.workload, args.seed, work)
    runner.execute()                                   # warm-up and reference output
    # Set-up probes are spread over the measuring window, between executions,
    # so that a slow spell of the machine does not hit all of them.
    times, setups = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_PROBES and \
                elapsed >= len(setups) * args.seconds / SETUP_PROBES:
            setups.append(_probe_setup(args.workload, args.seed,
                                       work / f"probe{len(setups)}"))
        elif times and elapsed >= args.seconds:
            break
        else:
            times.append(runner.execute())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.median(times)
    work_units, unit = runner.inputs.work_per_execution(args.workload)
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "throughput": {"value": work_units / wall, "unit": "items/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    lines = [
        f"wall_s       {wall:.6g} s ({_percentile_note(times)} executions)",
        f"throughput   {work_units / wall:.6g} {unit}/s ({work_units:g} {unit} "
        "per execution)",
        f"setup_s      {statistics.median(setups):.6g} s (median of {len(setups)} "
        "fresh interpreters)",
        f"peak_rss_mb  {rss_mb:.6g} MB",
        f"failed_share {runner.failed / runner.attempted:.6g} "
        f"({runner.failed} of {runner.attempted} executions)",
    ]
    return _result(runner, metrics), lines


def measure_traced(args, work: Path) -> tuple[dict, list[str]]:
    runner = Runner(args.workload, args.seed, work)
    runner.execute()
    plain, traced, per_execution = [], [], []
    last = None
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(runner.execute())
        last = runner.tracing.Tracer()
        traced.append(runner.execute(last))
        per_execution.append(runner.tracing.summarize(last))
    per_layer = runner.tracing.median_metrics(per_execution)
    per_layer["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    spans_file = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
    base = last.spans[0][1] if last.spans else 0.0
    spans_file.write_text("".join(
        json.dumps([name, start - base, end - base, parent]) + "\n"
        for name, start, end, parent in last.spans))
    metrics = {name: {"value": value, "unit": runner.tracing.unit(name)}
               for name, value in per_layer.items()}
    lines = [f"{name:48s} {value:.6g}" for name, value in per_layer.items()]
    lines.append(f"spans of the last traced execution: {spans_file}")
    if last.missing:
        lines.append(f"not found, reported as 0: {', '.join(last.missing)}")
    return _result(runner, metrics), lines


def _result(runner: Runner, metrics: dict) -> dict:
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics, "sha256": runner.reference}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="append the result and machine to this JSON-lines file")
    parser.add_argument("--probe-setup", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.probe_setup is not None:
            inputs, _, _ = _load()
            inputs.prepare(args.workload, args.seed, args.probe_setup)
            return 0
        work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        try:
            result, lines = (measure_traced if args.trace else measure)(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_SETUP_FAILED
    host = machine(args.seed)
    digest = result.pop("sha256")
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: output sha256 {digest}")
    print(f"# machine {json.dumps(host)}")
    for line in lines:
        print(line)
    if args.record is not None:
        with args.record.open("a", encoding="utf-8") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace,
                                "sha256": digest, "machine": host, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
