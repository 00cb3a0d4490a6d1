"""The downcast benchmark: repeated `downcast run`s of one workload.

Usage (from the root of a checkout):

    python3 bench/run.py --workload desk-iso --seed 1 --seconds 40 --trace 0

The workload's inputs are generated from `--seed` into a scratch directory
inside the checkout: `workloads.INPUT_SETS` input sets, each with its own
experiment seed. Runs are a closed loop with one client: each run is a fresh
process (`child.py`) and the next starts when it ends, until `--seconds` of
runs are done. The BLAS pool of each run's process is pinned to one thread.
After the loop every run's outputs are checked; a run that fails a check
counts as failed.

`--trace 0` prints the end-to-end metrics from untraced runs. `--trace 1`
alternates untraced and traced runs and prints the per-layer metrics from
the traced ones, plus the tracing overhead. Lines before the last are a
human-readable report; the last line is one JSON object.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_TIMEOUT_S = 150.0
MAX_LOOP_S = 120.0  # no run starts if it would likely end later, minimums or not
MIN_STEP_SAMPLES = 100  # so that p90 has at least 10 samples beyond it
# One BLAS thread, and a fixed hash seed so that GC counts repeat between runs.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class CheckFailed(Exception):
    pass


def child(work: Path, name: str, argv: list[str], trace: bool) -> dict:
    """Run one downcast command in a fresh process; return its record."""
    record = work / f"{name}.record.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--record", str(record)]
    cmd += ["--trace"] if trace else []
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(SRC)}
    with open(work / f"{name}.log", "w") as log:
        proc = subprocess.run(cmd + ["--", *argv], stdout=log, stderr=subprocess.STDOUT,
                              env=env, timeout=RUN_TIMEOUT_S, cwd=work)
    if proc.returncode != 0 or not record.exists():
        tail = (work / f"{name}.log").read_text()[-2000:]
        raise CheckFailed(f"{name}: exit code {proc.returncode}\n{tail}")
    return json.loads(record.read_text())


# -- correctness checks -------------------------------------------------------------


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_run(out: Path, config: dict) -> bytes:
    """Check one run's artifacts; return its metrics.json bytes."""
    with open(out / "history.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows or not all(math.isfinite(float(r["train_loss"])) for r in rows):
        raise CheckFailed(f"{out.name}: history.csv has a missing or non-finite train loss")

    raw = (out / "metrics.json").read_bytes()
    metrics = json.loads(raw)
    want = {"test_mae", "test_mse", "val_mae", "per_horizon_mae", "missing_fraction", "epochs_run"}
    if set(metrics) != want:
        raise CheckFailed(f"{out.name}: metrics.json keys {sorted(metrics)}")
    horizon = config["dataset"]["horizon"]
    values = [v for k, v in metrics.items() if k != "per_horizon_mae"] + metrics["per_horizon_mae"]
    if len(metrics["per_horizon_mae"]) != horizon or not all(_finite(v) for v in values):
        raise CheckFailed(f"{out.name}: metrics.json is incomplete or non-finite")
    if metrics["epochs_run"] != len(rows):
        raise CheckFailed(f"{out.name}: epochs_run differs from history.csv")

    model = config["model"]
    slots = model["temporal_layers"] * (model["spatial_levels"] + 1)
    groups: dict[tuple[str, str], list[float]] = {}
    with open(out / "attention.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault((row["node"], row["horizon_step"]), []).append(float(row["alpha"]))
    if len(groups) != horizon * config_nodes(config):
        raise CheckFailed(f"{out.name}: attention.csv has {len(groups)} (node, step) groups")
    for key, alphas in groups.items():
        if len(alphas) != slots or abs(sum(alphas) - 1.0) > 1e-9:
            raise CheckFailed(f"{out.name}: attention weights of {key} do not form a distribution")
    return raw


def config_nodes(config: dict) -> int:
    ds = config["dataset"]
    return ds["nodes"] if ds["kind"] == "mso" else workloads.METRO_NODES


def check_dump(out: Path) -> None:
    if (out / "attention-dump.csv").read_bytes() != (out / "attention.csv").read_bytes():
        raise CheckFailed(f"{out.name}: dump-scores does not reproduce attention.csv")


# -- statistics ---------------------------------------------------------------------


def end_to_end(runs: list[dict], quality: float) -> dict:
    """End-to-end metrics over the untraced runs, plus the given quality ratio."""
    steps = [s for r in runs for s in r["step_s"]]
    windows = sum(len(r["step_s"]) * r["batch_size"] for r in runs)
    evals = [e for r in runs for e in r["evals"]]
    return {
        "run_s": (statistics.median(r["run_s"] for r in runs), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
        "train_windows_per_s": (windows / sum(steps), "1/s"),
        "train_step_ms.p50": (1000 * statistics.median(steps), "ms"),
        "train_step_ms.p90": (1000 * statistics.quantiles(steps, n=10, method="inclusive")[8], "ms"),
        "eval_windows_per_s": (sum(w for _, w in evals) / sum(s for s, _ in evals), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "test_mae_vs_persistence": (quality, "ratio"),
    }


def _span(run: dict, name: str, phase: str | None = None) -> tuple[int, float]:
    calls, busy = 0, 0.0
    for span, span_phase, n, seconds in run["spans"]:
        if span == name and (phase is None or span_phase == phase):
            calls += n
            busy += seconds
    return calls, busy


# (metric, span, phase, unit, scale, per): busy time of a span in one phase,
# divided by train steps ("step"), by runs ("run"), or by its calls ("call").
SPAN_METRICS = [
    ("model.encode_inputs_ms", "model.encode_inputs", "train", "ms", 1e3, "step"),
    ("model.temporal_stack_ms", "model.temporal_stack", "train", "ms", 1e3, "step"),
    ("model.spatial_stack_ms", "model.spatial_stack", "train", "ms", 1e3, "step"),
    ("model.attention_fuse_ms", "model.attention_fuse", "train", "ms", 1e3, "step"),
    ("model.readout_ms", "model.readout", "train", "ms", 1e3, "step"),
    ("autodiff.backward_ms", "autodiff.backward", "train", "ms", 1e3, "step"),
    ("sparse.apply_ms", "sparse.apply", "train", "ms", 1e3, "step"),
    ("training.assemble_batch_ms", "training.assemble_batch", "train", "ms", 1e3, "step"),
    ("training.masked_mae_loss_ms", "training.masked_mae_loss", "train", "ms", 1e3, "step"),
    ("training.adamw_step_ms", "training.adamw_step", "train", "ms", 1e3, "step"),
    ("training.evaluate_s", "training.evaluate", None, "s", 1.0, "call"),
    ("model.forward_nograd_ms", "model.forward_batch", "eval", "ms", 1e3, "call"),
    ("model.runtime_build_ms", "model.runtime_build", None, "ms", 1e3, "run"),
    ("cli.prepare_experiment_s", "cli.prepare_experiment", "setup", "s", 1.0, "run"),
    ("data.load_csv_panel_s", "data.load_csv_panel", "setup", "s", 1.0, "run"),
    ("data.generate_mso_ms", "data.generate_mso", "setup", "ms", 1e3, "run"),
    ("data.make_windows_ms", "data.make_windows", "setup", "ms", 1e3, "run"),
    ("masking.simulate_block_ms", "masking.simulate_block", "setup", "ms", 1e3, "run"),
    ("masking.mask_statistics_ms", "masking.mask_statistics", "setup", "ms", 1e3, "run"),
    ("graphs.build_graph_from_coords_ms", "graphs.build_graph_from_coords", "setup", "ms", 1e3, "run"),
    ("graphs.ensure_connected_ms", "graphs.ensure_connected", "setup", "ms", 1e3, "run"),
    ("graphs.build_hierarchy_ms", "graphs.build_hierarchy", "setup", "ms", 1e3, "run"),
    ("training.save_checkpoint_ms", "training.save_checkpoint", "final", "ms", 1e3, "run"),
    ("cli.write_attention_csv_ms", "cli.write_attention_csv", "final", "ms", 1e3, "run"),
]


def per_layer(traced: list[dict], dumps: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced runs; also the counts that did not repeat."""
    def per_run_counts(r: dict) -> dict:
        steps = len(r["step_s"])
        return {
            "model.temporal_stack.records": (r["stage_nodes"]["model.temporal_stack"] / steps, "count"),
            "autodiff.tape_records": (r["tape_nodes"] / steps, "count"),
            "sparse.apply_calls": (_span(r, "sparse.apply", "train")[0] / steps, "count"),
            "sparse.operator_nnz": (r["operator_nnz"], "count"),
            "model.runtimes_built": (_span(r, "model.runtime_build")[0], "count"),
            "masking.faults": (r["faults"], "count"),
            "autodiff.gc_gen2_collections": (r["gc"]["gen2_collections"], "count"),
            "autodiff.gc_objects_collected": (r["gc"]["gen2_collected"], "count"),
        }

    counts = [per_run_counts(r) for r in traced]
    unsteady = {k: [c[k][0] for c in counts] for k in counts[0] if any(c[k] != counts[0][k] for c in counts)}
    out = dict(counts[0])
    for metric, span, phase, unit, scale, per in SPAN_METRICS:
        values = []
        for r in traced:
            calls, busy = _span(r, span, phase)
            divisor = {"step": len(r["step_s"]), "run": 1, "call": calls}[per]
            values.append(scale * busy / divisor if divisor else 0.0)
        out[metric] = (statistics.median(values), unit)
    out["autodiff.gc_pause_ms"] = (statistics.median(1e3 * r["gc"]["gen2_pause_s"] for r in traced), "ms")
    out["cli.dump_scores_s"] = (statistics.median(_span(d, "cli.dump_scores")[1] for d in dumps), "s")
    traced_run_s = statistics.median(r["run_s"] for r in traced)
    out["trace.run_s"] = (traced_run_s, "s")
    out["trace.overhead_s"] = (traced_run_s - statistics.median(r["run_s"] for r in untraced), "s")
    return out, unsteady


# -- entry point -------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "downcast" / "cli.py").is_file():
        print(f"benchmark: no downcast sources under {SRC}", file=sys.stderr)
        return 2

    load_1m = os.getloadavg()[0]
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        return measure(args, work, load_1m)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another benchmark run still uses it


def measure(args, work: Path, load_1m: float) -> int:
    print(f"workload {args.workload} (seed {args.seed}): {workloads.WHY[args.workload]}")
    configs: dict[int, tuple[Path, dict]] = {}

    def config_for(index: int) -> tuple[Path, dict]:
        if index not in configs:
            seed = workloads.input_seed(args.seed, index)
            path = workloads.write_config(args.workload, seed, work / f"inputs{index}")
            configs[index] = (path, json.loads(path.read_text()))
        return configs[index]

    # Closed loop, one client. Untraced runs cycle through the input sets;
    # with tracing, untraced and traced runs alternate on input set 0. The
    # loop runs for --seconds, and at least until every input set has run
    # and, for the end-to-end metrics, MIN_STEP_SAMPLES train steps are done.
    min_runs = 2 if args.trace else workloads.INPUT_SETS
    runs: list[dict] = []
    steps = 0
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        enough = len(runs) >= min_runs and (args.trace or steps >= MIN_STEP_SAMPLES)
        if enough and elapsed + last > args.seconds and not (args.trace and len(runs) % 2):
            break
        if elapsed + last > MAX_LOOP_S:
            break
        began = time.perf_counter()
        run = {"name": f"run{len(runs)}", "trace": bool(args.trace) and len(runs) % 2 == 1,
               "index": 0 if args.trace else len(runs) % workloads.INPUT_SETS}
        config_path, _ = config_for(run["index"])
        argv = ["run", "--config", str(config_path), "--out", str(work / run["name"])]
        try:
            run["record"] = child(work, run["name"], argv, run["trace"])
            steps += len(run["record"]["step_s"])
        except (CheckFailed, subprocess.TimeoutExpired) as exc:
            run["error"] = str(exc)
        runs.append(run)
        last = time.perf_counter() - began
    measured_s = time.perf_counter() - start

    # Checks, outside the measured loop.
    failures: list[str] = []
    failed = 0
    first_metrics: dict[int, bytes] = {}
    good, dumps = [], []
    for run in runs:
        name = run["name"]
        try:
            if "error" in run:
                raise CheckFailed(run["error"])
            out = work / name
            raw = check_run(out, config_for(run["index"])[1])
            dump = child(work, f"{name}-dump", ["dump-scores", "--checkpoint", str(out / "checkpoint"),
                                                "--window", "0", "--out", str(out / "attention-dump.csv")],
                         run["trace"])
            check_dump(out)
            if first_metrics.setdefault(run["index"], raw) != raw:
                raise CheckFailed(f"{name}: metrics.json differs from an earlier run on the same inputs")
            run["test_mae"] = json.loads(raw)["test_mae"]
            good.append(run)
            if run["trace"]:
                dumps.append(dump)
        except (CheckFailed, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
            failures.append(f"{name}: {exc}")
            failed += 1

    untraced = [r["record"] for r in good if not r["trace"]]
    traced = [r["record"] for r in good if r["trace"]]
    quality = {}
    for run in good:
        quality.setdefault(run["index"], (run["test_mae"], run["record"]["persistence_mae"]))
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace and untraced and traced:
        metrics, unsteady = per_layer(traced, dumps, untraced)
        failures += [f"count {k} differs between traced runs: {v}" for k, v in unsteady.items()]
    elif not args.trace and len(quality) == workloads.INPUT_SETS:
        ratio = statistics.fmean(mae / base for mae, base in quality.values())
        metrics = end_to_end(untraced, ratio)
        if steps < MIN_STEP_SAMPLES:
            failures.append(f"only {steps} train steps measured; p90 needs {MIN_STEP_SAMPLES}")
    elif not failures:
        failures.append("too few runs passed their checks")

    env = dict(good[0]["record"]["environment"]) if good else {}
    env.update({"nproc": len(os.sched_getaffinity(0)), "load_1m_at_start": load_1m,
                "runs": len(runs), "traced_runs": len(traced), "measured_s": measured_s})
    print("environment " + json.dumps(env, sort_keys=True))
    for run in runs:
        if "record" in run:
            print(f"{run['name']} inputs{run['index']} {'traced' if run['trace'] else 'untraced'}"
                  f" run_s {run['record']['run_s']:.3f} setup_s {run['record'].get('setup_s', 0.0):.4f}")
    for index, (mae, base) in sorted(quality.items()):
        print(f"inputs{index} seed {workloads.input_seed(args.seed, index)}"
              f" test_mae {mae!r} persistence_mae {base!r}")
    for failure in failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:38s} {value:14.6f} {unit}")

    result = {
        "correct": not failures,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
