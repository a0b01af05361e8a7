"""Benchmark for ssph: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload predict-proteome --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the root of a source checkout; the program is imported from
``src/``. Human-readable lines (environment, every timing as median and tail
percentile with its sample count, failures) come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the gated
end-to-end ones, with ``--trace 1`` the per-layer ones. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
MIN_OPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Gated end-to-end metrics: every workload reports each of them. The value
# behind ``work_per_s`` and ``quality`` depends on the workload. Timings are
# scaled to the reference machine speed (see calibration.py).
END_TO_END = {"work_per_s": "1/s", "op_s": "s", "quality": "ratio",
              "setup_s": "s", "peak_rss_mb": "MB"}
WORK_KEY = {"predict-proteome": "predict_residues_per_s",
            "train-windows": "train_window_iters_per_s",
            "cli-cold": "cold_residues_per_s"}
QUALITY_KEY = {"predict-proteome": "q3", "train-windows": "fit",
               "cli-cold": "q3"}
# Per-operation values printed by name in the human-readable report.
REPORT = {
    "predict-proteome": (("predict_residues_per_s", "residues/s"),
                         ("eval_residues_per_s", "residues/s"),
                         ("predict_s", "s"), ("eval_s", "s"),
                         ("op_s", "s"), ("q3", "ratio")),
    "train-windows": (("train_window_iters_per_s", "windows*iters/s"),
                      ("train_s", "s"), ("fit", "ratio")),
    "cli-cold": (("cold_predict_s", "s"), ("cold_residues_per_s", "residues/s"),
                 ("q3", "ratio")),
}
PER_LAYER = {
    "cli.import_s": "s", "cli.main_s": "s", "cli.main.self_s": "s",
    "io.read_models.s": "s", "io.write_models.s": "s",
    "io.parse_models.s": "s", "io.format_models.s": "s",
    "io.parse_fasta.s": "s", "io.parse_fasta.residues": "count",
    "io.parse_label_records.s": "s", "io.parse_labeled_dataset.s": "s",
    "io.atomic_write_text.s": "s", "io.atomic_write_text.bytes": "bytes",
    "predictor.predict_structure.s": "s",
    "predictor.predict_structure.self_s": "s",
    "predictor.encode_residues.s": "s", "predictor.windows": "count",
    "predictor.all_neginf_windows": "count",
    "hmm.sequence_score.calls": "count", "hmm.sequence_score.s": "s",
    "hmm.baum_welch.s": "s", "hmm.baum_welch.iterations": "count",
    "hmm.baum_welch.s_per_iter": "s",
    "hmm.baum_welch.improving_iter_ratio": "ratio",
    "training.train_models.s": "s", "training.class_windows.s": "s",
    "training.class_windows.windows": "count",
    "metrics.confusion.s": "s", "metrics.format_report.s": "s",
    "metrics.format_report_csv.s": "s",
    "synthetic.planted_dataset.s": "s",
    "trace.spans": "count", "trace.counter_errors": "count",
    "trace.overhead_ratio": "ratio",
}


def cap_threads() -> int:
    """Limit numpy/BLAS threads to the cores this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "scipy_imported_by_ssph": "scipy" in sys.modules,
            "thread_cap": os.environ["OMP_NUM_THREADS"]}


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile (nearest-rank) with at least ten samples
    above it, and its value; None with fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def describe(values: list[float]) -> str:
    if not values:
        return "no samples"
    text = f"median {statistics.median(values):.6g}"
    high = tail(values)
    text += (f", p{high[0]} {high[1]:.6g}" if high
             else ", no percentile with 10 samples beyond it")
    return text + f" (n={len(values)})"


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def improving_iterations(tracer, run: int) -> int:
    """Iterations that raised the log-likelihood by at least ``tol``; the
    first is measured against the starting model's likelihood."""
    import numpy as np
    import reference as ref  # both already loaded by workloads
    improving = 0
    for model, training, tol, trace in tracer.kept[run]:
        params = (model.initial, model.transition, model.emission)
        by_length = {}
        for seq in training:
            by_length.setdefault(len(seq), []).append(np.asarray(seq))
        start = sum(ref.log_likelihood(params, np.stack(group))
                    for group in by_length.values())
        lls = [start] + list(trace)
        improving += sum(b - a >= tol for a, b in zip(lls, lls[1:]))
    return improving


def run_op(workload, ctx, index, tracer):
    """Execute and check one operation; ``tracer`` is None when untraced."""
    import calibration
    from workloads import Op
    run = None
    in_process = tracer is not None and workload.traces_in_process
    if in_process:
        run = tracer.begin(f"op-{index}")
        tracer.install()
    leftovers = []
    factor = calibration.factor(workload.kernel)
    try:
        op = workload.execute(ctx, index, tracer)
    except Exception:
        op = Op(problems=["operation raised:\n" + traceback.format_exc()])
    finally:
        if in_process:
            leftovers = tracer.uninstall()
    op.run = run if in_process else op.run
    op.values["factor"] = factor
    leftovers += op.values.pop("leftover_wrappers", [])
    if leftovers:
        op.problems.append(f"wrappers left in place: {leftovers}")
    if not op.problems:
        try:
            workload.check(ctx, op)
        except Exception:
            op.problems.append("check raised:\n" + traceback.format_exc())
    if tracer is not None and op.run is not None and tracer.kept[op.run]:
        try:
            tracer.count("hmm.baum_welch.improving_iters",
                         improving_iterations(tracer, op.run), op.run)
        except Exception:  # the program's model type changed shape
            tracer.count("trace.counter_errors", 1, op.run)
    return op


def per_layer(tracer, ops, setup_runs, import_s) -> dict[str, float]:
    traced = [op for op in ops if op.traced and op.run is not None]
    plain = [op for op in ops if not op.traced]
    rows = []
    for op in traced:
        agg = tracer.aggregate(op.run)
        agg["cli.main_s"] = agg.get("cli.main.s", 0.0)
        agg.setdefault("cli.import_s", import_s)
        iters = agg.get("hmm.baum_welch.iterations", 0)
        agg["hmm.baum_welch.s_per_iter"] = (
            agg.get("hmm.baum_welch.s", 0.0) / iters if iters else 0.0)
        agg["hmm.baum_welch.improving_iter_ratio"] = (
            agg.get("hmm.baum_welch.improving_iters", 0) / iters
            if iters else 0.0)
        agg["predictor.all_neginf_windows"] = op.values.get(
            "all_neginf_windows", 0)
        agg["trace.spans"] = sum(v for k, v in agg.items()
                                 if k.endswith(".calls"))
        rows.append(agg)
    out = {name: median_of([row.get(name, 0) for row in rows])
           for name in PER_LAYER}
    out["synthetic.planted_dataset.s"] = median_of(
        [tracer.aggregate(run).get("synthetic.planted_dataset.s", 0.0)
         for run in setup_runs])
    traced_s = median_of([op.values["op_s"] for op in traced
                          if "op_s" in op.values])
    plain_s = median_of([op.values["op_s"] for op in plain
                         if "op_s" in op.values])
    out["trace.overhead_ratio"] = traced_s / plain_s if plain_s else 0.0
    return out


def run_workload(name, seed, seconds, trace, import_s, sizes=None, emit=print):
    """Set up, measure for ``seconds`` and check one workload. Returns the
    result object printed as the last line."""
    # Imported here, not at the top: numpy must load after cap_threads(), and
    # the first import of ssph.cli is timed in main().
    import calibration
    from tracer import Tracer
    from workloads import FULL, WORKLOADS, SetupError

    workload = WORKLOADS[name](seed, sizes or FULL)
    tracer = Tracer() if trace else None
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    problems: list[str] = []
    try:
        setup_times, setup_factors, prints, setup_runs = [], [], [], []
        for k in range(SETUP_REPEATS):
            directory = work / f"setup{k}"
            directory.mkdir()
            setup_factors.append(calibration.factor(workload.setup_kernel))
            if tracer:
                setup_runs.append(tracer.begin(f"setup-{k}"))
                tracer.install()
            start = time.perf_counter()
            try:
                ctx = workload.setup(directory)
            finally:
                setup_times.append(time.perf_counter() - start)
                if tracer and (left := tracer.uninstall()):
                    problems.append(f"set-up left wrappers in place: {left}")
            prints.append(workload.fingerprint(ctx))
        if len(set(prints)) != 1:
            problems.append("set-up repetitions wrote different inputs")

        ops, first = [], {}
        deadline = time.perf_counter() + seconds
        index = 0
        while (index < MIN_OPS * (2 if trace else 1)
               or time.perf_counter() < deadline or (trace and index % 2)):
            traced = bool(trace) and index % 2 == 1
            op = run_op(workload, ctx, index, tracer if traced else None)
            op.traced = traced
            if not op.problems:
                if op.key not in first:
                    first[op.key] = (index, op.outputs)
                elif op.outputs != first[op.key][1]:
                    op.problems.append(
                        f"outputs differ from operation {first[op.key][0]} "
                        "on the same input")
            ops.append(op)
            index += 1
        try:
            peak_rss_mb = workload.peak_rss_mb(ctx)
        except SetupError as exc:
            problems.append(str(exc))
            peak_rss_mb = 0.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failed = [op for op in ops if op.problems]
    for op in failed[:5]:
        problems.append(op.problems[0])
    good = [op for op in ops if not op.problems and not op.traced]

    def values(key):
        return [op.values[key] for op in good if key in op.values]

    def scaled(key, power):
        return [op.values[key] * op.values["factor"] ** power
                for op in good if key in op.values]

    setup_scaled = [t * f for t, f in zip(setup_times, setup_factors)]

    emit(f"workload {name}: seed {seed}, {seconds:g} s, trace {trace}, "
         f"{len(ops)} operations ({sum(op.traced for op in ops)} traced)")
    for key, unit in REPORT[name]:
        emit(f"  {key} [{unit}]: {describe(values(key))}")
    emit(f"  setup_s [s]: {describe(setup_times)}")
    emit(f"  calibration factor ({workload.kernel} kernel): "
         f"{describe(values('factor'))}")
    emit(f"  peak_rss_mb [MB]: {peak_rss_mb:.1f}")
    emit(f"  failed_ops_ratio [ratio]: {len(failed)}/{len(ops)} = "
         f"{len(failed) / len(ops):.4g}")
    for problem in problems:
        emit(f"  problem: {problem.splitlines()[0]}")
        print(problem, file=sys.stderr)

    if trace:
        metrics = per_layer(tracer, ops, setup_runs, import_s)
        units = PER_LAYER
        for key, value in metrics.items():
            emit(f"  {key} [{PER_LAYER[key]}]: {value:.6g}")
    else:
        metrics = {
            "work_per_s": median_of(scaled(WORK_KEY[name], -1)),
            "op_s": median_of(scaled("op_s", 1)),
            "quality": median_of(values(QUALITY_KEY[name])),
            "setup_s": median_of(setup_scaled),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    return {"correct": not problems, "attempted": len(ops),
            "failed": len(failed),
            "metrics": {k: {"value": float(v), "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["predict-proteome", "train-windows",
                                 "cli-cold", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ssph" / "__init__.py").is_file():
        print(f"error: no ssph sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    start = time.perf_counter()
    import ssph.cli  # noqa: F401  (timed: what every command pays first)
    import_s = time.perf_counter() - start

    env = environment(nproc)
    print("env: " + json.dumps(env))
    names = (["predict-proteome", "train-windows", "cli-cold"]
             if args.workload == "all" else [args.workload])
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, import_s)
        except Exception:
            traceback.print_exc()
            print(f"error: workload {name} failed before it could report",
                  file=sys.stderr)
            return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
