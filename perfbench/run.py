"""Benchmark of the cdrnet CLI pipeline on seeded synthetic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ref-250 --seed 1 --seconds 60 --trace 0

Set-up generates the workload's CSV files, and runs again before every
repetition (``setup_s`` is the median). With ``--trace 0``, each repetition
runs the seven CLI stages (featurize, train, train-svm, predict --head
avg/svm, evaluate x2) as ``python -m cdrnet.cli`` child processes, one
at a time (short stages several times in a row, see
``Workload.repeats``), until ``--seconds`` is used up (at least three
repetitions). Stage rates are time-weighted means over all runs of the
stage (see ``e2e_metrics``). With ``--trace 1`` the same stages run
in-process through ``cdrnet.cli.run`` under layer hooks and the per-layer
metrics are reported instead (see layertrace.py).

Every repetition is checked: exit codes, identical output files across
repetitions, a brute-force oracle on sampled tensors, the rejection list
of injected malformed lines, one prediction row per user, and held-out
accuracy floors. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"
MIN_REPS = 3
RUN_BUDGET_S = 170.0  # every run must end within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "featurize_records_per_s": "1/s",
    "train_weeks_per_s": "1/s",
    "train_svm_users_per_s": "1/s",
    "predict_avg_users_per_s": "1/s",
    "predict_svm_users_per_s": "1/s",
    "featurize_peak_rss_mb": "MB",
    "peak_rss_mb": "MB",
    "bytes_written": "bytes",
    "heldout_accuracy_avg": "ratio",
    "heldout_accuracy_svm": "ratio",
}


def _limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _git_commit() -> str | None:
    """HEAD of the repository the benchmark runs in; None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(workload, seed: int, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "commit": _git_commit(),
        "workload": workload.name,
        "seed": seed,
        "params": workload.params(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "src_lines": src_lines,
    }


def e2e_metrics(ctx, reps) -> tuple[dict, dict]:
    """End-to-end values over the repetitions whose stages all exited 0, and sample counts.

    A stage's rate is its work times its runs over the summed wall time of
    those runs, i.e. the time-weighted mean; ``pipeline_s`` sums the mean
    wall time of each stage. The host's speed switches between a fast and
    a slower state for seconds at a time, so stage times are bimodal and a
    median jumps between the two modes; the mean moves smoothly with the
    share of slow time in the window. ``setup_s`` and peak RSS are medians.
    """
    from pipeline import OUTPUTS, median

    done = [r for r in reps if all(x.code == 0 for runs in r.runs.values() for x in runs)]
    inputs, facts = ctx.inputs, ctx.facts
    runs = {s.name: [x for r in done for x in r.runs[s.name]] for s in ctx.stages}
    walls = {name: [x.wall_s for x in v] for name, v in runs.items()}
    work = {  # metric: (stage, units of work in one run of the stage)
        "featurize_records_per_s": ("featurize", inputs.data_lines),
        "train_weeks_per_s": ("train", facts.get("trained_user_weeks", 0) * ctx.workload.epochs),
        "train_svm_users_per_s": ("train-svm", len(inputs.trained)),
        "predict_avg_users_per_s": ("predict-avg", len(ctx.users)),
        "predict_svm_users_per_s": ("predict-svm", len(ctx.users)),
    }
    measured = facts and all(walls.values())
    values = {
        "setup_s": median(inputs.setup_s),
        "pipeline_s": sum(statistics.mean(w) for w in walls.values()) if measured else None,
    }
    counts = {"setup_s": len(inputs.setup_s), "pipeline_s": min(map(len, walls.values()))}
    for name, (stage, units) in work.items():
        values[name] = units * len(walls[stage]) / sum(walls[stage]) if measured else None
        counts[name] = len(walls[stage])
    values["featurize_peak_rss_mb"] = median([x.rss_mb for x in runs["featurize"]])
    values["peak_rss_mb"] = median(
        [max(x.rss_mb for v in r.runs.values() for x in v) for r in done]
    )
    values["bytes_written"] = (
        sum((ctx.workdir / n).stat().st_size for n in OUTPUTS) if done else None
    )
    values["heldout_accuracy_avg"] = done[0].accuracy["avg"] if done else None
    values["heldout_accuracy_svm"] = done[0].accuracy["svm"] if done else None
    counts["featurize_peak_rss_mb"] = len(runs["featurize"])
    counts["peak_rss_mb"] = len(done)
    for name in ("bytes_written", "heldout_accuracy_avg", "heldout_accuracy_svm"):
        counts[name] = min(len(done), 1)
    return values, counts


def repeat(ctx, runner, window_end: float, hard_end: float) -> list:
    """Run repetitions, each after one more set-up, until the window is used up.

    At least MIN_REPS repetitions run.
    """
    from pipeline import run_rep
    from workloads import setup_again

    reps = []
    while True:
        t0 = time.monotonic()
        setup_again(ctx.workload, ctx.seed, ctx.inputs)
        rep = run_rep(ctx, runner, hard_end, ctx.workload.repeats)
        reps.append(rep)
        took = time.monotonic() - t0
        now = time.monotonic()
        if not rep.ok or now + took > hard_end:
            return reps
        if len(reps) >= MIN_REPS and now + took > window_end:
            return reps


def print_table(values: dict, units: dict, counts: dict) -> None:
    width = max(len(n) for n in values)
    print(f"{'metric'.ljust(width)}  {'value':>14}  unit     n")
    for name, value in values.items():
        shown = "unmeasured" if value is None else f"{value:14.6g}"
        print(f"{name.ljust(width)}  {shown:>14}  {units[name]:<7}  {counts.get(name, '')}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cdrnet" / "cli.py").is_file() or not (TESTS / "oracles.py").is_file():
        print(f"error: {ROOT} holds no cdrnet sources (src/cdrnet, tests/oracles.py)",
              file=sys.stderr)
        return 2
    nproc = _limit_blas_threads()
    sys.path[:0] = [str(SRC), str(TESTS)]

    import pipeline
    from workloads import WORKLOADS, setup, stages

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    hard_end = started + RUN_BUDGET_S
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = setup(workload, args.seed, workdir)
        ctx = pipeline.Context(workload, inputs, workdir, args.seed,
                               stages(workload, inputs, workdir, args.seed))
        if args.trace:
            import layertrace

            values, units, counts, reps = layertrace.run(ctx, args.seconds, hard_end)
        else:
            env = pipeline.child_env(SRC)
            reps = repeat(ctx, lambda a: pipeline.spawn_stage(a, env, workdir, hard_end),
                          time.monotonic() + args.seconds, hard_end)
            values, counts = e2e_metrics(ctx, reps)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    problems = pipeline.problems_of(reps)
    attempted = sum(len(runs) for r in reps for runs in r.runs.values())
    failed = sum(not x.ok for r in reps for runs in r.runs.values() for x in runs)
    # an unmeasured end-to-end metric is a failure; a per-layer one is only reported
    correct = failed == 0 and (bool(args.trace) or all(v is not None for v in values.values()))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {len(reps)} "
          f"repetitions, {attempted} stages, {failed} failed")
    for i, rep in enumerate(reps, start=1):
        print(f"rep {i} wall_s " + " ".join(
            f"{n} " + "/".join(f"{x.wall_s:.3f}" for x in runs) for n, runs in rep.runs.items()
        ))
    for p in problems:
        print(f"FAIL {p}")
    print_table(values, units, counts)
    print("meta " + json.dumps(metadata(workload, args.seed, nproc), sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
