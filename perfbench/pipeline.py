"""Running the CLI stages, as child processes or in-process, and checking their outputs.

The benchmark process runs one stage at a time. A child process is timed
from spawn to reap; its peak RSS comes from ``os.wait4``.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from workloads import VAL_FRACTION, Inputs, Stage, Workload

OUTPUTS = ("weeks.bin", "model.bin", "preds_avg.csv", "preds_svm.csv")
# the stage whose output each file is
PRODUCER = {"weeks.bin": "featurize", "model.bin": "train-svm",
            "preds_avg.csv": "predict-avg", "preds_svm.csv": "predict-svm"}
OUTPUT_OF = {stage: name for name, stage in PRODUCER.items()}


@dataclass
class StageRun:
    wall_s: float
    code: int
    rss_mb: float | None  # None for in-process runs
    stdout: str
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


def median(values):
    """Median of the values that are not None; None when there are none."""
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def spawn_stage(argv: list[str], env: dict[str, str], workdir: Path, deadline: float) -> StageRun:
    """Run ``python -m cdrnet.cli argv`` as a child; kill it at ``deadline`` (monotonic)."""
    out_path, err_path = workdir / "stage.out", workdir / "stage.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, "-m", "cdrnet.cli", *argv], env, file_actions=actions
        )
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill, (pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    problems = []
    if code != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        problems.append(f"exit {code}: {' '.join(tail)}")
    return StageRun(wall, code, usage.ru_maxrss / 1024.0, stdout, problems)


def inprocess_stage(argv: list[str]) -> StageRun:
    """Run ``cdrnet.cli.run(argv)`` in this process, output captured."""
    from cdrnet import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        t0 = time.perf_counter()
        code = cli.run(argv)
        wall = time.perf_counter() - t0
    problems = [f"exit {code}: {err.getvalue().strip()[-200:]}"] if code != 0 else []
    return StageRun(wall, code, None, out.getvalue(), problems)


@dataclass
class Rep:
    """One pass through every stage; a repeated stage has several runs."""

    runs: dict[str, list[StageRun]]
    accuracy: dict[str, float | None]

    @property
    def stages(self) -> dict[str, StageRun]:
        """The first run of each stage."""
        return {name: runs[0] for name, runs in self.runs.items()}

    @property
    def ok(self) -> bool:
        return all(r.ok for runs in self.runs.values() for r in runs)


@dataclass
class Context:
    workload: Workload
    inputs: Inputs
    workdir: Path
    seed: int
    stages: list[Stage]
    users: list[str] = field(default_factory=list)   # users of the tensor file, sorted
    n_classes: int = 0
    first_hashes: dict[str, str] | None = None
    facts: dict = field(default_factory=dict)   # read from the first tensor file


def run_rep(ctx: Context, runner, deadline: float, repeats: dict[str, int] | None = None) -> Rep:
    """Run all stages once with ``runner(argv)``, then check what they wrote.

    A stage named in ``repeats`` runs that many times in a row; each run
    after the first must write the same output file. A stage that exits
    nonzero ends the pass; the stages after it count as failed without
    running. The first passing repetition also checks a sample of its
    tensors against the brute-force oracle.
    """
    d = ctx.workdir
    runs: dict[str, list[StageRun]] = {}
    for stage in ctx.stages:
        if runs and not all(r.code == 0 for done in runs.values() for r in done):
            runs[stage.name] = [StageRun(0.0, -1, None, "", ["not run: an earlier stage failed"])]
            continue
        if time.monotonic() > deadline:
            runs[stage.name] = [StageRun(0.0, -1, None, "", ["not run: out of time"])]
            continue
        if stage.name == "evaluate-avg":
            held = set(ctx.inputs.heldout)
            checks.cut_heldout(d / "preds_avg.csv", d / "heldout_avg.csv", held)
            checks.cut_heldout(d / "preds_svm.csv", d / "heldout_svm.csv", held)
        count = (repeats or {}).get(stage.name, 1)
        output = OUTPUT_OF.get(stage.name)
        done = [runner(stage.argv)]
        digest = checks.sha256(d / output) if count > 1 and output and done[0].code == 0 else None
        while len(done) < count and done[-1].code == 0 and time.monotonic() <= deadline:
            done.append(runner(stage.argv))
            if digest and done[-1].code == 0 and checks.sha256(d / output) != digest:
                done[-1].problems.append(f"{output} differs from the stage's first run")
        runs[stage.name] = done
    rep = Rep(runs, {"avg": None, "svm": None})
    if not rep.ok:
        return rep

    for run in runs["featurize"]:
        run.problems += checks.rejections(run.stdout, ctx.inputs.expected_rejections)
    first = rep.stages
    hashes = {name: checks.sha256(d / name) for name in OUTPUTS}
    if ctx.first_hashes is None:
        ctx.first_hashes = hashes
        from cdrnet.featurize import load_tensor_dataset
        from cdrnet.training import split_users

        ds = load_tensor_dataset(d / "weeks.bin")
        ctx.users = sorted(set(ds.user_ids))
        _, ctx.n_classes = checks.truth(ctx.workload, ctx.inputs.label_lines)
        # `cdrnet train` splits its labeled users, in tensor-file order, into
        # train and validation; only the train part takes SGD steps
        labeled = set(ctx.inputs.trained)
        by_user = ds.by_user()
        sgd_users, _ = split_users([u for u in by_user if u in labeled], VAL_FRACTION, ctx.seed)
        ctx.facts = {
            "user_weeks": len(ds.user_ids),
            "trained_user_weeks": sum(len(by_user[u]) for u in sgd_users),
            "nonzero_cell_ratio": float((ds.tensors != 0).mean()),
        }
        first["featurize"].problems += checks.oracle_sample(ds, ctx.inputs, ctx.seed)
    for name, digest in hashes.items():
        if digest != ctx.first_hashes[name]:
            first[PRODUCER[name]].problems.append(f"{name} differs from the first repetition")
    for head in ("avg", "svm"):
        first[f"predict-{head}"].problems += checks.predictions(
            d / f"preds_{head}.csv", ctx.users, ctx.n_classes
        )
        acc, problems = checks.heldout_accuracy(
            ctx.workload, ctx.inputs, d / f"heldout_{head}.csv", d / f"eval_{head}.json"
        )
        rep.accuracy[head] = acc
        first[f"evaluate-{head}"].problems += problems
    return rep


def problems_of(reps: list[Rep]) -> list[str]:
    return [
        f"rep {i}: {name}: {p}"
        for i, rep in enumerate(reps, start=1)
        for name, runs in rep.runs.items()
        for run in runs
        for p in run.problems
    ]
