"""Benchmark workloads: seeded synthetic inputs and the CLI stage sequence.

Every workload is generated by ``cdrnet.synth.generate`` with signal 1.0 and
the run's seed; the program under test only ever sees the files written
here. Sizes are chosen so that one pipeline repetition takes a few seconds
on a 2-core box, which lets a run of ``--seconds 60`` hold several
repetitions and report their means.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    users: int
    weeks: int
    events_per_week: float
    dirty_fraction: float
    attribute: str
    epochs: int
    svm_epochs: int
    accuracy_floor: float | None  # absolute floor; None means majority + MAJORITY_MARGIN
    dominant: str  # layer group designed to take the largest share of in-process time
    # times each stage runs per end-to-end repetition (default 1); short
    # stages run more often so that every timed stage fills a similar
    # share of the measured window
    repeats: dict[str, int] = field(default_factory=dict)

    def params(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in ("name", "why")}


MAJORITY_MARGIN = 0.05
HELDOUT_FRACTION = 0.5
VAL_FRACTION = 0.1  # share of the training users that `cdrnet train` holds out for validation

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ref-250",
            why="the ROADMAP reference shape (8 weeks x 60 events/week) at 250 users, "
            "1% malformed lines: net and training do most of the work; drives the reject path",
            users=250, weeks=8, events_per_week=60.0, dirty_fraction=0.01,
            attribute="gender", epochs=4, svm_epochs=50, accuracy_floor=0.95,
            dominant="net_training",
            repeats={"featurize": 2, "train-svm": 3, "predict-avg": 2, "predict-svm": 2},
        ),
        Workload(
            name="many-users",
            why="2,000 one-week users at 15 events: per-user classify forward calls dominate; "
            "the only unsaturated accuracy",
            users=2000, weeks=1, events_per_week=15.0, dirty_fraction=0.005,
            attribute="age", epochs=4, svm_epochs=40, accuracy_floor=None,
            dominant="classify", repeats={"featurize": 2},
        ),
    )
}

# Rejection kinds of ingest.parse_cdr_line, in the order it checks them.
DIRTY_KINDS = (
    "field_count",
    "empty_user",
    "empty_correspondent",
    "direction",
    "kind",
    "timestamp",
    "duration",
    "text_duration",
)


def _make_dirty(line: str, kind: str, rng: np.random.Generator) -> tuple[str, str]:
    """Break one clean CDR line in one way; returns (dirty line, expected reason).

    The reasons restate the messages documented by ingest.parse_cdr_line;
    they are written out here, not obtained from the parser, so the
    comparison against the featurize report checks the parser.
    """
    f = line.split(",")
    if kind == "field_count":
        f.append("extra")
        reason = "expected 6 fields, got 7"
    elif kind == "empty_user":
        f[0] = ""
        reason = "empty user_id"
    elif kind == "empty_correspondent":
        f[5] = ""
        reason = "empty correspondent_id"
    elif kind == "direction":
        f[1] = "sideways"
        reason = "unknown direction 'sideways'"
    elif kind == "kind":
        f[2] = "fax"
        reason = "unknown kind 'fax'"
    elif kind == "timestamp":
        f[3] = f[3].replace("T", " ")
        reason = f"unparseable timestamp '{f[3]}'"
    elif kind == "duration":
        f[4] = f"-{int(rng.integers(1, 600))}"
        reason = f"negative or non-integer duration '{f[4]}'"
    elif kind == "text_duration":
        f[2] = "text"
        f[4] = str(int(rng.integers(1, 600)))
        reason = f"text with nonzero duration {f[4]}"
    else:
        raise ValueError(f"unknown dirty kind {kind!r}")
    return ",".join(f), reason


def inject_dirty(
    lines: list[str], fraction: float, seed: int
) -> tuple[list[str], list[tuple[int, str]]]:
    """Insert malformed lines among the data lines of a CDR file.

    Returns the new line list (header first) and the expected rejections as
    (1-based physical line number, reason). Every kind in DIRTY_KINDS occurs
    at least once when fraction > 0; clean lines are all kept, so the
    tensors equal those of the clean file.
    """
    if fraction <= 0.0:
        return lines, []
    rng = np.random.default_rng([seed, 0xD1127])
    data = lines[1:]
    n_dirty = max(len(DIRTY_KINDS), int(round(fraction * len(data))))
    kinds = [DIRTY_KINDS[i % len(DIRTY_KINDS)] for i in range(n_dirty)]
    kinds = [kinds[i] for i in rng.permutation(n_dirty)]
    # insert dirty line k before clean data line slots[k]
    slots = np.sort(rng.integers(0, len(data) + 1, size=n_dirty))
    sources = rng.integers(0, len(data), size=n_dirty)
    out = [lines[0]]
    expected: list[tuple[int, str]] = []
    k = 0
    for i in range(len(data) + 1):
        while k < n_dirty and slots[k] == i:
            dirty, reason = _make_dirty(data[sources[k]], kinds[k], rng)
            out.append(dirty)
            expected.append((len(out), reason))
            k += 1
        if i < len(data):
            out.append(data[i])
    return out, expected


@dataclass
class Inputs:
    """Files and facts of one generated workload instance."""

    cdr: Path
    labels: Path
    labels_train: Path
    clean_lines: list[str]          # generated CDR lines, header first, no dirty lines
    label_lines: list[str]          # header first
    heldout: list[str]              # users whose labels training never sees
    trained: list[str]              # users in the training labels file
    expected_rejections: list[tuple[int, str]]
    data_lines: int                 # data lines in the CDR file, dirty ones included
    setup_s: list[float]            # wall time of each set-up repetition
    generate_s: list[float]         # synth.generate share of each repetition


def setup(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's files, timed as one set-up repetition.

    A repetition runs synth.generate, the dirty-line injection and the CSV
    writes. ``setup_again`` runs it once more; the benchmark calls it before
    every pass through the stages, so the set-up samples spread over the
    whole run like the stage samples do.
    """
    from cdrnet.synth import SynthConfig, generate, write_lines
    from cdrnet.training import split_users

    config = SynthConfig(
        users=workload.users,
        weeks_per_user=workload.weeks,
        signal=1.0,
        event_rate=workload.events_per_week,
        seed=seed,
    )
    cdr = workdir / "cdr.csv"
    labels = workdir / "labels.csv"
    labels_train = workdir / "labels_train.csv"
    t0 = time.perf_counter()
    cdr_lines, label_lines = generate(config)
    t1 = time.perf_counter()
    dirty_lines, expected = inject_dirty(cdr_lines, workload.dirty_fraction, seed)
    users = [ln.split(",", 1)[0] for ln in label_lines[1:]]
    trained, heldout = split_users(users, HELDOUT_FRACTION, seed)
    keep = set(trained)
    train_lines = [label_lines[0]] + [
        ln for ln in label_lines[1:] if ln.split(",", 1)[0] in keep
    ]
    write_lines(cdr, dirty_lines)
    write_lines(labels, label_lines)
    write_lines(labels_train, train_lines)
    return Inputs(
        cdr=cdr,
        labels=labels,
        labels_train=labels_train,
        clean_lines=cdr_lines,
        label_lines=label_lines,
        heldout=heldout,
        trained=trained,
        expected_rejections=expected,
        data_lines=len(dirty_lines) - 1,
        setup_s=[time.perf_counter() - t0],
        generate_s=[t1 - t0],
    )


def setup_again(workload: Workload, seed: int, inputs: Inputs) -> None:
    """Repeat the set-up, which must write the same files, and record its times."""
    again = setup(workload, seed, inputs.cdr.parent)
    if (again.clean_lines, again.label_lines) != (inputs.clean_lines, inputs.label_lines):
        raise RuntimeError("synth.generate is not deterministic for a fixed seed")
    inputs.setup_s += again.setup_s
    inputs.generate_s += again.generate_s


@dataclass(frozen=True)
class Stage:
    name: str
    argv: list[str]


def stages(workload: Workload, inputs: Inputs, workdir: Path, seed: int) -> list[Stage]:
    """The documented CLI pipeline from CDR csv to metrics, in order.

    Both evaluate stages score held-out rows only; their predictions files
    are cut from the full ones by the benchmark between the stages.
    """
    d = workdir
    attr = ["--attribute", workload.attribute]
    return [
        Stage("featurize", ["featurize", "--cdr", str(inputs.cdr), "--out", str(d / "weeks.bin")]),
        Stage("train", [
            "train", "--tensors", str(d / "weeks.bin"), "--labels", str(inputs.labels_train),
            *attr, "--epochs", str(workload.epochs), "--val-fraction", str(VAL_FRACTION),
            "--seed", str(seed), "--out", str(d / "model.bin"),
        ]),
        Stage("train-svm", [
            "train-svm", "--model", str(d / "model.bin"), "--tensors", str(d / "weeks.bin"),
            "--labels", str(inputs.labels_train), "--epochs", str(workload.svm_epochs),
            "--seed", str(seed),
        ]),
        Stage("predict-avg", [
            "predict", "--model", str(d / "model.bin"), "--tensors", str(d / "weeks.bin"),
            "--out", str(d / "preds_avg.csv"), "--head", "avg",
        ]),
        Stage("predict-svm", [
            "predict", "--model", str(d / "model.bin"), "--tensors", str(d / "weeks.bin"),
            "--out", str(d / "preds_svm.csv"), "--head", "svm",
        ]),
        Stage("evaluate-avg", [
            "evaluate", "--predictions", str(d / "heldout_avg.csv"), "--labels", str(inputs.labels),
            *attr, "--out", str(d / "eval_avg.json"),
        ]),
        Stage("evaluate-svm", [
            "evaluate", "--predictions", str(d / "heldout_svm.csv"), "--labels", str(inputs.labels),
            *attr, "--out", str(d / "eval_svm.json"),
        ]),
    ]
