"""Output checks of one benchmark run.

Each check returns a list of problems (empty when the output is right).
The reference values come from the generated inputs and from
``tests/oracles.py``, never from the code path being checked.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from collections import Counter, namedtuple
from datetime import date, datetime
from pathlib import Path

import numpy as np

from workloads import MAJORITY_MARGIN, Inputs, Workload

ORACLE_SAMPLE = 24
DEFAULT_AGE_EDGES = (28, 38, 48)  # the CLI default, restated

# Minimal record shape that tests/oracles.brute_week_tensor reads.
_Tag = namedtuple("_Tag", "value")
_Record = namedtuple("_Record", "direction kind timestamp duration_s correspondent_id")


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def rejections(featurize_stdout: str, expected: list[tuple[int, str]]) -> list[str]:
    """The featurize report's CDR rejections must equal the injected list exactly."""
    try:
        report = json.loads(featurize_stdout.splitlines()[0])
        got = [(r["line"], r["reason"]) for r in report["rejections"] if r["stream"] == "cdr"]
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"featurize report unreadable: {exc}"]
    if got == expected:
        return []
    missing = [e for e in expected if e not in got][:3]
    extra = [g for g in got if g not in expected][:3]
    return [f"rejections differ: {len(got)} reported, {len(expected)} injected; "
            f"missing {missing}, unexpected {extra}"]


def oracle_sample(ds, inputs: Inputs, seed: int) -> list[str]:
    """A seeded sample of user-weeks must equal tests/oracles.brute_week_tensor."""
    from oracles import brute_week_tensor

    n = len(ds.user_ids)
    if n == 0:
        return ["tensor file holds no user-weeks"]
    rng = np.random.default_rng([seed, 0x0AC1E])
    rows = sorted(rng.choice(n, size=min(ORACLE_SAMPLE, n), replace=False).tolist())
    wanted = {ds.user_ids[i] for i in rows}
    by_user: dict[str, list[_Record]] = {u: [] for u in wanted}
    for line in inputs.clean_lines[1:]:
        f = line.split(",")
        if f[0] in wanted:
            by_user[f[0]].append(
                _Record(_Tag(f[1]), _Tag(f[2]), datetime.fromisoformat(f[3]), int(f[4]), f[5])
            )
    problems = []
    for i in rows:
        start: date = ds.weeks[i].start_date
        records = [r for r in by_user[ds.user_ids[i]] if 0 <= (r.timestamp.date() - start).days < 7]
        if not np.array_equal(np.asarray(ds.tensors[i]), brute_week_tensor(records, start)):
            problems.append(f"tensor of {ds.user_ids[i]} week {start} differs from the oracle")
    return problems


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def predictions(path: Path, users: list[str], n_classes: int) -> list[str]:
    """One row per user of the tensor file, sorted, with a valid class and K scores."""
    header, rows = _read_csv(path)
    problems = []
    if [r[0] for r in rows] != users:
        problems.append(f"{path.name}: {len(rows)} rows for {len(users)} users, or out of order")
    if len(header) != 2 + n_classes or any(len(r) != len(header) for r in rows):
        problems.append(f"{path.name}: expected {n_classes} score columns")
    if any(not 0 <= int(r[1]) < n_classes for r in rows):
        problems.append(f"{path.name}: class index out of range")
    return problems


def truth(workload: Workload, label_lines: list[str]) -> tuple[dict[str, int], int]:
    """Class index of every labeled user, by the rule the README documents."""
    rows = [ln.split(",") for ln in label_lines[1:]]
    if workload.attribute == "gender":
        classes = sorted({r[1] for r in rows})
        return {r[0]: classes.index(r[1]) for r in rows}, len(classes)
    ages = {r[0]: bisect_right(DEFAULT_AGE_EDGES, int(r[2])) for r in rows}
    return ages, len(DEFAULT_AGE_EDGES) + 1


def cut_heldout(preds: Path, out: Path, heldout: set[str]) -> None:
    """Keep the header and the rows of held-out users."""
    with open(preds, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(lines[0])
        fh.writelines(ln for ln in lines[1:] if ln.split(",", 1)[0] in heldout)


def heldout_accuracy(
    workload: Workload, inputs: Inputs, heldout_preds: Path, eval_json: Path
) -> tuple[float | None, list[str]]:
    """Recompute held-out accuracy, compare with evaluate's, and apply the floor."""
    classes, _ = truth(workload, inputs.label_lines)
    _, rows = _read_csv(heldout_preds)
    problems = []
    if sorted(r[0] for r in rows) != sorted(inputs.heldout):
        problems.append(f"{heldout_preds.name}: held-out rows do not match the held-out users")
    if not rows:
        return None, problems + ["no held-out predictions"]
    acc = sum(int(r[1]) == classes[r[0]] for r in rows) / len(rows)
    try:
        with open(eval_json, encoding="utf-8") as fh:
            reported = json.load(fh)["accuracy"]
    except (OSError, KeyError, ValueError) as exc:
        return acc, problems + [f"{eval_json.name}: unreadable ({exc})"]
    if abs(reported - acc) > 1e-12:
        problems.append(f"{eval_json.name}: accuracy {reported} but rows give {acc}")
    if workload.accuracy_floor is not None:
        floor = workload.accuracy_floor
    else:
        counts = Counter(classes[u] for u in inputs.heldout)
        floor = max(counts.values()) / len(inputs.heldout) + MAJORITY_MARGIN
    if acc < floor:
        problems.append(
            f"{heldout_preds.name}: held-out accuracy {acc:.4f} below floor {floor:.4f}"
        )
    return acc, problems
