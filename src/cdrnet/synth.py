"""Synthetic labeled CDR generator with a tunable class signal.

Each joint (gender, age bucket) class gets an archetype: a distribution
over the 24x7 (hour, weekday) grid plus scalar usage habits (call/text
ratio, outgoing ratio, mean call duration, contact-reuse probability).
Class intensity matrices concentrate half their mass on disjoint cell
blocks, so any two classes are at total-variation distance 0.5.

A signal knob s in [0, 1] interpolates every class-dependent quantity
toward a class-independent default: cell distributions toward uniform and
the scalar habits toward fixed neutral values. At s = 0 the classes are
statistically identical (a true null); at s = 1 the archetypes are fully
expressed. Event counts are Poisson per user week and call durations are
exponential with the archetype mean, rounded to whole seconds.

Generation is deterministic: every user draws from an rng stream spawned
from the master seed, so output is byte-identical for a given config and
independent of any parallel scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta

import numpy as np

from .featurize import DEFAULT_AGE_EDGES, N_DAYS, N_HOURS, LabelSpace
from .ingest import CDR_HEADER, LABELS_HEADER

GENDERS = ("f", "m")
BLOCK_MASS = 0.5
NEUTRAL_CALL_RATIO = 0.5
NEUTRAL_OUT_RATIO = 0.5
NEUTRAL_DURATION_S = 150.0
NEUTRAL_REUSE = 0.5


@dataclass(frozen=True)
class SynthConfig:
    users: int
    weeks_per_user: int = 8
    age_edges: tuple[int, ...] = DEFAULT_AGE_EDGES
    gender_ratio: float = 0.5
    signal: float = 1.0
    contact_pool: int = 20
    event_rate: float = 60.0
    seed: int = 0
    start_monday: date = date(2024, 1, 1)

    def __post_init__(self):
        object.__setattr__(self, "age_edges", tuple(int(e) for e in self.age_edges))
        if self.users < 1 or self.weeks_per_user < 1 or self.contact_pool < 1:
            raise ValueError("users, weeks_per_user, and contact_pool must be at least 1")
        if not 0.0 <= self.signal <= 1.0:
            raise ValueError(f"signal {self.signal} outside [0, 1]")
        if not 0.0 < self.gender_ratio < 1.0:
            raise ValueError("gender_ratio must lie strictly between 0 and 1")
        if self.event_rate <= 0.0:
            raise ValueError("event_rate must be positive")
        if self.start_monday.weekday() != 0:
            raise ValueError(f"{self.start_monday} is not a Monday")


@dataclass(frozen=True)
class Archetype:
    """Fully expressed (s = 1) behavior profile of one joint class."""

    gender: str
    age_bucket: int
    intensity: np.ndarray  # (24, 7), non-negative, sums to 1
    call_ratio: float
    out_ratio: float
    mean_duration_s: float
    contact_reuse: float


def make_archetypes(n_buckets: int, seed: int) -> dict[tuple[str, int], Archetype]:
    """One archetype per (gender, age bucket), deterministic in the seed.

    Each class puts BLOCK_MASS of its cell probability uniformly on its own
    slice of a permuted cell ordering and spreads the rest uniformly, which
    makes every pairwise total-variation distance exactly BLOCK_MASS.
    """
    classes = [(g, k) for g in GENDERS for k in range(n_buckets)]
    n_cells = N_HOURS * N_DAYS
    rng = np.random.default_rng(seed)
    blocks = np.array_split(rng.permutation(n_cells), len(classes))

    out: dict[tuple[str, int], Archetype] = {}
    for (g, k), block in zip(classes, blocks):
        intensity = np.full(n_cells, (1.0 - BLOCK_MASS) / n_cells)
        intensity[block] += BLOCK_MASS / len(block)
        out[(g, k)] = Archetype(
            gender=g,
            age_bucket=k,
            intensity=intensity.reshape(N_HOURS, N_DAYS),
            call_ratio=float(rng.uniform(0.3, 0.7)),
            out_ratio=float(rng.uniform(0.35, 0.65)),
            mean_duration_s=float(rng.uniform(60.0, 240.0)),
            contact_reuse=float(rng.uniform(0.3, 0.8)),
        )
    return out


def _blend(s: float, value: float, neutral: float) -> float:
    return s * value + (1.0 - s) * neutral


def generate(config: SynthConfig) -> tuple[list[str], list[str]]:
    """Produce (CDR lines, label lines), headers included, parse-clean.

    Every user samples a gender by the configured ratio and an age bucket
    uniformly, then emits Poisson(event_rate) events per week whose (hour,
    day) cells follow s * class_intensity + (1 - s) * uniform.
    """
    edges = LabelSpace.fit("age", (), config.age_edges).age_edges
    archetypes = make_archetypes(len(edges) + 1, config.seed)
    n_cells = N_HOURS * N_DAYS
    uniform = np.full(n_cells, 1.0 / n_cells)
    s = config.signal

    cdr_lines = [CDR_HEADER]
    label_lines = [LABELS_HEADER]
    streams = np.random.SeedSequence(config.seed).spawn(config.users)

    for u in range(config.users):
        rng = np.random.default_rng(streams[u])
        uid = f"u{u:06d}"
        gender = GENDERS[0] if rng.random() < config.gender_ratio else GENDERS[1]
        bucket = int(rng.integers(len(edges) + 1))
        lo = 0 if bucket == 0 else edges[bucket - 1]
        hi = edges[bucket] if bucket < len(edges) else edges[-1] + 30
        age = int(rng.integers(lo, hi))
        label_lines.append(f"{uid},{gender},{age}")

        arch = archetypes[(gender, bucket)]
        cells_p = s * arch.intensity.reshape(-1) + (1.0 - s) * uniform
        cells_p = cells_p / cells_p.sum()
        call_ratio = _blend(s, arch.call_ratio, NEUTRAL_CALL_RATIO)
        out_ratio = _blend(s, arch.out_ratio, NEUTRAL_OUT_RATIO)
        mean_dur = _blend(s, arch.mean_duration_s, NEUTRAL_DURATION_S)
        reuse = _blend(s, arch.contact_reuse, NEUTRAL_REUSE)

        counts = rng.poisson(config.event_rate, size=config.weeks_per_user)
        total = int(counts.sum())
        if total == 0:
            continue
        cells = rng.choice(n_cells, size=total, p=cells_p)
        minutes = rng.integers(0, 60, size=total)
        seconds = rng.integers(0, 60, size=total)
        is_call = rng.random(total) < call_ratio
        is_out = rng.random(total) < out_ratio
        durations = np.rint(rng.exponential(mean_dur, size=total)).astype(np.int64)
        reuse_draw = rng.random(total)

        seen: list[str] = []
        seen_set: set[str] = set()
        i = 0
        for w in range(config.weeks_per_user):
            monday = config.start_monday + timedelta(weeks=w)
            for _ in range(int(counts[w])):
                hour, day = divmod(int(cells[i]), N_DAYS)
                ts = datetime(
                    monday.year, monday.month, monday.day, hour, int(minutes[i]), int(seconds[i])
                ) + timedelta(days=day)
                if reuse_draw[i] < reuse and seen:
                    contact = seen[int(rng.integers(len(seen)))]
                else:
                    contact = f"c{u:06d}n{int(rng.integers(config.contact_pool)):03d}"
                    if contact not in seen_set:
                        seen_set.add(contact)
                        seen.append(contact)
                kind = "call" if is_call[i] else "text"
                duration = int(durations[i]) if is_call[i] else 0
                direction = "out" if is_out[i] else "in"
                stamp = ts.isoformat(timespec="seconds")
                cdr_lines.append(f"{uid},{direction},{kind},{stamp},{duration},{contact}")
                i += 1
    return cdr_lines, label_lines


def write_lines(path, lines: list[str]) -> None:
    """Write lines with a trailing newline, UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
