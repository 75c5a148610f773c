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
independent of any parallel scheduling. The stream contract: user u reads
default_rng(SeedSequence(seed).spawn(users)[u]) in this order.

1. random() for the gender; integers(n_buckets) for the age bucket;
   integers(lo, hi) for the age, which reads nothing when hi - lo == 1.
2. poisson(event_rate, weeks_per_user) for the weekly event counts. A
   user with no events draws nothing more.
3. For the user's n events, in week order: random(n) for the (hour,
   weekday) cells, looked up in the class's cell CDF as choice(168, n, p)
   does; integers(0, 60, n) for the minutes, then the seconds; random(n)
   for call-or-text, then for out-or-in; exponential(mean duration, n)
   for the call durations; random(n) for the contact-reuse coins.
4. One contact draw per event, in event order: integers(len(seen)) to
   pick an earlier contact when the event's coin says reuse and there is
   one, else integers(contact_pool). These come from uint32s drawn in bulk
   and decoded as Generator.integers decodes its next uint32s (Lemire's
   method), so they match one integers() call per event word for word.
   integers(1) reads no word, as when seen holds one contact.

tests/oracles.brute_generate makes these draws one event at a time, as
generate once did, and must give the same lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .featurize import DEFAULT_AGE_EDGES, N_DAYS, N_HOURS, LabelSpace, WeekId
from .ingest import CDR_HEADER, LABELS_HEADER

GENDERS = ("f", "m")
BLOCK_MASS = 0.5
NEUTRAL_CALL_RATIO = 0.5
NEUTRAL_OUT_RATIO = 0.5
NEUTRAL_DURATION_S = 150.0
NEUTRAL_REUSE = 0.5
# "direction,kind" of a line by 2 * is_out + is_call
_DIRECTION_KIND = ("in,text", "in,call", "out,text", "out,call")
# The most expected events (users x weeks_per_user x event_rate) a config may ask
# for: generate holds every line, about 130 bytes each at its peak, so about 3.3 GB.
# One user over every week to 9999-12-31 at the default rate (24.97 million) fits.
EVENT_BUDGET = 25_000_000


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
        object.__setattr__(self, "age_edges", LabelSpace.fit("age", (), self.age_edges).age_edges)
        if self.users < 1 or self.weeks_per_user < 1 or self.contact_pool < 1:
            raise ValueError("users, weeks_per_user, and contact_pool must be at least 1")
        if not 0.0 <= self.signal <= 1.0:
            raise ValueError(f"signal {self.signal} outside [0, 1]")
        if not 0.0 < self.gender_ratio < 1.0:
            raise ValueError("gender_ratio must lie strictly between 0 and 1")
        if not 0.0 < self.event_rate < math.inf:
            raise ValueError("event_rate must be positive and finite")
        WeekId(self.start_monday)  # a Monday
        if self.start_monday.toordinal() + 7 * self.weeks_per_user - 1 > date.max.toordinal():
            raise ValueError(
                f"weeks_per_user {self.weeks_per_user} from {self.start_monday} "
                f"ends after {date.max}"
            )
        if self.contact_pool > 1 << 32:  # the widest range generate's contact draw decodes
            raise ValueError(f"contact_pool {self.contact_pool} exceeds 2**32")
        if self.users * self.weeks_per_user > EVENT_BUDGET / self.event_rate:  # no overflow
            raise ValueError(f"users x weeks_per_user x event_rate over budget {EVENT_BUDGET:,}")


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


def _words(rng: np.random.Generator, chunk: int):
    """The uint32s that rng's next bounded-integer draws read, in order, drawn chunk at a time."""
    while True:
        yield from rng.integers(0, 1 << 32, size=chunk, dtype=np.uint64).tolist()


def _bounded(words, n: int) -> int:
    """The value rng.integers(n) returns for 1 <= n <= 2**32, decoded from rng's words.

    numpy's Lemire method: m = word * n, redrawn while the low 32 bits of m
    fall below (2**32 - n) % n, and the result is m >> 32. For n == 1 it
    reads no word and returns 0.
    """
    if n == 1:
        return 0
    m = next(words) * n
    if m & 0xFFFFFFFF < n:  # n bounds the threshold, so most draws skip computing it
        threshold = ((1 << 32) - n) % n
        while m & 0xFFFFFFFF < threshold:
            m = next(words) * n
    return m >> 32


def generate(config: SynthConfig) -> tuple[list[str], list[str]]:
    """Produce (CDR lines, label lines), headers included, parse-clean.

    Every user samples a gender by the configured ratio and an age bucket
    uniformly, then emits Poisson(event_rate) events per week whose (hour,
    day) cells follow s * class_intensity + (1 - s) * uniform. Lines are
    built column by column; only the contact draw runs event by event.
    """
    edges = config.age_edges
    archetypes = make_archetypes(len(edges) + 1, config.seed)
    uniform = np.full(N_HOURS * N_DAYS, 1.0 / (N_HOURS * N_DAYS))
    s = config.signal
    habits = {}
    for key, arch in archetypes.items():
        cells_p = s * arch.intensity.reshape(-1) + (1.0 - s) * uniform
        cdf = (cells_p / cells_p.sum()).cumsum()  # as choice(168, n, p) builds it per call
        cdf /= cdf[-1]
        habits[key] = (
            cdf,
            _blend(s, arch.call_ratio, NEUTRAL_CALL_RATIO),
            _blend(s, arch.out_ratio, NEUTRAL_OUT_RATIO),
            _blend(s, arch.mean_duration_s, NEUTRAL_DURATION_S),
            _blend(s, arch.contact_reuse, NEUTRAL_REUSE),
        )
    # stamp heads "YYYY-MM-DDTHH:" by hours since start_monday 00:00, made
    # only for hours that hold an event; stamp tails "MM:SS" by minute * 60 + second
    hour_stamps: dict[int, str] = {}
    first_day = config.start_monday.toordinal()
    clock = [f"{m:02d}:{sec:02d}" for m in range(60) for sec in range(60)]

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
        cells_cdf, call_ratio, out_ratio, mean_dur, reuse = habits[(gender, bucket)]

        counts = rng.poisson(config.event_rate, size=config.weeks_per_user)
        total = int(counts.sum())
        if total == 0:
            continue
        cells = cells_cdf.searchsorted(rng.random(total), side="right")
        minutes = rng.integers(0, 60, size=total)
        seconds = rng.integers(0, 60, size=total)
        is_call = rng.random(total) < call_ratio
        is_out = rng.random(total) < out_ratio
        durations = np.rint(rng.exponential(mean_dur, size=total)).astype(np.int64)
        reuse_draw = rng.random(total)

        words = _words(rng, total + 16)  # a little slack for Lemire redraws
        prefix = f"c{u:06d}n"
        names: dict[int, str] = {}
        seen: list[str] = []
        contacts = []
        for reuse_it in (reuse_draw < reuse).tolist():
            if reuse_it and seen:
                contacts.append(seen[_bounded(words, len(seen))])
            else:
                k = _bounded(words, config.contact_pool)
                name = names.get(k)
                if name is None:
                    name = names[k] = f"{prefix}{k:03d}"
                    seen.append(name)
                contacts.append(name)

        hour, day = np.divmod(cells, N_DAYS)
        weeks = np.repeat(np.arange(config.weeks_per_user), counts)
        hours = ((weeks * N_DAYS + day) * N_HOURS + hour).tolist()
        for h in set(hours).difference(hour_stamps):
            d, hh = divmod(h, N_HOURS)
            hour_stamps[h] = f"{date.fromordinal(first_day + d).isoformat()}T{hh:02d}:"
        kinds = (2 * is_out + is_call).tolist()
        ticks = (minutes * 60 + seconds).tolist()
        durations = np.where(is_call, durations, 0).tolist()
        cdr_lines += [
            f"{uid},{_DIRECTION_KIND[k]},{hour_stamps[h]}{clock[t]},{d},{c}"
            for k, h, t, d, c in zip(kinds, hours, ticks, durations, contacts)
        ]
    return cdr_lines, label_lines


def write_lines(path, lines: list[str]) -> None:
    """Write lines with a trailing newline, UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
