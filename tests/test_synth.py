import itertools
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cdrnet.ingest import CDR_HEADER, ingest
from cdrnet.labels import LABELS_HEADER, LabelSpace, load_labels
from cdrnet.synth import (
    BLOCK_MASS,
    EVENT_BUDGET,
    GENDERS,
    NEUTRAL_CALL_RATIO,
    NEUTRAL_DURATION_S,
    NEUTRAL_OUT_RATIO,
    Archetype,
    SynthConfig,
    _bounded,
    _words,
    generate,
    make_archetypes,
    write_lines,
)

from oracles import brute_generate, parse_cdr_record, text_bytes

N_BUCKETS = 4  # the default age edges (28, 38, 48)


def _groups(cdr_lines):
    """Records per user, each data line parsed by the reference parser."""
    assert cdr_lines[0] == CDR_HEADER
    groups = {}
    for line in cdr_lines[1:]:
        rec = parse_cdr_record(line)
        groups.setdefault(rec.user_id, []).append(rec)
    return groups


AGE_EDGES = st.one_of(
    st.sampled_from([(28, 38, 48), (28, 29), (1, 2, 3), (1,)]),
    st.lists(st.integers(1, 90), min_size=1, max_size=5, unique=True).map(sorted).map(tuple),
)
MONDAYS = st.one_of(
    # weeks holding 2024-02-29, 1999-12-31 and the first day of year 1
    st.sampled_from([date(2024, 2, 26), date(1999, 12, 27), date(1, 1, 1)]),
    st.integers(-3000, 3000).map(lambda w: date(2024, 1, 1) + timedelta(weeks=w)),
)


@settings(max_examples=100, deadline=None)
@given(
    users=st.integers(1, 15),
    weeks_per_user=st.integers(1, 4),
    signal=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    # 3 * 2**30 makes Lemire redraw about a quarter of the contact draws
    contact_pool=st.one_of(st.sampled_from([1, 2, 3 * 2**30, 2**32]), st.integers(1, 40)),
    # 0.01 leaves most users without events
    event_rate=st.one_of(st.sampled_from([0.01, 0.3]), st.floats(0.5, 60.0)),
    gender_ratio=st.floats(0.01, 0.99),
    age_edges=AGE_EDGES,
    seed=st.integers(0, 2**64),
    start_monday=MONDAYS,
)
def test_generate_matches_the_event_by_event_reference(**kwargs):
    config = SynthConfig(**kwargs)
    assert generate(config) == brute_generate(config)


@pytest.mark.parametrize("taken", [0, 1])
def test_bounded_decodes_words_as_integers_does(taken):
    """Same seed, two generators: integers(n) one call at a time, and _bounded over bulk words.

    taken=1 starts both after one uint32, which leaves the other half of a
    64-bit output cached in the bit generator.
    """
    for n in [*range(1, 65), 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]:
        one_by_one, bulk = np.random.default_rng(n), np.random.default_rng(n)
        for rng in (one_by_one, bulk):
            for _ in range(taken):
                rng.integers(0, 2**32, dtype=np.uint64)
        expected = [int(one_by_one.integers(n)) for _ in range(300)]
        words = _words(bulk, 64)
        assert [_bounded(words, n) for _ in range(300)] == expected, n
        # both generators end at the same point of the stream
        assert next(words) == int(one_by_one.integers(0, 2**32, dtype=np.uint64)), n


def test_generate_is_deterministic():
    config = SynthConfig(users=12, weeks_per_user=2, seed=5)
    assert generate(config) == generate(config)


def test_seed_changes_output():
    a = generate(SynthConfig(users=12, weeks_per_user=2, seed=5))
    b = generate(SynthConfig(users=12, weeks_per_user=2, seed=6))
    assert a != b


def test_signal_changes_output():
    a = generate(SynthConfig(users=12, weeks_per_user=2, seed=5, signal=0.0))
    b = generate(SynthConfig(users=12, weeks_per_user=2, seed=5, signal=1.0))
    assert a[0] != b[0]


def test_headers_present():
    cdr_lines, label_lines = generate(SynthConfig(users=3, weeks_per_user=1))
    assert cdr_lines[0] == CDR_HEADER
    assert label_lines[0] == LABELS_HEADER


def test_output_parses_without_rejections():
    cdr_lines, label_lines = generate(SynthConfig(users=25, weeks_per_user=3, seed=2))
    columns, labels, report = ingest(text_bytes(cdr_lines), label_lines)
    groups = _groups(cdr_lines)
    assert columns.user_ids == sorted(groups)
    assert report.records_rejected == 0
    assert report.labels_rejected == 0
    assert report.records_accepted == len(cdr_lines) - 1
    assert len(labels) == 25
    assert set(groups) <= set(labels)


def test_one_label_line_per_user():
    _, label_lines = generate(SynthConfig(users=40, weeks_per_user=1, seed=3))
    assert len(label_lines) == 41
    uids = [line.split(",")[0] for line in label_lines[1:]]
    assert uids == [f"u{u:06d}" for u in range(40)]


def test_ages_fall_in_sampling_range():
    config = SynthConfig(users=200, weeks_per_user=1, seed=4)
    _, label_lines = generate(config)
    ages = [int(line.split(",")[2]) for line in label_lines[1:]]
    assert min(ages) >= 0
    assert max(ages) < config.age_edges[-1] + 30


def test_events_land_in_the_users_weeks():
    config = SynthConfig(users=15, weeks_per_user=4, seed=7, start_monday=date(2024, 3, 4))
    cdr_lines, _ = generate(config)
    _, _, report = ingest(text_bytes(cdr_lines))
    groups = _groups(cdr_lines)
    assert report.records_rejected == 0
    for records in groups.values():
        for rec in records:
            offset = (rec.timestamp.date() - config.start_monday).days
            assert 0 <= offset < 7 * config.weeks_per_user


def test_contacts_are_scoped_to_their_user():
    cdr_lines, _ = generate(SynthConfig(users=10, weeks_per_user=2, seed=8))
    groups = _groups(cdr_lines)
    for uid, records in groups.items():
        for rec in records:
            assert rec.correspondent_id.startswith("c" + uid[1:] + "n")


def test_texts_have_zero_duration_and_calls_do_not_all():
    cdr_lines, _ = generate(SynthConfig(users=10, weeks_per_user=2, seed=9))
    groups = _groups(cdr_lines)
    records = [r for recs in groups.values() for r in recs]
    texts = [r for r in records if r.kind.value == "text"]
    calls = [r for r in records if r.kind.value == "call"]
    assert texts and calls
    assert all(r.duration_s == 0 for r in texts)
    assert any(r.duration_s > 0 for r in calls)


def test_contact_pool_bounds_distinct_contacts():
    config = SynthConfig(users=5, weeks_per_user=6, seed=10, contact_pool=7)
    cdr_lines, _ = generate(config)
    groups = _groups(cdr_lines)
    for records in groups.values():
        assert len({r.correspondent_id for r in records}) <= 7


def test_make_archetypes_deterministic():
    a = make_archetypes(N_BUCKETS, seed=1)
    b = make_archetypes(N_BUCKETS, seed=1)
    assert a.keys() == b.keys()
    for key in a:
        np.testing.assert_array_equal(a[key].intensity, b[key].intensity)
        assert a[key].call_ratio == b[key].call_ratio
    c = make_archetypes(N_BUCKETS, seed=2)
    assert any(
        not np.array_equal(a[key].intensity, c[key].intensity) for key in a
    )


def test_archetype_cardinality_and_keys():
    arch = make_archetypes(N_BUCKETS, seed=0)
    expected = {(g, k) for g in GENDERS for k in range(N_BUCKETS)}
    assert set(arch) == expected
    for (g, k), a in arch.items():
        assert isinstance(a, Archetype)
        assert (a.gender, a.age_bucket) == (g, k)


def test_archetype_intensities_are_distributions():
    for a in make_archetypes(N_BUCKETS, seed=0).values():
        assert a.intensity.shape == (24, 7)
        assert (a.intensity > 0).all()
        np.testing.assert_allclose(a.intensity.sum(), 1.0, rtol=1e-12)


def test_archetype_scalars_within_ranges():
    for a in make_archetypes(N_BUCKETS, seed=0).values():
        assert 0.3 <= a.call_ratio <= 0.7
        assert 0.35 <= a.out_ratio <= 0.65
        assert 60.0 <= a.mean_duration_s <= 240.0
        assert 0.3 <= a.contact_reuse <= 0.8


@pytest.mark.parametrize("edges", [(28, 38, 48), (30, 50), (25, 35, 45, 55, 65)])
def test_pairwise_tv_distance_is_block_mass(edges):
    arch = make_archetypes(len(edges) + 1, seed=0)
    for a, b in itertools.combinations(arch.values(), 2):
        tv = 0.5 * np.abs(a.intensity - b.intensity).sum()
        assert tv >= 0.2
        np.testing.assert_allclose(tv, BLOCK_MASS, rtol=1e-12)


def _cell_counts(groups, users=None):
    counts = np.zeros(24 * 7)
    for uid, records in groups.items():
        if users is not None and uid not in users:
            continue
        for rec in records:
            counts[rec.timestamp.hour * 7 + rec.timestamp.weekday()] += 1
    return counts


def test_null_signal_is_uniform_over_cells():
    config = SynthConfig(users=60, weeks_per_user=4, seed=21, signal=0.0, event_rate=100.0)
    cdr_lines, _ = generate(config)
    groups = _groups(cdr_lines)
    counts = _cell_counts(groups)
    assert counts.sum() > 20000
    result = stats.chisquare(counts)
    assert result.pvalue > 1e-3


def test_null_signal_has_neutral_habits():
    config = SynthConfig(users=60, weeks_per_user=4, seed=22, signal=0.0, event_rate=100.0)
    cdr_lines, _ = generate(config)
    groups = _groups(cdr_lines)
    records = [r for recs in groups.values() for r in recs]
    n = len(records)
    call_frac = sum(r.kind.value == "call" for r in records) / n
    out_frac = sum(r.direction.value == "out" for r in records) / n
    sigma = 0.5 / np.sqrt(n)
    assert abs(call_frac - NEUTRAL_CALL_RATIO) < 5 * sigma
    assert abs(out_frac - NEUTRAL_OUT_RATIO) < 5 * sigma
    durations = [r.duration_s for r in records if r.kind.value == "call"]
    mean_dur = np.mean(durations)
    assert abs(mean_dur - NEUTRAL_DURATION_S) < 5 * NEUTRAL_DURATION_S / np.sqrt(len(durations))


def test_full_signal_matches_archetype_cells():
    config = SynthConfig(users=320, weeks_per_user=4, seed=23, signal=1.0, event_rate=120.0)
    cdr_lines, label_lines = generate(config)
    labels, _ = load_labels(label_lines)
    groups = _groups(cdr_lines)
    space = LabelSpace.fit("age", (), config.age_edges)
    archetypes = make_archetypes(space.n_classes, config.seed)

    by_class: dict[tuple[str, int], set[str]] = {}
    for uid, rec in labels.items():
        key = (rec.gender, space.index(rec))
        by_class.setdefault(key, set()).add(uid)

    for key, users in sorted(by_class.items()):
        counts = _cell_counts(groups, users)
        total = counts.sum()
        assert total > 10000
        expected = archetypes[key].intensity.reshape(-1) * total
        result = stats.chisquare(counts, expected)
        assert result.pvalue > 1e-3, f"class {key}: p={result.pvalue:.2e}"


def test_full_signal_matches_archetype_habits():
    config = SynthConfig(users=320, weeks_per_user=4, seed=24, signal=1.0, event_rate=120.0)
    cdr_lines, label_lines = generate(config)
    labels, _ = load_labels(label_lines)
    groups = _groups(cdr_lines)
    space = LabelSpace.fit("age", (), config.age_edges)
    archetypes = make_archetypes(space.n_classes, config.seed)

    by_class: dict[tuple[str, int], list] = {}
    for uid, rec in labels.items():
        key = (rec.gender, space.index(rec))
        by_class.setdefault(key, []).extend(groups.get(uid, []))

    for key, records in sorted(by_class.items()):
        arch = archetypes[key]
        n = len(records)
        assert n > 10000
        call_frac = sum(r.kind.value == "call" for r in records) / n
        out_frac = sum(r.direction.value == "out" for r in records) / n
        assert abs(call_frac - arch.call_ratio) < 5 * 0.5 / np.sqrt(n)
        assert abs(out_frac - arch.out_ratio) < 5 * 0.5 / np.sqrt(n)
        durations = [r.duration_s for r in records if r.kind.value == "call"]
        mean_dur = np.mean(durations)
        tol = 5 * arch.mean_duration_s / np.sqrt(len(durations)) + 1.0
        assert abs(mean_dur - arch.mean_duration_s) < tol


@pytest.mark.parametrize(
    "kwargs",
    [
        {"users": 0},
        {"users": 3, "weeks_per_user": 0},
        {"users": 3, "contact_pool": 0},
        {"users": 3, "signal": -0.1},
        {"users": 3, "signal": 1.5},
        {"users": 3, "gender_ratio": 0.0},
        {"users": 3, "gender_ratio": 1.0},
        {"users": 3, "event_rate": 0.0},
        {"users": 3, "start_monday": date(2024, 1, 2)},
        {"users": 3, "contact_pool": 2**32 + 1},
        {"users": 3, "weeks_per_user": 416168},  # the last week would end after 9999-12-31
        {"users": 3, "start_monday": date(9999, 12, 27)},
        {"users": 3, "event_rate": math.inf},
        {"users": 3, "event_rate": math.nan},
        {"users": 3, "event_rate": 1e9},
        {"users": 3, "event_rate": 1e300},
        {"users": 10**400},  # over the event budget, without an OverflowError
    ],
)
def test_bad_config_rejected(kwargs):
    with pytest.raises(ValueError):
        SynthConfig(**kwargs)


def test_event_budget_bounds_the_product_of_users_weeks_and_rate():
    assert SynthConfig(users=EVENT_BUDGET, weeks_per_user=1, event_rate=1.0)
    assert SynthConfig(users=1, weeks_per_user=200_000)  # 12 million events
    for kwargs in (
        {"users": EVENT_BUDGET + 1, "weeks_per_user": 1, "event_rate": 1.0},
        {"users": 3, "weeks_per_user": 200_000},
    ):
        with pytest.raises(ValueError, match="budget"):
            SynthConfig(**kwargs)


def test_the_last_whole_week_before_date_max_is_accepted():
    assert SynthConfig(users=1, weeks_per_user=416167).weeks_per_user == 416167
    assert SynthConfig(users=1, start_monday=date(9999, 12, 20), weeks_per_user=1)


def test_write_lines_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    write_lines(path, ["a,b", "c,d"])
    assert path.read_text(encoding="utf-8") == "a,b\nc,d\n"
