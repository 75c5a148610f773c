import contextlib
import io
import tracemalloc
from bisect import bisect_right
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrnet.cli import run
from cdrnet.container import read_container, write_container
from cdrnet.featurize import (
    CHANNELS,
    TENSOR_MAGIC,
    LabelSpace,
    NormStats,
    WeekId,
    apply_normalizer,
    featurize_users,
    fit_normalizer,
    load_tensor_dataset,
    save_tensor_dataset,
)
from cdrnet.ingest import LabelRecord, ingest
from cdrnet.synth import SynthConfig, generate, write_lines

from oracles import (
    CdrRecord,
    Direction,
    Kind,
    brute_normalizer,
    brute_week_tensor,
    dense_apply_normalizer,
    dense_dataset,
    format_cdr_line,
    random_records,
    text_bytes,
)

MONDAY = date(2024, 1, 1)
WEEK = WeekId(MONDAY)


def _rec(direction, kind, day, hour, duration=0, contact="c1", minute=0):
    return CdrRecord(
        user_id="u0",
        direction=direction,
        kind=kind,
        timestamp=datetime(2024, 1, 1 + day, hour, minute, 0),
        duration_s=duration,
        correspondent_id=contact,
    )


def test_channel_order_contract():
    assert CHANNELS == (
        "out_unique_contacts",
        "out_calls",
        "out_texts",
        "out_call_duration_s",
        "in_unique_contacts",
        "in_calls",
        "in_texts",
        "in_call_duration_s",
    )


def _at(ts):
    return CdrRecord("u0", Direction.OUTGOING, Kind.TEXT, ts, 0, "c1")


def test_week_of_anchors_to_monday():
    def week_of(ts):
        (week,) = featurize_users(_columns([_at(ts)])).weeks
        return week

    assert week_of(datetime(2024, 1, 3, 15, 0)).start_date == MONDAY   # Wednesday
    assert week_of(datetime(2024, 1, 1, 0, 0)).start_date == MONDAY    # Monday itself
    assert week_of(datetime(2024, 1, 7, 23, 59)).start_date == MONDAY  # Sunday
    assert week_of(datetime(2024, 1, 8, 0, 0)).start_date == date(2024, 1, 8)


def test_week_id_rejects_non_monday():
    with pytest.raises(ValueError):
        WeekId(date(2024, 1, 2))


def _week_tensor(records):
    """The one tensor featurize makes of one user's records inside the week of MONDAY."""
    ds = featurize_users(_columns(records))
    assert ds.weeks == [WEEK]
    return ds.tensors[0]


def test_small_tensor_by_hand():
    records = [
        _rec(Direction.OUTGOING, Kind.CALL, day=1, hour=9, duration=30, contact="a"),
        _rec(Direction.OUTGOING, Kind.CALL, day=1, hour=9, duration=45, contact="a", minute=5),
        _rec(Direction.OUTGOING, Kind.TEXT, day=1, hour=9, contact="b", minute=7),
        _rec(Direction.INCOMING, Kind.TEXT, day=6, hour=23, contact="a"),
    ]
    t = _week_tensor(records)
    assert t[1, 9, 1] == 2       # out calls
    assert t[3, 9, 1] == 75      # out call seconds
    assert t[2, 9, 1] == 1       # out texts
    assert t[0, 9, 1] == 2       # out unique contacts: a and b
    assert t[6, 23, 6] == 1      # in texts, Sunday 23h
    assert t[4, 23, 6] == 1
    assert t.sum() == 2 + 75 + 1 + 2 + 1 + 1


def test_same_contact_call_and_text_counted_once():
    records = [
        _rec(Direction.OUTGOING, Kind.CALL, day=0, hour=8, duration=10, contact="a"),
        _rec(Direction.OUTGOING, Kind.TEXT, day=0, hour=8, contact="a", minute=30),
    ]
    t = _week_tensor(records)
    assert t[0, 8, 0] == 1


def test_directions_do_not_mix():
    records = [
        _rec(Direction.OUTGOING, Kind.CALL, day=2, hour=12, duration=5, contact="a"),
        _rec(Direction.INCOMING, Kind.CALL, day=2, hour=12, duration=7, contact="a", minute=1),
    ]
    t = _week_tensor(records)
    assert t[0, 12, 2] == 1 and t[4, 12, 2] == 1
    assert t[3, 12, 2] == 5 and t[7, 12, 2] == 7


def test_zero_second_call_is_counted_but_stores_no_duration_cell():
    records = [
        _rec(Direction.OUTGOING, Kind.CALL, day=3, hour=10, duration=0, contact="a"),
        _rec(Direction.INCOMING, Kind.CALL, day=0, hour=1, duration=0, contact="b"),
        _rec(Direction.INCOMING, Kind.CALL, day=0, hour=1, duration=20, contact="b", minute=9),
        _rec(Direction.OUTGOING, Kind.TEXT, day=6, hour=23, contact="c"),
    ]
    ds = featurize_users(_columns(records))
    flat = np.ravel_multi_index
    cell = {
        "out_calls": flat((1, 10, 3), (8, 24, 7)),
        "out_duration": flat((3, 10, 3), (8, 24, 7)),
        "in_duration": flat((7, 1, 0), (8, 24, 7)),
    }
    cells = ds.cells.tolist()
    assert ds.offsets.tolist() == [0, len(cells)] and len(cells) == len(ds.counts)
    assert all(a < b for a, b in zip(cells, cells[1:]))
    assert cell["out_calls"] in cells and cell["out_duration"] not in cells
    assert ds.counts[cells.index(cell["in_duration"])] == 20
    assert len(cells) == np.count_nonzero(brute_week_tensor(records, MONDAY))
    np.testing.assert_array_equal(ds.tensors[0], brute_week_tensor(records, MONDAY))


def test_tensor_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    records = random_records(rng, 500, MONDAY)
    got = _week_tensor(records)
    expected = brute_week_tensor(records, MONDAY)
    np.testing.assert_array_equal(got, expected)


def test_empty_record_list_gives_zero_tensor():
    """No records make zero tensors: an empty (0, 8, 24, 7) stack."""
    ds = featurize_users(_columns([]))
    assert (ds.user_ids, ds.weeks, ds.tensors.shape) == ([], [], (0, 8, 24, 7))


def _fit_and_normalize(tensors) -> tuple[NormStats, np.ndarray]:
    """fit_normalizer's stats and apply_normalizer's output over every row of dense tensors."""
    ds = dense_dataset(["u"] * len(tensors), [WEEK] * len(tensors), tensors)
    stats = fit_normalizer(ds)
    return stats, apply_normalizer(ds, range(len(ds)), stats, np.empty(tensors.shape))


def test_normalizer_zscores_training_set():
    rng = np.random.default_rng(0)
    tensors = rng.poisson(3.0, size=(20, 8, 24, 7)).astype(np.float64)
    stats, normed = _fit_and_normalize(tensors)
    np.testing.assert_allclose(normed.mean(axis=(0, 2, 3)), np.zeros(8), atol=1e-12)
    np.testing.assert_allclose(normed.std(axis=(0, 2, 3)), np.ones(8), atol=1e-9)


def test_normalizer_uses_log1p():
    tensors = np.zeros((2, 8, 24, 7))
    tensors[0, 0, 0, 0] = np.e - 1.0  # log1p == 1
    stats, normed = _fit_and_normalize(tensors)
    cell = np.log1p(np.e - 1.0)
    assert normed[0, 0, 0, 0] == pytest.approx((cell - stats.mean[0]) / stats.std[0])


def test_constant_channel_std_floored():
    stats, normed = _fit_and_normalize(np.zeros((3, 8, 24, 7)))
    assert (stats.std >= 1e-6).all()
    assert np.isfinite(normed).all()


def test_apply_normalizer_single_tensor():
    tensors = np.random.default_rng(1).poisson(1.0, size=(4, 8, 24, 7)).astype(np.float64)
    ds = dense_dataset(["u"] * 4, [WEEK] * 4, tensors)
    stats = fit_normalizer(ds)
    single = apply_normalizer(ds, [2], stats, np.empty((1, 8, 24, 7)))
    assert single.shape == (1, 8, 24, 7)
    assert np.array_equal(single[0], dense_apply_normalizer(tensors[2], stats))


def _random_dataset(rows, density, seed):
    """A dataset of exponential counts at the given density, with its dense tensors."""
    rng = np.random.default_rng(seed)
    tensors = rng.exponential(20.0, size=(rows, 8, 24, 7))
    tensors[rng.random(tensors.shape) >= density] = 0.0
    return dense_dataset([f"u{i}" for i in range(rows)], [WEEK] * rows, tensors), tensors


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 6),
    density=st.sampled_from([0.0, 0.02, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.float32, np.float64]),
    extra=st.integers(0, 3),
)
def test_apply_normalizer_equals_the_dense_oracle(data, n, density, seed, dtype, extra):
    # any rows, in any order and with repeats, into an output longer than them
    ds, dense = _random_dataset(n, density, seed)
    rows = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
    stats = fit_normalizer(ds)
    out = np.full((len(rows) + extra, 8, 24, 7), np.nan, dtype)
    assert apply_normalizer(ds, rows, stats, out) is out
    picked = np.concatenate([dense[rows], np.zeros((extra, 8, 24, 7))])
    assert np.array_equal(out, dense_apply_normalizer(picked, stats).astype(dtype))


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 6),
    density=st.sampled_from([0.0, 0.02, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_normalizer_over_rows_equals_the_dense_fit(data, n, density, seed):
    ds, dense = _random_dataset(n, density, seed)
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    stats = fit_normalizer(ds, rows)
    mean, std = brute_normalizer(dense[rows])
    np.testing.assert_allclose(stats.mean, mean, rtol=1e-12, atol=0)
    np.testing.assert_allclose(stats.std, std, rtol=1e-12, atol=0)
    # a fit over a dataset of just the picked rows visits the same non-zeros
    # in the same order, so it agrees bit for bit
    picked = fit_normalizer(dense_dataset(["u"] * len(rows), [WEEK] * len(rows), dense[rows]))
    assert np.array_equal(stats.mean, picked.mean)
    assert np.array_equal(stats.std, picked.std)


@pytest.mark.parametrize("shape", [(4, 8, 24, 7), (4, 8, 24, 6), (8, 8, 24, 7)])
def test_apply_normalizer_refuses_an_output_it_cannot_fill(shape):
    ds, _ = _random_dataset(4, 0.3, 0)
    out = np.empty(shape)
    if shape[0] == 8:
        out = out[::2]  # not contiguous
    with pytest.raises(ValueError):
        apply_normalizer(ds, [0, 1, 2, 3, 0], fit_normalizer(ds), out)


def test_age_bucket_boundaries():
    space = LabelSpace.fit("age", (), (28, 38, 48))
    assert space.n_classes == 4
    ages = (0, 27, 28, 37, 38, 47, 48, 90)
    assert [space.index(LabelRecord("u", "f", a)) for a in ages] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert space.class_labels == ("[0,28)", "[28,38)", "[38,48)", "[48,inf)")


@pytest.mark.parametrize("edges", [(), (28, 28), (38, 28), (0, 10), (-1, 5)])
def test_bad_age_edges_rejected(edges):
    with pytest.raises(ValueError):
        LabelSpace.fit("age", (), edges)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["f", "m", "x", "F"]), st.integers(0, 130)), min_size=1),
    st.lists(st.integers(1, 130), min_size=1, max_size=6, unique=True).map(sorted),
)
def test_label_space_follows_the_label_rule(rows, edges):
    records = [LabelRecord(f"u{i}", gender, age) for i, (gender, age) in enumerate(rows)]
    genders = sorted({gender for gender, _ in rows})
    if len(genders) < 2:
        with pytest.raises(ValueError):
            LabelSpace.fit("gender", records, tuple(edges))
    else:
        space = LabelSpace.fit("gender", records, tuple(edges))
        assert space.class_labels == tuple(genders) and space.age_edges is None
        assert [space.index(r) for r in records] == [genders.index(g) for g, _ in rows]
    space = LabelSpace.fit("age", records, tuple(edges))
    assert space.n_classes == len(edges) + 1
    assert [space.index(r) for r in records] == [bisect_right(edges, a) for _, a in rows]


@pytest.mark.parametrize(
    "attribute, class_labels, age_edges",
    [
        ("age", ("[0,28)", "[28,inf)"), (30,)),          # labels of other edges
        ("age", ("[0,28)", "[28,38)", "[38,inf)"), (28,)),  # one class too many
        ("age", ("[0,28)", "[28,inf)"), None),
        ("gender", ("f", "m"), (28,)),
        ("gender", ("m", "f"), None),                       # not sorted
        ("gender", ("f", "f"), None),
        ("height", ("a", "b"), None),
    ],
)
def test_label_space_refuses_a_space_no_fit_makes(attribute, class_labels, age_edges):
    with pytest.raises(ValueError):
        LabelSpace(attribute, class_labels, age_edges)


def _columns(records):
    """The CDR columns that ingest makes of these records' lines."""
    columns, _, report = ingest(text_bytes(format_cdr_line(r) for r in records))
    assert report.records_rejected == 0
    return columns


def _groups(layout):
    """layout: {user: [(day_offset_from_2024_01_01, hour)]} as outgoing calls."""
    return _columns(
        [
            CdrRecord(
                user_id=uid,
                direction=Direction.OUTGOING,
                kind=Kind.CALL,
                timestamp=datetime(2024, 1, 1 + d, hour, 0, 0),
                duration_s=10,
                correspondent_id="c",
            )
            for uid, events in layout.items()
            for d, hour in events
        ]
    )


def test_featurize_users_sorted_and_grouped():
    groups = _groups({"ub": [(0, 9)], "ua": [(0, 9), (7, 10)]})
    ds = featurize_users(groups)
    assert ds.user_ids == ["ua", "ua", "ub"]
    assert ds.weeks[0].start_date == MONDAY
    assert ds.weeks[1].start_date == date(2024, 1, 8)
    assert ds.tensors.shape == (3, 8, 24, 7)


def test_empty_weeks_skipped_by_default():
    groups = _groups({"u": [(0, 9), (14, 10)]})  # weeks 0 and 2, week 1 silent
    ds = featurize_users(groups)
    assert len(ds) == 2


def test_by_user_stacks_rows():
    groups = _groups({"u1": [(0, 9), (7, 9)], "u2": [(1, 5)]})
    ds = featurize_users(groups)
    stacked = ds.by_user()
    assert list(stacked) == ["u1", "u2"]
    assert stacked["u1"].shape == (2, 8, 24, 7)
    assert stacked["u2"].shape == (1, 8, 24, 7)
    # featurize writes rows sorted by user, so the stacks copy no row
    assert all(np.shares_memory(t, ds.tensors) for t in stacked.values())


def test_tensor_dataset_refuses_rows_not_sorted_by_user():
    tensors = np.random.default_rng(5).poisson(1.0, size=(3, 8, 24, 7)).astype(np.float64)
    ds = dense_dataset(["a", "a", "b"], [WEEK] * 3, tensors)
    assert ds.users == ["a", "b"]
    np.testing.assert_array_equal(ds.user_offsets, [0, 2, 3])
    for ids in (["b", "a", "a"], ["a", "b", "a"]):
        with pytest.raises(ValueError, match="users not sorted"):
            dense_dataset(ids, [WEEK] * 3, tensors)


def test_tensor_dataset_round_trip(tmp_path):
    groups = _groups({"u1": [(0, 9)], "u2": [(3, 20)]})
    ds = featurize_users(groups)
    ds.norm_stats = fit_normalizer(ds)
    path = tmp_path / "t.bin"
    save_tensor_dataset(path, ds)
    back = load_tensor_dataset(path)
    assert back.user_ids == ds.user_ids
    assert back.weeks == ds.weeks
    np.testing.assert_array_equal(back.tensors, ds.tensors)
    np.testing.assert_array_equal(back.norm_stats.mean, ds.norm_stats.mean)
    np.testing.assert_array_equal(back.norm_stats.std, ds.norm_stats.std)


def test_tensor_dataset_round_trip_without_stats(tmp_path):
    ds = dense_dataset(["u"], [WEEK], np.ones((1, 8, 24, 7)))
    path = tmp_path / "t.bin"
    save_tensor_dataset(path, ds)
    assert load_tensor_dataset(path).norm_stats is None


def test_empty_tensor_dataset_round_trips(tmp_path):
    path = tmp_path / "t.bin"
    save_tensor_dataset(path, dense_dataset([], [], np.zeros((0, 8, 24, 7))))
    back = load_tensor_dataset(path)
    assert (back.user_ids, back.weeks, back.tensors.shape) == ([], [], (0, 8, 24, 7))


def test_empty_weeks_store_no_cells_and_round_trip(tmp_path):
    active = featurize_users(_groups({"u": [(0, 9), (28, 10)], "v": [(3, 1)]}))
    tensors = np.zeros((6, 8, 24, 7))
    tensors[[0, 4, 5]] = active.tensors
    weeks = [WeekId(date(2024, 1, 1 + 7 * w)) for w in range(5)] + [WEEK]
    ds = dense_dataset(["u"] * 5 + ["v"], weeks, tensors)
    path = tmp_path / "t.bin"
    save_tensor_dataset(path, ds)
    _, arrays = read_container(path, TENSOR_MAGIC)
    assert np.diff(arrays["offsets"]).tolist()[1:4] == [0, 0, 0]
    assert len(arrays["cells"]) == np.count_nonzero(ds.tensors)
    back = load_tensor_dataset(path)
    assert (back.user_ids, back.weeks) == (ds.user_ids, ds.weeks)
    assert back.tensors.dtype == np.float64
    np.testing.assert_array_equal(back.tensors, ds.tensors)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(0, 6),
    density=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sparse_tensor_file_round_trips_any_counts(tmp_path_factory, rows, density, seed):
    rng = np.random.default_rng(seed)
    tensors = rng.exponential(50.0, size=(rows, 8, 24, 7))
    tensors[rng.random(tensors.shape) >= density] = 0.0
    ds = dense_dataset([f"u{i}" for i in range(rows)], [WEEK] * rows, tensors)
    path = tmp_path_factory.mktemp("sparse") / "t.bin"
    save_tensor_dataset(path, ds)
    back = load_tensor_dataset(path)
    assert back.user_ids == ds.user_ids
    assert np.array_equal(back.tensors, tensors)


# the largest count of each unsigned dtype and the next one up, with 2**64 and
# the largest float64 below it
_COUNT_EDGES = [
    255.0, 256.0, 65535.0, 65536.0, 2.0**32 - 1, 2.0**32, float(np.nextafter(2.0**64, 0)), 2.0**64
]


def _expected_counts_dtype(counts) -> str:
    if any(c != int(c) or c >= 2**64 for c in counts):
        return "<f8"
    ends = (("|u1", 2**8), ("<u2", 2**16), ("<u4", 2**32), ("<u8", 2**64))
    return next(dtype for dtype, end in ends if max(counts) < end)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 3),
    small=st.lists(st.integers(1, 255).map(float), max_size=20),
    top=st.sampled_from(_COUNT_EDGES),
    odd=st.sampled_from([None, 0.5, 1000.25, 2.0**64, 1e30]),
)
def test_tensor_file_stores_counts_in_the_narrowest_exact_dtype(
    tmp_path_factory, data, rows, small, top, odd
):
    counts = small + [top] + ([] if odd is None else [odd])
    cells = data.draw(st.lists(st.integers(0, rows * 1344 - 1), min_size=len(counts),
                               max_size=len(counts), unique=True), label="cells")
    tensors = np.zeros((rows, 8, 24, 7))
    tensors.reshape(-1)[cells] = counts
    path = tmp_path_factory.mktemp("narrow") / "t.bin"
    save_tensor_dataset(path, dense_dataset(["u"] * rows, [WEEK] * rows, tensors))
    _, arrays = read_container(path, TENSOR_MAGIC)
    assert arrays["counts"].dtype.str == _expected_counts_dtype(counts)
    back = load_tensor_dataset(path)
    assert back.counts.dtype == np.float64
    assert np.array_equal(back.tensors.view(np.uint64), tensors.view(np.uint64))


def test_tensor_file_with_float64_counts_of_the_old_layout_loads_the_same(tmp_path):
    cdr_lines, _ = generate(SynthConfig(users=4, weeks_per_user=2, seed=3))
    columns, _, _ = ingest(text_bytes(cdr_lines))
    ds = featurize_users(columns)
    ds.norm_stats = fit_normalizer(ds)
    new, old = tmp_path / "new.bin", tmp_path / "old.bin"
    save_tensor_dataset(new, ds)
    header, arrays = read_container(new, TENSOR_MAGIC)
    assert arrays["counts"].dtype.kind == "u"
    arrays["counts"] = arrays["counts"].astype(np.float64)
    write_container(old, TENSOR_MAGIC, header, arrays)
    assert read_container(old, TENSOR_MAGIC)[1]["counts"].dtype == np.float64
    a, b = load_tensor_dataset(new), load_tensor_dataset(old)
    assert (a.user_ids, a.weeks) == (b.user_ids, b.weeks)
    for name in ("offsets", "cells", "counts"):
        got, want = getattr(b, name), getattr(a, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert a.counts.dtype == np.float64 and np.array_equal(a.counts, ds.counts)
    np.testing.assert_array_equal(b.norm_stats.mean, a.norm_stats.mean)
    np.testing.assert_array_equal(b.norm_stats.std, a.norm_stats.std)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 5),
    scale=st.sampled_from([0.0, 0.1, 3.0, 1e4]),
    density=st.sampled_from([0.05, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    zero_rows=st.integers(0, 3),
    empty_channel=st.one_of(st.none(), st.integers(0, 7)),
)
def test_fit_normalizer_equals_numpy_mean_and_std(
    rows, scale, density, seed, zero_rows, empty_channel
):
    # numpy's mean and std, summed exactly: the fit sums only the non-zero
    # cells, in another order than numpy's dense reduction, so it is held to
    # exactly rounded sums at 1e-12 rather than to numpy bit for bit
    rng = np.random.default_rng(seed)
    x = rng.exponential(scale, size=(rows, 8, 24, 7)) * (rng.random((rows, 8, 24, 7)) < density)
    x = np.concatenate([x, np.zeros((zero_rows, 8, 24, 7))])
    if empty_channel is not None:
        x[:, empty_channel] = 0.0
    mean, std = brute_normalizer(x)
    stats = fit_normalizer(dense_dataset(["u"] * len(x), [WEEK] * len(x), x))
    np.testing.assert_allclose(stats.mean, mean, rtol=1e-12, atol=0)
    np.testing.assert_allclose(stats.std, std, rtol=1e-12, atol=0)
    if empty_channel is not None:
        assert stats.mean[empty_channel] == 0.0 and stats.std[empty_channel] == 1e-6


def test_channel_sums_conserve_counts_and_durations():
    rng = np.random.default_rng(3)
    records = random_records(rng, 400, MONDAY)
    t = _week_tensor(records)
    out = [r for r in records if r.direction is Direction.OUTGOING]
    inc = [r for r in records if r.direction is Direction.INCOMING]
    assert t[1].sum() == sum(r.kind is Kind.CALL for r in out)
    assert t[2].sum() == sum(r.kind is Kind.TEXT for r in out)
    assert t[3].sum() == sum(r.duration_s for r in out if r.kind is Kind.CALL)
    assert t[5].sum() == sum(r.kind is Kind.CALL for r in inc)
    assert t[6].sum() == sum(r.kind is Kind.TEXT for r in inc)
    assert t[7].sum() == sum(r.duration_s for r in inc if r.kind is Kind.CALL)


def test_tensor_is_permutation_invariant():
    rng = np.random.default_rng(4)
    records = random_records(rng, 200, MONDAY)
    shuffled = [records[i] for i in rng.permutation(len(records))]
    np.testing.assert_array_equal(_week_tensor(records), _week_tensor(shuffled))


def test_unique_contacts_bounded_by_cell_events():
    rng = np.random.default_rng(5)
    records = random_records(rng, 600, MONDAY)
    t = _week_tensor(records)
    assert (t[0] <= t[1] + t[2]).all()
    assert (t[4] <= t[5] + t[6]).all()


def test_featurize_peaks_below_the_dense_tensor_size(tmp_path):
    # 2,000 one-week users at 15 events, the shape of the bench's many-users
    # workload; the dense float64 tensors alone would take N·1344·8 bytes
    cdr_lines, _ = generate(SynthConfig(users=2000, weeks_per_user=1, event_rate=15.0, seed=7))
    cdr, out = tmp_path / "cdr.csv", tmp_path / "t.bin"
    write_lines(cdr, cdr_lines)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(["featurize", "--cdr", str(cdr), "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    dense = len(load_tensor_dataset(out)) * 8 * 24 * 7 * 8
    assert dense > 20e6
    assert peak < dense, f"featurize peaked at {peak / 1e6:.1f} MB"
