"""The names and outputs of the program that the benchmark in perfbench/ reads.

A change that renames or removes one of them would make the benchmark print
unmeasured or malformed results; this file makes it fail here instead.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import cdrnet.classify
import cdrnet.net
import cdrnet.training
from cdrnet.cli import run
from cdrnet.featurize import (
    LabelSpace,
    TensorDataset,
    WeekId,
    featurize_users,
    fit_normalizer,
    load_tensor_dataset,
    save_tensor_dataset,
)
from cdrnet.ingest import LabelRecord, ingest
from cdrnet.modelfile import save_model
from cdrnet.net import NetworkConfig, init_params

from oracles import dense_dataset

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layertrace  # noqa: E402


@pytest.mark.parametrize("module, attr", [h[:2] for h in layertrace.HOOKS])
def test_every_traced_function_resolves(module, attr):
    __import__(module)
    assert callable(getattr(sys.modules[module], attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("attr", [h[1] for h in layertrace.HOOKS if h[0] == "cdrnet.cli"])
def test_every_traced_cli_name_resolves_after_a_bare_import(attr):
    # the cli loads most of these names on first use; in this process the
    # suite has imported every module already, so only a fresh one shows a
    # name whose module fails to load
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"import cdrnet.cli\nassert callable(getattr(cdrnet.cli, {attr!r}, None))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_flops_per_week_counts_both_passes():
    fwd, bwd = layertrace.flops_per_week(NetworkConfig(classes=2))
    assert isinstance(fwd, int) and isinstance(bwd, int)
    assert fwd > 0 and bwd > 0


def _record_calls(monkeypatch, module, names) -> dict[str, list]:
    """Replace module.<name> for each name by a wrapper that records (args, kwargs)."""
    calls = {name: [] for name in names}
    for name in names:
        fn = getattr(module, name)

        def recorded(*args, _fn=fn, _name=name, **kwargs):
            calls[_name].append((args, kwargs))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
    return calls


def _is_batch(x, rows) -> bool:
    # the bench's forward observer counts a call's weeks as len(args[1])
    return isinstance(x, np.ndarray) and x.shape[0] == rows and x.shape[1:] == (8, 24, 7)


def test_classify_calls_the_net_through_its_module_names(monkeypatch):
    calls = _record_calls(monkeypatch, cdrnet.classify, ["forward_batch", "apply_normalizer"])
    weeks = np.random.default_rng(0).poisson(1.0, size=(3, 8, 24, 7)).astype(np.float64)
    model = init_params(NetworkConfig(classes=2, filters=(2, 2, 2, 2, 2, 4), dense=(8, 4)), 0)
    ds = dense_dataset(["a", "a", "b"], [WeekId(date(2024, 1, 1))] * 3, weeks)
    model.norm_stats = fit_normalizer(ds)
    assert [p.user_id for p in cdrnet.classify.predict_dataset(model, ds)] == ["a", "b"]
    assert calls["forward_batch"] and calls["apply_normalizer"]
    for args, kwargs in calls["forward_batch"]:
        assert _is_batch(args[1], cdrnet.classify.CHUNK_ROWS)
        assert kwargs == {"trace": False}  # no backward follows a classify forward


def test_train_validates_through_its_module_name_untraced(monkeypatch):
    # the bench hooks cdrnet.training.forward_batch for the SGD steps and the
    # validation chunks alike; only the steps may build a trace
    calls = _record_calls(monkeypatch, cdrnet.training, ["forward_batch", "sgd_step"])
    weeks = np.random.default_rng(4).poisson(1.0, size=(8, 8, 24, 7)).astype(np.float64)
    users = ["a", "a", "b", "b", "c", "c", "d", "d"]
    labels = {u: LabelRecord(u, g, 30) for u, g in zip("abcd", "fmfm")}
    ds = dense_dataset(users, [WeekId(date(2024, 1, 1))] * 8, weeks)
    config = cdrnet.training.TrainConfig(epochs=2, batch_size=2, val_fraction=0.25)
    net = NetworkConfig(classes=2, filters=(2, 2, 2, 2, 2, 4), dense=(8, 4))
    cdrnet.training.train(ds, labels, LabelSpace.fit("gender", labels.values()), config, net)
    untraced = [args for args, kwargs in calls["forward_batch"] if kwargs == {"trace": False}]
    traced = [args for args, kwargs in calls["forward_batch"] if not kwargs]
    assert len(untraced) + len(traced) == len(calls["forward_batch"])
    assert len(untraced) == config.epochs  # one chunk of one user's two weeks per epoch
    assert len(traced) == len(calls["sgd_step"]) == config.epochs * 3
    assert all(_is_batch(args[1], 2) for args in untraced + traced)


def test_train_normalizes_through_its_module_names(monkeypatch):
    # the bench hooks cdrnet.training.fit_normalizer and .apply_normalizer
    calls = _record_calls(monkeypatch, cdrnet.training, ["fit_normalizer", "apply_normalizer"])
    weeks = np.random.default_rng(3).poisson(1.0, size=(6, 8, 24, 7)).astype(np.float64)
    labels = {u: LabelRecord(u, g, 30) for u, g in (("a", "f"), ("b", "m"), ("c", "f"))}
    ds = dense_dataset(["a", "a", "b", "b", "c", "c"], [WeekId(date(2024, 1, 1))] * 6, weeks)
    config = cdrnet.training.TrainConfig(epochs=1, batch_size=2, val_fraction=0.34)
    net = NetworkConfig(classes=2, filters=(2, 2, 2, 2, 2, 4), dense=(8, 4))
    cdrnet.training.train(ds, labels, LabelSpace.fit("gender", labels.values()), config, net)
    assert len(calls["fit_normalizer"]) == 1 and len(calls["apply_normalizer"]) > 1


def test_forward_calls_each_conv_through_its_module_name_in_layer_order(monkeypatch):
    # the bench times net.conv1..6 as the 1st..6th conv2d_valid span inside
    # one forward_batch span
    seen = []
    conv = cdrnet.net.conv2d_valid

    def counted(x, weights, bias):
        seen.append(weights)
        return conv(x, weights, bias)

    monkeypatch.setattr(cdrnet.net, "conv2d_valid", counted)
    config = NetworkConfig(classes=2)
    params = init_params(config, 0)
    cdrnet.net.forward_batch(params, np.zeros((2, 8, 24, 7)))
    assert len(seen) == len(config.kernels)
    for i, weights in enumerate(seen, start=1):
        assert weights is params.tensors[f"conv{i}.w"]


def test_train_svm_head_fits_through_the_module_level_trainer(monkeypatch):
    # the bench times classify.train_linear_svm_s as this call's span
    calls = []
    fit = cdrnet.classify.train_linear_svm

    def counted(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(cdrnet.classify, "train_linear_svm", counted)
    weeks = np.random.default_rng(2).poisson(1.0, size=(4, 8, 24, 7)).astype(np.float64)
    model = init_params(NetworkConfig(classes=2, filters=(2, 2, 2, 2, 2, 4), dense=(8, 4)), 0)
    labels = {u: LabelRecord(u, g, 30) for u, g in (("a", "f"), ("b", "m"), ("c", "f"))}
    model.label_space = LabelSpace.fit("gender", labels.values())
    ds = dense_dataset(["a", "a", "b", "c"], [WeekId(date(2024, 1, 1))] * 4, weeks)
    model.norm_stats = fit_normalizer(ds)
    svm = cdrnet.classify.train_svm_head(model, ds, labels, epochs=2)
    assert len(calls) == 1
    assert svm.weights.shape == (2, 4)


def test_dataset_grouping_and_user_split_exist():
    from cdrnet import training

    assert callable(TensorDataset.by_user)
    assert callable(training.split_users)


def test_featurize_output_loads_back_as_the_dense_tensors_the_bench_reads(tmp_path):
    # perfbench/checks.py compares ds.tensors[i] with the brute-force oracle and
    # perfbench/pipeline.py reads ds.by_user() and ds.tensors != 0
    cdr = tmp_path / "cdr.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["synth", "--cdr", str(cdr), "--labels", str(tmp_path / "l.csv"),
                    "--users", "6", "--weeks", "3", "--seed", "2"]) == 0
        assert run(["featurize", "--cdr", str(cdr), "--out", str(tmp_path / "t.bin")]) == 0
    groups, _, _ = ingest(cdr.read_bytes())
    expected = featurize_users(groups)
    ds = load_tensor_dataset(tmp_path / "t.bin")
    # the file holds the counts as unsigned integers; loading widens them back
    assert ds.counts.dtype == np.float64 and np.array_equal(ds.counts, expected.counts)
    assert ds.tensors.dtype == np.float64 and ds.tensors.shape == (len(expected), 8, 24, 7)
    assert np.array_equal(ds.tensors, expected.tensors)
    assert (ds.user_ids, ds.weeks) == (expected.user_ids, expected.weeks)
    by_user = ds.by_user()
    assert list(by_user) == sorted(set(expected.user_ids))
    assert sum(len(t) for t in by_user.values()) == len(expected)
    # a copy would raise the driver's peak RSS, which every stage child inherits
    assert all(np.shares_memory(t, ds.tensors) for t in by_user.values())


def test_featurize_report_is_the_first_stdout_line(tmp_path):
    cdr = tmp_path / "cdr.csv"
    cdr.write_text(
        "user_id,direction,kind,timestamp,duration_s,correspondent_id\n"
        "u1,out,call,2024-01-01T10:00:00,30,c1\n"
        "u1,sideways,call,2024-01-01T11:00:00,30,c1\n",
        encoding="utf-8",
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(["featurize", "--cdr", str(cdr), "--out", str(tmp_path / "t.bin")]) == 0
    report = json.loads(out.getvalue().splitlines()[0])
    assert report["rejections"]
    for entry in report["rejections"]:
        assert {"line", "reason", "stream"} <= set(entry)



def test_predictions_and_metrics_have_the_shape_the_bench_reads(tmp_path):
    # perfbench/checks.py reads line 0 of a predictions file as a header of
    # exactly 2+K columns and every later line as one user's row, and the
    # evaluate --out JSON for its "accuracy"
    weeks = np.random.default_rng(1).poisson(1.0, size=(4, 8, 24, 7)).astype(np.float64)
    ds = dense_dataset(["a", "a", "b", "c"], [WeekId(date(2024, 1, 1))] * 4, weeks)
    save_tensor_dataset(tmp_path / "t.bin", ds)
    model = init_params(NetworkConfig(classes=4, filters=(2, 2, 2, 2, 2, 4), dense=(8, 4)), 0)
    model.norm_stats = fit_normalizer(ds)
    model.label_space = LabelSpace.fit("age", [])
    save_model(tmp_path / "m.bin", model)
    (tmp_path / "l.csv").write_text("user_id,gender,age_years\na,f,20\nb,m,30\n", encoding="utf-8")
    preds, metrics = tmp_path / "p.csv", tmp_path / "e.json"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run(["predict", "--model", str(tmp_path / "m.bin"), "--tensors",
                    str(tmp_path / "t.bin"), "--out", str(preds)]) == 0
        assert run(["evaluate", "--predictions", str(preds), "--labels", str(tmp_path / "l.csv"),
                    "--attribute", "age", "--out", str(metrics)]) == 0
    header, *rows = [ln.split(",") for ln in preds.read_text(encoding="utf-8").splitlines()]
    assert len(header) == 2 + 4
    assert [r[0] for r in rows] == ["a", "b", "c"]
    assert all(len(r) == len(header) and 0 <= int(r[1]) < 4 for r in rows)
    assert 0.0 <= json.loads(metrics.read_text(encoding="utf-8"))["accuracy"] <= 1.0


def test_a_traced_pass_reports_a_finite_number_for_every_layer_metric(tmp_path):
    # run.py --trace 1 ignores per-layer values when it decides `correct`, so
    # a hooked name removed or no longer called (null), a NaN, or a thread
    # left running by the in-process CLI would still exit 0
    import pipeline
    from workloads import Workload, setup, stages

    workload = Workload(
        name="tiny", why="a traced pass in a few seconds", users=40, weeks=2,
        events_per_week=60.0, dirty_fraction=0.02, attribute="gender", epochs=1,
        svm_epochs=2, accuracy_floor=0.0, dominant="net_training",
    )
    threads = threading.active_count()
    inputs = setup(workload, 7, tmp_path)
    ctx = pipeline.Context(workload, inputs, tmp_path, 7, stages(workload, inputs, tmp_path, 7))
    with layertrace.Tracer() as tracer:
        rep = pipeline.run_rep(ctx, layertrace.traced_runner(tracer), time.monotonic() + 300)
    assert rep.ok, pipeline.problems_of([rep])
    values = layertrace.layer_metrics(tracer, ctx, {"f64": 1.0, "f32": 1.0})
    bad = {
        name: v for name, v in values.items()
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)
    }
    assert not bad
    json.dumps(values, allow_nan=False)
    assert threading.active_count() == threads
