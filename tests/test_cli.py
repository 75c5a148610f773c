import contextlib
import io
import json
import re

import numpy as np
import pytest

from cdrnet.classify import UserPrediction, write_predictions
from cdrnet.cli import run
from cdrnet.container import read_container, write_container
from cdrnet.featurize import TENSOR_MAGIC, TensorDataset, save_tensor_dataset
from cdrnet.ingest import load_labels
from cdrnet.modelfile import MODEL_MAGIC

SMALL_TRAIN = [
    "--epochs", "2", "--filters", "4,4,4,4,4,8", "--dense", "16,8",
    "--val-fraction", "0.25", "--seed", "0",
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "cdr": root / "cdr.csv",
        "labels": root / "labels.csv",
        "tensors": root / "weeks.bin",
        "model": root / "model.bin",
        "svm_model": root / "model_svm.bin",
        "history": root / "history.json",
        "root": root,
    }
    outputs = {}

    code, outputs["synth"], err = _run(
        ["synth", "--cdr", paths["cdr"], "--labels", paths["labels"],
         "--users", 24, "--weeks", 3, "--seed", 3]
    )
    assert code == 0, err
    code, outputs["featurize"], err = _run(
        ["featurize", "--cdr", paths["cdr"], "--out", paths["tensors"]]
    )
    assert code == 0, err
    code, outputs["train"], err = _run(
        ["train", "--tensors", paths["tensors"], "--labels", paths["labels"],
         "--out", paths["model"], "--attribute", "gender",
         "--history", paths["history"], *SMALL_TRAIN]
    )
    assert code == 0, err
    code, outputs["train-svm"], err = _run(
        ["train-svm", "--model", paths["model"], "--tensors", paths["tensors"],
         "--labels", paths["labels"], "--out", paths["svm_model"], "--epochs", 5]
    )
    assert code == 0, err
    return paths, outputs


def test_help_exits_zero():
    code, out, _ = _run(["--help"])
    assert code == 0
    for name in ("synth", "featurize", "train", "predict", "evaluate", "gradcheck"):
        assert name in out


def test_no_arguments_is_usage_error():
    code, _, _ = _run([])
    assert code == 1


def test_unknown_command_is_usage_error():
    code, _, _ = _run(["frobnicate"])
    assert code == 1


def test_missing_required_flag_is_usage_error(tmp_path):
    code, _, _ = _run(["synth", "--cdr", tmp_path / "a.csv", "--labels", tmp_path / "b.csv"])
    assert code == 1


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--batch", "0"),
    ("train", "--epochs", "0"),
    ("train", "--val-fraction", "1.5"),
    ("train", "--val-fraction", "-0.1"),
    ("train-svm", "--epochs", "0"),
    ("train-svm", "--val-fraction", "1.0"),
    ("train", "--filters", "16"),
    ("train", "--filters", "a"),
    ("train", "--filters", "16,16,16,16,32,0"),
    ("train", "--dense", "128"),
    ("train", "--age-edges", "50,30"),
    ("train", "--batch", "x"),
    ("train", "--lr", "0"),
    ("train", "--alpha", "1"),
    ("train-svm", "--lambda", "-1"),
    ("synth", "--users", "0"),
    ("synth", "--signal", "2"),
    ("synth", "--weeks", "0"),
    ("synth", "--gender-ratio", "1"),
    ("synth", "--event-rate", "0"),
    ("synth", "--age-edges", "0,10"),
    ("evaluate", "--age-edges", "30,30"),
])
def test_bad_argument_value_is_usage_error(tmp_path, command, flag, value):
    files = {
        "train": ["--tensors", tmp_path / "t.bin", "--labels", tmp_path / "l.csv",
                  "--out", tmp_path / "m.bin", "--attribute", "gender"],
        "train-svm": ["--tensors", tmp_path / "t.bin", "--labels", tmp_path / "l.csv",
                      "--model", tmp_path / "m.bin"],
        "synth": ["--cdr", tmp_path / "c.csv", "--labels", tmp_path / "l.csv", "--users", "3"],
        "evaluate": ["--predictions", tmp_path / "p.csv", "--labels", tmp_path / "l.csv",
                     "--attribute", "age"],
    }[command]
    code, _, err = _run([command, *files, flag, value])
    assert code == 1
    assert err.startswith("usage:") and flag in err
    assert "Traceback" not in err
    # the message names the value, not a private helper of the parser
    assert re.search(r"\b_[a-z]", err) is None, err
    assert not list(tmp_path.iterdir())


def test_synth_reports_counts_and_writes_files(pipeline):
    paths, outputs = pipeline
    assert "records" in outputs["synth"] and "labels" in outputs["synth"]
    cdr_text = paths["cdr"].read_text(encoding="utf-8")
    assert cdr_text.startswith("user_id,")
    assert len(paths["labels"].read_text(encoding="utf-8").splitlines()) == 25


def test_featurize_prints_ingest_report(pipeline):
    _, outputs = pipeline
    report = json.loads(outputs["featurize"].splitlines()[0])
    assert report["records_rejected"] == 0
    assert report["records_accepted"] > 0


def test_featurize_tolerates_some_bad_lines(tmp_path):
    cdr = tmp_path / "cdr.csv"
    cdr.write_text(
        "user_id,direction,kind,timestamp,duration_s,correspondent_id\n"
        "u1,out,call,2024-01-01T10:00:00,30,c1\n"
        "u1,sideways,call,2024-01-01T11:00:00,30,c1\n",
        encoding="utf-8",
    )
    code, out, _ = _run(["featurize", "--cdr", cdr, "--out", tmp_path / "t.bin"])
    assert code == 0
    report = json.loads(out.splitlines()[0])
    assert report["records_accepted"] == 1
    assert report["records_rejected"] == 1
    assert (tmp_path / "t.bin").exists()


def test_featurize_with_no_usable_records_exits_two(tmp_path):
    cdr = tmp_path / "empty.csv"
    cdr.write_text("user_id,direction,kind,timestamp,duration_s,correspondent_id\n", encoding="utf-8")
    code, _, err = _run(["featurize", "--cdr", cdr, "--out", tmp_path / "t.bin"])
    assert code == 2
    assert str(cdr) in err


def test_featurize_missing_input_exits_two(tmp_path):
    code, _, err = _run(["featurize", "--cdr", tmp_path / "nope.csv", "--out", tmp_path / "t.bin"])
    assert code == 2
    assert "error:" in err


def test_train_prints_final_epoch(pipeline):
    paths, outputs = pipeline
    assert "epoch 2:" in outputs["train"]
    assert "val_accuracy" in outputs["train"]
    assert paths["model"].exists()


def test_train_writes_history_json(pipeline):
    paths, _ = pipeline
    history = json.loads(paths["history"].read_text(encoding="utf-8"))
    assert len(history) == 2
    assert {"epoch", "train_loss", "val_accuracy"} <= set(history[0])


def test_train_on_empty_tensor_file_exits_two(pipeline, tmp_path):
    paths, _ = pipeline
    empty = tmp_path / "empty.bin"
    save_tensor_dataset(empty, TensorDataset([], [], np.zeros((0, 8, 24, 7))))
    code, _, err = _run(
        ["train", "--tensors", empty, "--labels", paths["labels"],
         "--out", tmp_path / "m.bin", "--attribute", "gender", *SMALL_TRAIN]
    )
    assert code == 2
    assert str(empty) in err


def test_predict_then_evaluate(pipeline, tmp_path):
    paths, _ = pipeline
    preds = tmp_path / "preds.csv"
    code, out, err = _run(
        ["predict", "--model", paths["svm_model"], "--tensors", paths["tensors"], "--out", preds]
    )
    assert code == 0, err
    header = preds.read_text(encoding="utf-8").splitlines()[0]
    assert header == "user_id,predicted_class,p_0,p_1"

    metrics_path = tmp_path / "metrics.json"
    code, out, err = _run(
        ["evaluate", "--predictions", preds, "--labels", paths["labels"],
         "--attribute", "gender", "--out", metrics_path]
    )
    assert code == 0, err
    assert "classifier" in out
    metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
    assert metrics["n_users"] == 24
    assert 0.0 <= metrics["accuracy"] <= 1.0


def test_predict_svm_head(pipeline, tmp_path):
    paths, _ = pipeline
    preds = tmp_path / "preds_svm.csv"
    code, _, err = _run(
        ["predict", "--model", paths["svm_model"], "--tensors", paths["tensors"],
         "--out", preds, "--head", "svm"]
    )
    assert code == 0, err
    assert preds.read_text(encoding="utf-8").count("\n") == 25


def test_predict_svm_without_head_exits_two(pipeline, tmp_path):
    paths, _ = pipeline
    code, _, err = _run(
        ["predict", "--model", paths["model"], "--tensors", paths["tensors"],
         "--out", tmp_path / "p.csv", "--head", "svm"]
    )
    assert code == 2
    assert "svm" in err.lower()


def test_corrupt_model_exits_two(pipeline, tmp_path):
    paths, _ = pipeline
    bad = tmp_path / "bad.bin"
    raw = bytearray(paths["model"].read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    bad.write_bytes(bytes(raw))
    code, _, err = _run(
        ["predict", "--model", bad, "--tensors", paths["tensors"], "--out", tmp_path / "p.csv"]
    )
    assert code == 2
    assert "error:" in err


def test_gradcheck_passes(tmp_path):
    code, out, _ = _run(["gradcheck", "--seed", 7])
    assert code == 0
    assert "max relative error" in out
    worst = float(out.split()[3])
    assert worst < 1e-4


def test_evaluate_perfect_predictions(pipeline, tmp_path):
    paths, _ = pipeline
    labels, _ = load_labels(paths["labels"].read_text(encoding="utf-8").splitlines())
    classes = tuple(sorted({r.gender for r in labels.values()}))
    preds = [
        UserPrediction(uid, np.eye(len(classes))[classes.index(rec.gender)],
                       classes.index(rec.gender), 1)
        for uid, rec in sorted(labels.items())
    ]
    path = tmp_path / "perfect.csv"
    write_predictions(path, preds)
    code, out, err = _run(
        ["evaluate", "--predictions", path, "--labels", paths["labels"], "--attribute", "gender"]
    )
    assert code == 0, err
    metrics = json.loads(out[: out.index("\nclassifier")])
    assert metrics["accuracy"] == 1.0


def test_pipeline_is_byte_identical_on_rerun(pipeline, tmp_path):
    paths, _ = pipeline
    cdr2, labels2 = tmp_path / "cdr.csv", tmp_path / "labels.csv"
    assert _run(["synth", "--cdr", cdr2, "--labels", labels2,
                 "--users", 24, "--weeks", 3, "--seed", 3])[0] == 0
    assert cdr2.read_bytes() == paths["cdr"].read_bytes()
    assert labels2.read_bytes() == paths["labels"].read_bytes()

    tensors2 = tmp_path / "weeks.bin"
    assert _run(["featurize", "--cdr", cdr2, "--out", tensors2])[0] == 0
    assert tensors2.read_bytes() == paths["tensors"].read_bytes()

    model2 = tmp_path / "model.bin"
    assert _run(["train", "--tensors", tensors2, "--labels", labels2,
                 "--out", model2, "--attribute", "gender", *SMALL_TRAIN])[0] == 0
    assert model2.read_bytes() == paths["model"].read_bytes()

    preds_a, preds_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (preds_a, preds_b):
        assert _run(["predict", "--model", model2, "--tensors", tensors2, "--out", p])[0] == 0
    assert preds_a.read_bytes() == preds_b.read_bytes()


def test_subcommand_help_lists_flags():
    code, out, _ = _run(["train", "--help"])
    assert code == 0
    for flag in ("--tensors", "--labels", "--out", "--attribute", "--age-edges",
                 "--epochs", "--lr", "--momentum", "--batch", "--weight-decay",
                 "--val-fraction", "--filters", "--dense", "--alpha", "--seed", "--history"):
        assert flag in out


def test_both_heads_share_the_csv_schema(pipeline, tmp_path):
    paths, _ = pipeline
    avg_path, svm_path = tmp_path / "avg.csv", tmp_path / "svm.csv"
    for head, path in (("avg", avg_path), ("svm", svm_path)):
        code, _, err = _run(
            ["predict", "--model", paths["svm_model"], "--tensors", paths["tensors"],
             "--out", path, "--head", head]
        )
        assert code == 0, err
    avg_lines = avg_path.read_text(encoding="utf-8").splitlines()
    svm_lines = svm_path.read_text(encoding="utf-8").splitlines()
    assert avg_lines[0] == svm_lines[0]
    assert len(avg_lines) == len(svm_lines)
    assert [l.split(",")[0] for l in avg_lines] == [l.split(",")[0] for l in svm_lines]


def _error_line(err):
    """The one stderr line of a refused run."""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def _predict(paths, out, head="avg"):
    code, _, err = _run(
        ["predict", "--model", paths["svm_model"], "--tensors", paths["tensors"],
         "--out", out, "--head", head]
    )
    assert code == 0, err
    return out


def test_evaluate_skips_users_without_a_label(pipeline, tmp_path):
    paths, _ = pipeline
    preds = _predict(paths, tmp_path / "preds.csv")
    lines = paths["labels"].read_text(encoding="utf-8").splitlines()
    half = tmp_path / "half.csv"
    half.write_text("\n".join(lines[:13]) + "\n", encoding="utf-8")  # header + 12 users
    metrics_path = tmp_path / "metrics.json"
    code, _, err = _run(
        ["evaluate", "--predictions", preds, "--labels", half, "--attribute", "gender",
         "--out", metrics_path]
    )
    assert code == 0, err
    metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
    assert (metrics["n_users"], metrics["unlabeled"]) == (12, 12)


@pytest.mark.parametrize("edit, reason", [
    (lambda rows: rows[:1] + ["u999,5,0.5,0.5"] + rows[1:], "predicted_class 5 outside [0, 2)"),
    (lambda rows: rows[:1] + ["u999,-1,0.5,0.5"] + rows[1:], "predicted_class -1 outside [0, 2)"),
    (lambda rows: rows[:1] + ["u999,0,0.5"] + rows[1:], "1 scores for 2 classes"),
    (lambda rows: rows[:2] + rows[1:], "already on line 2"),
])
def test_evaluate_refuses_a_malformed_predictions_file(pipeline, tmp_path, edit, reason):
    paths, _ = pipeline
    preds = _predict(paths, tmp_path / "preds.csv")
    preds.write_text("\n".join(edit(preds.read_text(encoding="utf-8").splitlines())) + "\n",
                     encoding="utf-8")
    code, _, err = _run(
        ["evaluate", "--predictions", preds, "--labels", paths["labels"], "--attribute", "gender"]
    )
    assert code == 2
    line = _error_line(err)
    assert str(preds) in line and "line 2" in line and reason in line


def test_evaluate_refuses_labels_with_a_gender_the_model_never_saw(pipeline, tmp_path):
    paths, _ = pipeline
    preds = _predict(paths, tmp_path / "preds.csv")
    labels = tmp_path / "labels.csv"
    labels.write_text(paths["labels"].read_text(encoding="utf-8") + "zz_extra,a,40\n",
                      encoding="utf-8")
    code, out, err = _run(
        ["evaluate", "--predictions", preds, "--labels", labels, "--attribute", "gender"]
    )
    assert code == 2 and out == ""
    assert "2 classes" in _error_line(err) and "3 gender classes" in err


def test_evaluate_refuses_predictions_of_other_age_buckets(tmp_path):
    # what a model trained with --age-edges 30,50 predicts: 3 classes
    preds = tmp_path / "preds.csv"
    write_predictions(preds, [UserPrediction("u1", np.array([0.2, 0.5, 0.3]), 1, 1)])
    labels = tmp_path / "labels.csv"
    labels.write_text("user_id,gender,age_years\nu1,f,40\n", encoding="utf-8")
    code, _, err = _run(["evaluate", "--predictions", preds, "--labels", labels,
                         "--attribute", "age"])
    assert code == 2
    assert "3 classes" in _error_line(err) and "4 age classes" in err
    code, _, err = _run(["evaluate", "--predictions", preds, "--labels", labels,
                         "--attribute", "age", "--age-edges", "30,50"])
    assert code == 0, err


@pytest.mark.parametrize("edit", [
    lambda h: h.update(class_labels=["f", "m", "x"]),
    lambda h: h.update(class_labels=["f"]),
    lambda h: h.update(class_labels=["m", "f"]),
    lambda h: h.update(attribute="age", class_labels=["[0,30)", "[30,inf)"], age_edges=[28]),
])
def test_model_with_rewritten_label_space_exits_two(pipeline, tmp_path, edit):
    paths, _ = pipeline
    header, arrays = read_container(paths["model"], MODEL_MAGIC)
    edit(header)
    bad = tmp_path / "bad.bin"
    write_container(bad, MODEL_MAGIC, header, arrays)  # with a valid checksum
    code, _, err = _run(
        ["predict", "--model", bad, "--tensors", paths["tensors"], "--out", tmp_path / "p.csv"]
    )
    assert code == 2
    line = _error_line(err)
    assert str(bad) in line and "class_labels" in line
    assert not (tmp_path / "p.csv").exists()


def _commands(paths, model, tensors, out):
    return {
        "predict": ["predict", "--model", model, "--tensors", tensors, "--out", out],
        "train": ["train", "--tensors", tensors, "--labels", paths["labels"], "--out", out,
                  "--attribute", "gender", *SMALL_TRAIN],
        "train-svm": ["train-svm", "--model", model, "--tensors", tensors,
                      "--labels", paths["labels"], "--out", out, "--epochs", 1],
    }


def _rewrite(src, dst, magic, edit):
    header, arrays = read_container(src, magic)
    edit(header, arrays)
    write_container(dst, magic, header, arrays)  # with a valid checksum


@pytest.mark.parametrize("command", ["predict", "train", "train-svm"])
@pytest.mark.parametrize("edit, field", [
    (lambda h, a: h.update(users=h["users"][:4]), "users"),
    (lambda h, a: h.update(users=list(range(len(h["users"])))), "users"),
    (lambda h, a: h.update(weeks=5), "weeks"),
    (lambda h, a: h.update(weeks=h["weeks"][1:]), "weeks"),
    (lambda h, a: a.pop("tensors"), "tensors"),
    (lambda h, a: a.update(tensors=a["tensors"][:, :4]), "tensors"),
])
def test_tensor_file_with_a_crafted_header_exits_two(pipeline, tmp_path, command, edit, field):
    paths, _ = pipeline
    bad = tmp_path / "bad.bin"
    _rewrite(paths["tensors"], bad, TENSOR_MAGIC, edit)
    out = tmp_path / "out"
    code, _, err = _run(_commands(paths, paths["svm_model"], bad, out)[command])
    assert code == 2
    line = _error_line(err)
    assert str(bad) in line and field in line
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "train-svm"])
@pytest.mark.parametrize("edit, field", [
    (lambda h, a: h["config"].update(filters=None), "config"),
    (lambda h, a: h["config"].pop("dense"), "config"),
    (lambda h, a: h.pop("config"), "config"),
    (lambda h, a: a.pop("conv3.w"), "conv3.w"),
    (lambda h, a: a.update({"dense8.b": a["dense8.b"][:-1]}), "dense8.b"),
    (lambda h, a: a.update({"svm.w": np.zeros((4, 2))}), "svm.w"),
    (lambda h, a: a.pop("svm.feature_std"), "svm.feature_std"),
    (lambda h, a: h.pop("svm"), "svm"),
    (lambda h, a: a.update({"norm.std": np.ones(3)}), "norm.std"),
])
def test_model_file_with_a_crafted_header_exits_two(pipeline, tmp_path, command, edit, field):
    paths, _ = pipeline
    bad = tmp_path / "bad.bin"
    _rewrite(paths["svm_model"], bad, MODEL_MAGIC, edit)
    out = tmp_path / "out"
    code, _, err = _run(_commands(paths, bad, paths["tensors"], out)[command])
    assert code == 2
    line = _error_line(err)
    assert str(bad) in line and field in line
    assert not out.exists()


def test_featurize_rejects_an_overlong_duration(tmp_path):
    cdr = tmp_path / "cdr.csv"
    cdr.write_text(
        "user_id,direction,kind,timestamp,duration_s,correspondent_id\n"
        "u1,out,call,2024-01-01T10:00:00,30,c1\n"
        f"u1,out,call,2024-01-01T11:00:00,{'9' * 400},c1\n",
        encoding="utf-8",
    )
    code, out, err = _run(["featurize", "--cdr", cdr, "--out", tmp_path / "t.bin"])
    assert code == 0, err
    report = json.loads(out.splitlines()[0])
    assert [(r["line"], r["reason"]) for r in report["rejections"]] == [
        (3, "duration of 400 digits, at most 15 allowed")
    ]
