import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrnet.classify import UserPrediction, svm_settings, write_predictions
from cdrnet.cli import run
from cdrnet.container import read_container, write_container
from cdrnet.featurize import TENSOR_MAGIC, LabelSpace, TensorDataset, load_tensor_dataset
from cdrnet.featurize import save_tensor_dataset
from cdrnet.ingest import CDR_HEADER, load_labels, read_lines
from cdrnet.modelfile import MODEL_MAGIC
from cdrnet.net import NetworkConfig
from cdrnet.synth import SynthConfig
from cdrnet.training import TrainConfig

from oracles import dense_dataset

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


BAD_ARGUMENTS = [
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
    ("train", "--lr", "inf"),
    ("train", "--momentum", "nan"),
    ("train", "--momentum", "1.5"),
    ("train", "--weight-decay", "nan"),
    ("train", "--weight-decay", "-1"),
    ("train", "--alpha", "1"),
    ("train-svm", "--lambda", "-1"),
    ("synth", "--users", "0"),
    ("synth", "--signal", "2"),
    ("synth", "--weeks", "0"),
    ("synth", "--gender-ratio", "1"),
    ("synth", "--event-rate", "0"),
    ("synth", "--event-rate", "inf"),
    ("synth", "--age-edges", "0,10"),
    ("synth", "--weeks", "500000"),  # past 9999-12-31
    ("synth", "--contact-pool", str(2**32 + 1)),
    ("synth", "--seed", "-1"),
    ("train", "--seed", "-1"),
    ("train-svm", "--seed", "-1"),
    ("gradcheck", "--seed", "-1"),
    ("evaluate", "--age-edges", "30,30"),
    ("featurize", "--include-empty-weeks", None),  # removed flag, no value
    ("train-svm", "--lambda", "inf"),
    ("train-svm", "--lambda", "nan"),
    # over synth's event budget, alone or only with the other flags; without
    # the budget, generate asks numpy for gigabytes on these
    ("synth", "--event-rate", "1e9"),
    ("synth", "--event-rate", "1e300"),
    ("synth", "--users", "1000000"),
    ("synth", "--weeks", "200000"),  # 3 users x 200,000 weeks x 60
]
# refused by parsing, before any owner sees a value
UNPARSED = [
    ("train", "--filters", "a"),
    ("train", "--batch", "x"),
    ("featurize", "--include-empty-weeks", None),
]


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def _age_space(text):
    return LabelSpace.fit("age", (), _ints(text))


def _seed(text):
    return np.random.SeedSequence(int(text))


# the library owner of each flag's range, given the value as the CLI parses it
# (synth's with the --users 3 that test_bad_argument_value_is_usage_error passes)
OWNERS = {
    ("train", "--batch"): lambda v: TrainConfig(batch_size=int(v)),
    ("train", "--epochs"): lambda v: TrainConfig(epochs=int(v)),
    ("train", "--val-fraction"): lambda v: TrainConfig(val_fraction=float(v)),
    ("train", "--lr"): lambda v: TrainConfig(learning_rate=float(v)),
    ("train", "--momentum"): lambda v: TrainConfig(momentum=float(v)),
    ("train", "--weight-decay"): lambda v: TrainConfig(weight_decay=float(v)),
    ("train", "--filters"): lambda v: NetworkConfig(classes=2, filters=_ints(v)),
    ("train", "--dense"): lambda v: NetworkConfig(classes=2, dense=_ints(v)),
    ("train", "--alpha"): lambda v: NetworkConfig(classes=2, alpha=float(v)),
    ("train", "--age-edges"): _age_space,
    ("train", "--seed"): _seed,
    ("train-svm", "--epochs"): lambda v: svm_settings(epochs=int(v)),
    ("train-svm", "--val-fraction"): lambda v: TrainConfig(val_fraction=float(v)),
    ("train-svm", "--lambda"): lambda v: svm_settings(lam=float(v)),
    ("train-svm", "--seed"): _seed,
    ("synth", "--users"): lambda v: SynthConfig(users=int(v)),
    ("synth", "--weeks"): lambda v: SynthConfig(users=3, weeks_per_user=int(v)),
    ("synth", "--signal"): lambda v: SynthConfig(users=3, signal=float(v)),
    ("synth", "--gender-ratio"): lambda v: SynthConfig(users=3, gender_ratio=float(v)),
    ("synth", "--event-rate"): lambda v: SynthConfig(users=3, event_rate=float(v)),
    ("synth", "--contact-pool"): lambda v: SynthConfig(users=3, contact_pool=int(v)),
    ("synth", "--age-edges"): lambda v: SynthConfig(users=3, age_edges=_ints(v)),
    ("synth", "--seed"): _seed,
    ("evaluate", "--age-edges"): _age_space,
    ("gradcheck", "--seed"): _seed,
}


@pytest.mark.parametrize("command, flag, value", BAD_ARGUMENTS)
def test_bad_argument_value_is_usage_error(tmp_path, command, flag, value):
    files = {
        "train": ["--tensors", tmp_path / "t.bin", "--labels", tmp_path / "l.csv",
                  "--out", tmp_path / "m.bin", "--attribute", "gender"],
        "train-svm": ["--tensors", tmp_path / "t.bin", "--labels", tmp_path / "l.csv",
                      "--model", tmp_path / "m.bin"],
        "synth": ["--cdr", tmp_path / "c.csv", "--labels", tmp_path / "l.csv", "--users", "3"],
        "evaluate": ["--predictions", tmp_path / "p.csv", "--labels", tmp_path / "l.csv",
                     "--attribute", "age"],
        "featurize": ["--cdr", tmp_path / "c.csv", "--out", tmp_path / "t.bin"],
        "gradcheck": [],
    }[command]
    code, _, err = _run([command, *files, flag, *([] if value is None else [value])])
    assert code == 1
    assert err.startswith("usage:") and flag in err
    assert "Traceback" not in err
    # the message names the value, not a private helper of the parser
    assert re.search(r"\b_[a-z]", err) is None, err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, flag, value", [case for case in BAD_ARGUMENTS if case not in UNPARSED]
)
def test_library_refuses_what_the_cli_refuses(command, flag, value):
    with pytest.raises(ValueError):
        OWNERS[command, flag](value)


@pytest.mark.parametrize("code, unused", [
    ("import cdrnet.cli", ("numpy.ma", "numpy.random")),
    ("from cdrnet.classify import train_linear_svm\n"
     "train_linear_svm([[0.0], [1.0], [2.0]], [0, 1, 0], epochs=2)", ("numpy.ma",)),
])
def test_stages_do_not_import_the_numpy_modules_they_do_not_use(code, unused):
    # each stage is its own process, and importing numpy.random or numpy.ma
    # takes 10-15 ms of it (python -X importtime, 2-vCPU Xeon)
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert not set(unused) & set(done.stdout.split())


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


def _write_with_a_bad_byte(path, lines, line_no):
    """The lines, LF-terminated, with byte 0xff put into 1-based line line_no."""
    data = [ln.encode("utf-8") for ln in lines]
    data[line_no - 1] = data[line_no - 1].replace(b",", b"\xff,", 1)
    path.write_bytes(b"\n".join(data) + b"\n")


def test_featurize_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    cdr = tmp_path / "cdr.csv"
    lines = ["user_id,direction,kind,timestamp,duration_s,correspondent_id"]
    lines += ["u1,out,call,2024-01-01T10:00:00,30,c1"] * 6000
    _write_with_a_bad_byte(cdr, lines, 5002)  # far past the first read chunk
    code, out, err = _run(["featurize", "--cdr", cdr, "--out", tmp_path / "t.bin"])
    assert code == 2 and out == ""
    assert _error_line(err).startswith(f"error: {cdr}: line 5002: byte 0xff is not UTF-8")
    assert not (tmp_path / "t.bin").exists()


_GOOD = b"u1,out,call,2024-01-01T10:00:00,30,c1"


@pytest.mark.parametrize(
    "data, line_no",
    [
        # a lone "\r" ends line 2, so the byte after it sits on line 3
        (b"%s\n%s\r\xff%s\n" % (CDR_HEADER.encode(), _GOOD, _GOOD), 3),
        (b"%s\r%s\r\n%s\r\xe9\n" % (CDR_HEADER.encode(), _GOOD, _GOOD), 4),
        # inside a line that the scan would refuse
        (b"%s\n%s\n%s\xff\n" % (CDR_HEADER.encode(), _GOOD, _GOOD.replace(b"out", b"up")), 3),
    ],
)
def test_featurize_places_a_byte_that_is_not_utf8_as_read_lines_does(tmp_path, data, line_no):
    cdr = tmp_path / "cdr.csv"
    cdr.write_bytes(data)
    code, out, err = _run(["featurize", "--cdr", cdr, "--out", tmp_path / "t.bin"])
    assert code == 2 and out == ""
    line = _error_line(err)
    assert re.fullmatch(rf"error: {re.escape(str(cdr))}: line {line_no}: byte 0x[0-9a-f]{{2}} "
                        r"is not UTF-8 \(.+\)", line), line
    with pytest.raises(ValueError) as exc:
        read_lines(cdr)
    assert line == f"error: {exc.value}"
    assert not (tmp_path / "t.bin").exists()


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
    save_tensor_dataset(empty, dense_dataset([], [], np.zeros((0, 8, 24, 7))))
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


def test_train_with_a_huge_learning_rate_exits_three(pipeline, tmp_path):
    paths, _ = pipeline
    out = tmp_path / "model.bin"
    code, _, err = _run(["train", "--tensors", paths["tensors"], "--labels", paths["labels"],
                         "--out", out, "--attribute", "gender", *SMALL_TRAIN, "--lr", "1e30"])
    assert code == 3
    line = _error_line(err)
    assert re.fullmatch(
        r"error: non-finite (loss|\S+ (gradient|parameter)) at epoch \d+, step \d+", line
    ), line
    assert not out.exists()


def test_gradcheck_passes(tmp_path):
    # at seeds 1 and 15, float64 central differences read rel err 4.6e-4 and 2.2e-4
    for seed in (7, 1, 15):
        code, out, _ = _run(["gradcheck", "--seed", seed])
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


def test_evaluate_names_the_line_of_a_byte_that_is_not_utf8(pipeline, tmp_path):
    paths, _ = pipeline
    labels = tmp_path / "labels.csv"
    _write_with_a_bad_byte(labels, paths["labels"].read_text(encoding="utf-8").splitlines(), 3)
    preds = _predict(paths, tmp_path / "preds.csv")
    code, out, err = _run(
        ["evaluate", "--predictions", preds, "--labels", labels, "--attribute", "gender"]
    )
    assert code == 2 and out == ""
    assert _error_line(err).startswith(f"error: {labels}: line 3: byte 0xff is not UTF-8")


def test_evaluate_names_the_line_of_a_predictions_byte_that_is_not_utf8(pipeline, tmp_path):
    paths, _ = pipeline
    preds = _predict(paths, tmp_path / "preds.csv")
    _write_with_a_bad_byte(preds, preds.read_text(encoding="utf-8").splitlines(), 3)
    code, out, err = _run(
        ["evaluate", "--predictions", preds, "--labels", paths["labels"], "--attribute", "gender"]
    )
    assert code == 2 and out == ""
    assert _error_line(err).startswith(f"error: {preds}: line 3: byte 0xff is not UTF-8")


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
    lambda h: h.update(class_labels=[False, 9223372036854775808]),
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


def _put_float_count(value):
    """An edit that widens the counts to float64, the one layout that can hold value,
    and makes value the first count."""

    def edit(header, arrays):
        arrays["counts"] = arrays["counts"].astype(np.float64)
        arrays["counts"][0] = value

    return edit


@pytest.mark.parametrize("command", ["predict", "train", "train-svm"])
@pytest.mark.parametrize("edit, field", [
    (lambda h, a: h.update(users=h["users"][:4]), "users"),
    (lambda h, a: h.update(users=list(range(len(h["users"])))), "users"),
    (lambda h, a: h.update(weeks=5), "weeks"),
    (lambda h, a: h.update(weeks=h["weeks"][1:]), "weeks"),
    # the four cases of the dense layout's "tensors" array, ported to the
    # sparse arrays under their old ids: missing, misshapen, NaN and -5
    pytest.param(lambda h, a: a.pop("counts"), "counts", id="<lambda>-tensors0"),
    pytest.param(lambda h, a: a.update(counts=a["counts"][:, None]), "counts",
                 id="<lambda>-tensors1"),
    pytest.param(_put_float_count(np.nan), "counts", id="<lambda>-tensors2"),
    pytest.param(_put_float_count(-5.0), "counts", id="<lambda>-tensors3"),
    pytest.param(lambda h, a: a.update(counts=a["counts"].astype(np.int64)), "counts",
                 id="<lambda>-signed-counts"),
    (lambda h, a: [a.pop(name) for name in ("norm.mean", "norm.std")], "norm.mean"),
    (lambda h, a: a.pop("offsets"), "offsets"),
    (lambda h, a: a.update(cells=a["cells"].astype(np.int64)), "cells"),
    (lambda h, a: np.put(a["offsets"], 0, 1), "offsets"),
    (lambda h, a: np.put(a["offsets"], 1, a["offsets"][2] + 1), "offsets"),
    (lambda h, a: np.put(a["offsets"], -1, a["offsets"][-1] + 1), "offsets"),
    (lambda h, a: a.update(counts=a["counts"][:-1]), "counts"),
    (lambda h, a: np.put(a["cells"], 0, 8 * 24 * 7), "cells"),
    (lambda h, a: np.put(a["cells"], [0, 1], a["cells"][[1, 0]]), "cells"),
    (lambda h, a: a.update(offsets=np.append(a["offsets"], a["offsets"][-1])), "users"),
    (lambda h, a: h["weeks"].__setitem__(0, "2024,01-01"), "weeks"),
    (lambda h, a: h["weeks"].__setitem__(0, "2024-01-02"), "weeks"),
    pytest.param(lambda h, a: h.update(users=h["users"][::-1]), "users",
                 id="<lambda>-users-out-of-order"),
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


@pytest.mark.parametrize("command", ["predict", "train", "train-svm"])
@pytest.mark.parametrize("dtype", ["|O", ">f8", "<f4"])
def test_tensor_file_with_a_foreign_array_dtype_exits_two(pipeline, tmp_path, command, dtype):
    paths, _ = pipeline
    raw = paths["tensors"].read_bytes()
    start = raw.index(b"\n") + 1 + 8  # after the magic line and the header length
    end = start + int.from_bytes(raw[start - 8 : start], "little")
    header = json.loads(raw[start:end])
    for entry in header["arrays"]:
        if entry["name"] == "counts":
            entry["dtype"] = dtype  # refused by the manifest check, before any sizing
    header_bytes = json.dumps(header, sort_keys=True).encode()
    body = raw[: start - 8] + len(header_bytes).to_bytes(8, "little") + header_bytes
    body += raw[end:-32]
    bad = tmp_path / "bad.bin"
    bad.write_bytes(body + hashlib.sha256(body).digest())
    out = tmp_path / "out"
    code, _, err = _run(_commands(paths, paths["svm_model"], bad, out)[command])
    assert code == 2
    line = _error_line(err)
    assert str(bad) in line and "counts" in line and dtype in line
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "train", "train-svm"])
def test_dense_tensor_file_of_the_first_format_exits_two(pipeline, tmp_path, command):
    paths, _ = pipeline
    old = tmp_path / "old.bin"
    write_container(old, "CDRTENSOR/1", {"users": ["u1"], "weeks": ["2024-01-01"]},
                    {"tensors": np.zeros((1, 8, 24, 7))})
    out = tmp_path / "out"
    code, _, err = _run(_commands(paths, paths["svm_model"], old, out)[command])
    assert code == 2
    line = _error_line(err)
    assert str(old) in line and "re-run featurize" in line
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
    (lambda h, a: h["config"].update(kernels=[[4, 1]] * 4 + [[12, 7], [1, 1]]), "config"),
    # json writes float("inf") as Infinity, which an int() conversion cannot take
    (lambda h, a: h["config"].update(classes=math.inf), "config"),
    (lambda h, a: h["config"].update(dense=[math.inf, 8]), "config"),
    (lambda h, a: h.update(attribute="age", age_edges=[30, math.inf]), "age_edges"),
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


def _set_std(std):
    return lambda h, a: np.put(a["norm.std"], 2, std)


@pytest.mark.parametrize("command", ["predict", "train-svm"])
@pytest.mark.parametrize("edit, word", [
    # checksum-valid stats that fit_normalizer never writes; with them the
    # net would score every user nan
    *(pytest.param(_set_std(std), "norm", id=str(std)) for std in (0.0, -1.0, math.nan)),
    # a model file without the norm stats or the label space that train writes
    pytest.param(lambda h, a: [a.pop(name) for name in ("norm.mean", "norm.std")], "norm",
                 id="no-norm-stats"),
    pytest.param(lambda h, a: [h.pop(key) for key in ("attribute", "class_labels")],
                 "label space", id="no-label-space"),
])
def test_model_with_unusable_norm_stats_exits_two(pipeline, tmp_path, command, edit, word):
    paths, _ = pipeline
    bad = tmp_path / "bad.bin"
    _rewrite(paths["svm_model"], bad, MODEL_MAGIC, edit)
    out = tmp_path / "out"
    code, _, err = _run(_commands(paths, bad, paths["tensors"], out)[command])
    assert code == 2
    line = _error_line(err)
    assert str(bad) in line and word in line
    assert not out.exists()


def test_train_and_classify_never_build_the_dense_tensors(pipeline, tmp_path, monkeypatch):
    def dense(self):
        raise AssertionError("a stage built the dense tensors")

    monkeypatch.setattr(TensorDataset, "tensors", property(dense))
    paths, _ = pipeline
    commands = _commands(paths, paths["svm_model"], paths["tensors"], tmp_path / "out")
    commands["predict-svm"] = [*commands["predict"], "--head", "svm"]
    for command in ("train", "train-svm", "predict", "predict-svm"):
        code, _, err = _run(commands[command])
        assert code == 0, (command, err)


@pytest.fixture(scope="module")
def many_users(tmp_path_factory):
    """Tensors, labels and a one-epoch model of 2,000 one-week users at 15 events.

    The shape of the bench's many-users workload.
    """
    root = tmp_path_factory.mktemp("many")
    paths = {name: root / f"{name}" for name in ("cdr", "labels", "tensors", "model")}
    for argv in (
        ["synth", "--cdr", paths["cdr"], "--labels", paths["labels"], "--users", 2000,
         "--weeks", 1, "--event-rate", 15, "--seed", 7],
        ["featurize", "--cdr", paths["cdr"], "--out", paths["tensors"]],
        ["train", "--tensors", paths["tensors"], "--labels", paths["labels"],
         "--out", paths["model"], "--attribute", "gender", "--epochs", 1, "--seed", 7],
    ):
        code, _, err = _run(argv)
        assert code == 0, err
    return paths


@pytest.mark.parametrize("command", ["train", "train-svm", "predict"])
def test_stages_peak_below_the_dense_tensor_size(many_users, tmp_path, command):
    # the dense float64 tensors alone would take N·1344·8 bytes
    paths = many_users
    tensors, labels, out = paths["tensors"], paths["labels"], tmp_path / "out"
    argv = {
        "train": ["train", "--tensors", tensors, "--labels", labels, "--out", out,
                  "--attribute", "gender", "--epochs", 1, "--seed", 7],
        "train-svm": ["train-svm", "--model", paths["model"], "--tensors", tensors,
                      "--labels", labels, "--out", out, "--epochs", 2],
        "predict": ["predict", "--model", paths["model"], "--tensors", tensors, "--out", out],
    }[command]
    tracemalloc.start()
    try:
        code, _, err = _run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, err
    dense = len(load_tensor_dataset(tensors)) * 8 * 24 * 7 * 8
    assert dense > 20e6
    assert peak < dense, f"{command} peaked at {peak / 1e6:.1f} MB"


# One header field, as a path of keys, of each file kind.
MODEL_FIELDS = [("config", f.name) for f in fields(NetworkConfig)] + [
    ("attribute",), ("class_labels",), ("age_edges",), ("svm", "lam"),
]
TENSOR_FIELDS = [("users",), ("weeks",), ("has_norm",)]
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(63, 1400).flatmap(lambda e: st.sampled_from([2**e, -(2**e)])),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.text(max_size=6),
)
JSON_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS | st.integers(-2, 40), max_size=3),
    st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2),
)
# a 2-class age space that the gender model's header can carry instead
AGE_SPACE = {"attribute": "age", "class_labels": ["[0,30)", "[30,inf)"], "age_edges": [30]}


# A checksum-valid file with any JSON value in any one header field is either
# used (exit 0) or refused with exit 2 and one stderr line naming it; an
# exception escaping run() fails the example.
@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_any_header_field_mutation_exits_zero_or_two_with_one_line(pipeline, data):
    paths, _ = pipeline
    kind = data.draw(st.sampled_from(["gender model", "age model", "tensors"]), label="kind")
    if kind == "tensors":
        src, magic, commands = paths["tensors"], TENSOR_MAGIC, ("predict", "train")
        field = data.draw(st.sampled_from(TENSOR_FIELDS), label="field")
    else:
        src, magic, commands = paths["svm_model"], MODEL_MAGIC, ("predict", "train-svm")
        field = data.draw(st.sampled_from(MODEL_FIELDS), label="field")
    value = data.draw(JSON_VALUES, label="value")

    def edit(header, arrays):
        if kind == "age model":
            header.update(AGE_SPACE)
        *outer, last = field
        for key in outer:
            header = header[key]
        header[last] = value

    with tempfile.TemporaryDirectory() as tmp:
        bad, out = Path(tmp) / "bad.bin", Path(tmp) / "out"
        _rewrite(src, bad, magic, edit)
        model, tensors = (paths["svm_model"], bad) if kind == "tensors" else (bad, paths["tensors"])
        for command in commands:
            code, _, err = _run(_commands(paths, model, tensors, out)[command])
            assert code in (0, 2) and "Traceback" not in err, err
            if code == 2:
                assert str(bad) in _error_line(err)


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
