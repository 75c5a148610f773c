"""The CLI writes the same bytes whatever number of BLAS threads it runs with.

train, train-svm and predict run as child processes, once with one
OpenBLAS thread and once with two, on one small synthetic set and the
default network; model files and predictions must be byte-identical.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cdrnet.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"


def _cli(argv, threads: int, cwd: Path) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "cdrnet.cli", *map(str, argv)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("threads")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["synth", "--cdr", str(root / "cdr.csv"), "--labels",
                    str(root / "labels.csv"), "--users", "60", "--weeks", "4", "--seed", "5"]) == 0
        assert run(["featurize", "--cdr", str(root / "cdr.csv"),
                    "--out", str(root / "weeks.bin")]) == 0
    return root


def _outputs(root: Path, threads: int) -> dict[str, bytes]:
    work = root / f"t{threads}"
    work.mkdir()
    tensors, labels = root / "weeks.bin", root / "labels.csv"
    _cli(["train", "--tensors", tensors, "--labels", labels, "--out", "model.bin",
          "--attribute", "gender", "--epochs", "2"], threads, work)
    _cli(["train-svm", "--model", "model.bin", "--tensors", tensors, "--labels", labels,
          "--out", "model_svm.bin", "--epochs", "5"], threads, work)
    for head in ("avg", "svm"):
        _cli(["predict", "--model", "model_svm.bin", "--tensors", tensors,
              "--out", f"{head}.csv", "--head", head], threads, work)
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


def test_outputs_do_not_depend_on_the_blas_thread_count(dataset):
    one, two = _outputs(dataset, 1), _outputs(dataset, 2)
    assert sorted(one) == ["avg.csv", "model.bin", "model_svm.bin", "svm.csv"]
    for name in one:
        assert one[name] == two[name], name
