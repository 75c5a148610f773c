"""Property: a user's prediction does not depend on the other users in the file.

predict_dataset runs the network on fixed-size chunks that mix users. This
checks, on the default network, that dropping users or adding users leaves
every remaining user's predictions CSV row byte-identical, for both heads.
Each file lists its users sorted, as featurize writes them; a file that
does not is refused on load.
"""

import tempfile
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrnet.classify import SvmModel, predict_dataset
from cdrnet.featurize import TensorDataset, WeekId, fit_normalizer
from cdrnet.labels import LabelSpace
from cdrnet.net import NetworkConfig, init_params
from cdrnet.scoring import write_predictions

from oracles import dense_dataset

CLASSES = 4
_RNG = np.random.default_rng(3)
_CONFIG = NetworkConfig(classes=CLASSES)
_FIT_SET = dense_dataset(
    ["u"] * 16, [WeekId(date(2024, 1, 1))] * 16, _RNG.poisson(1.0, size=(16, 8, 24, 7))
)
MODEL = replace(
    init_params(_CONFIG, 0),
    norm_stats=fit_normalizer(_FIT_SET),
    label_space=LabelSpace.fit("age", ()),  # the four default age buckets
    svm=SvmModel(
        weights=_RNG.normal(size=(CLASSES, _CONFIG.feature_dim)),
        bias=_RNG.normal(size=CLASSES),
        lam=1e-4,
        feature_mean=_RNG.normal(size=_CONFIG.feature_dim),
        feature_std=_RNG.uniform(0.5, 2.0, size=_CONFIG.feature_dim),
    ),
)

# per user: number of weeks, and whether it is in both files, only the
# first, or only the second
USERS = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from(("both", "first", "second"))),
    min_size=1,
    max_size=40,
)


def _dataset(users, weeks) -> TensorDataset:
    users = sorted(users)
    ids = [u for u in users for _ in weeks[u]]
    monday = date(2024, 1, 1)
    return dense_dataset(
        ids,
        [WeekId(monday + timedelta(days=7 * k)) for u in users for k in range(len(weeks[u]))],
        np.concatenate([weeks[u] for u in users]),
    )


def _csv_rows(dataset, head, workdir) -> dict[str, str]:
    path = Path(workdir) / f"{head}.csv"
    write_predictions(path, predict_dataset(MODEL, dataset, head=head), MODEL.label_space)
    return {line.split(",", 1)[0]: line for line in path.read_text().splitlines()[1:]}


@settings(max_examples=12, deadline=None)
@given(users=USERS, seed=st.integers(0, 2**32 - 1))
def test_rows_do_not_depend_on_the_other_users(users, seed):
    rng = np.random.default_rng(seed)
    ids = [f"u{i:03d}" for i in rng.permutation(len(users))]
    weeks = {
        u: rng.poisson(rng.uniform(0.1, 3.0), size=(n, 8, 24, 7)).astype(np.float64)
        for u, (n, _) in zip(ids, users)
    }
    first = [u for u, (_, side) in zip(ids, users) if side != "second"]
    second = [u for u, (_, side) in zip(ids, users) if side != "first"]
    shared = [u for u, (_, side) in zip(ids, users) if side == "both"]
    with tempfile.TemporaryDirectory() as workdir:
        for head in ("avg", "svm"):
            a = _csv_rows(_dataset(first, weeks), head, workdir) if first else {}
            b = _csv_rows(_dataset(second, weeks), head, workdir) if second else {}
            for u in shared:
                assert a[u] == b[u], (head, u)
