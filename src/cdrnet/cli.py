"""Command-line entry point.

Subcommands cover the whole pipeline: synth (generate labeled CDR data),
featurize (CDR csv to tensor file), train (tensor file + labels to model
file), train-svm (append an SVM head to a model), predict (model + tensors
to predictions csv), evaluate (predictions + labels to metrics), and
gradcheck (finite-difference gradient audit).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Given the same inputs and --seed, every subcommand writes byte-identical
output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

import numpy as np

from .classify import (
    evaluate,
    format_table,
    predict_dataset,
    read_predictions,
    svm_settings,
    train_svm_head,
    write_predictions,
)
from .container import ContainerError
from .featurize import DEFAULT_AGE_EDGES, LabelSpace, featurize_users, fit_normalizer
from .featurize import load_tensor_dataset, save_tensor_dataset
from .ingest import IngestError, ParseError, ingest, load_labels, read_lines, read_utf8
from .modelfile import load_model, save_model
from .net import DEFAULT_DENSE, DEFAULT_FILTERS, NetworkConfig, downsized_config, init_params
from .synth import SynthConfig, generate, write_lines
from .training import GRAD_TOL, NumericError, TrainConfig, grad_check, train


def ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _checked(kind, owner, field: str | None = None):
    """An argparse type: the text parsed by kind, then checked by building the owner
    that holds its range (owner(value) or owner(field=value)). A bad value exits 1
    with the usage line and a message naming it."""

    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError here as "invalid <kind> value"
        try:
            owner(value) if field is None else owner(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
        return value

    parse.__name__ = kind.__name__
    return parse


# a lambda, so that numpy.random is imported when a seed is parsed, not with the CLI
_seed = _checked(int, lambda seed: np.random.SeedSequence(seed))
_age_edges = _checked(ints, lambda edges: LabelSpace.fit("age", (), edges))
_fraction = _checked(float, TrainConfig, "val_fraction")
_network = partial(NetworkConfig, classes=2)


def _load_tensors(path):
    """A tensor file with at least one tensor; an empty one is a ValueError."""
    ds = load_tensor_dataset(path)
    if len(ds) == 0:
        raise ValueError(f"{path}: empty tensor file")
    return ds


def _load_trained_model(path):
    """A model file with the norm stats and label space that train writes; else a ValueError."""
    params = load_model(path)
    if params.norm_stats is None or params.label_space is None:
        raise ValueError(f"{path}: model lacks the norm stats or label space train writes")
    return params


def _synth_config(args) -> SynthConfig:
    """synth's values, checked together: the event budget spans several flags."""
    return SynthConfig(
        users=args.users,
        weeks_per_user=args.weeks,
        age_edges=args.age_edges,
        gender_ratio=args.gender_ratio,
        signal=args.signal,
        contact_pool=args.contact_pool,
        event_rate=args.event_rate,
        seed=args.seed,
    )


def _cmd_synth(args) -> int:
    cdr_lines, label_lines = generate(args.config)
    write_lines(args.cdr, cdr_lines)
    write_lines(args.labels, label_lines)
    print(f"wrote {len(cdr_lines) - 1} records and {len(label_lines) - 1} labels")
    return 0


def _cmd_featurize(args) -> int:
    groups, _, report = ingest(read_utf8(args.cdr))
    print(json.dumps(report.to_json(), sort_keys=True))
    if report.records_accepted == 0:
        print(f"error: {args.cdr}: no usable records", file=sys.stderr)
        return 2
    ds = featurize_users(groups)
    ds.norm_stats = fit_normalizer(ds)
    save_tensor_dataset(args.out, ds)
    print(f"wrote {len(ds)} user-week tensors for {len(ds.users)} users")
    return 0


def _cmd_train(args) -> int:
    ds = _load_tensors(args.tensors)
    labels, report = load_labels(read_lines(args.labels))
    if not labels:
        print(f"error: {args.labels}: no usable labels", file=sys.stderr)
        return 2
    records = [labels[u] for u in ds.users if u in labels]
    space = LabelSpace.fit(args.attribute, records, args.age_edges)
    net_config = NetworkConfig(
        classes=space.n_classes,
        filters=args.filters,
        dense=args.dense,
        alpha=args.alpha,
    )
    train_config = TrainConfig(
        learning_rate=args.lr,
        momentum=args.momentum,
        batch_size=args.batch,
        epochs=args.epochs,
        seed=args.seed,
        weight_decay=args.weight_decay,
        val_fraction=args.val_fraction,
    )
    params, history = train(ds, labels, space, train_config, net_config)
    save_model(args.out, params)
    if args.history:
        with open(args.history, "w", encoding="utf-8") as fh:
            json.dump([h.to_json() for h in history], fh, indent=2, sort_keys=True)
    last = history[-1]
    val = "n/a" if last.val_accuracy is None else f"{last.val_accuracy:.4f}"
    print(f"epoch {last.epoch}: train_loss {last.train_loss:.6f} val_accuracy {val}")
    print(f"saved model to {args.out}")
    return 0


def _cmd_train_svm(args) -> int:
    params = _load_trained_model(args.model)
    ds = _load_tensors(args.tensors)
    labels, _ = load_labels(read_lines(args.labels))
    try:
        svm = train_svm_head(
            params,
            ds,
            labels,
            lam=args.lam,
            epochs=args.epochs,
            seed=args.seed,
            val_fraction=args.val_fraction,
        )
    except ValueError as exc:  # e.g. a label outside the model's classes
        raise ValueError(f"{args.model}, {args.labels}: {exc}") from None
    params.svm = svm
    out = args.out if args.out else args.model
    save_model(out, params)
    print(f"saved model with {len(svm.weights)}-class svm head to {out}")
    return 0


def _cmd_predict(args) -> int:
    params = _load_trained_model(args.model)
    ds = _load_tensors(args.tensors)
    preds = predict_dataset(params, ds, head=args.head)
    write_predictions(args.out, preds)
    print(f"wrote {len(preds)} predictions ({args.head} head) to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    preds = read_predictions(args.predictions)
    labels, _ = load_labels(read_lines(args.labels))
    space = LabelSpace.fit(args.attribute, labels.values(), args.age_edges)
    if preds and len(preds[0].scores) != space.n_classes:
        raise ValueError(
            f"{args.predictions}: {len(preds[0].scores)} classes, but {args.labels} "
            f"gives {space.n_classes} {args.attribute} classes {space.class_labels}"
        )
    truth = {u: space.index(r) for u, r in labels.items()}
    metrics = evaluate(preds, truth, class_labels=space.class_labels)
    report = json.dumps(metrics.to_json(), indent=2, sort_keys=True)
    print(report)
    print(
        format_table(
            [
                ("majority", metrics.majority_accuracy),
                ("uniform", metrics.uniform_accuracy),
                ("model", metrics.accuracy),
            ]
        )
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report + "\n")
    return 0


def _cmd_gradcheck(args) -> int:
    config = downsized_config()
    params = init_params(config, args.seed)
    rng = np.random.default_rng(args.seed)
    # random non-zero biases keep pre-activations off the leaky-ReLU kink,
    # where central differences and the analytic slope legitimately disagree
    for name in params.tensors:
        if name.endswith(".b"):
            params.tensors[name] = rng.normal(0.0, 0.1, params.tensors[name].shape)
    x = rng.normal(size=(config.in_channels, config.hours, config.days))
    label = int(rng.integers(config.classes))
    errors = grad_check(params, x, label)
    worst = max(errors.values())
    print(f"max relative error {worst:.3e} (tolerance {GRAD_TOL:.0e})")
    if worst >= GRAD_TOL:
        print("error: gradient check failed", file=sys.stderr)
        return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdrnet",
        description="weekly CDR tensors, a small ConvNet, and two prediction heads",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic CDR dataset")
    p.add_argument("--cdr", required=True, help="output CDR csv path")
    p.add_argument("--labels", required=True, help="output labels csv path")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--weeks", type=int, default=8)
    p.add_argument("--signal", type=float, default=1.0, help="class signal strength")
    p.add_argument("--age-edges", type=ints, default=DEFAULT_AGE_EDGES)
    p.add_argument("--gender-ratio", type=float, default=0.5)
    p.add_argument("--contact-pool", type=int, default=20)
    p.add_argument("--event-rate", type=float, default=60.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_synth, parser=p)

    p = sub.add_parser("featurize", help="turn a CDR csv into week tensors")
    p.add_argument("--cdr", required=True, help="input CDR csv path")
    p.add_argument("--out", required=True, help="output tensor file path")
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("train", help="train the network on week tensors")
    p.add_argument("--tensors", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True, help="output model file path")
    p.add_argument("--attribute", choices=("gender", "age"), required=True)
    p.add_argument("--age-edges", type=_age_edges, default=DEFAULT_AGE_EDGES)
    p.add_argument("--epochs", type=_checked(int, TrainConfig, "epochs"), default=30)
    p.add_argument("--lr", type=_checked(float, TrainConfig, "learning_rate"), default=0.01)
    p.add_argument("--momentum", type=_checked(float, TrainConfig, "momentum"), default=0.9)
    p.add_argument("--batch", type=_checked(int, TrainConfig, "batch_size"), default=32)
    p.add_argument(
        "--weight-decay", type=_checked(float, TrainConfig, "weight_decay"), default=0.0
    )
    p.add_argument("--val-fraction", type=_fraction, default=0.1)
    p.add_argument("--filters", type=_checked(ints, _network, "filters"), default=DEFAULT_FILTERS)
    p.add_argument("--dense", type=_checked(ints, _network, "dense"), default=DEFAULT_DENSE)
    p.add_argument(
        "--alpha", type=_checked(float, _network, "alpha"), default=0.01, help="leaky ReLU slope"
    )
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--history", help="optional path for per-epoch stats (json)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("train-svm", help="fit the svm head on a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--tensors", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", help="output model path (default: overwrite --model)")
    p.add_argument("--lambda", dest="lam", type=_checked(float, svm_settings, "lam"), default=1e-4)
    p.add_argument("--epochs", type=_checked(int, svm_settings, "epochs"), default=50)
    p.add_argument("--val-fraction", type=_fraction, default=0.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_train_svm)

    p = sub.add_parser("predict", help="predict each user in a tensor file")
    p.add_argument("--model", required=True)
    p.add_argument("--tensors", required=True)
    p.add_argument("--out", required=True, help="output predictions csv path")
    p.add_argument("--head", choices=("avg", "svm"), default="avg")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against labels")
    p.add_argument("--predictions", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--attribute", choices=("gender", "age"), required=True)
    p.add_argument("--age-edges", type=_age_edges, default=DEFAULT_AGE_EDGES)
    p.add_argument("--out", help="optional path for the metrics json")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference audit of the backward pass")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def run(argv: list[str]) -> int:
    """Dispatch argv; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth":
            try:
                args.config = _synth_config(args)
            except ValueError as exc:
                args.parser.error(str(exc))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ContainerError, IngestError, ParseError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
