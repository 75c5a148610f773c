"""Traced in-process run: per-layer spans around the public functions of each module.

The layers are the package's modules. A hook replaces a public function in
the module that calls it (``cdrnet.training.forward_batch`` rather than
``cdrnet.net.forward_batch``), so the caller is known without a stack walk.
Each call becomes a span (layer, op, caller, start, end, parent); a span's
self time is its duration minus that of its child spans. A hook whose
target a later change renamed or removed is skipped, and the metrics that
need it are reported as unmeasured.

Nothing here is imported by the end-to-end run (``--trace 0``).
"""

from __future__ import annotations

import functools
import gc
import importlib
import statistics
import time
from pathlib import Path

import numpy as np

import pipeline
from workloads import setup_again

# (module, attribute, layer, op, observer); the observer stores facts of a
# call in the span's ``extra`` after the span has closed.
HOOKS = (
    ("cdrnet.cli", "ingest", "ingest", "ingest",
     lambda x, a, k, r: x.update(accepted=r[2].records_accepted, rejected=r[2].records_rejected)),
    ("cdrnet.cli", "load_labels", "ingest", "load_labels", None),
    ("cdrnet.cli", "featurize_users", "featurize", "featurize_users", None),
    ("cdrnet.cli", "fit_normalizer", "featurize", "fit_normalizer", None),
    ("cdrnet.training", "fit_normalizer", "featurize", "fit_normalizer", None),
    ("cdrnet.training", "apply_normalizer", "featurize", "apply_normalizer", None),
    ("cdrnet.classify", "apply_normalizer", "featurize", "apply_normalizer", None),
    ("cdrnet.cli", "save_tensor_dataset", "container", "save_tensors", None),
    ("cdrnet.cli", "load_tensor_dataset", "container", "load_tensors", None),
    ("cdrnet.cli", "save_model", "modelfile", "save", None),
    ("cdrnet.cli", "load_model", "modelfile", "load", None),
    ("cdrnet.cli", "train", "training", "train", lambda x, a, k, r: x.update(config=r[0].config)),
    ("cdrnet.training", "sgd_step", "training", "sgd_step", None),
    ("cdrnet.training", "forward_batch", "net", "forward",
     lambda x, a, k, r: x.update(n=len(a[1]))),
    ("cdrnet.training", "backward", "net", "backward", lambda x, a, k, r: x.update(n=len(a[2]))),
    ("cdrnet.classify", "forward_batch", "net", "forward",
     lambda x, a, k, r: x.update(n=len(a[1]))),
    ("cdrnet.net", "conv2d_valid", "net", "conv", None),
    ("cdrnet.cli", "train_svm_head", "classify", "train_svm_head", None),
    ("cdrnet.classify", "train_linear_svm", "classify", "train_linear_svm", None),
    ("cdrnet.cli", "predict_dataset", "classify", "predict_dataset",
     lambda x, a, k, r: x.update(head=k.get("head", "avg"), users=len(r))),
    ("cdrnet.cli", "write_predictions", "classify", "write_predictions", None),
    ("cdrnet.cli", "read_predictions", "classify", "read_predictions", None),
    ("cdrnet.cli", "evaluate", "classify", "evaluate", None),
)

# name -> unit; the order is the order of the report
PER_LAYER = {
    "synth.generate_s": "s",
    "synth.records_per_s": "1/s",
    "ingest.ingest_s": "s",
    "ingest.lines": "count",
    "ingest.rejected": "count",
    "ingest.accept_ratio": "ratio",
    "ingest.self_s": "s",
    "featurize.featurize_users_s": "s",
    "featurize.fit_normalizer_s": "s",
    "featurize.user_weeks": "count",
    "featurize.nonzero_cell_ratio": "ratio",
    "featurize.self_s": "s",
    "container.save_tensors_s": "s",
    "container.load_tensors_s": "s",
    "container.load_calls": "count",
    "container.tensor_file_bytes": "bytes",
    "container.self_s": "s",
    "net.forward_ms.train.p50": "ms",
    "net.forward_ms.train.p99": "ms",
    "net.forward_ms.classify.p50": "ms",
    "net.forward_ms.classify.p99": "ms",
    "net.backward_ms.p50": "ms",
    "net.backward_ms.p99": "ms",
    **{f"net.conv{i}.fwd_ms.p50": "ms" for i in range(1, 7)},
    "net.forward_calls": "count",
    "net.weeks_per_forward_call": "count",
    "net.computed_fwd_flops_per_week": "flop",
    "net.computed_bwd_flops_per_week": "flop",
    "net.gflops": "GFLOP/s",
    "net.gemm_ceiling_gflops": "GFLOP/s",
    "net.gemm_ceiling_gflops_f32": "GFLOP/s",
    "net.ceiling_fraction": "ratio",
    "net.self_s": "s",
    "training.train_s": "s",
    "training.self_s": "s",
    "training.sgd_step_ms.p50": "ms",
    "training.steps": "count",
    "classify.predict_dataset_s.avg": "s",
    "classify.predict_dataset_s.svm": "s",
    "classify.self_s": "s",
    "classify.train_svm_head_s": "s",
    "classify.train_linear_svm_s": "s",
    "classify.forward_calls_per_user": "count",
    "classify.evaluate_s": "s",
    "modelfile.save_s": "s",
    "modelfile.load_s": "s",
    "modelfile.bytes": "bytes",
    "modelfile.self_s": "s",
    "cli.process_overhead_s": "s",
    "cli.self_s": "s",
    "inprocess.pipeline_s": "s",
    "trace.overhead_ratio": "ratio",
    "share.data_path": "ratio",
    "share.net_training": "ratio",
    "share.classify": "ratio",
}

# The three groups of layers whose shares of in-process stage time the
# workloads are designed around. Net time counts with the layer that
# called the network.
GROUPS = {
    "data_path": lambda s: s.layer in ("ingest", "featurize", "container"),
    "net_training": lambda s: s.layer == "training" or (s.layer, s.caller) == ("net", "training"),
    "classify": lambda s: s.layer == "classify" or (s.layer, s.caller) == ("net", "classify"),
}


class Span:
    __slots__ = (
        "layer", "op", "caller", "parent", "start", "end", "child", "seq", "nchild", "extra"
    )

    def __init__(self, layer, op, caller, parent):
        self.layer, self.op, self.caller, self.parent = layer, op, caller, parent
        self.child = 0.0     # summed duration of direct children
        self.nchild = 0
        self.seq = 0         # 1-based position among the parent's children
        self.extra: dict = {}
        self.start = self.end = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.dur - self.child


class Tracer:
    """Spans kept in memory; hooks installed on enter and removed on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[tuple[str, str, str]] = set()  # (layer, op, caller) not hooked
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, layer: str, op: str, caller: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.nchild += 1
            if layer == "net" and parent.layer == "net":
                caller = parent.caller
        span = Span(layer, op, caller, parent)
        if parent is not None:
            span.seq = parent.nchild
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child += span.dur

    def _wrap(self, fn, layer, op, caller, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = tracer.open(layer, op, caller)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if observe is not None:
                try:
                    observe(span.extra, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    span.extra["unobserved"] = True
            return result

        return wrapped

    def __enter__(self):
        for module_name, attr, layer, op, observe in HOOKS:
            caller = module_name.rsplit(".", 1)[-1]
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.add((layer, op, caller))
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, op, caller, observe))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()
        return False


GEMM_N, GEMM_GROUPS, GEMM_CALLS, GEMM_WARMUP_S = 512, 10, 5, 1.0


def gemm_ceilings() -> dict:
    """Best observed n x n matmul rate in this process, GFLOP/s, for float64 and float32.

    The first second of BLAS calls in a process can run several times
    slower (thread and clock start-up), so the timed groups follow
    GEMM_WARMUP_S of untimed calls, and the two dtypes alternate.
    """
    n = GEMM_N
    rng = np.random.default_rng(0)
    mats = {name: (rng.standard_normal((n, n)).astype(dt), rng.standard_normal((n, n)).astype(dt))
            for name, dt in (("f64", np.float64), ("f32", np.float32))}
    t_end = time.perf_counter() + GEMM_WARMUP_S
    while time.perf_counter() < t_end:
        for a, b in mats.values():
            a @ b
    best = {name: float("inf") for name in mats}
    for _ in range(GEMM_GROUPS):
        for name, (a, b) in mats.items():
            t0 = time.perf_counter()
            for _ in range(GEMM_CALLS):
                a @ b
            best[name] = min(best[name], (time.perf_counter() - t0) / GEMM_CALLS)
    return {name: 2.0 * n**3 / t / 1e9 for name, t in best.items()}


def flops_per_week(config) -> tuple[int, int]:
    """Computed multiply-add FLOPs of one user-week, forward and backward.

    Counts the convolution and dense GEMMs only. Backward computes a weight
    gradient for every layer and an input gradient for all but the first,
    each as many FLOPs as that layer's forward.
    """
    from cdrnet.net import param_shapes

    shapes = param_shapes(config)
    chain = config.spatial_chain()
    layers = []
    for i in range(1, len(config.kernels) + 1):
        f, c, kh, kw = shapes[f"conv{i}.w"]
        hp, wp = chain[i]
        layers.append(2 * f * c * kh * kw * hp * wp)
    for name in ("dense7.w", "dense8.w", "head.w"):
        out_dim, in_dim = shapes[name]
        layers.append(2 * out_dim * in_dim)
    fwd = sum(layers)
    return fwd, 2 * fwd - layers[0]


def _pct(values, q):
    return float(np.percentile(values, q)) if values else None


def _sum(values):
    return float(sum(values)) if values else None


def layer_metrics(tracer: Tracer, ctx, gemm: dict) -> dict:
    """Per-layer values of one traced pass; None marks a metric whose hook is missing."""
    spans = tracer.spans

    def hooked(layer, op, caller=None):
        return not any(
            m[0] == layer and m[1] == op and (caller is None or m[2] == caller)
            for m in tracer.missing
        )

    def pick(layer, op, caller=None, **extra):
        return [
            s for s in spans
            if s.layer == layer and s.op == op and (caller is None or s.caller == caller)
            and all(s.extra.get(k) == v for k, v in extra.items())
        ]

    def durs(layer, op, caller=None, scale=1.0, **extra):
        if not hooked(layer, op, caller):
            return None
        return [s.dur * scale for s in pick(layer, op, caller, **extra)]

    def guard(values, fn):
        return None if values is None else fn(values)

    def self_s(pred):
        return float(sum(s.self_time for s in spans if pred(s)))

    roots = [s for s in spans if s.parent is None]
    total = sum(s.dur for s in roots)
    m: dict = {}

    ingest = pick("ingest", "ingest")
    if ingest and "accepted" in ingest[0].extra:
        acc, rej = ingest[0].extra["accepted"], ingest[0].extra["rejected"]
        m["ingest.lines"] = acc + rej
        # a count fixed by the input; unmeasured when no malformed lines were injected
        m["ingest.rejected"] = rej if ctx.inputs.expected_rejections else None
        m["ingest.accept_ratio"] = acc / (acc + rej)
    m["ingest.ingest_s"] = guard(durs("ingest", "ingest"), _sum)

    m["featurize.featurize_users_s"] = guard(durs("featurize", "featurize_users"), _sum)
    m["featurize.fit_normalizer_s"] = guard(durs("featurize", "fit_normalizer", "cli"), _sum)
    m["featurize.user_weeks"] = ctx.facts.get("user_weeks")
    m["featurize.nonzero_cell_ratio"] = ctx.facts.get("nonzero_cell_ratio")

    m["container.save_tensors_s"] = guard(durs("container", "save_tensors"), _sum)
    loads = durs("container", "load_tensors")
    m["container.load_tensors_s"] = guard(loads, pipeline.median)
    m["container.load_calls"] = guard(loads, len)
    m["container.tensor_file_bytes"] = (ctx.workdir / "weeks.bin").stat().st_size

    def ms_pct(layer, op, caller, q):
        return guard(durs(layer, op, caller, 1e3), lambda v: _pct(v, q))

    # A training step is a forward followed by its backward; the forward
    # over the validation split after each epoch has no backward and is
    # left out of the training-forward metrics.
    backward_at = {(id(s.parent), s.seq) for s in pick("net", "backward", "training")}
    step_forwards = [s for s in pick("net", "forward", "training")
                     if (id(s.parent), s.seq + 1) in backward_at]
    train_hooked = hooked("net", "forward", "training") and hooked("net", "backward")
    for q in (50, 99):
        m[f"net.forward_ms.train.p{q}"] = (
            _pct([s.dur * 1e3 for s in step_forwards], q) if train_hooked else None)
        m[f"net.forward_ms.classify.p{q}"] = ms_pct("net", "forward", "classify", q)
        m[f"net.backward_ms.p{q}"] = ms_pct("net", "backward", None, q)
    if hooked("net", "conv") and train_hooked:
        steps = {id(s) for s in step_forwards}
        for i in range(1, 7):
            convs = [s.dur * 1e3 for s in pick("net", "conv", "training")
                     if s.seq == i and id(s.parent) in steps]
            m[f"net.conv{i}.fwd_ms.p50"] = _pct(convs, 50)
    forwards = pick("net", "forward")
    backwards = pick("net", "backward")
    if hooked("net", "forward") and forwards:
        m["net.forward_calls"] = len(forwards)
        if all("n" in s.extra for s in forwards):
            m["net.weeks_per_forward_call"] = sum(s.extra["n"] for s in forwards) / len(forwards)
    trains = pick("training", "train")
    config = trains[0].extra.get("config") if trains else None
    try:
        fwd, bwd = flops_per_week(config)
    except (AttributeError, ImportError, KeyError, TypeError, ValueError):
        fwd = bwd = None
    m["net.computed_fwd_flops_per_week"], m["net.computed_bwd_flops_per_week"] = fwd, bwd
    m["net.gemm_ceiling_gflops"] = gemm["f64"]
    m["net.gemm_ceiling_gflops_f32"] = gemm["f32"]
    passes = forwards + backwards
    if fwd and hooked("net", "forward") and hooked("net", "backward") and passes and all(
        "n" in s.extra for s in passes
    ):
        flops = (fwd * sum(s.extra["n"] for s in forwards)
                 + bwd * sum(s.extra["n"] for s in backwards))
        m["net.gflops"] = flops / sum(s.dur for s in passes) / 1e9
        m["net.ceiling_fraction"] = m["net.gflops"] / gemm["f64"]

    m["training.train_s"] = guard(durs("training", "train"), _sum)
    m["training.sgd_step_ms.p50"] = ms_pct("training", "sgd_step", None, 50)
    m["training.steps"] = guard(durs("training", "sgd_step"), len)

    for head in ("avg", "svm"):
        m[f"classify.predict_dataset_s.{head}"] = guard(
            durs("classify", "predict_dataset", head=head), _sum)
    m["classify.train_svm_head_s"] = guard(durs("classify", "train_svm_head"), _sum)
    m["classify.train_linear_svm_s"] = guard(durs("classify", "train_linear_svm"), _sum)
    m["classify.evaluate_s"] = guard(durs("classify", "evaluate"), _sum)
    predicts = pick("classify", "predict_dataset")
    users = sum(s.extra.get("users", 0) for s in predicts)
    if hooked("net", "forward", "classify") and users:
        calls = 0
        for s in pick("net", "forward", "classify"):
            up = s.parent
            while up is not None and up.op != "predict_dataset":
                up = up.parent
            calls += up is not None
        m["classify.forward_calls_per_user"] = calls / users

    m["modelfile.save_s"] = guard(durs("modelfile", "save"), pipeline.median)
    m["modelfile.load_s"] = guard(durs("modelfile", "load"), pipeline.median)
    m["modelfile.bytes"] = (ctx.workdir / "model.bin").stat().st_size

    for layer in ("ingest", "featurize", "container", "net", "training", "classify",
                  "modelfile", "cli"):
        m[f"{layer}.self_s"] = self_s(lambda s, layer=layer: s.layer == layer)
    m["inprocess.pipeline_s"] = total
    for group, pred in GROUPS.items():
        m[f"share.{group}"] = self_s(pred) / total if total else None
    return m


def traced_runner(tracer: Tracer):
    def run(argv):
        span = tracer.open("cli", argv[0], "bench")
        try:
            return pipeline.inprocess_stage(argv)
        finally:
            tracer.close(span)
    return run


def run(ctx, seconds: float, hard_end: float):
    """Per-layer metrics for one workload.

    Order: GEMM probe; one pass of the stages as child processes (for the
    process overhead); then pairs of untraced and traced in-process passes
    until ``seconds`` are used up. Values are medians over traced passes.
    """
    window_end = time.monotonic() + seconds
    gemm = gemm_ceilings()
    env = pipeline.child_env(Path(__file__).resolve().parent.parent / "src")
    sub = pipeline.run_rep(
        ctx, lambda a: pipeline.spawn_stage(a, env, ctx.workdir, hard_end), hard_end
    )
    plain, traced, per_pass = [], [], []
    while sub.ok:
        t0 = time.monotonic()
        setup_again(ctx.workload, ctx.seed, ctx.inputs)
        gc.collect()
        plain.append(pipeline.run_rep(ctx, pipeline.inprocess_stage, hard_end))
        gc.collect()
        with Tracer() as tracer:
            traced.append(pipeline.run_rep(ctx, traced_runner(tracer), hard_end))
        if not (plain[-1].ok and traced[-1].ok):
            break
        per_pass.append(layer_metrics(tracer, ctx, gemm))
        now = time.monotonic()
        if now + (now - t0) > min(window_end, hard_end):
            break

    values = {name: pipeline.median([p.get(name) for p in per_pass]) for name in PER_LAYER}
    values["synth.generate_s"] = statistics.median(ctx.inputs.generate_s)
    values["synth.records_per_s"] = (len(ctx.inputs.clean_lines) - 1) / values["synth.generate_s"]
    if plain and traced and sub.ok:
        stage_plain = {n: pipeline.median([r.stages[n].wall_s for r in plain])
                       for n in sub.stages}
        values["cli.process_overhead_s"] = pipeline.median(
            [sub.stages[n].wall_s - stage_plain[n] for n in sub.stages]
        )
        def total(reps):
            return pipeline.median([sum(s.wall_s for s in r.stages.values()) for r in reps])

        values["trace.overhead_ratio"] = total(traced) / total(plain)

    share = values.get(f"share.{ctx.workload.dominant}")
    shares = {g: values.get(f"share.{g}") for g in GROUPS}
    if share is None:
        print(f"design share: {ctx.workload.dominant} unmeasured")
    else:
        holds = share == max(v for v in shares.values() if v is not None)
        verdict = "holds" if holds else "DOES NOT HOLD"
        print(f"design share {verdict}: {ctx.workload.dominant} = {share:.3f} "
              f"({', '.join(f'{g} {v:.3f}' for g, v in shares.items() if v is not None)})")
    counts = {name: len(per_pass) for name in PER_LAYER}
    counts["synth.generate_s"] = counts["synth.records_per_s"] = len(ctx.inputs.generate_s)
    return values, PER_LAYER, counts, [sub, *plain, *traced]
