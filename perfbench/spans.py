"""Span tracing of causalcdr from outside the package.

`Tracer.install()` replaces the public functions of every causalcdr module,
and a short list of methods, with wrappers that open a span around each
call; `Tracer.uninstall()` puts the original objects back. Nothing inside
the package changes.

Spans are aggregated as they close, so memory stays flat however many
steps a run makes. Each span has a name such as `data.generate_split` or
`diffcore.Tape.backward`. A span is *reported* when a per-layer metric
names it (see METRIC_SPANS); the diffcore primitives are reported under
the op type they record (`diffcore.<op>.fwd_s`), and every backward
closure passed to `Tape.record` is a reported span `diffcore.<op>.bwd_s`.

Self time of a reported span is its duration minus the time covered by its
nearest reported descendants. A span nobody reports (for example
`data.split_iid` under `data.generate_split`) therefore adds its time to
the nearest reported ancestor instead of vanishing. The raw self time of
every span, reported or not, is kept as well for the human-readable dump.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

from causalcdr import (causal, cli, data, diffcore, evaluation, matrixio, model,
                       training)

LAYERS = (cli, data, training, model, causal, diffcore, evaluation, matrixio)

# Methods wrapped in addition to the public module-level functions: the
# per-step costs of Adam, parameter registration, best-snapshot copies and
# the backward sweep live in methods, not in module-level functions.
METHODS = (
    (diffcore.Tape, "backward"),
    (model.ModelParams, "register"),
    (model.ModelParams, "copy"),
    (model.ModelParams, "save"),
    (model.ModelParams, "load"),
    (training.Adam, "step"),
)

# per-layer time metric -> span whose self time it reports
METRIC_SPANS = {
    "cli.prepare_s": "cli.prepare",
    "cli.train_seed_s": "cli.train_seed",
    "cli.evaluate_seed_s": "cli.evaluate_seed",
    "data.synth_generate_s": "data.synth_generate",
    "data.ingest_csv_s": "data.ingest_csv",
    "data.generate_split_s": "data.generate_split",
    "data.build_eval_candidates_s": "data.build_eval_candidates",
    "data.save_split_s": "data.save_split",
    "data.sample_train_negatives_s": "data.sample_train_negatives",
    "training.train_s": "training.train",
    "training.adam_step_s": "training.Adam.step",
    "training.discriminator_probe_s": "training.discriminator_probe",
    "training.params_copy_s": "model.ModelParams.copy",
    "model.total_loss_s": "model.total_loss",
    "model.register_s": "model.ModelParams.register",
    "model.score_candidates_s": "model.score_candidates",
    "causal.causal_loss_s": "causal.causal_loss",
    "diffcore.backward_s": "diffcore.Tape.backward",
    "evaluation.evaluate_s": "evaluation.evaluate",
    "matrixio.write_container_s": "matrixio.write_container",
    "matrixio.read_container_s": "matrixio.read_container",
}
_REPORTED = frozenset(METRIC_SPANS.values())


def _file_size(args, kwargs, result) -> int:
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])


# span -> (count metric, amount added when the call returns)
COUNTERS = {
    "data.build_eval_candidates": ("data.build_eval_candidates_lists",
                                   lambda a, kw, r: len(r)),
    "data.sample_train_negatives": ("data.sample_train_negatives_examples",
                                    lambda a, kw, r: len(r)),
    "training.train": ("training.epochs", lambda a, kw, r: len(r.history)),
    "training.Adam.step": ("training.steps", lambda a, kw, r: 1),
    "model.score_candidates": ("model.score_candidates_calls", lambda a, kw, r: 1),
    "evaluation.evaluate_candidates": ("evaluation.lists",
                                       lambda a, kw, r: len(a[0])),
    "matrixio.write_container": ("matrixio.bytes", _file_size),
    "matrixio.read_container": ("matrixio.bytes", _file_size),
}

_MARK = "__perfbench_span__"


class _Frame:
    __slots__ = ("name", "start", "covered", "children", "op")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.covered = 0.0   # time of nearest reported descendants
        self.children = 0.0  # time of direct children
        self.op = None       # op type recorded directly inside this span


class Tracer:
    """Collects self times and counts for one operation at a time.

    `clock` is injectable so tests can check the self-time arithmetic.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[_Frame] = []
        self._patches: list[tuple] = []
        self.reset()

    # -- aggregation ------------------------------------------------------

    def reset(self) -> None:
        """Drop everything measured so far (start of a new operation)."""
        self.self_s = defaultdict(float)         # reported metric -> seconds
        self.raw_self_s = defaultdict(float)     # every span name -> seconds
        self.counts = defaultdict(int)
        self.op_nodes = defaultdict(int)
        self.op_fwd_s = defaultdict(float)
        self.op_bwd_s = defaultdict(float)

    def enter(self, name: str) -> None:
        self._stack.append(_Frame(name, self.clock()))

    def exit(self) -> None:
        frame = self._stack.pop()
        duration = self.clock() - frame.start
        own = duration - frame.covered
        self.raw_self_s[frame.name] += duration - frame.children
        if frame.name.endswith(".bwd"):
            op = frame.name[len("diffcore."):-len(".bwd")]
            self.op_bwd_s[op] += own
            reported = True
        elif frame.op is not None:
            self.op_fwd_s[frame.op] += own
            reported = True
        elif frame.name in _REPORTED:
            self.self_s[frame.name] += own
            reported = True
        else:
            reported = False
        if self._stack:
            parent = self._stack[-1]
            parent.children += duration
            parent.covered += duration if reported else frame.covered

    def note_record(self, op: str) -> None:
        self.op_nodes[op] += 1
        if self._stack and self._stack[-1].name.startswith("diffcore."):
            self._stack[-1].op = op

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def _wrap_record(self, record):
        tracer = self

        @functools.wraps(record)
        def wrapper(tape, op, value, backward):
            tracer.note_record(op)
            span = f"diffcore.{op}.bwd"

            def timed_backward(g):
                tracer.enter(span)
                try:
                    backward(g)
                finally:
                    tracer.exit()

            return record(tape, op, value, timed_backward)

        setattr(wrapper, _MARK, "diffcore.Tape.record")
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        assert_clean()
        for owner, attr, original in _targets():
            if owner is diffcore.Tape and attr == "record":
                wrapped = self._wrap_record(original)
            elif isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__,
                                                 _span_name(owner, attr)))
            else:
                wrapped = self._wrap(original, _span_name(owner, attr))
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _span_name(owner, attr: str) -> str:
    if inspect.ismodule(owner):
        return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
    layer = owner.__module__.rsplit(".", 1)[-1]
    return f"{layer}.{owner.__qualname__}.{attr}"


def _targets():
    """(owner, attribute, original object) for everything install() wraps:
    each public function defined in a layer module, the listed methods and
    Tape.record."""
    out = []
    for module in LAYERS:
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                out.append((module, attr, value))
    for cls, attr in METHODS + ((diffcore.Tape, "record"),):
        out.append((cls, attr, vars(cls)[attr]))
    return out


def wrapped_targets() -> list:
    """Names of the functions and methods that currently carry a wrapper."""
    found = []
    for owner, attr, value in _targets():
        inner = value.__func__ if isinstance(value, classmethod) else value
        if hasattr(inner, _MARK):
            found.append(_span_name(owner, attr))
    return found


def assert_clean() -> None:
    """Raise unless every wrappable function is the package's own object."""
    leftover = wrapped_targets()
    if leftover:
        raise RuntimeError(f"tracing wrappers still installed: {leftover}")
