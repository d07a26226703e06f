"""Spans around calls into each ddehist module, recorded from outside.

`Tracer` replaces the public functions it measures in every ddehist module
namespace that binds them, and the measured `PiecewiseFunction` methods on
the class, by wrappers that record one span per call: name, start, end,
parent span and experiment id (the name and seed of the enclosing
`cli.run_experiment`).  Leaving the `with` block puts every original back.
The program itself is not changed.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time

from ddehist import (
    certify,
    cli,
    composition,
    corpus,
    derivops,
    funcrep,
    histspace,
    semiflow,
    solver,
)

_MARK = "_bench_span"

# Functions whose spans count toward `<span>.total_s`.  Nested calls of the
# same span (one probe calling another) are counted once, at the outermost.
TOTALS = (
    "solver.solve",
    "derivops.remainder_schedule",
    "derivops.estimate_operator_norm",
    "composition.probes",
    "semiflow.evolve",
    "semiflow.verify_semiflow",
)
SELF = (
    "cli.parse_config",
    "cli.write_csv",
    "solver.solve",
    "funcrep.construct",
    "funcrep.eval",
    "funcrep.algebra",
    "funcrep.lp_norm.even",
    "funcrep.lp_norm.split",
    "funcrep.lp_norm.lazy",
    "funcrep.sup_norm",
    "histspace.seminorm",
    "histspace.segment",
    "derivops.tangent_deviation",
    "certify.certify_decay",
    "corpus",
)
CALLS = (
    "solver.solve",
    "funcrep.construct",
    "funcrep.eval",
    "funcrep.algebra",
    "funcrep.lp_norm.even",
    "funcrep.lp_norm.split",
    "funcrep.lp_norm.lazy",
    "funcrep.sup_norm",
    "histspace.seminorm",
    "histspace.segment",
    "derivops.tangent_deviation",
    "semiflow.evolve",
    "certify.certify_decay",
)


def _lp_path(f, p, *_args, **_kwargs):
    if isinstance(f, funcrep.LazyComposition):
        return "funcrep.lp_norm.lazy"
    return "funcrep.lp_norm.even" if float(p) % 2.0 == 0.0 else "funcrep.lp_norm.split"


def _size(value):
    return getattr(value, "size", 1)


# (module, function, span name or a function of the call's arguments, note)
# A note maps (args, kwargs, result) to the counts recorded on the span.
FUNCTIONS = [
    (cli, "run_experiment", "cli.run_experiment", None),
    (cli, "parse_config", "cli.parse_config", None),
    (cli, "write_csv", "cli.write_csv", lambda a, k, r: {"rows": len(a[2])}),
    (
        solver,
        "solve",
        "solver.solve",
        lambda a, k, r: {
            "steps": r.step_boundaries.size - 1,
            "pieces_out": r.x.n_pieces,
            "delays": r.horizon / r.problem.r,
        },
    ),
    (funcrep, "stack", "funcrep.algebra", None),
    (funcrep, "lp_norm", _lp_path, None),
    (funcrep, "sup_norm", "funcrep.sup_norm", None),
    (histspace, "seminorm", "histspace.seminorm", None),
    (histspace, "history_segment", "histspace.segment", None),
    (histspace, "static_prolongation", "histspace.segment", None),
    (derivops, "tangent_deviation", "derivops.tangent_deviation", None),
    (derivops, "remainder_schedule", "derivops.remainder_schedule", None),
    (derivops, "estimate_operator_norm", "derivops.estimate_operator_norm", None),
    (composition, "compose", "composition.probes", None),
    (composition, "continuity_probe", "composition.probes", None),
    (composition, "apply_derivative", "composition.probes", None),
    (composition, "smoothness_probe", "composition.probes", None),
    (semiflow, "evolve", "semiflow.evolve", None),
    (semiflow, "verify_semiflow", "semiflow.verify_semiflow", None),
    (certify, "certify_decay", "certify.certify_decay", None),
] + [(corpus, name, "corpus", None) for name in corpus.__all__]

METHODS = [
    ("__post_init__", "funcrep.construct", lambda a, k, r: {"pieces": len(a[0].coeffs)}),
    ("__call__", "funcrep.eval", lambda a, k, r: {"points": _size(r) // a[0].n_components}),
    ("__add__", "funcrep.algebra", None),
    ("__sub__", "funcrep.algebra", None),
    ("scale", "funcrep.algebra", None),
    ("restrict", "funcrep.algebra", None),
    ("refine", "funcrep.algebra", None),
    ("shift", "funcrep.algebra", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "experiment", "child_s", "note")

    def __init__(self, name, start, parent, experiment):
        self.name, self.start, self.end = name, start, start
        self.parent, self.experiment = parent, experiment
        self.child_s, self.note = 0.0, None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


class Tracer:
    """Records spans while active; use as a context manager."""

    def __init__(self):
        self.spans = []
        self._open = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        return stack

    def _wrap(self, fn, name, note):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            label = name(*args, **kwargs) if callable(name) else name
            if label == "cli.run_experiment":
                experiment = f"{args[0].name}@{args[0].seed}"
            else:
                experiment = parent.experiment if parent else None
            span = Span(label, time.perf_counter(), parent, experiment)
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def __enter__(self):
        try:
            for owner, attr, name, note in FUNCTIONS:
                original = getattr(owner, attr)
                wrapper = self._wrap(original, name, note)
                for module in _modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
            cls = funcrep.PiecewiseFunction
            for attr, name, note in METHODS:
                self._patch(cls, attr, self._wrap(cls.__dict__[attr], name, note))
        except BaseException:
            self.__exit__()
            raise
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False


def _modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "ddehist" or n.startswith("ddehist.")]


def wrapped_attributes():
    """(owner, attribute) of every tracing wrapper still installed."""
    owners = _modules() + [funcrep.PiecewiseFunction]
    return [
        (getattr(o, "__name__", o), k)
        for o in owners
        for k, v in list(vars(o).items())
        if hasattr(v, _MARK)
    ]


# -- per-layer metrics ------------------------------------------------------------


def _outermost(span):
    parent = span.parent
    while parent is not None:
        if parent.name == span.name:
            return False
        parent = parent.parent
    return True


def layer_metrics(spans, warnings_seen):
    """Per-layer metrics of one round's spans."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def group(name):
        return by_name.get(name, [])

    def summed(name, key):
        return float(sum(s.note[key] for s in group(name)))

    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = (float(len(group(name))), "count")
    for name in SELF:
        out[f"{name}.self_s"] = (float(sum(s.self_s for s in group(name))), "s")
    for name in TOTALS:
        out[f"{name}.total_s"] = (float(sum(s.duration for s in group(name) if _outermost(s))), "s")
    out["cli.write_csv.rows"] = (summed("cli.write_csv", "rows"), "count")
    out["solver.steps"] = (summed("solver.solve", "steps"), "count")
    out["solver.pieces_out"] = (summed("solver.solve", "pieces_out"), "count")
    out["solver.step_cost_growth"] = (step_cost_growth(group("solver.solve")), "ratio")
    out["funcrep.construct.pieces"] = (summed("funcrep.construct", "pieces"), "count")
    out["funcrep.eval.points"] = (summed("funcrep.eval", "points"), "count")
    out["funcrep.lp_norm.warnings"] = (float(warnings_seen), "count")
    return out


def step_cost_growth(solves):
    """Seconds per delay step of the longest solves over the shortest ones."""
    if not solves:
        return 0.0
    longest = max(s.note["delays"] for s in solves)
    shortest = min(s.note["delays"] for s in solves)

    def per_step(delays):
        chosen = [s for s in solves if s.note["delays"] == delays]
        return sum(s.duration for s in chosen) / (delays * len(chosen))

    return per_step(longest) / per_step(shortest)


def median_metrics(rounds):
    """Median over rounds of each per-layer metric."""
    names = rounds[0].keys()
    return {n: (statistics.median(r[n][0] for r in rounds), rounds[0][n][1]) for n in names}


def write_spans(spans, path):
    """One line per span: index, parent index, name, experiment, start, end."""
    index = {id(s): i for i, s in enumerate(spans)}
    t0 = spans[0].start if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,parent,name,experiment,start_s,end_s\n")
        for i, s in enumerate(spans):
            parent = index.get(id(s.parent), "") if s.parent is not None else ""
            fh.write(f"{i},{parent},{s.name},{s.experiment or ''},{s.start - t0:.9f},{s.end - t0:.9f}\n")

