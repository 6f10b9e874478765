"""In-memory span tracer that wraps `mmce` functions where callers look them up.

Each wrapped call records a span (id, parent id, name, start, end) plus a few
attributes taken from its arguments or result. Spans stay in memory until the
run ends. Per-layer busy time, self time, call counts and the solver's work
counters are derived from the spans and their parentage alone.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fit_attrs(span, args, result):
    span.attrs["iterations"] = result.iterations
    span.attrs["line_search_failures"] = result.line_search_failures


def _m_step_attrs(span, args, result):
    if isinstance(result, tuple) and len(result) == 3 and isinstance(result[2], bool):
        span.attrs["failed"] = result[2]


def _model_attrs(span, args, result):
    labels = args[0]
    span.attrs["bytes"] = labels.num_labels * labels.num_classes ** 2 * 8


def _loaded_attrs(span, args, result):
    span.attrs["labels"] = result.num_labels


# (module, attribute the callers look up, span name, attribute recorder).
# A name listed here that a later version no longer has or calls yields
# zero calls, not an error.
PROBES = (
    ("mmce.cli", "main", "cli", None),
    ("mmce.cli", "evaluate", "evaluate", None),
    ("mmce.data", "load_labels", "load", _loaded_attrs),
    ("mmce.data", "write_posterior", "write", None),
    ("mmce.data", "read_posterior", "read", None),
    ("mmce.data", "load_gold", "gold", None),
    ("mmce.baselines", "majority_vote", "mv", None),
    ("mmce.selection", "cross_validate", "cv", None),
    ("mmce.selection", "heldout_loglik", "heldout", None),
    ("mmce.solver", "fit", "fit", _fit_attrs),
    ("mmce.solver", "m_step", "m_step", _m_step_attrs),
    ("mmce.solver", "e_step", "e_step", None),
    ("mmce.solver", "penalized_likelihood", "objective", None),
    ("mmce.solver", "m_step_gradients", "gradient", None),
    ("mmce.solver", "dual_objective", "trace", None),
    ("mmce.solver", "regularizer_value_and_gradient", "regularizer", None),
    ("mmce.solver", "_log_model", "model", _model_attrs),
    ("mmce.solver", "expand_ordinal", "expand", None),
    ("mmce.solver", "project_ordinal", "project", None),
)


class Tracer:
    """Records spans for the probed functions while in a `with` block."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module_name, attr, name, recorder in PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(original, name, recorder))
            self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name, recorder):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans) + 1, stack[-1] if stack else 0, name, 0.0)
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if recorder is not None:
                recorder(span, args, result)
            return result

        return traced


def _line_search(m_step: Span, kids: list[Span]) -> tuple[int, int]:
    """(line-search evaluations, accepted steps) of one m_step span.

    The first objective evaluation under an m_step is its starting value;
    each later one tries one step size after a gradient. A gradient followed
    by at least one evaluation accepted a step, unless the m_step reports that
    its last line search failed.
    """
    evals = max(sum(k.name == "objective" for k in kids) - 1, 0)
    accepted = sum(a.name == "gradient" and b.name == "objective"
                   for a, b in zip(kids, kids[1:]))
    return evals, max(accepted - int(m_step.attrs.get("failed", False)), 0)


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], list[str]]:
    """Per-layer times and counters of one traced call, and the problems found.

    A problem is a fit whose outer iterations or line-search failures, counted
    from its m_step spans, differ from the FitResult that `fit` returned.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    kids: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        kids[s.parent].append(s)

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def self_time(name):
        return sum(s.duration - sum(k.duration for k in kids[s.id]) for s in by_name[name])

    evals = accepted = failures = 0
    problems = []
    for fit in by_name["fit"]:
        steps = [k for k in kids[fit.id] if k.name == "m_step"]
        if not steps:
            continue  # m_step is gone or renamed: its counters read 0
        fit_failures = 0
        for step in steps:
            e, a = _line_search(step, kids[step.id])
            evals, accepted = evals + e, accepted + a
            fit_failures += int(step.attrs.get("failed", False))
        if (len(steps), fit_failures) != (fit.attrs["iterations"],
                                          fit.attrs["line_search_failures"]):
            problems.append(
                f"fit span {fit.id}: {len(steps)} m_steps and {fit_failures} failures "
                f"traced, FitResult says {fit.attrs['iterations']} and "
                f"{fit.attrs['line_search_failures']}")
        failures += fit_failures

    cv_ids = {s.id for s in by_name["cv"]}
    cv_fits = [s for s in by_name["fit"] if s.parent in cv_ids]
    return {
        "cli.self_s": self_time("cli"),
        "data.load_s": busy("load"),
        "data.write_s": busy("write"),
        "data.read_s": busy("read"),
        "data.gold_s": busy("gold"),
        "data.labels_loaded": sum(s.attrs["labels"] for s in by_name["load"]),
        "solver.fit_s": busy("fit"),
        "solver.fit_calls": calls("fit"),
        "solver.outer_iters": sum(s.attrs["iterations"] for s in by_name["fit"]),
        "solver.m_step_self_s": self_time("m_step"),
        "solver.objective_s": busy("objective"),
        "solver.objective_calls": calls("objective"),
        "solver.gradient_s": busy("gradient"),
        "solver.gradient_calls": calls("gradient"),
        "solver.e_step_s": busy("e_step"),
        "solver.e_step_calls": calls("e_step"),
        "solver.trace_s": busy("trace"),
        "solver.trace_calls": calls("trace"),
        "solver.regularizer_s": busy("regularizer"),
        "solver.linesearch_evals": evals,
        "solver.accepted_steps": accepted,
        "solver.halvings": evals - accepted,
        "solver.linesearch_accept_ratio": accepted / evals if evals else 0.0,
        "solver.linesearch_failures": failures,
        "solver.model_evals": calls("model"),
        "solver.model_bytes_computed": sum(s.attrs["bytes"] for s in by_name["model"]),
        "confusion.expand_s": busy("expand"),
        "confusion.expand_calls": calls("expand"),
        "confusion.project_s": busy("project"),
        "confusion.project_calls": calls("project"),
        "selection.cv_self_s": self_time("cv"),
        "selection.fits": len(cv_fits),
        "selection.fit_iters": sum(s.attrs["iterations"] for s in cv_fits),
        "selection.heldout_s": busy("heldout"),
        "selection.heldout_calls": calls("heldout"),
        "baselines.mv_s": busy("mv"),
        "evaluation.evaluate_s": busy("evaluate"),
    }, problems
