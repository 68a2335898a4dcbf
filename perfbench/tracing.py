"""Spans around the calls between rpens layers, recorded from outside the package.

A Tracer replaces module attributes through which one layer calls the next
(``rpens.ensemble.make_rng``, ``rpens.projections.apply``, ...) with thin
wrappers that record a span: its name, its parent span, start and end time,
and optionally a measured quantity (points predicted, bytes computed from
array shapes, serialized size).  Nothing under ``src/`` is edited; ``remove``
puts the original attributes back.  The program runs single-threaded
(``threads=1``), so spans nest strictly and a stack gives each its parent.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import time

import numpy as np


def _points(args, kwargs, out):
    return int(np.shape(args[1])[0])


def _apply_bytes(args, kwargs, out):
    # Computed from shapes, not measured: read X (n x p) and A (d x p),
    # write Z (n x d), all float64.
    proj, X = args[0], np.asarray(args[1])
    n = 1 if X.ndim == 1 else X.shape[0]
    d, p = proj.entries.shape
    return 8 * (n * p + d * p + n * d)


def _candidates(args, kwargs, out):
    counts = out.block_error_counts
    return (int(counts.size), int(np.sum(counts == -1)))


def _text_bytes(args, kwargs, out):
    return len(out)


# (module, attribute, span name, measure).  Each attribute is the name the
# calling layer looks up at call time, so wrapping it there catches the call.
TARGETS = (
    ("rpens.cli", "main", "cli.main", None),
    ("rpens.ensemble", "fit", "ensemble.fit", _candidates),
    ("rpens.ensemble", "predict_many", "ensemble.predict_many", _points),
    ("rpens.ensemble", "votes_many", "ensemble.votes_many", _points),
    ("rpens.ensemble", "estimate_alpha", "ensemble.estimate_alpha", None),
    ("rpens.ensemble", "make_rng", "rng.make_rng", None),
    ("rpens.ensemble", "derive_int", "rng.derive_int", None),
    ("rpens.evaluation", "make_rng", "rng.make_rng", None),
    ("rpens.evaluation", "derive_int", "rng.derive_int", None),
    ("rpens.evaluation", "_eval_comparator", "evaluation.comparator", None),
    ("rpens.projections", "sample_haar", "projections.sample", None),
    ("rpens.projections", "sample_axis_aligned", "projections.sample", None),
    ("rpens.projections", "apply", "projections.apply", _apply_bytes),
    ("rpens.error_estimation", "_estimate_full", "error_estimation.estimate", None),
    ("rpens.base_classifiers", "fit_base", "base_classifiers.fit", None),
    ("rpens.base_classifiers", "qda_loo_labels", "base_classifiers.loo", None),
    ("rpens.base_classifiers", "knn_loo_labels", "base_classifiers.loo", None),
    ("rpens.base_classifiers", "predict_lda_many", "base_classifiers.predict", _points),
    ("rpens.base_classifiers", "predict_qda_many", "base_classifiers.predict", _points),
    ("rpens.base_classifiers", "predict_knn_many", "base_classifiers.predict", _points),
    ("rpens.datagen", "sample", "datagen.sample", None),
    ("rpens.datagen", "load_labelled_csv", "datagen.load_csv", None),
    ("rpens.serialize", "dumps", "serialize.dumps", _text_bytes),
    ("rpens.serialize", "loads", "serialize.loads", None),
)

# The one span that times wide-lda's fit with tracing off.
E2E_TARGETS = tuple(t for t in TARGETS if t[2] == "ensemble.fit")


class Tracer:
    """In-memory span recorder over a set of wrapped module attributes.

    Each span is a list ``[name, parent, start, end, measure]``; ``parent``
    is the index of the enclosing span or -1.  ``mark()`` and ``since(mark)``
    cut the record into iterations.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def install(self) -> None:
        for mod_name, attr, name, measure in self.targets:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name, measure))

    def remove(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _wrap(self, fn, name, measure):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if measure is not None:
                rec[4] = measure(args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def root(self, name):
        """A span opened by the benchmark itself around its own code."""
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def mark(self) -> int:
        return len(self.spans)

    def since(self, mark: int) -> list:
        return self.spans[mark:]

    def write(self, path) -> None:
        """Write every span as one JSON line: id, parent, name, start, end, measure."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1, m) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, t0, t1, m]) + "\n")


def self_times(spans, offset: int) -> list:
    """Duration of each span less the time covered by its direct children.

    ``spans`` is a slice of a Tracer's record starting at index ``offset``;
    parents that lie before the slice are ignored.
    """
    self_t = [rec[3] - rec[2] for rec in spans]
    for rec in spans:
        parent = rec[1] - offset
        if parent >= 0:
            self_t[parent] -= rec[3] - rec[2]
    return self_t


def layer_metrics(spans, offset: int) -> dict:
    """Per-layer totals over one iteration's spans (see README for the map)."""
    self_t = self_times(spans, offset)
    out = {
        "rng.calls": 0, "rng.self_s": 0.0,
        "projections.sample_calls": 0, "projections.sample_s": 0.0,
        "projections.apply_s": 0.0, "projections.apply_bytes": 0,
        "base_classifiers.fit_calls": 0, "base_classifiers.fit_s": 0.0,
        "base_classifiers.loo_s": 0.0,
        "base_classifiers.predict_s": 0.0, "base_classifiers.predict_points": 0,
        "error_estimation.self_s": 0.0,
        "ensemble.self_s": 0.0, "ensemble.candidates": 0, "ensemble.candidates_failed": 0,
        "ensemble.alpha_s": 0.0, "ensemble.votes_s": 0.0,
        "datagen.sample_s": 0.0, "datagen.load_csv_s": 0.0,
        "serialize.dumps_s": 0.0, "serialize.loads_s": 0.0, "serialize.model_bytes": 0,
        "evaluation.comparator_s": 0.0, "cli.self_s": 0.0,
    }
    for (name, _, t0, t1, m), st in zip(spans, self_t):
        dur = t1 - t0
        if name == "rng.make_rng" or name == "rng.derive_int":
            out["rng.calls"] += 1
            out["rng.self_s"] += st
        elif name == "projections.sample":
            out["projections.sample_calls"] += 1
            out["projections.sample_s"] += dur
        elif name == "projections.apply":
            out["projections.apply_s"] += dur
            out["projections.apply_bytes"] += m
        elif name == "base_classifiers.fit":
            out["base_classifiers.fit_calls"] += 1
            out["base_classifiers.fit_s"] += dur
        elif name == "base_classifiers.loo":
            out["base_classifiers.loo_s"] += dur
        elif name == "base_classifiers.predict":
            out["base_classifiers.predict_s"] += dur
            out["base_classifiers.predict_points"] += m
        elif name == "error_estimation.estimate":
            out["error_estimation.self_s"] += st
        elif name == "ensemble.fit":
            out["ensemble.self_s"] += st
            out["ensemble.candidates"] += m[0]
            out["ensemble.candidates_failed"] += m[1]
        elif name == "ensemble.estimate_alpha":
            out["ensemble.alpha_s"] += dur
        elif name == "ensemble.votes_many":
            out["ensemble.votes_s"] += dur
        elif name == "datagen.sample":
            out["datagen.sample_s"] += dur
        elif name == "datagen.load_csv":
            out["datagen.load_csv_s"] += dur
        elif name == "serialize.dumps":
            out["serialize.dumps_s"] += dur
            out["serialize.model_bytes"] += m
        elif name == "serialize.loads":
            out["serialize.loads_s"] += dur
        elif name == "evaluation.comparator":
            out["evaluation.comparator_s"] += dur
        elif name == "cli.main":
            out["cli.self_s"] += st
    return out
