"""Test-error estimators for a base classifier on projected data.

Every estimate stores the integer count of misclassified points and the
number of evaluation points, so its value is an exact rational with known
denominator.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import base_classifiers as bc
from .errors import (
    EstimationFailureError,
    InvalidDimensionError,
    MissingClassError,
    SingularCovarianceError,
)

__all__ = [
    "ErrorEstimate",
    "ESTIMATORS",
    "default_estimator",
    "evaluation_count",
    "resubstitution",
    "leave_one_out",
    "sample_split",
]

ESTIMATORS = ("resubstitution", "leave_one_out", "sample_split")


@dataclass(frozen=True)
class ErrorEstimate:
    """Estimated test error: `errors` mistakes out of `m` evaluations."""

    errors: int
    m: int
    method: str

    def __post_init__(self):
        # operator.index refuses non-integers and turns numpy integers into int.
        object.__setattr__(self, "errors", operator.index(self.errors))
        if self.method not in ESTIMATORS:
            raise ValueError(f"unknown estimator: {self.method!r}")
        if self.m < 1:
            raise ValueError("estimate denominator must be positive")
        if not 0 <= self.errors <= self.m:
            raise ValueError("error count must lie in [0, m]")

    @property
    def value(self) -> float:
        return self.errors / self.m


def default_estimator(base_kind: str) -> str:
    """Pairing used when no estimator is requested.

    Resubstitution for the linear rule, whose training error is a usable
    proxy; leave-one-out for the quadratic and nearest-neighbour rules,
    whose training error is too optimistic to rank projections.
    """
    return "resubstitution" if base_kind == "lda" else "leave_one_out"


def _split_point(n: int) -> int:
    """sample_split fits on the first ``n // 2`` points and scores the rest."""
    return n // 2


def evaluation_count(method: str, n: int) -> int:
    """Points that ``method`` scores on n training points: the estimate's m."""
    return n - _split_point(n) if method == "sample_split" else n


def resubstitution(Z, y, base: bc.BaseSpec) -> ErrorEstimate:
    """Training error of the base classifier fitted on all of (Z, y)."""
    est, _, _ = _estimate_full(Z, y, base, "resubstitution")
    return est


def leave_one_out(Z, y, base: bc.BaseSpec, point_ids=None) -> ErrorEstimate:
    """Fraction of points misclassified by the model refitted without them."""
    est, _, _ = _estimate_full(Z, y, base, "leave_one_out", point_ids=point_ids)
    return est


def sample_split(Z_fit, y_fit, Z_eval, y_eval, base: bc.BaseSpec) -> ErrorEstimate:
    """Error on a held-out half, for a model fitted on the other half."""
    return _held_out_estimate(bc.fit_base(base, Z_fit, y_fit), Z_eval, y_eval)


def _held_out_estimate(model, Z_eval, y_eval) -> ErrorEstimate:
    predicted = model.predict_many(np.asarray(Z_eval, dtype=np.float64))
    y_eval = np.asarray(y_eval, dtype=np.int64)
    if predicted.shape != y_eval.shape:
        raise ValueError("held-out labels must be one per held-out point")
    return ErrorEstimate(int(np.sum(predicted != y_eval)), len(y_eval), "sample_split")


def _estimate_full(Z, y, base, method, point_ids=None):
    """Estimate plus fitted model plus per-point predictions.

    Returns (estimate, model, per_point_labels). The model is fitted on
    the full data (or the fitting half under sample_split). Per-point
    labels are the leave-one-out predictions when method is
    leave_one_out, the in-sample predictions under resubstitution, and
    None under sample_split.
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = len(y)

    if method not in ESTIMATORS:
        raise ValueError(f"unknown estimator: {method!r}")

    if method == "sample_split":
        split = _split_point(n)
        if not 1 <= split < n:
            raise ValueError("sample split needs points on both sides")
        model = bc.fit_base(base, Z[:split], y[:split])
        return _held_out_estimate(model, Z[split:], y[split:]), model, None

    model = bc.fit_base(base, Z, y, point_ids=point_ids)
    if method == "resubstitution":
        labels = model.predict_many(Z)
    else:
        labels = _loo_labels(Z, y, base, point_ids)
    return ErrorEstimate(int(np.sum(labels != y)), n, method), model, labels


def _loo_labels(Z, y, base, point_ids):
    """Leave-one-out labels of every point; only LDA refits one point at a time."""
    n = len(y)
    if base.kind == "knn":
        return bc.knn_loo_labels(Z, y, base.resolve_k(n), base.tie_seed, point_ids)
    if base.kind == "qda":
        labels, failed = bc.qda_loo_labels(Z, y)
        if failed.any():
            # Conservative: an unscorable refit counts against the
            # projection rather than aborting the whole estimate.
            warnings.warn(
                f"{int(failed.sum())} leave-one-out refits failed; "
                "counting those points as errors",
                stacklevel=3,
            )
            labels = labels.copy()
            labels[failed] = 3 - y[failed]
        return labels
    labels = np.zeros(n, dtype=np.int64)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        keep[i] = False
        try:
            model = bc.fit_base(base, Z[keep], y[keep])
        except (MissingClassError, InvalidDimensionError, SingularCovarianceError) as exc:
            raise EstimationFailureError(i, f"leave-one-out refit failed at point {i}: {exc}")
        labels[i] = model.predict_many(Z[i][None, :])[0]
        keep[i] = True
    return labels
