"""Random-projection ensemble classifier.

The classifier drills ``B1`` blocks of ``B2`` random projections into a
labelled sample.  Within each block the projection with the smallest
estimated test error survives (ties go to the smallest block index), its
base classifier is kept, and the ensemble's decision at a point is a vote
among the ``B1`` survivors: predict class 1 when the fraction voting 1
reaches the threshold ``alpha_hat``.

Fits run serially.  Everything downstream of the master seed is
deterministic: every projection and every tie-break stream is derived from
a keyed seed, never from call order.  The public entries that run BLAS
(``fit``, ``votes_many``, ``select_d_profile``, ``select_block_winner``)
run the bundled OpenBLAS on one thread and restore the caller's thread
count on return, so their results do not depend on it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import _blas
from . import base_classifiers as bc
from . import error_estimation as ee
from . import projections as pj
from .errors import (
    BlockFailureError,
    DataFormatError,
    DegenerateVotesError,
    EstimationFailureError,
    InvalidDimensionError,
    MissingClassError,
    ShapeMismatchError,
    SingularCovarianceError,
)
from .rng import derive_int, make_rng

# Seed-stream tags.  Every consumer of randomness under one (b1, b2) cell
# gets its own trailing tag so streams can never alias.
_TAG_PROJECTION = 0
_TAG_TIEBREAK = 1

# Fit errors that disqualify one candidate projection without sinking the
# whole block.  Anything else (shape problems, missing classes) is a data
# defect shared by every candidate and propagates immediately.
_CANDIDATE_ERRORS = (SingularCovarianceError, EstimationFailureError)


@dataclass(frozen=True)
class EnsembleConfig:
    """Immutable description of one ensemble fit.

    ``estimator=None`` defers to the default pairing for the base
    classifier (resubstitution for lda, leave-one-out otherwise), and
    ``alpha=None`` requests the data-driven threshold.  ``knn_k=None``
    lets the base layer pick ``max(3, round(sqrt(n)))`` at fit time.
    """

    B1: int
    B2: int
    d: int
    base: str = "lda"
    knn_k: int | None = None
    estimator: str | None = None
    projection_kind: str = "haar"
    alpha: float | None = None
    master_seed: int = 0

    def __post_init__(self):
        if self.B1 < 1 or self.B2 < 1:
            raise ValueError("B1 and B2 must be at least 1")
        if self.d < 1:
            raise InvalidDimensionError(f"projected dimension must be >= 1, got {self.d}")
        if self.base not in bc.BASE_KINDS:
            raise ValueError(f"unknown base classifier {self.base!r}")
        if self.projection_kind not in pj.KINDS:
            raise ValueError(f"unknown projection kind {self.projection_kind!r}")
        if self.estimator is not None and self.estimator not in ee.ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.knn_k is not None and (self.base != "knn" or self.knn_k < 1):
            raise ValueError("knn_k requires base='knn' and a positive value")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"fixed alpha must lie in (0, 1), got {self.alpha}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")

    @property
    def estimator_name(self) -> str:
        return self.estimator or ee.default_estimator(self.base)


@dataclass(frozen=True)
class VoteFraction:
    """Ensemble vote as an exact rational count / B1."""

    count: int
    b1: int

    def __post_init__(self):
        if not 0 <= self.count <= self.b1:
            raise ValueError(f"vote count {self.count} outside [0, {self.b1}]")

    @property
    def value(self) -> Fraction:
        return Fraction(self.count, self.b1)

    def __float__(self) -> float:
        return self.count / self.b1


@dataclass(eq=False)
class EnsembleModel:
    """Fitted ensemble: the B1 block winners plus the voting threshold.

    ``train_vote_counts`` and ``train_labels`` are the stored evaluation
    data for the empirical vote CDFs (one count of class-1 votes per
    training point); ``block_error_counts`` keeps every candidate's error
    count (-1 where the candidate failed to fit) so winner optimality can
    be audited after the fact.
    """

    config: EnsembleConfig
    projections: tuple
    base_models: tuple
    alpha_hat: Fraction
    train_vote_counts: np.ndarray
    train_labels: np.ndarray
    winner_indices: tuple
    block_error_counts: np.ndarray
    block_m: int

    @property
    def B1(self) -> int:
        return self.config.B1

    @property
    def p(self) -> int:
        return self.projections[0].p

    @property
    def n_train(self) -> int:
        return int(self.train_labels.shape[0])


@dataclass(frozen=True)
class _BlockResult:
    winner_index: int
    projection: pj.Projection
    model: object
    estimate: ee.ErrorEstimate
    vote_labels: np.ndarray
    candidate_counts: np.ndarray

    @property
    def error_count(self) -> int:
        return self.estimate.errors


def _base_spec(cfg: EnsembleConfig, tie_seed: int) -> bc.BaseSpec:
    return bc.BaseSpec(kind=cfg.base, k=cfg.knn_k, tie_seed=tie_seed)


def _sample_projection(cfg: EnsembleConfig, p: int, *key) -> pj.Projection:
    rng = make_rng(cfg.master_seed, *key)
    if cfg.projection_kind == "haar":
        return pj.sample_haar(p, cfg.d, rng)
    return pj.sample_axis_aligned(p, cfg.d, rng)


def _select(X, y, candidates, n, estimator, point_ids=None) -> _BlockResult:
    """Fit ``n`` (projection, BaseSpec) candidates and keep the first strict minimum.

    Every candidate's error count is recorded, -1 where it failed to fit.
    The winner's per-point labels are its leave-one-out or in-sample
    predictions, the votes it casts on the training data.
    """
    counts = np.full(n, -1, dtype=np.int64)
    best = None
    for idx, (proj, spec) in enumerate(candidates):
        Z = proj.apply(X)
        try:
            est, model, labels = ee._estimate_full(Z, y, spec, estimator, point_ids=point_ids)
        except _CANDIDATE_ERRORS:
            continue
        counts[idx] = est.errors
        # Strict < keeps the smallest index on ties.
        if best is None or est.errors < best[3].errors:
            best = (idx, proj, model, est, labels, Z)
    if best is None:
        raise BlockFailureError(f"all {n} candidate projections failed")
    idx, proj, model, est, labels, Z = best
    if labels is None:
        # sample_split trains on the first half only; in-sample votes still
        # come from the model actually deployed.
        labels = model.predict_many(Z)
    return _BlockResult(idx, proj, model, est, labels, counts)


def _run_block(cfg, X, y, b1, *, key_head=()) -> _BlockResult:
    """Evaluate block ``b1`` of B2 keyed candidates."""
    key = (*key_head, b1)
    candidates = (
        (
            _sample_projection(cfg, X.shape[1], *key, b2, _TAG_PROJECTION),
            _base_spec(cfg, derive_int(cfg.master_seed, *key, b2, _TAG_TIEBREAK)),
        )
        for b2 in range(cfg.B2)
    )
    try:
        return _select(X, y, candidates, cfg.B2, cfg.estimator_name)
    except BlockFailureError as exc:
        raise BlockFailureError(f"{exc} in block {b1}") from None


@_blas.single_thread
def select_block_winner(X, y, block, base_spec, estimator, point_ids=None):
    """Pick the projection in ``block`` with the smallest estimated error.

    ``block`` is a sequence of Projections; equal estimates resolve to the
    smallest index.  Returns (projection, ErrorEstimate, fitted model).
    Raises BlockFailureError when every candidate fails to fit.
    """
    if len(block) == 0:
        raise BlockFailureError("empty projection block")
    X = np.asarray(X, dtype=np.float64)
    _check_finite(X)
    candidates = ((proj, base_spec) for proj in block)
    blk = _select(X, np.asarray(y), candidates, len(block), estimator, point_ids)
    return blk.projection, blk.estimate, blk.model


def _check_finite(X) -> None:
    if not np.isfinite(X).all():
        raise DataFormatError("input contains NaN or infinite values")


@_blas.single_thread
def fit(X, y, cfg: EnsembleConfig) -> EnsembleModel:
    """Fit the ensemble on labelled data."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    bc._check_labelled(X, y)
    _check_finite(X)
    n, p = X.shape
    if not 1 <= cfg.d <= p:
        raise InvalidDimensionError(
            f"projected dimension {cfg.d} outside [1, {p}]"
        )
    if not (np.any(y == 1) and np.any(y == 2)):
        raise MissingClassError("training data must contain both classes")
    blocks = [_run_block(cfg, X, y, b1) for b1 in range(cfg.B1)]
    vote_counts = np.zeros(n, dtype=np.int64)
    for blk in blocks:
        vote_counts += (blk.vote_labels == 1)

    if cfg.alpha is not None:
        alpha_hat = Fraction(cfg.alpha)
    else:
        alpha_hat = estimate_alpha(vote_counts, y, cfg.B1)

    return EnsembleModel(
        config=cfg,
        projections=tuple(blk.projection for blk in blocks),
        base_models=tuple(blk.model for blk in blocks),
        alpha_hat=alpha_hat,
        train_vote_counts=vote_counts,
        train_labels=y.astype(np.int64, copy=True),
        winner_indices=tuple(blk.winner_index for blk in blocks),
        block_error_counts=np.stack([blk.candidate_counts for blk in blocks]),
        block_m=blocks[0].estimate.m,
    )


@_blas.single_thread
def votes_many(model: EnsembleModel, X) -> np.ndarray:
    """Class-1 vote counts (integers out of B1) for each row of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != model.p:
        raise ShapeMismatchError(
            f"expected points in {model.p} dimensions, got array of shape {X.shape}"
        )
    _check_finite(X)
    counts = np.zeros(X.shape[0], dtype=np.int64)
    for proj, base_model in zip(model.projections, model.base_models):
        counts += (base_model.predict_many(proj.apply(X)) == 1)
    return counts


def votes(model: EnsembleModel, x) -> VoteFraction:
    """Fraction of block winners voting class 1 at a single point."""
    count = int(votes_many(model, np.asarray(x, dtype=np.float64)[None, :])[0])
    return VoteFraction(count, model.B1)


def _counts_to_labels(counts: np.ndarray, alpha: Fraction, b1: int) -> np.ndarray:
    # class 1 iff count/B1 >= alpha, decided in exact integer arithmetic
    class1 = counts * alpha.denominator >= alpha.numerator * b1
    return np.where(class1, 1, 2).astype(np.int64)


def predict_many(model: EnsembleModel, X) -> np.ndarray:
    return _counts_to_labels(votes_many(model, X), model.alpha_hat, model.B1)


def predict(model: EnsembleModel, x) -> int:
    return int(predict_many(model, np.asarray(x, dtype=np.float64)[None, :])[0])


def _vote_table(counts, labels, b1):
    """Distinct vote counts and, per class, the votes strictly below each.

    Returns (distinct, below1, below2, n1, n2): ``distinct`` holds the
    sorted distinct values of ``counts`` and ``below_r[j]`` the number of
    class-r votes (class 2 being every label other than 1) with a count
    smaller than ``distinct[j]``.  Counts must be nonnegative.
    """
    class1 = labels == 1
    hist1 = np.bincount(counts[class1], minlength=b1 + 1)
    hist2 = np.bincount(counts[~class1], minlength=b1 + 1)
    distinct = np.flatnonzero(hist1 + hist2)
    below1 = np.cumsum(hist1) - hist1
    below2 = np.cumsum(hist2) - hist2
    return distinct, below1[distinct], below2[distinct], int(class1.sum()), int((~class1).sum())


def estimate_alpha(vote_counts, labels, b1, priors=None) -> Fraction:
    """Data-driven voting threshold.

    Minimizes the prior-weighted empirical error of thresholding the
    training votes, exactly (Fraction arithmetic), and returns the midpoint
    of the smallest and largest minimizers.  When the minimizing region is
    disconnected and the global midpoint falls in a gap, the midpoint snaps
    to the nearest minimizing piece so the returned threshold always
    attains the minimum.  Exact 0 or 1 is nudged inward to 1/(2*B1) and
    1 - 1/(2*B1).

    ``priors`` defaults to the empirical class proportions of ``labels``.
    """
    counts = np.asarray(vote_counts, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if counts.shape != labels.shape or counts.ndim != 1:
        raise ShapeMismatchError("vote counts and labels must be matching 1-d arrays")
    distinct, below1, below2, n1, n2 = _vote_table(counts, labels, b1)
    if n1 == 0 or n2 == 0:
        raise DegenerateVotesError(
            "threshold estimation needs votes from both classes"
        )
    if len(distinct) == 1:
        warnings.warn(
            "all training votes identical; threshold objective is flat, "
            "falling back to alpha = 1/2",
            RuntimeWarning,
            stacklevel=2,
        )
        return Fraction(1, 2)
    if priors is None:
        pi_1 = Fraction(n1, n1 + n2)
    else:
        pi_1 = Fraction(priors[0])
    pi_2 = 1 - pi_1

    # The objective O(t) = pi_1 * G1(t) + pi_2 * (1 - G2(t)), with G_r(t)
    # the fraction of class-r votes strictly below t, is a left-continuous
    # step function: constant on [0, v(1)], on each (v(j), v(j+1)] between
    # sorted distinct vote fractions, and on (v(K), 1] when v(K) < 1.
    knots = [Fraction(int(c), b1) for c in distinct]
    lows = [Fraction(0)] + knots[:-1]
    values = [
        pi_1 * Fraction(int(a), n1) + pi_2 * (1 - Fraction(int(b), n2))
        for a, b in zip(below1, below2)
    ]
    pieces = list(zip(lows, knots, values))
    if knots[-1] < 1:
        pieces.append((knots[-1], Fraction(1), pi_1))
    best = min(value for _, _, value in pieces)
    argmin = [(lo, hi) for lo, hi, value in pieces if value == best]
    global_mid = (argmin[0][0] + argmin[-1][1]) / 2

    def contains(piece, t):
        lo, hi = piece
        if lo == hi:
            return t == lo
        return lo < t <= hi

    if any(contains(piece, global_mid) for piece in argmin):
        mid = global_mid
    else:
        # Disconnected minimizing region: keep optimality by snapping to
        # the piece whose own midpoint is closest to the global midpoint.
        mid = min(
            ((lo + hi) / 2 for lo, hi in argmin),
            key=lambda m: (abs(m - global_mid), m),
        )

    if mid <= 0:
        return Fraction(1, 2 * b1)
    if mid >= 1:
        return 1 - Fraction(1, 2 * b1)
    return mid


def g_curves(model: EnsembleModel):
    """Empirical vote CDF data for each class.

    Returns (thresholds, g1, g2): thresholds are the sorted distinct
    training vote fractions as floats; g_r[j] is the fraction of class-r
    training points whose vote fraction is strictly below thresholds[j].
    """
    b1 = model.B1
    distinct, below1, below2, n1, n2 = _vote_table(
        model.train_vote_counts, model.train_labels, b1
    )
    return distinct / b1, below1 / n1, below2 / n2


def select_d(X, y, candidate_ds, cfg: EnsembleConfig) -> int:
    """Pick the projected dimension with the smallest mean winner estimate.

    Each candidate d gets its own B1 x B2 selection pass drawn from seed
    streams keyed by (d, b1, b2); ties resolve to the smallest d.
    """
    chosen, _ = select_d_profile(X, y, candidate_ds, cfg)
    return chosen


@_blas.single_thread
def select_d_profile(X, y, candidate_ds, cfg: EnsembleConfig):
    """As select_d, also returning {d: per-block winner error counts}."""
    candidates = sorted(set(int(d) for d in candidate_ds))
    if not candidates:
        raise ValueError("candidate dimension set is empty")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    bc._check_labelled(X, y)
    _check_finite(X)
    p = X.shape[1]
    profile = {}
    best_d = None
    best_total = None
    for d in candidates:
        if not 1 <= d <= p:
            raise InvalidDimensionError(f"candidate dimension {d} outside [1, {p}]")
        cfg_d = replace(cfg, d=d)
        winner_counts = np.array(
            [_run_block(cfg_d, X, y, b1, key_head=(d,)).error_count for b1 in range(cfg.B1)],
            dtype=np.int64,
        )
        profile[d] = winner_counts
        total = int(winner_counts.sum())
        # Candidates ascend, so strict < keeps the smallest d on ties.
        if best_total is None or total < best_total:
            best_total = total
            best_d = d
    return best_d, profile
