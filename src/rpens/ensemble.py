"""Random-projection ensemble classifier.

The classifier drills ``B1`` blocks of ``B2`` random projections into a
labelled sample.  Within each block the projection with the smallest
estimated test error survives (ties go to the smallest block index), its
base classifier is kept, and the ensemble's decision at a point is a vote
among the ``B1`` survivors: predict class 1 when the fraction voting 1
reaches the threshold ``alpha_hat``.

Everything downstream of the master seed is deterministic: every
projection and every tie-break stream is derived from a keyed seed, never
from call order.  Candidates are sampled and projected in waves of
max(1, (p // d) // B2) whole blocks: each Haar candidate draws its own
Gaussian, a wave shares one stacked QR call and one stacked Gram check
into a (k, d, p) array, and its images are views of one product of X
with each group of at most p // d of those matrices, so a product may
span blocks but is never wider than X.  While the caller selects a
wave's blocks, one helper thread (``_blas.helper``) fills the products of
the next wave, which the caller has sampled and allocated; with one CPU
they run on the caller, and either way each product has the shape it has
in a serial fit, so outputs do not change.  Each block is copied out of
its wave's product once and scored on its own, and only its winner
becomes a Projection, drawn again from its key.  At prediction time qda
and knn winners project the test points the same way; an lda winner's
rule is affine in x, so it folds to one p-vector and all lda winners vote
through one product, except near a boundary.

Blocks of lda and qda candidates under resubstitution and of qda
candidates under leave-one-out are scored as a stack: batched class
moments, one batched Cholesky factorisation and the discriminants (for
qda, the one formula that qda_loo_labels runs on one image) give only
integer error counts.  The first minimum is then re-scored alone on the
scalar path, so the winner's model, votes and saved bytes are what one fit
per candidate gives.  A block takes the scalar loop, one fit per
candidate, for every other pairing, when the base fit would refuse the
data or a leave-one-out class has d + 1 points, when a stacked Cholesky
factor fails or is nearly collinear, when a qda downdate pivot is at or
below its tolerance, when a discriminant lies within rounding of 0, and
when the winner re-scores to another count.

The public entries that run BLAS (``fit``, ``votes_many``, ``select_d_profile``,
``select_block_winner``) run the bundled OpenBLAS on one thread, the
helper's products included, and restore the caller's thread count on
return, so their results do not depend on it.
Bit-identical outputs hold for one numpy/BLAS build: BLAS does not promise
that a stacked product equals the separate products in every bit, so when
B2 < p // d the last bits of stored floats may differ from a fit that
projects one block at a time.
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

# Rows of test points voted on together at prediction time.  At p=500 and
# 50 qda winners, 2,048-row stacked products raised the peak RSS of a
# 2,000-row CLI predict by 1.7 MB; 512-row products kept it, at about the
# same speed.  lda winners hold only (chunk, B1) discriminants.
_ROW_CHUNK = 512


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


@dataclass(frozen=True)
class _BlockResult:
    winner_index: int
    projection: pj.Projection
    model: object
    estimate: ee.ErrorEstimate
    vote_labels: np.ndarray
    candidate_counts: np.ndarray


def _base_spec(cfg: EnsembleConfig, tie_seed: int) -> bc.BaseSpec:
    return bc.BaseSpec(kind=cfg.base, k=cfg.knn_k, tie_seed=tie_seed)


def _sample_projections(cfg: EnsembleConfig, p: int, keys) -> np.ndarray:
    """The (k, d, p) stack of one projection per stream key; Haar draws share one stacked QR call."""
    rngs = [make_rng(cfg.master_seed, *key) for key in keys]
    if cfg.projection_kind == "haar":
        return pj._sample_haar_stack(p, cfg.d, rngs)
    return np.stack([pj.sample_axis_aligned(p, cfg.d, rng).entries for rng in rngs])


def _submit_products(X, stack, helper):
    """Futures of the images of X by each group of at most p // d matrices of a (k, d, p) stack.

    A group's image, a (k_i, n, d) view of its product, is never wider than
    X.  The caller allocates each product and ``helper`` runs only the
    BLAS call into it: allocations on a helper thread went to that
    thread's own malloc arena and raised the peak RSS of a fit.
    """
    n, p = X.shape
    size = max(1, p // stack.shape[1])
    groups = (stack[i:i + size] for i in range(0, len(stack), size))
    return [
        helper.submit(pj._apply_stack, group, X, out=np.empty((n, group.shape[0] * group.shape[1])))
        for group in groups
    ]


def _images(pending):
    """The (k, n, d) images of the products in ``pending`` once they are done.

    One group's images are a view of its product; only a block that spans
    several groups (B2 > p // d) is concatenated.
    """
    _blas.wait(pending)
    groups = [future.result() for future in pending]
    return groups[0] if len(groups) == 1 else np.concatenate(groups)


def _projected(X, stack):
    """The (k, n, d) images of X by a (k, d, p) stack, one product per group, on the caller."""
    return _images(_submit_products(X, stack, _blas.INLINE))


def _stack(projections):
    """The (k, d, p) stack of the entries of k projections of one d."""
    return np.stack([proj.entries for proj in projections])


def _lda_votes(projections, models):
    """The (B1, chunk) class-1 votes of lda winners as a function of a chunk of rows.

    Winner i's rule (bc._lda_affine) read through its projection A is
    affine in x, x @ (A.T w) + c, so the chunk votes through one product
    with the (p, B1) matrix of the folded vectors A.T w.  A row within
    rounding of a winner's boundary (bc._near_lda_boundary with ||x||) is
    projected and voted by that winner's predict_many, as other bases vote.
    """
    w, mid, log_ratio, c = (np.array(part) for part in zip(*map(bc._lda_affine, models)))
    folded = np.stack([proj.entries.T @ wi for proj, wi in zip(projections, w)], axis=1)

    def votes(rows):
        f = rows @ folded + c
        near = bc._near_lda_boundary(f, bc._norms(rows)[:, None], w, mid, log_ratio)
        out = (f >= 0.0).T
        for i in np.flatnonzero(near.any(axis=0)):
            idx = np.flatnonzero(near[:, i])
            Z = pj._apply_stack(projections[i].entries[None], rows[idx])[0]
            out[i, idx] = models[i].predict_many(Z) == 1
        return out

    return votes


def _class1_votes(projections, base_models, X) -> np.ndarray:
    """Boolean (len(projections), n) matrix: row i is winner i's class-1 votes.

    Rows go through in chunks of ``_ROW_CHUNK``, so what one chunk computes
    ((chunk, B1) discriminants for lda winners, stacked images of the
    chunk for the others) stays small next to X.
    """
    if all(isinstance(model, bc.LdaModel) for model in base_models):
        chunk_votes = _lda_votes(projections, base_models)
    else:
        stack = _stack(projections)

        def chunk_votes(rows):
            images = _projected(rows, stack)
            return [model.predict_many(Z) == 1 for model, Z in zip(base_models, images)]
    votes = np.empty((len(projections), X.shape[0]), dtype=bool)
    for start in range(0, X.shape[0], _ROW_CHUNK):
        rows = X[start:start + _ROW_CHUNK]
        votes[:, start:start + len(rows)] = chunk_votes(rows)
    return votes


# The stacked scorer of each (base, estimator) pairing that has one.
_STACKED_SCORERS = {
    ("lda", "resubstitution"): bc._lda_stack_discriminants,
    ("qda", "resubstitution"): lambda Zs, y: bc._qda_discriminants(Zs, y, drop=0),
    ("qda", "leave_one_out"): lambda Zs, y: bc._qda_discriminants(Zs, y, drop=1),
}


def _stacked_counts(images, y, kind, estimator):
    """Every candidate's error count from one pass over the (B2, n, d) images.

    Returns None, to send the block down the scalar loop, in the cases the
    module docstring lists except the winner's re-score, which _select
    checks.  A scorer refuses, through its base fit's own checks, the data
    that fit refuses.
    """
    scorer = _STACKED_SCORERS.get((kind, estimator))
    if scorer is None:
        return None
    try:
        delta, pivot = scorer(images, y)
    except (np.linalg.LinAlgError, *bc._REFIT_ERRORS):
        return None
    size = np.abs(delta)
    # Within this of 0, against the image's largest discriminant, the stack
    # cannot vouch for a label.
    margin = bc._MARGIN * (1.0 + size.max(axis=-1, keepdims=True))
    # Written as "not >" so that a NaN pivot or discriminant sends the block back too.
    if not ((pivot > bc._LOO_PIVOT_TOL) & (size > margin)).all():
        return None
    return np.sum((delta >= 0.0) != (y == 1), axis=-1)


def _first_minimum(counts):
    """Index of the first smallest count >= 0 of a 1-d array; None when all are -1 (failed)."""
    counts = counts.tolist()
    scored = [i for i, count in enumerate(counts) if count >= 0]
    return min(scored, key=counts.__getitem__) if scored else None


def _select(images, y, candidates, estimator, point_ids=None) -> _BlockResult:
    """Fit the (projection, BaseSpec) candidates and keep the first minimum.

    ``images[i]`` is candidate i's image of the training points, copied once
    into the stack that the stacked scorer and the scalar loop read.  Every
    candidate's error count is recorded, -1 where it failed to fit, and
    _first_minimum picks the winner, so ties go to the smallest index.  Its
    per-point labels are its leave-one-out or in-sample predictions, the
    votes it casts on the training data.

    The block is first scored as a stack of counts, and only its first
    minimum is re-scored through _estimate_full (see the module docstring).
    """
    candidates = list(candidates)
    images = np.ascontiguousarray(images)
    counts = _stacked_counts(images, y, candidates[0][1].kind, estimator)
    if counts is not None:
        idx = _first_minimum(counts)
        est, model, labels = ee._estimate_full(images[idx], y, candidates[idx][1], estimator)
        if est.errors == counts[idx]:
            return _BlockResult(idx, candidates[idx][0], model, est, labels, counts)
    # Every fallback from the stack arrives here.
    counts = np.full(len(candidates), -1, dtype=np.int64)
    fits = {}
    for idx, ((_, spec), Z) in enumerate(zip(candidates, images)):
        try:
            fits[idx] = ee._estimate_full(Z, y, spec, estimator, point_ids=point_ids)
        except _CANDIDATE_ERRORS:
            continue
        counts[idx] = fits[idx][0].errors
    idx = _first_minimum(counts)
    if idx is None:
        raise BlockFailureError(f"all {len(candidates)} candidate projections failed")
    est, model, labels = fits[idx]
    if labels is None:
        # sample_split trains on the first half only; in-sample votes still
        # come from the model actually deployed.
        labels = model.predict_many(images[idx])
    return _BlockResult(idx, candidates[idx][0], model, est, labels, counts)


def _run_blocks(cfg, X, y, b1s, key_head=()) -> list:
    """Evaluate blocks ``b1s`` of B2 keyed candidates, in waves of whole blocks.

    A wave holds max(1, (p // d) // B2) blocks.  Its candidates are sampled
    together into one (k, d, p) stack and projected with one product per
    p // d of them (see _submit_products), so a wave's product is no wider
    than X unless a single block's is (B2 > p // d).  The caller samples
    the next wave and allocates its products, and the helper thread of
    _blas.helper fills them while the caller selects this wave's blocks:
    each block's images, a slice of the wave's view, are copied out in
    turn by _select and selected on their own.  Only a block's winner
    becomes a Projection, drawn again from its key.
    """
    p = X.shape[1]
    per_wave = max(1, (p // cfg.d) // cfg.B2)
    waves = [b1s[i:i + per_wave] for i in range(0, len(b1s), per_wave)]
    sample = pj.sample_haar if cfg.projection_kind == "haar" else pj.sample_axis_aligned
    # Only kNN reads a tie seed, so lda and qda derive none.
    knn = cfg.base == "knn"
    blocks = []
    with _blas.helper() as helper:

        def start(wave):
            keys = [(*key_head, b1, b2) for b1 in wave for b2 in range(cfg.B2)]
            stack = _sample_projections(cfg, p, [(*key, _TAG_PROJECTION) for key in keys])
            # The helper holds the stack until its products are filled.
            return keys, _submit_products(X, stack, helper)

        ahead = start(waves[0])
        for i, wave in enumerate(waves):
            keys, pending = ahead
            if i + 1 < len(waves):
                ahead = start(waves[i + 1])
            images = _images(pending)
            specs = [
                _base_spec(cfg, derive_int(cfg.master_seed, *key, _TAG_TIEBREAK) if knn else 0)
                for key in keys
            ]
            for j, b1 in enumerate(wave):
                block = slice(j * cfg.B2, (j + 1) * cfg.B2)
                try:
                    blk = _select(images[block], y, zip(keys[block], specs[block]), cfg.estimator_name)
                except BlockFailureError as exc:
                    raise BlockFailureError(f"{exc} in block {b1}") from None
                rng = make_rng(cfg.master_seed, *blk.projection, _TAG_PROJECTION)
                blocks.append(replace(blk, projection=sample(p, cfg.d, rng)))
            # The wave after next, sampled at the top of the next pass, should
            # not find this wave's product held.
            del images, pending
    return blocks


@_blas.single_thread
def select_block_winner(X, y, block, base_spec, estimator, point_ids=None):
    """Pick the projection in ``block`` with the smallest estimated error.

    ``block`` is a sequence of Projections; equal estimates resolve to the
    smallest index.  Returns (projection, ErrorEstimate, fitted model).
    Refuses the data fit refuses and a block of mixed projected dimension,
    before projecting anything, and raises BlockFailureError when every
    candidate fails to fit.
    """
    if len(block) == 0:
        raise BlockFailureError("empty projection block")
    dims = sorted({proj.d for proj in block})
    if len(dims) > 1:
        raise InvalidDimensionError(f"a block's projections must share one dimension, got {dims}")
    X, y = _training_data(X, y, ())
    candidates = ((proj, base_spec) for proj in block)
    blk = _select(_projected(X, _stack(block)), y, candidates, estimator, point_ids)
    return blk.projection, blk.estimate, blk.model


def _check_finite(X) -> None:
    if not np.isfinite(X).all():
        raise DataFormatError("input contains NaN or infinite values")


def _training_data(X, y, ds):
    """X as float64 and y as an int64 copy, checked before any fitting.

    Refuses unlabelled or non-finite data, any projected dimension in
    ``ds`` outside [1, p] and data that lacks a class.
    """
    X, y = bc._check_labelled(X, y)
    _check_finite(X)
    p = X.shape[1]
    for d in ds:
        if not 1 <= d <= p:
            raise InvalidDimensionError(f"projected dimension {d} outside [1, {p}]")
    if not (np.any(y == 1) and np.any(y == 2)):
        raise MissingClassError("training data must contain both classes")
    return X, y


@_blas.single_thread
def fit(X, y, cfg: EnsembleConfig) -> EnsembleModel:
    """Fit the ensemble on labelled data."""
    X, y = _training_data(X, y, [cfg.d])
    n = X.shape[0]
    blocks = _run_blocks(cfg, X, y, range(cfg.B1))
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
        train_labels=y,
        winner_indices=tuple(blk.winner_index for blk in blocks),
        block_error_counts=np.stack([blk.candidate_counts for blk in blocks]),
        block_m=blocks[0].estimate.m,
    )


@_blas.single_thread
def votes_many(model: EnsembleModel, X) -> np.ndarray:
    """Class-1 vote counts (integers out of B1) for each row of an (n, p) array X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.p:
        raise ShapeMismatchError(
            f"expected points in {model.p} dimensions, got array of shape {X.shape}"
        )
    _check_finite(X)
    return _class1_votes(model.projections, model.base_models, X).sum(axis=0, dtype=np.int64)


def _counts_to_labels(counts: np.ndarray, alpha: Fraction, b1: int) -> np.ndarray:
    # class 1 iff count >= ceil(alpha * B1), one exact integer: no int64 product to wrap
    class1 = counts >= -(-alpha.numerator * b1 // alpha.denominator)
    return np.where(class1, 1, 2).astype(np.int64)


def predict_many(model: EnsembleModel, X) -> np.ndarray:
    """Labels for each row of X: class 1 iff its vote fraction reaches alpha_hat."""
    return _counts_to_labels(votes_many(model, X), model.alpha_hat, model.B1)


def _vote_table(counts, labels, b1):
    """Distinct vote counts and, per class, the votes strictly below each.

    Returns (distinct, below1, below2, n1, n2): ``distinct`` holds the
    sorted distinct values of ``counts`` and ``below_r[j]`` the number of
    class-r votes with a count smaller than ``distinct[j]``.  Counts must
    be nonnegative and labels in {1, 2}.
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

    Minimizes the empirical error of thresholding the training votes,
    weighted by ``priors`` when they are given and compared exactly as an
    integer, and returns the midpoint of the smallest and largest
    minimizers.  When the minimizing region is disconnected and the global
    midpoint falls in a gap, the midpoint snaps to the nearest minimizing
    piece so the returned threshold always attains the minimum.  Exact 0 or
    1 is nudged inward to 1/(2*B1) and 1 - 1/(2*B1).

    ``priors`` defaults to the empirical class proportions of ``labels``;
    an explicit class-1 prior must lie in (0, 1).  Counts that are not
    integers in [0, b1] and labels outside {1, 2} raise ValueError.
    """
    counts = np.asarray(vote_counts, dtype=np.float64)
    if counts.shape != np.shape(labels) or counts.ndim != 1:
        raise ShapeMismatchError("vote counts and labels must be matching 1-d arrays")
    labels = bc._class_labels(np.asarray(labels))
    if not (counts == np.round(counts)).all():
        raise ValueError("vote counts must be integers")
    if counts.size and not (0 <= counts.min() and counts.max() <= b1):
        raise ValueError(f"vote counts must lie in [0, {b1}]")
    counts = counts.astype(np.int64)
    if priors is not None and not 0 < priors[0] < 1:
        raise ValueError(f"class-1 prior must lie in (0, 1), got {priors[0]}")
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
    pi_1 = Fraction(n1, n1 + n2) if priors is None else Fraction(priors[0])

    # The objective O(t) = pi_1 * G1(t) + pi_2 * (1 - G2(t)), with G_r(t)
    # the fraction of class-r votes strictly below t, is a left-continuous
    # step function: constant on [0, v(1)], on each (v(j), v(j+1)] between
    # sorted distinct vote counts, and on (v(K), B1] when v(K) < B1.  Times
    # n1 * n2 * den(pi_1) it is the integer w1 * below1 + w2 * (n2 - below2).
    w1 = pi_1.numerator * n2
    w2 = (pi_1.denominator - pi_1.numerator) * n1
    highs = distinct.tolist()
    scores = [w1 * a + w2 * (n2 - b) for a, b in zip(below1.tolist(), below2.tolist())]
    pieces = list(zip([0] + highs[:-1], highs, scores))
    if highs[-1] < b1:
        pieces.append((highs[-1], b1, w1 * n1))
    best = min(score for _, _, score in pieces)
    argmin = [(lo, hi) for lo, hi, score in pieces if score == best]
    # Thresholds from here on are in half votes: mid stands for t = mid / (2 * B1).
    mid = argmin[0][0] + argmin[-1][1]
    if not any(2 * lo < mid <= 2 * hi or mid == 2 * lo == 2 * hi for lo, hi in argmin):
        # Disconnected minimizing region: keep optimality by snapping to
        # the piece whose own midpoint is closest to the global midpoint.
        mid = min((lo + hi for lo, hi in argmin), key=lambda m: (abs(m - mid), m))
    return Fraction(min(max(mid, 1), 2 * b1 - 1), 2 * b1)


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
    streams keyed by (d, b1, b2).  The first minimum wins: equal totals go
    to the smallest d.
    """
    chosen, _ = select_d_profile(X, y, candidate_ds, cfg)
    return chosen


@_blas.single_thread
def select_d_profile(X, y, candidate_ds, cfg: EnsembleConfig):
    """As select_d, also returning {d: per-block winner error counts}."""
    candidates = sorted(set(int(d) for d in candidate_ds))
    if not candidates:
        raise ValueError("candidate dimension set is empty")
    X, y = _training_data(X, y, candidates)
    profile = {}
    for d in candidates:
        cfg_d = replace(cfg, d=d)
        profile[d] = np.array(
            [blk.estimate.errors for blk in _run_blocks(cfg_d, X, y, range(cfg.B1), key_head=(d,))],
            dtype=np.int64,
        )
    # min keeps the first of equal totals, and the candidates ascend.
    return min(candidates, key=lambda d: int(profile[d].sum())), profile
