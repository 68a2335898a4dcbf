"""Base classifiers applied to projected data.

Three classifiers operate on d-dimensional projected points with labels
in {1, 2}: linear discriminant analysis with a pooled covariance,
quadratic discriminant analysis with per-class covariances, and a
k-nearest-neighbour vote. All fitting is deterministic; the only
randomness is the seeded stream that splits exact distance ties in the
nearest-neighbour classifier. QDA has one discriminant formula for both
error estimators, _qda_discriminants: the ensemble runs it on a stack of
images and qda_loo_labels on one.  lda and qda predict through a cheaper
form of their discriminant; a row within rounding of the boundary, by a
bound _MARGIN scales, takes the exact form, so no label depends on which.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtr

from .errors import (
    InvalidDimensionError,
    MissingClassError,
    ShapeMismatchError,
    SingularCovarianceError,
)

__all__ = [
    "BaseSpec",
    "LdaModel",
    "QdaModel",
    "KnnModel",
    "fit_base",
    "fit_lda",
    "predict_lda_many",
    "lda_closed_form_test_error",
    "fit_qda",
    "predict_qda_many",
    "qda_loo_labels",
    "fit_knn",
    "predict_knn_many",
    "knn_loo_labels",
    "default_knn_k",
]

RIDGE_EPS = 1e-8

# A discriminant within this fraction of the size of its terms is too
# close to 0 for a cheaper form, or for a stacked score, to vouch for the
# sign that the exact form gives.
_MARGIN = 1e-9

BASE_KINDS = ("lda", "qda", "knn")


def _check_labelled(Z, y):
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y)
    if Z.ndim != 2:
        raise ShapeMismatchError("training points must form a 2-d array")
    if y.shape != (Z.shape[0],):
        raise ShapeMismatchError("labels must be one per training point")
    return Z, _class_labels(y)


def _class_labels(y):
    """An int64 copy of the label array y, refusing any label outside {1, 2}."""
    # A boolean array would read True as class 1; refuse it with the rest.
    if y.dtype == bool or not ((y == 1) | (y == 2)).all():
        raise ValueError("labels must take values in {1, 2}")
    return y.astype(np.int64)


def _class_moments(Z, y):
    """Size, mean and scatter (sum of squared deviations) of each class.

    Returns ((n_1, mu_1, S_1), (n_2, mu_2, S_2)).  Z is (n, d) or a stack
    (B, n, d) of images of the same points; the means and scatters then
    carry the leading stack axis.
    """
    m1 = y == 1
    m2 = y == 2
    if not m1.any() or not m2.any():
        raise MissingClassError("both classes must be present in the training set")
    moments = []
    for mask in (m1, m2):
        Zr = Z[..., mask, :]
        mu = Zr.mean(axis=-2)
        dev = Zr - mu[..., None, :]
        moments.append((int(mask.sum()), mu, np.swapaxes(dev, -1, -2) @ dev))
    return tuple(moments)


def _invert_spd(sigma, context=""):
    """Inverse and log-determinant of a symmetric positive definite matrix.

    On a failed Cholesky factorisation, retries once with a ridge of
    RIDGE_EPS * mean diagonal added; a second failure raises.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    d = sigma.shape[0]
    sigma = (sigma + sigma.T) / 2.0
    for attempt in range(2):
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            if attempt == 1:
                raise SingularCovarianceError(
                    f"covariance singular after ridge fallback {context}".strip()
                )
            sigma = sigma + (RIDGE_EPS * np.trace(sigma) / d) * np.eye(d)
            continue
        inv_chol = solve_triangular(chol, np.eye(d), lower=True)
        inverse = inv_chol.T @ inv_chol
        inverse = (inverse + inverse.T) / 2.0
        log_det = 2.0 * np.sum(np.log(np.diag(chol)))
        return inverse, log_det, sigma
    raise AssertionError("unreachable")


# What a fit on all but one point can raise: a class left empty or too
# small for its covariance, or a covariance singular beyond the ridge.
_REFIT_ERRORS = (InvalidDimensionError, MissingClassError, SingularCovarianceError)


def _refit_label(fit, Z, y, i):
    """Label of point i by ``fit`` run on every other point; raises what ``fit`` raises."""
    keep = np.arange(len(y)) != i
    return int(fit(Z[keep], y[keep]).predict_many(Z[i][None, :])[0])


# ---------------------------------------------------------------------------
# Linear discriminant analysis


@dataclass(eq=False)
class LdaModel:
    pi_hat_1: float
    pi_hat_2: float
    mu_hat_1: np.ndarray
    mu_hat_2: np.ndarray
    sigma_hat: np.ndarray
    omega_hat: np.ndarray

    def predict_many(self, Z):
        return predict_lda_many(self, Z)

    @property
    def d(self):
        return self.mu_hat_1.shape[0]


def _check_lda_size(n, d):
    if n < d + 2:
        raise InvalidDimensionError(f"pooled covariance needs n >= d + 2, got n={n}, d={d}")


def fit_lda(Z, y) -> LdaModel:
    """Fit class priors, class means and a pooled-covariance precision.

    The pooled covariance sums squared deviations from the respective
    class means and divides by n - 2. Requires both classes and
    n >= d + 2 so that the pooled estimate can have full rank.
    """
    Z, y = _check_labelled(Z, y)
    n, d = Z.shape
    _check_lda_size(n, d)
    (n1, mu1, S1), (n2, mu2, S2) = _class_moments(Z, y)
    omega, _, sigma = _invert_spd((S1 + S2) / (n - 2), context="(pooled)")
    return LdaModel(
        pi_hat_1=n1 / n,
        pi_hat_2=n2 / n,
        mu_hat_1=mu1,
        mu_hat_2=mu2,
        sigma_hat=sigma,
        omega_hat=omega,
    )


def _lda_affine(model):
    """The fitted rule as an affine function: class 1 where x @ w + c >= 0.

    Returns (w, mid, log_ratio, c): w = omega (mu_1 - mu_2), mid = (mu_1 +
    mu_2) / 2, log_ratio = log(pi_1 / pi_2) and c = log_ratio - mid @ w.
    """
    w = model.omega_hat @ (model.mu_hat_1 - model.mu_hat_2)
    mid = (model.mu_hat_1 + model.mu_hat_2) / 2.0
    log_ratio = np.log(model.pi_hat_1 / model.pi_hat_2)
    return w, mid, log_ratio, log_ratio - mid @ w


def _norms(a):
    """Euclidean norms along the last axis."""
    return np.sqrt(np.einsum("...i,...i->...", a, a))


def _near_lda_boundary(f, x_norm, w, mid, log_ratio):
    """Where an affine discriminant f lies within rounding of 0, or is NaN.

    By Cauchy-Schwarz the rounding of both x @ w + c and log_ratio +
    (x - mid) @ w stays far below _MARGIN * (|log_ratio| + (||x|| + ||mid||)
    * ||w||), so where |f| exceeds that, both forms give one sign.  It holds
    too for a rule read through a projection A with orthonormal rows, with
    ||x|| for ||A x||: ||A x|| <= ||x|| and ||A.T w|| = ||w||.  Rules stack
    along the last axis of f, w, mid and log_ratio.
    """
    w_norm = _norms(w)
    bound = _MARGIN * (np.abs(log_ratio) + _norms(mid) * w_norm) + (_MARGIN * w_norm) * x_norm
    return ~(np.abs(f) > bound)


def _lda_discriminant(model, Z):
    """The exact form, log_ratio + (Z - mid) @ w; it makes an (n, d) temporary."""
    w, mid, log_ratio, _ = _lda_affine(model)
    return log_ratio + (Z - mid) @ w


def predict_lda_many(model, Z):
    """Labels for an (n, d) array; discriminant ties go to class 1.

    Evaluates the affine form Z @ w + c, which needs no (n, d) temporary;
    a row within rounding of the boundary takes _lda_discriminant, so every
    label is the one that form gives.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != model.d:
        raise ShapeMismatchError(f"expected points with {model.d} features")
    w, mid, log_ratio, c = _lda_affine(model)
    f = Z @ w + c
    near = _near_lda_boundary(f, _norms(Z), w, mid, log_ratio)
    if near.any():
        f[near] = _lda_discriminant(model, Z[near])
    return np.where(f >= 0.0, 1, 2).astype(np.int64)


def lda_closed_form_test_error(model, pi_1, mu_1, mu_2, sigma) -> float:
    """Exact test error of a fitted linear rule under Gaussian class laws.

    The classes are N(mu_1, sigma) and N(mu_2, sigma) with prior pi_1 on
    class 1. The fitted discriminant is linear, so its distribution under
    each class is Gaussian and the misclassification probability reduces
    to two normal tail probabilities.
    """
    mu_1 = np.asarray(mu_1, dtype=np.float64)
    mu_2 = np.asarray(mu_2, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    pi_2 = 1.0 - pi_1
    w, mid, _, _ = _lda_affine(model)
    # Not -log(pi_1 / pi_2), which differs from this in the last bit for
    # about 40% of class sizes.
    log_ratio_21 = np.log(model.pi_hat_2 / model.pi_hat_1)
    scale = float(np.sqrt(w @ sigma @ w))
    if scale == 0.0:
        # Constant discriminant: everything lands in one class.
        return pi_2 if -log_ratio_21 >= 0.0 else pi_1
    a1 = (log_ratio_21 + w @ (mid - mu_1)) / scale
    a2 = (-log_ratio_21 - w @ (mid - mu_2)) / scale
    return float(pi_1 * ndtr(a1) + pi_2 * ndtr(a2))


# ---------------------------------------------------------------------------
# Quadratic discriminant analysis


@dataclass(eq=False)
class QdaModel:
    pi_hat_1: float
    pi_hat_2: float
    mu_hat_1: np.ndarray
    mu_hat_2: np.ndarray
    sigma_hat_1: np.ndarray
    sigma_hat_2: np.ndarray
    omega_hat_1: np.ndarray
    omega_hat_2: np.ndarray
    log_det_1: float
    log_det_2: float

    def predict_many(self, Z):
        return predict_qda_many(self, Z)

    @property
    def d(self):
        return self.mu_hat_1.shape[0]


def _check_qda_class_sizes(n1, n2, d):
    if min(n1, n2) < d + 1:
        raise InvalidDimensionError(
            f"per-class covariance needs min class size >= d + 1, got ({n1}, {n2}), d={d}"
        )


def fit_qda(Z, y) -> QdaModel:
    """Fit per-class priors, means and covariances (divisor n_r - 1)."""
    Z, y = _check_labelled(Z, y)
    n, d = Z.shape
    (n1, mu1, S1), (n2, mu2, S2) = _class_moments(Z, y)
    _check_qda_class_sizes(n1, n2, d)
    omega1, log_det_1, sigma1 = _invert_spd(S1 / (n1 - 1), context="(class 1)")
    omega2, log_det_2, sigma2 = _invert_spd(S2 / (n2 - 1), context="(class 2)")
    return QdaModel(
        pi_hat_1=n1 / n,
        pi_hat_2=n2 / n,
        mu_hat_1=mu1,
        mu_hat_2=mu2,
        sigma_hat_1=sigma1,
        sigma_hat_2=sigma2,
        omega_hat_1=omega1,
        omega_hat_2=omega2,
        log_det_1=log_det_1,
        log_det_2=log_det_2,
    )


def _blas_forms(U, omega):
    """u @ omega @ u for each row u of U, through one matrix product."""
    return np.einsum("ij,ij->i", U @ omega, U)


def _loop_forms(U, omega):
    """As _blas_forms, by einsum's scalar loop: the exact form near the boundary."""
    return np.einsum("ij,jk,ik->i", U, omega, U)


def _qda_discriminant(model, Z, forms=_blas_forms):
    """Discriminant of each row of Z, and a size that bounds its rounding.

    By Cauchy-Schwarz either form of u @ omega @ u rounds within about
    d^2 * eps * ||omega||_F ||u||^2, far less than _MARGIN times that, so
    where |discriminant| exceeds _MARGIN * size, _blas_forms and _loop_forms
    give one sign.
    """
    u1 = Z - model.mu_hat_1
    u2 = Z - model.mu_hat_2
    const = np.log(model.pi_hat_1 / model.pi_hat_2) + 0.5 * (model.log_det_2 - model.log_det_1)
    delta = const + 0.5 * (forms(u2, model.omega_hat_2) - forms(u1, model.omega_hat_1))
    size = abs(const) + 0.5 * (
        np.linalg.norm(model.omega_hat_1) * np.einsum("ij,ij->i", u1, u1)
        + np.linalg.norm(model.omega_hat_2) * np.einsum("ij,ij->i", u2, u2)
    )
    return delta, size


def predict_qda_many(model, Z):
    """Labels for an (n, d) array; discriminant ties go to class 1.

    A row within rounding of the boundary takes _loop_forms, so every label
    is the one that form gives.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != model.d:
        raise ShapeMismatchError(f"expected points with {model.d} features")
    delta, size = _qda_discriminant(model, Z)
    near = ~(np.abs(delta) > _MARGIN * size)
    if near.any():
        delta[near] = _qda_discriminant(model, Z[near], _loop_forms)[0]
    return np.where(delta >= 0.0, 1, 2).astype(np.int64)


_LOO_PIVOT_TOL = 1e-12


def qda_loo_labels(Z, y):
    """Leave-one-out predicted label of each training point under QDA.

    Returns (labels, failed). labels[i] is the prediction for point i by
    the model refitted without it; failed[i] marks points whose refit is
    infeasible (deleted class left with fewer than d + 1 members) or
    numerically degenerate. Failed points carry no usable label.

    Refuses what fit_qda refuses. This is the one-image lift of
    _qda_discriminants with drop 1: deleting one point changes a single
    class's scatter by a rank-one term, so every refit follows from the
    full-data factors. When a class covariance has no Cholesky factor,
    where fit_qda takes its ridge, every point takes an explicit refit
    through _refit_label; a downdate pivot at or below _LOO_PIVOT_TOL sends
    its one point there too. A refit that raises marks its point failed.
    """
    Z, y = _check_labelled(Z, y)
    try:
        delta, pivot = _qda_discriminants(Z, y, 1, collinear_tol=0.0)
    except np.linalg.LinAlgError:
        fit_qda(Z, y)  # raises where even the ridge fails
        delta = pivot = np.zeros(len(y))
    labels, failed = np.where(delta >= 0.0, 1, 2), np.isnan(pivot)
    for i in np.flatnonzero(pivot <= _LOO_PIVOT_TOL):
        try:
            labels[i] = _refit_label(fit_qda, Z, y, i)
        except _REFIT_ERRORS:
            failed[i] = True
    return labels, failed


# ---------------------------------------------------------------------------
# Stacked scoring: one candidate per leading index of a (B, n, d) stack of
# images of the same n training points.  Each scorer returns the (delta,
# pivot) of each image's own fit at its training points, as
# _qda_discriminants does; qda_loo_labels runs that on one (n, d) image.

# A stacked covariance whose Cholesky pivot keeps at most this fraction of
# its diagonal entry is too close to collinear to score in the stack.
_STACK_COLLINEAR_TOL = 1e-6


def _stack_inverse_cholesky(cov, collinear_tol):
    """Inverse Cholesky factors and log-determinants of a (..., d, d) stack.

    Symmetrizes each matrix first, as _invert_spd does.  Raises LinAlgError
    when a factorisation fails or a pivot keeps at most ``collinear_tol`` of
    its diagonal entry; with 0, where _invert_spd takes its ridge.
    """
    cov = (cov + np.swapaxes(cov, -1, -2)) / 2.0
    chol = np.linalg.cholesky(cov)
    pivots = np.diagonal(chol, axis1=-2, axis2=-1)
    if (pivots * pivots <= collinear_tol * np.diagonal(cov, axis1=-2, axis2=-1)).any():
        raise np.linalg.LinAlgError("covariance too close to singular")
    return np.linalg.inv(chol), 2.0 * np.log(pivots).sum(axis=-1)


def _lda_stack_discriminants(Zs, y):
    """(B, n) discriminants of each image's own fit_lda at its training points.

    Refuses what fit_lda refuses; raises LinAlgError as
    _stack_inverse_cholesky does.  Deletes no point, so its pivot is 1.
    """
    n, d = Zs.shape[-2:]
    _check_lda_size(n, d)
    (n1, mu1, S1), (n2, mu2, S2) = _class_moments(Zs, y)
    inv, _ = _stack_inverse_cholesky((S1 + S2) / (n - 2), _STACK_COLLINEAR_TOL)
    direction = np.swapaxes(inv, -1, -2) @ (inv @ (mu1 - mu2)[..., None])
    mid = (mu1 + mu2) / 2.0
    return np.log(n1 / n2) + ((Zs - mid[..., None, :]) @ direction)[..., 0], 1.0


def _qda_discriminants(Zs, y, drop, collinear_tol=_STACK_COLLINEAR_TOL):
    """QDA discriminant of each point under the fit that leaves ``drop`` copies of it out.

    ``Zs`` is one (n, d) image or a (B, n, d) stack; returns (delta, pivot),
    each of shape Zs.shape[:-1], and delta >= 0 where that fit says class 1.
    drop 0 is resubstitution: the pivot is 1 and delta the plain fit_qda
    discriminant.  drop 1 is leave-one-out: deleting a point from class r
    downdates its scatter by a rank-one term with this pivot, and a pivot
    at or below _LOO_PIVOT_TOL marks a point whose delta cannot be trusted.
    Refuses what fit_qda refuses; under drop 1 a class of exactly d + 1
    points, whose refit fit_qda refuses, gets NaN delta and pivot, with no
    warning.  Raises LinAlgError as _stack_inverse_cholesky does.
    """
    d = Zs.shape[-1]
    moments = _class_moments(Zs, y)
    sizes = [nr for nr, _, _ in moments]
    _check_qda_class_sizes(*sizes, d)
    h, log_det_scatter = [], []
    for nr, mu, scatter in moments:
        inv, log_det = _stack_inverse_cholesky(scatter / (nr - 1), collinear_tol)
        # Quadratic form of every point under the inverse scatter matrix.
        v = (Zs - mu[..., None, :]) @ np.swapaxes(inv, -1, -2)
        h.append(np.einsum("...i,...i->...", v, v) / (nr - 1))
        log_det_scatter.append((log_det + d * np.log(nr - 1.0))[..., None])
    delta, pivot = np.full((2, *Zs.shape[:-1]), np.nan)
    for r, s in ((0, 1), (1, 0)):
        nr, ns, idx = sizes[r], sizes[s], y == r + 1
        try:
            _check_qda_class_sizes(nr - drop, ns, d)
        except InvalidDimensionError:
            continue  # the fit without the point refuses its class: NaN marks it
        with np.errstate(divide="ignore", invalid="ignore"):
            c = nr / (nr - drop)
            pivot[..., idx] = piv = 1.0 - drop * c * h[r][..., idx]
            # The class-r pieces of the fit without the point.
            q_r = c * c * (nr - drop - 1) * h[r][..., idx] / piv
            log_det_r = log_det_scatter[r] + np.log(piv) - d * np.log(nr - drop - 1)
            q_s = (ns - 1.0) * h[s][..., idx]
            log_det_s = log_det_scatter[s] - d * np.log(ns - 1.0)
            dr = np.log((nr - drop) / ns) + 0.5 * (log_det_s - log_det_r) + 0.5 * (q_s - q_r)
        delta[..., idx] = dr if r == 0 else -dr
    return delta, pivot


# ---------------------------------------------------------------------------
# k-nearest neighbours


def default_knn_k(n: int) -> int:
    """Neighbour count used when none is requested: max(3, round(sqrt(n)))."""
    return max(3, int(round(np.sqrt(n))))


@dataclass(eq=False)
class KnnModel:
    points: np.ndarray
    labels: np.ndarray
    k: int
    tie_seed: int
    point_ids: np.ndarray

    def predict_many(self, Z):
        return predict_knn_many(self, Z)

    @property
    def d(self):
        return self.points.shape[1]


def fit_knn(Z, y, k=None, tie_seed=0, point_ids=None) -> KnnModel:
    """Store the sample for nearest-neighbour prediction.

    A single-class sample is allowed; prediction then returns the stored
    majority. point_ids give each point a stable identity for the
    tie-break stream, so reordering the sample or deleting points does
    not change how the remaining ties resolve. Defaults to 0..n-1.  The
    model keeps a copy of Z, never a view of a larger stack of images.
    """
    Z, y = _check_labelled(Z, y)
    n = len(y)
    if n == 0:
        raise ShapeMismatchError("nearest-neighbour fit needs at least one point")
    if k is None:
        k = default_knn_k(n)
    if not 1 <= k <= n:
        raise InvalidDimensionError(f"need 1 <= k <= n, got k={k}, n={n}")
    if point_ids is None:
        point_ids = np.arange(n, dtype=np.int64)
    else:
        point_ids = np.asarray(point_ids, dtype=np.int64)
        if point_ids.shape != (n,) or len(np.unique(point_ids)) != n:
            raise ShapeMismatchError("point_ids must be one distinct id per point")
    return KnnModel(points=Z.copy(), labels=y, k=int(k), tie_seed=int(tie_seed), point_ids=point_ids)


def _tie_key(tie_seed, pid, query_bytes):
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<qq", tie_seed, pid))
    h.update(query_bytes)
    return int.from_bytes(h.digest(), "little")


def _knn_class1_counts(D, y, k, tie_seed, point_ids, queries):
    """Number of class-1 points among the k nearest, per query row of D.

    One comparison with each row's k-th smallest distance marks the points
    within it; a row with exactly k such points counts them all.  A row
    with more has exact distance ties straddling the k-th position, and
    only such a row ranks its tied points with a keyed hash of (tie
    stream, point id, query coordinates): a reproducible uniform ordering
    that depends on point identity, not storage position.
    """
    y1 = (y == 1).astype(np.int64)
    kth = np.partition(D, k - 1, axis=1)[:, k - 1]
    within = D <= kth[:, None]
    counts = within @ y1
    for i in np.flatnonzero(np.count_nonzero(within, axis=1) > k):
        strict = np.flatnonzero(D[i] < kth[i])
        tied = np.flatnonzero(D[i] == kth[i])
        qb = np.ascontiguousarray(queries[i], dtype=np.float64).tobytes()
        keys = [_tie_key(tie_seed, int(point_ids[j]), qb) for j in tied]
        chosen = tied[np.argsort(keys, kind="stable")[: k - len(strict)]]
        counts[i] = y1[strict].sum() + y1[chosen].sum()
    return counts


def predict_knn_many(model, Z):
    """Labels for an (m, d) array: class 1 iff at least half the k nearest are class 1."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != model.d:
        raise ShapeMismatchError(f"expected points with {model.d} features")
    from scipy.spatial.distance import cdist  # imported where kNN runs, not at start-up
    k = min(model.k, len(model.labels))
    D = cdist(Z, model.points, "sqeuclidean")
    counts = _knn_class1_counts(D, model.labels, k, model.tie_seed, model.point_ids, Z)
    return np.where(2 * counts >= k, 1, 2).astype(np.int64)


def knn_loo_labels(Z, y, k, tie_seed=0, point_ids=None):
    """Leave-one-out predicted label of each training point under kNN.

    Uses the same k and the same tie-break discipline as prediction;
    deleting a point only removes it from its own neighbour candidates.
    When fewer than k points remain, all of them vote. The inputs are
    checked as fit_knn checks them, with k clamped to n.
    """
    model = fit_knn(Z, y, k=min(k, np.size(y)), tie_seed=tie_seed, point_ids=point_ids)
    Z, y = model.points, model.labels
    n = len(y)
    if n < 2:
        raise InvalidDimensionError("leave-one-out needs at least two points")
    from scipy.spatial.distance import cdist
    k_eff = min(k, n - 1)
    D = cdist(Z, Z, "sqeuclidean")
    np.fill_diagonal(D, np.inf)
    counts = _knn_class1_counts(D, y, k_eff, model.tie_seed, model.point_ids, Z)
    return np.where(2 * counts >= k_eff, 1, 2).astype(np.int64)


# ---------------------------------------------------------------------------
# Uniform fitting interface


@dataclass(frozen=True)
class BaseSpec:
    """Which base classifier to run, plus its nearest-neighbour knobs."""

    kind: str
    k: int | None = None
    tie_seed: int = 0

    def __post_init__(self):
        if self.kind not in BASE_KINDS:
            raise ValueError(f"unknown base classifier: {self.kind!r}")
        if self.kind != "knn" and self.k is not None:
            raise ValueError("k applies only to the nearest-neighbour base")

    def resolve_k(self, n: int) -> int:
        return self.k if self.k is not None else default_knn_k(n)


def fit_base(spec: BaseSpec, Z, y, point_ids=None):
    if spec.kind == "lda":
        return fit_lda(Z, y)
    if spec.kind == "qda":
        return fit_qda(Z, y)
    return fit_knn(Z, y, k=spec.resolve_k(len(y)), tie_seed=spec.tie_seed, point_ids=point_ids)
