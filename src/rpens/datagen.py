"""Benchmark distributions, density oracles and labelled-data loading.

Four two-class sampling models are built in. Each supplies exact
class-conditional log densities, which makes the regression function
and hence the Bayes risk computable by Monte Carlo without fitting
anything.

Model 1: class 1 has independent standard Laplace coordinates; class 2
is Gaussian with mean mean_shift in every coordinate.

Model 2: both classes are multivariate t distributions (constructed as
mu + Z / sqrt(U / dof)) with one degree of freedom for class 1 and two
for class 2; class 2 is shifted by 2 in the first five coordinates and
equicorrelated (0.5) within them.

Model 3: class 1 is a symmetric two-component Gaussian mixture with
component means +/- 1 in the first five coordinates; class 2 has
independent standard Cauchy coordinates there and standard Gaussian
coordinates elsewhere.

Model 4: both classes are Gaussian with block-structured covariances,
rotated by a fixed p x p rotation drawn once from rotation_seed. The
class signal lives in the first three pre-rotation coordinates. A draw
is one matrix product: standard normals times the cached factor
(R L_r)^T, plus the rotated mean R mu_r, where L_r is the Cholesky
factor of class r's covariance. Its values differ in the last bits from
versions that formed (mu_r + Z L_r^T) R^T with two products; model 1-3
samples do not.

A sample is drawn from one generator: the labels, then the features
into an array allocated with them. Model 4 draws its classes in class
order through one buffer as tall as the larger class: class 1's normals
in the buffer and its product in the sample's first rows, class 2's
normals in the other rows and its product in the buffer. The rows then
move into label order. The products and the move draw nothing, so a
caller may run them on another thread, class 1's beside class 2's
normals. A draw holds the sample and that buffer, and its values are
those of one product per class, bit for bit.

``sample``, ``log_density``, ``eta``, ``bayes_risk`` and the cached model
factors run the bundled OpenBLAS on one thread and restore the caller's
thread count on return, so a seeded sample and its densities are the
same whatever that count.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain

import numpy as np
from scipy.special import gammaln, log_expit

from . import _blas
from .errors import DataFormatError
from .projections import sample_haar
from .rng import make_rng

__all__ = [
    "ModelSpec",
    "LabelledSample",
    "sample",
    "log_density",
    "eta",
    "bayes_risk",
    "load_labelled_csv",
]

_CHUNK = 1 << 17


@dataclass(frozen=True)
class ModelSpec:
    """One of the built-in sampling models, fully determined by scalars."""

    model_id: int
    p: int = 50
    pi_1: float = 0.5
    mean_shift: float = 0.125
    dof: tuple[int, int] = (1, 2)
    rotation_seed: int = 0

    def __post_init__(self):
        if self.model_id not in (1, 2, 3, 4):
            raise ValueError(f"unknown model id: {self.model_id}")
        if not 0.0 < self.pi_1 < 1.0:
            raise ValueError("pi_1 must lie strictly between 0 and 1")
        min_p = {1: 1, 2: 5, 3: 5, 4: 4}[self.model_id]
        if self.p < min_p:
            raise ValueError(f"model {self.model_id} needs p >= {min_p}")
        if self.model_id == 2 and (len(self.dof) != 2 or min(self.dof) < 1):
            raise ValueError("dof must be two positive integers")


@dataclass(eq=False)
class LabelledSample:
    X: np.ndarray
    y: np.ndarray | None
    eta: np.ndarray | None = None


def _equicorrelated(size: int, off_diagonal: float = 0.5) -> np.ndarray:
    out = np.full((size, size), off_diagonal)
    np.fill_diagonal(out, 1.0)
    return out


@lru_cache(maxsize=None)
@_blas.single_thread
def _derived(spec: ModelSpec) -> dict:
    """Means, covariance factorisations and the fixed rotation, cached."""
    p = spec.p
    out: dict = {}
    if spec.model_id == 1:
        out["mu2"] = np.full(p, spec.mean_shift)
    elif spec.model_id == 2:
        mu2 = np.zeros(p)
        mu2[:5] = 2.0
        out["mu"] = (np.zeros(p), mu2)
        sigma2 = np.eye(p)
        sigma2[:5, :5] = _equicorrelated(5)
        out["sigma"] = (np.eye(p), sigma2)
        out["chol"] = tuple(np.linalg.cholesky(s) for s in out["sigma"])
    elif spec.model_id == 3:
        mu1 = np.zeros(p)
        mu1[:5] = 1.0
        out["mu1"] = mu1
    else:
        mu2 = np.zeros(p)
        mu2[:3] = 1.0
        out["mu"] = (np.zeros(p), mu2)
        tail = _equicorrelated(p - 3)
        sigmas = []
        for r in (1, 2):
            sigma = np.zeros((p, p))
            head = _equicorrelated(3)
            if r == 2:
                head = head + np.eye(3)
            sigma[:3, :3] = head
            sigma[3:, 3:] = tail
            sigmas.append(sigma)
        out["sigma"] = tuple(sigmas)
        R = sample_haar(p, p, make_rng(spec.rotation_seed, "rotation")).entries
        out["rotation"] = R
        # Each Cholesky factor is dropped once (R L_r)^T is built, so the
        # cache holds no p x p array that sampling does not read.
        out["rotated_mu"] = tuple(R @ mu for mu in out["mu"])
        out["factor"] = tuple((R @ np.linalg.cholesky(s)).T for s in sigmas)
    if "sigma" in out:
        out["inv"] = tuple(np.linalg.inv(s) for s in out["sigma"])
        out["log_det"] = tuple(float(np.linalg.slogdet(s)[1]) for s in out["sigma"])
    return out


def _sample_class(spec: ModelSpec, r: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of class r of model 1, 2 or 3 (``_fill_steps`` draws model 4)."""
    p = spec.p
    der = _derived(spec)
    if spec.model_id == 1:
        if r == 1:
            return rng.laplace(0.0, 1.0, size=(n, p))
        return der["mu2"] + rng.standard_normal((n, p))
    if spec.model_id == 2:
        mu = der["mu"][r - 1]
        chol = der["chol"][r - 1]
        dof = spec.dof[r - 1]
        z = rng.standard_normal((n, p)) @ chol.T
        u = rng.chisquare(dof, size=n)
        return mu + z / np.sqrt(u / dof)[:, None]
    if r == 1:
        signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        return signs[:, None] * der["mu1"] + rng.standard_normal((n, p))
    X = rng.standard_normal((n, p))
    X[:, :5] = rng.standard_cauchy((n, 5))
    return X


def _start_sample(spec: ModelSpec, n: int, rng: np.random.Generator) -> tuple:
    """Draw n labels; return them, the empty (n, p) feature array and the
    iterator that fills it (through a buffer allocated here, for model 4)."""
    y = np.where(rng.random(n) < spec.pi_1, 1, 2).astype(np.int64)
    n1 = int(np.count_nonzero(y == 1))
    Z = np.empty((max(n1, n - n1), spec.p)) if spec.model_id == 4 else None
    X = np.empty((n, spec.p))
    return y, X, _fill_steps(spec, y, X, Z, rng)


def _fill_steps(spec: ModelSpec, y: np.ndarray, X: np.ndarray, Z, rng: np.random.Generator):
    """Draw the features of labels y into X, class 1's before class 2's.

    The iteration draws from rng; for model 4 it yields calls that finish
    the draw. They draw nothing, so they may lag the iteration, and must
    run in yield order on any one thread."""
    if Z is None:
        for r in (1, 2):
            mask = y == r
            X[mask] = _sample_class(spec, r, int(mask.sum()), rng)  # an empty class draws nothing
        return
    der = _derived(spec)
    rows1 = np.flatnonzero(y == 1)
    n1, n2 = len(rows1), len(y) - len(rows1)
    # Class 1's normals go in Z and its product in X's first n1 rows; class
    # 2's normals go in X's other rows and its product in Z.
    for r, z, out in ((1, Z[:n1], X[:n1]), (2, X[n1:], Z[:n2])):
        rng.standard_normal(out=z)
        yield partial(np.matmul, z, der["factor"][r - 1], out=out)
        yield partial(np.add, out, der["rotated_mu"][r - 1], out=out)
    yield partial(_to_label_order, X, Z[:n2], y, rows1)


def _to_label_order(X: np.ndarray, class2: np.ndarray, y: np.ndarray, rows1: np.ndarray) -> None:
    """Move class 1's rows down from X's first rows, and class 2's in from class2."""
    # Row j of class 1 moves down to rows1[j] >= j, the last rows first and
    # about 1 MB at a time; numpy copies a source that overlaps its target.
    step = 1 + _CHUNK // X.shape[1]
    for stop in range(len(rows1), 0, -step):
        start = max(stop - step, 0)
        X[rows1[start:stop]] = X[start:stop]
    X[y == 2] = class2


@_blas.single_thread
def sample(spec: ModelSpec, n: int, rng: np.random.Generator, with_eta: bool = False) -> LabelledSample:
    """Draw n labelled points: labels first, then class-conditional features."""
    y, X, calls = _start_sample(spec, n, rng)
    for call in calls:
        call()
    call = calls = None  # and the buffer of normals they hold, before eta
    return LabelledSample(X=X, y=y, eta=eta(spec, X) if with_eta else None)


def _gauss_log_density(X, mu, inv=None, log_det=0.0):
    diff = X - mu
    if inv is None:
        q = np.einsum("ij,ij->i", diff, diff)
    else:
        q = np.einsum("ij,ij->i", diff @ inv, diff)
    p = X.shape[1]
    return -0.5 * (p * math.log(2.0 * math.pi) + log_det + q)


def _t_log_density(X, mu, inv, log_det, dof):
    p = X.shape[1]
    diff = X - mu
    q = np.einsum("ij,ij->i", diff @ inv, diff)
    const = (
        gammaln((dof + p) / 2.0)
        - gammaln(dof / 2.0)
        - 0.5 * p * math.log(dof * math.pi)
        - 0.5 * log_det
    )
    return const - 0.5 * (dof + p) * np.log1p(q / dof)


def _laplace_log_density(X):
    return -X.shape[1] * math.log(2.0) - np.abs(X).sum(axis=1)


def _cauchy_log_density(X):
    return -X.shape[1] * math.log(math.pi) - np.log1p(X * X).sum(axis=1)


def _density_rows(spec: ModelSpec, X):
    """(rows, single): X as float64 (n, p) rows, and whether it was one p-vector.

    For model 4 the rows are rotated back, X R, once for both classes.
    """
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != spec.p:
        raise ValueError(f"expected {spec.p} features, got {X.shape[1]}")
    if spec.model_id == 4:
        X = X @ _derived(spec)["rotation"]
    return X, single


def _class_log_density(spec: ModelSpec, r: int, X) -> np.ndarray:
    """Class r's log density at each of the rows that _density_rows gives."""
    der = _derived(spec)
    if spec.model_id == 1:
        return _laplace_log_density(X) if r == 1 else _gauss_log_density(X, der["mu2"])
    if spec.model_id == 2:
        return _t_log_density(
            X, der["mu"][r - 1], der["inv"][r - 1], der["log_det"][r - 1], spec.dof[r - 1]
        )
    if spec.model_id == 3:
        if r == 1:
            a = _gauss_log_density(X, der["mu1"])
            b = _gauss_log_density(X, -der["mu1"])
            return np.logaddexp(a, b) - math.log(2.0)
        return _cauchy_log_density(X[:, :5]) + _gauss_log_density(X[:, 5:], 0.0)
    return _gauss_log_density(X, der["mu"][r - 1], der["inv"][r - 1], der["log_det"][r - 1])


@_blas.single_thread
def log_density(spec: ModelSpec, r: int, X) -> np.ndarray:
    """Class-conditional log density of class r at each row of X.

    Accepts a single p-vector or an (n, p) array and returns a scalar or
    an (n,) array accordingly.
    """
    if r not in (1, 2):
        raise ValueError("class label must be 1 or 2")
    X, single = _density_rows(spec, X)
    out = _class_log_density(spec, r, X)
    return out[0] if single else out


@_blas.single_thread
def eta(spec: ModelSpec, X) -> np.ndarray:
    """Posterior probability of class 1 at each row of X."""
    X, single = _density_rows(spec, X)
    margin = (
        math.log(spec.pi_1)
        + _class_log_density(spec, 1, X)
        - math.log(1.0 - spec.pi_1)
        - _class_log_density(spec, 2, X)
    )
    out = np.exp(log_expit(margin))
    return out[0] if single else out


@_blas.single_thread
def bayes_risk(spec: ModelSpec, mc_n: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo estimate of E[min(eta, 1 - eta)] with its standard error.

    Feature vectors are drawn from the marginal law (labels included, so
    the estimate averages over the true mixture), in fixed-size chunks
    to bound memory at large mc_n.
    """
    if mc_n < 2:
        raise ValueError("need at least two Monte Carlo draws")
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < mc_n:
        m = min(_CHUNK, mc_n - done)
        drawn = sample(spec, m, rng, with_eta=True)
        v = np.minimum(drawn.eta, 1.0 - drawn.eta)
        total += float(v.sum())
        total_sq += float((v * v).sum())
        done += m
    mean = total / mc_n
    var = max(total_sq / mc_n - mean * mean, 0.0) * mc_n / (mc_n - 1)
    return mean, math.sqrt(var / mc_n)


# ---------------------------------------------------------------------------
# CSV loading


# csv.reader and float() agree with np.loadtxt on a file without these: a
# quote may hide a comma or a line break, and loadtxt strips the ASCII
# separators \x1c-\x1f around a number where float() refuses them.
_SLOW_PATH_CHARS = '"\x1c\x1d\x1e\x1f'


def load_labelled_csv(path, *, require_label: bool = True) -> LabelledSample:
    """Read a labelled dataset from CSV.

    Schema: UTF-8, a header row whose first column is named ``label``,
    labels in {1, 2} in the first column, and at least one feature
    column of finite numbers with '.' as the decimal mark. A leading
    byte-order mark is ignored. Lines whose first character is '#' are
    ignored, so files written by this package read back in; a '#'
    anywhere else is part of a cell. Violations raise DataFormatError
    naming the offending line.

    With ``require_label=False`` the ``label`` column is optional: when
    the header's first column is not ``label``, every column is a feature
    and the returned ``y`` is None.

    A well-formed file is streamed line by line through numpy's C reader,
    so its text is never held whole in memory. Anything else (a bad
    label, a quote, a cell numpy refuses, a ragged or non-finite row) is
    read again cell by cell, one row at a time, which raises the error of
    the first bad line in file order, naming the line and column, or
    accepts the few cells ``float()`` takes and numpy does not (such as
    ``1_0``) with the same result.
    """
    parsed = _parse_well_formed(path, require_label)
    return parsed if parsed is not None else _parse_cells(path, require_label)


def _open_csv(path):
    # utf-8-sig drops a leading byte-order mark; newline="" ends lines at \n, \r\n or \r
    try:
        return open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataFormatError(f"cannot open {path}: {exc}")


def _feature_rows(handle, require_label: bool, header: list, labels: list):
    """Yield each data row's feature text, fill ``header`` and append each
    row's label (None without a label column) to ``labels``. Raise
    ValueError at a line that needs the cell-by-cell parse."""
    for line in handle:
        if any(c in line for c in _SLOW_PATH_CHARS):
            raise ValueError
        line = line.rstrip("\r\n")
        if not line or line.startswith("#"):
            continue
        if not header:
            header.extend(line.split(","))
            labelled = header[0].strip() == "label"
            if require_label and not labelled:
                raise ValueError
            continue
        label = None
        if labelled:
            label, _, line = line.partition(",")
            label = label.strip()
            # loadtxt skips empty lines; the shape check after it catches
            # any other row it reads differently.
            if label not in ("1", "2") or not line:
                raise ValueError
        labels.append(label)
        yield line


def _parse_well_formed(path, require_label: bool) -> LabelledSample | None:
    """The file streamed through ``np.loadtxt``, or None when anything looks wrong."""
    header, labels = [], []
    with _open_csv(path) as handle:
        rows = _feature_rows(handle, require_label, header, labels)
        try:
            first = next(rows, None)  # loadtxt warns on an input without rows
            if first is None:
                return None
            X = np.loadtxt(chain((first,), rows), delimiter=",", comments=None, ndmin=2)
        except ValueError:  # a UnicodeDecodeError is one
            return None
    labelled = header[0].strip() == "label"
    if X.shape != (len(labels), len(header) - labelled) or not np.isfinite(X).all():
        return None
    return LabelledSample(X=X, y=np.array(labels, dtype=np.int64) if labelled else None)


def _parse_cells(path, require_label: bool) -> LabelledSample:
    """Cell-by-cell parse with ``csv.reader`` and ``float()`` in one pass:
    each row is checked and appended to one float buffer as it is read, so
    no cell text outlives its row and X is a view of that buffer."""
    header = None
    labels = []
    values = array("d")
    with _open_csv(path) as handle:
        reader = csv.reader(handle)
        try:
            for row in reader:
                # a quoted line break makes a record span lines; name its last
                line_no = reader.line_num
                if not row or row[0].startswith("#"):
                    continue
                if header is None:
                    header = row
                    labelled = header[0].strip() == "label"
                    k = int(labelled)  # index of the first feature column
                    if require_label and not labelled:
                        raise DataFormatError(
                            f"{path}:{line_no}: first header column must be 'label'"
                        )
                    if labelled and len(header) < 2:
                        raise DataFormatError(f"{path}:{line_no}: no feature columns")
                    continue
                if len(row) != len(header):
                    raise DataFormatError(
                        f"{path}:{line_no}: expected {len(header)} columns, got {len(row)}"
                    )
                if labelled:
                    label = row[0].strip()
                    if label not in ("1", "2"):
                        raise DataFormatError(f"{path}:{line_no}: label must be 1 or 2, got {label!r}")
                    labels.append(int(label))
                for name, cell in zip(header[k:], row[k:]):
                    try:
                        value = float(cell)
                    except ValueError:
                        raise DataFormatError(
                            f"{path}:{line_no}: non-numeric value {cell!r} in column {name!r}"
                        )
                    # float() accepts 'nan' and 'inf'
                    if not math.isfinite(value):
                        raise DataFormatError(
                            f"{path}:{line_no}: non-finite value {cell!r} in column {name!r}"
                        )
                    values.append(value)
        except (UnicodeDecodeError, csv.Error) as exc:
            # a file that is not UTF-8, or a cell over csv's field size limit
            raise DataFormatError(f"{path}: {exc}") from None
    if header is None:
        raise DataFormatError(f"{path}: missing header row")
    if not values:
        raise DataFormatError(f"{path}: no data rows")
    X = np.frombuffer(values).reshape(-1, len(header) - k)
    return LabelledSample(X=X, y=np.array(labels, dtype=np.int64) if labelled else None)
