"""Row-orthonormal random projections.

A projection maps p-dimensional feature vectors to d dimensions through
a d x p matrix A with orthonormal rows (A A^T = I_d). Two samplers are
provided: uniform (rotation-invariant) projections and axis-aligned
projections that pick d distinct coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, ShapeMismatchError

__all__ = ["Projection", "KINDS", "sample_haar", "sample_axis_aligned", "apply", "ORTHONORMALITY_TOL"]

ORTHONORMALITY_TOL = 1e-10

KINDS = ("haar", "axis_aligned")


@dataclass(frozen=True)
class Projection:
    """Immutable row-orthonormal projection matrix.

    Parameters
    ----------
    entries : ndarray of shape (d, p)
        The matrix itself, d <= p. Validated on construction: rows must
        be orthonormal within ``ORTHONORMALITY_TOL``, and axis-aligned
        projections must consist of distinct standard basis vectors.
    kind : str
        Either ``"haar"`` or ``"axis_aligned"``.
    """

    entries: np.ndarray
    kind: str = "haar"

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2:
            raise InvalidDimensionError("projection entries must be a 2-d array")
        d, p = entries.shape
        if d < 1 or d > p:
            raise InvalidDimensionError(f"need 1 <= d <= p, got d={d}, p={p}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown projection kind: {self.kind!r}")
        _check_orthonormal(entries)
        if self.kind == "axis_aligned":
            _check_axis_aligned(entries)
        entries = entries.copy()
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @property
    def p(self) -> int:
        return self.entries.shape[1]

    def apply(self, X: np.ndarray) -> np.ndarray:
        return apply(self, X)


def _check_orthonormal(entries: np.ndarray) -> None:
    """Refuse a (d, p) matrix, or a (k, d, p) stack of them, whose rows are not orthonormal."""
    gram = entries @ np.swapaxes(entries, -1, -2)
    # Written as "not <=" so that a NaN entry fails too.
    if not np.max(np.abs(gram - np.eye(entries.shape[-2]))) <= ORTHONORMALITY_TOL:
        raise ValueError("projection rows are not orthonormal")


def _check_axis_aligned(entries: np.ndarray) -> None:
    d, p = entries.shape
    cols = []
    for row in entries:
        nz = np.flatnonzero(row != 0.0)
        if len(nz) != 1 or row[nz[0]] != 1.0:
            raise ValueError("axis-aligned rows must be standard basis vectors")
        cols.append(nz[0])
    if len(set(cols)) != d:
        raise ValueError("axis-aligned rows must select distinct coordinates")


def sample_haar(p: int, d: int, rng: np.random.Generator) -> Projection:
    """Draw a projection uniformly from the row-orthonormal d x p matrices.

    Fills a d x p matrix with independent standard normals and extracts
    an orthonormal basis of its row space by a thin QR factorisation of
    the transpose, with the sign convention that makes the factorisation
    unique (positive diagonal of the triangular factor). Uniqueness makes
    the map equivariant under right rotation of the Gaussian draw, which
    pins the output distribution to the rotation-invariant one.
    """
    return Projection(entries=_sample_haar_stack(p, d, [rng])[0], kind="haar")


def _sample_haar_stack(p: int, d: int, rngs) -> np.ndarray:
    """The read-only (k, d, p) stack of the matrices sample_haar draws from k generators.

    Every generator draws its own Gaussian, one stacked QR call
    orthonormalises them all and one stacked Gram check refuses the stack
    if any matrix's rows are not orthonormal.  numpy factors each matrix of
    a stack on its own, so matrix i equals sample_haar's from generator i
    bit for bit.  The stack is C-contiguous, so its (k d, p) reshape is a
    view.
    """
    if not 1 <= d <= p:
        raise InvalidDimensionError(f"need 1 <= d <= p, got d={d}, p={p}")
    gauss = np.stack([rng.standard_normal((d, p)) for rng in rngs])
    q, r = np.linalg.qr(np.swapaxes(gauss, -1, -2), mode="reduced")
    del gauss
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    q *= signs[:, None, :]
    stack = np.ascontiguousarray(np.swapaxes(q, -1, -2))
    _check_orthonormal(stack)
    stack.flags.writeable = False
    return stack


def sample_axis_aligned(p: int, d: int, rng: np.random.Generator) -> Projection:
    """Draw a projection onto d distinct coordinates, uniformly without replacement."""
    if not 1 <= d <= p:
        raise InvalidDimensionError(f"need 1 <= d <= p, got d={d}, p={p}")
    coords = rng.choice(p, size=d, replace=False)
    entries = np.zeros((d, p))
    entries[np.arange(d), coords] = 1.0
    return Projection(entries=entries, kind="axis_aligned")


def apply(projection: Projection, X: np.ndarray) -> np.ndarray:
    """Project points into the d-dimensional image space.

    Accepts a single p-vector or an (n, p) array; returns a d-vector or
    an (n, d) array whose row i is A x_i.
    """
    X = np.asarray(X, dtype=np.float64)
    stack = projection.entries[None]
    if X.ndim == 1:
        return _apply_stack(stack, X[None, :])[0, 0]
    return _apply_stack(stack, X)[0]


def _apply_stack(stack: np.ndarray, X: np.ndarray, out=None) -> np.ndarray:
    """Project an (n, p) array by a (k, d, p) stack of matrices with one matrix product.

    Computes X @ S.T, where S is the (k d, p) reshape of the stack (a view
    when the stack is C-contiguous), into ``out`` when it is given (a
    C-contiguous (n, k d) float64 array), and returns the (k, n, d) view of
    the product whose [i] is matrix i's image.  Nothing else is allocated,
    so a caller that runs this on another thread can allocate ``out``
    itself.  An image is C-contiguous only when k is 1, and a consumer that
    needs a contiguous stack copies the images it reads.  Each equals its
    own product X @ A.T except that BLAS may move the last bits with the
    shape of the product.
    """
    X = np.asarray(X, dtype=np.float64)
    k, d, p = stack.shape
    if X.ndim != 2 or X.shape[1] != p:
        raise ShapeMismatchError(f"expected points with {p} features, got shape {X.shape}")
    image = np.matmul(X, stack.reshape(k * d, p).T, out=out)
    return image.reshape(X.shape[0], k, d).swapaxes(0, 1)
