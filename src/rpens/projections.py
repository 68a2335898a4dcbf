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
        gram = entries @ entries.T
        # Written as "not <=" so that a NaN entry fails too.
        if not np.max(np.abs(gram - np.eye(d))) <= ORTHONORMALITY_TOL:
            raise ValueError("projection rows are not orthonormal")
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
    return _sample_haar_stack(p, d, [rng])[0]


def _sample_haar_stack(p: int, d: int, rngs) -> list:
    """One Haar projection per generator, as sample_haar draws it from each.

    Every generator draws its own Gaussian, and one stacked QR call
    orthonormalises them all.  numpy factors each matrix of a stack on its
    own, so each projection equals sample_haar's from the same generator
    bit for bit.
    """
    if not 1 <= d <= p:
        raise InvalidDimensionError(f"need 1 <= d <= p, got d={d}, p={p}")
    gauss = np.stack([rng.standard_normal((d, p)) for rng in rngs])
    q, r = np.linalg.qr(np.swapaxes(gauss, -1, -2), mode="reduced")
    del gauss
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    q *= signs[:, None, :]
    return [Projection(entries=a, kind="haar") for a in np.swapaxes(q, -1, -2)]


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
    if X.ndim == 1:
        return next(_apply_stack([projection], X[None, :]))[0]
    return next(_apply_stack([projection], X))


def _apply_stack(projections, X: np.ndarray):
    """Project an (n, p) array by several projections with one matrix product.

    Stacks the projections' entries into one matrix S and computes
    X @ S.T once.  Returns an iterator over one C-contiguous (n, d) array
    per projection, each copied out of the product only when it is asked
    for, so a consumer that drops each image in turn never holds a second
    copy of the whole product.  Each equals its own product X @ A.T except
    that BLAS may move the last bits with the shape of the product.
    """
    X = np.asarray(X, dtype=np.float64)
    for proj in projections:
        if X.ndim != 2 or X.shape[1] != proj.p:
            raise ShapeMismatchError(
                f"expected points with {proj.p} features, got shape {X.shape}"
            )
    image = X @ np.concatenate([proj.entries for proj in projections]).T
    ends = np.cumsum([proj.d for proj in projections])
    return (
        np.ascontiguousarray(image[:, end - proj.d:end])
        for proj, end in zip(projections, ends)
    )
