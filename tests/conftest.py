"""Shared fixtures for the test suite."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def synthetic_csv() -> Path:
    return DATA_DIR / "synthetic.csv"


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def make_blobs(n_per: int, p: int, gap: float, seed: int):
    """Two spherical Gaussian classes separated along the first coordinate."""
    gen = np.random.default_rng(seed)
    x1 = gen.normal(size=(n_per, p))
    x2 = gen.normal(size=(n_per, p))
    x1[:, 0] -= gap / 2.0
    x2[:, 0] += gap / 2.0
    X = np.vstack([x1, x2])
    y = np.array([1] * n_per + [2] * n_per, dtype=np.int64)
    order = gen.permutation(2 * n_per)
    return X[order], y[order]


# Brute-force oracles for ensemble.estimate_alpha.


def alpha_objective(vote_counts, labels, b1, t, priors=None) -> Fraction:
    """Exact value of the threshold objective at ``t``."""
    counts = np.asarray(vote_counts, dtype=np.int64).tolist()
    labels = np.asarray(labels, dtype=np.int64).tolist()
    n1 = sum(1 for lab in labels if lab == 1)
    n2 = len(labels) - n1
    if priors is None:
        pi_1 = Fraction(n1, n1 + n2)
    else:
        pi_1 = Fraction(priors[0])
    t = Fraction(t)
    below1 = sum(1 for c, lab in zip(counts, labels)
                 if lab == 1 and Fraction(c, b1) < t)
    below2 = sum(1 for c, lab in zip(counts, labels)
                 if lab == 2 and Fraction(c, b1) < t)
    return pi_1 * Fraction(below1, n1) + (1 - pi_1) * (1 - Fraction(below2, n2))


def alpha_candidates(vote_counts, b1):
    """Finite grid guaranteed to contain a minimizer of the objective."""
    fracs = sorted({Fraction(int(c), b1) for c in np.asarray(vote_counts)})
    cands = {Fraction(1, 2 * b1), Fraction(1)}
    cands.update(fracs)
    cands.update(
        (a + b) / 2 for a, b in zip(fracs, fracs[1:])
    )
    return sorted(cands)
