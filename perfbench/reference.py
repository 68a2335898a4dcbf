"""Computations that check rpens outputs without calling rpens.

Everything here is written from the definitions (plain numpy, scipy.stats for
the Bayes risk) so that a fault in the program cannot also hide in its check.
"""

from __future__ import annotations

import base64
import json
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Quadratic discriminant analysis


def qda_fit(Z, y):
    """Class priors (as counts), means, inverse covariances, log-determinants."""
    params = {}
    for r in (1, 2):
        Zr = Z[y == r]
        cov = np.cov(Zr, rowvar=False, ddof=1)
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            raise ValueError("class covariance is not positive definite")
        params[r] = (len(Zr), Zr.mean(axis=0), np.linalg.inv(cov), logdet)
    return params


def qda_discriminant(params, Z):
    """log(pi1/pi2) + log N(z; class 1) - log N(z; class 2); >= 0 means class 1."""
    (n1, mu1, inv1, ld1), (n2, mu2, inv2, ld2) = params[1], params[2]
    u1 = Z - mu1
    u2 = Z - mu2
    q1 = np.einsum("ij,jk,ik->i", u1, inv1, u1)
    q2 = np.einsum("ij,jk,ik->i", u2, inv2, u2)
    return np.log(n1 / n2) + 0.5 * (ld2 - ld1) + 0.5 * (q2 - q1)


def qda_loo_errors(Z, y) -> int:
    """Leave-one-out error count by n explicit refits."""
    n = len(y)
    keep = np.ones(n, dtype=bool)
    errors = 0
    for i in range(n):
        keep[i] = False
        params = qda_fit(Z[keep], y[keep])
        keep[i] = True
        label = 1 if qda_discriminant(params, Z[i : i + 1])[0] >= 0.0 else 2
        errors += label != y[i]
    return errors


# ---------------------------------------------------------------------------
# Vote threshold


def threshold_errors(counts, labels, b1: int, t: Fraction) -> int:
    """Training errors of "class 1 iff count/B1 >= t", as an integer count.

    With empirical priors the program's objective is exactly this count
    divided by n.
    """
    below = counts * t.denominator < t.numerator * b1
    return int(np.sum(below & (labels == 1)) + np.sum(~below & (labels == 2)))


def threshold_is_optimal(counts, labels, b1: int, alpha: Fraction) -> bool:
    """alpha attains the minimum over every knot c/B1 and every midpoint."""
    grid = [Fraction(c, b1) for c in range(b1 + 1)]
    grid += [Fraction(2 * c + 1, 2 * b1) for c in range(b1)]
    best = min(threshold_errors(counts, labels, b1, t) for t in grid)
    return 0 < alpha < 1 and threshold_errors(counts, labels, b1, alpha) == best


def labels_from_votes(counts, alpha: Fraction, b1: int):
    return np.where(counts * alpha.denominator >= alpha.numerator * b1, 1, 2)


# ---------------------------------------------------------------------------
# Saved models and CSV files, read from their documented formats


def _array(obj):
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype=obj["dtype"]).reshape(obj["shape"])


def read_qda_model(text):
    """The fields of a saved qda ensemble that the checks use, from its JSON text."""
    obj = json.loads(text)
    for base in obj["base_models"]:
        if base["kind"] != "qda":
            raise ValueError(f"expected a qda base model, got {base['kind']!r}")
    return {
        "B1": obj["config"]["B1"],
        "alpha_hat": Fraction(obj["alpha_hat"]["num"], obj["alpha_hat"]["den"]),
        "projections": [_array(p["entries"]) for p in obj["projections"]],
        "winner_indices": list(obj["winner_indices"]),
        "block_error_counts": _array(obj["block_error_counts"]),
        "train_vote_counts": _array(obj["train_vote_counts"]),
        "train_labels": _array(obj["train_labels"]),
    }


def read_predictions(path):
    """(labels, vote counts) from a predictions CSV."""
    labels, counts = [], []
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    if rows[0].strip() != "row,prediction,vote_fraction":
        raise ValueError(f"unexpected predictions header {rows[0]!r}")
    for i, line in enumerate(rows[1:]):
        row, label, frac = line.strip().split(",")
        if int(row) != i:
            raise ValueError(f"predictions row {i} is numbered {row}")
        labels.append(int(label))
        counts.append(int(frac.split("/")[0]))
    return np.array(labels), np.array(counts, dtype=np.int64)


# ---------------------------------------------------------------------------
# Bayes risk of model 4 as implemented


def model4_bayes_risk(mc_n: int, rng) -> tuple[float, float]:
    """E[min(eta, 1 - eta)] and its standard error, over the 3 signal coordinates.

    Model 4's covariances are block diagonal with the same tail block in both
    classes, and the fixed rotation is orthogonal, so the Bayes rule sees only
    the first three pre-rotation coordinates: N(0, S) against N(1, S + I)
    with S equicorrelated (0.5), equal priors.
    """
    from scipy.stats import multivariate_normal

    S = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
    law1 = multivariate_normal(mean=np.zeros(3), cov=S)
    law2 = multivariate_normal(mean=np.ones(3), cov=S + np.eye(3))
    half = mc_n // 2
    X = np.vstack([law1.rvs(size=half, random_state=rng), law2.rvs(size=mc_n - half, random_state=rng)])
    eta = 1.0 / (1.0 + np.exp(law2.logpdf(X) - law1.logpdf(X)))
    v = np.minimum(eta, 1.0 - eta)
    return float(v.mean()), float(v.std(ddof=1) / np.sqrt(mc_n))
