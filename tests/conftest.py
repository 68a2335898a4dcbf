"""Shared fixtures for the test suite."""

import base64
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rpens import base_classifiers as bc
from rpens.errors import InvalidDimensionError, SingularCovarianceError

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


def count_loo_refits(monkeypatch):
    """Indices of the points qda_loo_labels sends to an explicit refit."""
    calls = []
    refit = bc._refit_label

    def counting(fit, Z, y, i):
        if fit is bc.fit_qda:
            calls.append(int(i))
        return refit(fit, Z, y, i)

    monkeypatch.setattr(bc, "_refit_label", counting)
    return calls


def assert_equals_explicit_qda_refits(Z, y, labels, failed):
    """Each leave-one-out label and failure is what fit_qda without the point gives."""
    for i in range(len(y)):
        keep = np.arange(len(y)) != i
        try:
            model = bc.fit_qda(Z[keep], y[keep])
        except (SingularCovarianceError, InvalidDimensionError):
            assert failed[i], i
            continue
        assert not failed[i], i
        assert labels[i] == model.predict_many(Z[i][None, :])[0], i


def rank_deficient_sample():
    """12 labelled points in 5 dimensions on which most lda fits are singular.

    Columns 0 and 1 are constant within each class, columns 2 and 3 are
    equal with integer moments, and column 4 is noise.  On a pair of
    coordinates the pooled covariance has an exactly zero Cholesky pivot
    unless the pair is {2, 4} or {3, 4}; on {0, 1} it is zero, beyond the
    ridge fallback.
    """
    c = np.array([-1.0, 0.0, 1.0, -1.0, 0.0, 1.0, 4.0, 5.0, 6.0, 4.0, 5.0, 6.0])
    y = np.array([1] * 6 + [2] * 6, dtype=np.int64)
    noise = np.random.default_rng(90).normal(size=12)
    X = np.stack([np.where(y == 1, 0.0, 1.0), np.where(y == 1, 2.0, -1.0), c, c, noise], axis=1)
    return X, y


def pooled_covariance(Z, y):
    """Pooled within-class covariance of (Z, y), divisor n - 2."""
    dev = np.concatenate([Z[y == r] - Z[y == r].mean(axis=0) for r in (1, 2)])
    return dev.T @ dev / (len(y) - 2)


# Independent discriminants and boundary rows for the prediction guards.


def lda_discriminant(model, Z):
    """log(pi_1 / pi_2) + (z - mid) @ omega (mu_1 - mu_2) for each row z of Z."""
    w = model.omega_hat @ (model.mu_hat_1 - model.mu_hat_2)
    mid = (model.mu_hat_1 + model.mu_hat_2) / 2.0
    return (Z - mid) @ w + np.log(model.pi_hat_1 / model.pi_hat_2)


def qda_discriminant(model, Z):
    """The qda discriminant of each row of Z, each quadratic form by einsum's scalar loop."""
    q1, q2 = (
        np.einsum("ij,jk,ik->i", Z - mu, omega, Z - mu)
        for mu, omega in ((model.mu_hat_1, model.omega_hat_1), (model.mu_hat_2, model.omega_hat_2))
    )
    const = np.log(model.pi_hat_1 / model.pi_hat_2) + 0.5 * (model.log_det_2 - model.log_det_1)
    return const + 0.5 * (q2 - q1)


def boundary_points(discriminant, start, end):
    """Rows within one rounding step of the boundary of ``discriminant``.

    Bisects each segment from a row of ``start`` (discriminant >= 0) to the
    row of ``end`` (discriminant < 0) down to two adjacent points, and
    returns the class-1 side of even segments and the class-2 side of odd
    ones.
    """
    assert (discriminant(start) >= 0.0).all() and (discriminant(end) < 0.0).all()
    lo, hi = np.zeros(len(start)), np.ones(len(start))
    for _ in range(64):
        s = (lo + hi) / 2.0
        class1 = discriminant(start + s[:, None] * (end - start)) >= 0.0
        lo, hi = np.where(class1, s, lo), np.where(class1, hi, s)
    side = np.where(np.arange(len(start)) % 2 == 0, lo, hi)
    return start + side[:, None] * (end - start)


def spy_rows(monkeypatch, name, position):
    """Row counts of argument ``position`` in each call of base_classifiers.<name> from now on."""
    seen = []
    original = getattr(bc, name)

    def spying(*args):
        seen.append(len(args[position]))
        return original(*args)

    monkeypatch.setattr(bc, name, spying)
    return seen


# Per base: fit, independent discriminant, and the function of the exact
# path with the position of its rows argument and its calls per predict.
EXACT_PATHS = {
    "lda": (bc.fit_lda, lda_discriminant, ("_lda_discriminant", 1), 1),
    "qda": (bc.fit_qda, qda_discriminant, ("_loop_forms", 0), 2),
}


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


def _edit(change):
    """Damage that applies ``change`` to the parsed container of a model file."""

    def damage(text: str) -> bytes:
        obj = json.loads(text)
        change(obj)
        return json.dumps(obj).encode("ascii")

    return damage


def _array_record(a):
    data = base64.b64encode(a.tobytes()).decode("ascii")
    return {"shape": list(a.shape), "dtype": a.dtype.str, "data": data}


def _set_array(key, make):
    """Damage that replaces the top-level array ``key`` by ``make(n, B1, B2, block_m)``."""

    def change(o):
        n = o["train_labels"]["shape"][0]
        o[key] = _array_record(make(n, o["config"]["B1"], o["config"]["B2"], o["block_m"]))

    return _edit(change)


def _set_base_array(key, a):
    return _edit(lambda o: o["base_models"][0].update({key: _array_record(a)}))


def _decoded(record):
    a = np.frombuffer(base64.b64decode(record["data"]), dtype=record["dtype"])
    return a.reshape(record["shape"])


def _negate_base_arrays(key):
    """Damage that negates the array ``key`` of every base model."""

    def change(o):
        for record in o["base_models"]:
            record[key] = _array_record(-_decoded(record[key]))

    return _edit(change)


def _fail_every_candidate_of_block_0(o):
    """Mark block 0's candidates failed (-1) and leave its winner index at 0."""
    counts = _decoded(o["block_error_counts"]).copy()
    counts[0] = -1
    o["block_error_counts"] = _array_record(counts)
    o["winner_indices"][0] = 0


# Ways to damage the text of a saved lda model (d=2, p=5, B1 >= 2), each of
# which loading must refuse as a data error.
DAMAGED_MODELS = {
    "missing_base_model_key": _edit(lambda o: o["base_models"][0].pop("pi_hat_1")),
    "extra_base_model_key": _edit(lambda o: o["base_models"][0].update(extra=0.5)),
    "missing_top_level_key": _edit(lambda o: o.pop("block_m")),
    "top_level_list": lambda text: b"[]",
    "fewer_base_models_than_B1": _edit(lambda o: o["base_models"].pop()),
    "truncated_array": _edit(
        lambda o: o["projections"][0]["entries"].update(
            data=o["projections"][0]["entries"]["data"][:-7]
        )
    ),
    "wrongly_typed_config_value": _edit(lambda o: o["config"].update(B1=str(o["config"]["B1"]))),
    "extra_config_key": _edit(lambda o: o["config"].update(threads=1)),
    "non_ascii_bytes": lambda text: text.encode("ascii").replace(b'"lda"', b'"l\xe9a"', 1),
    "zero_denominator": _edit(lambda o: o["alpha_hat"].update(den=0)),
    "base_kind_differs_from_config": _edit(lambda o: o["base_models"][0].update(kind="qda")),
    "alpha_hat_of_one": _edit(lambda o: o["alpha_hat"].update(num=o["alpha_hat"]["den"])),
    "boolean_config_value": _edit(lambda o: o["config"].update(B2=True)),
    "fewer_winners_than_B1": _edit(lambda o: o["winner_indices"].pop()),
    "projection_of_other_p": _edit(
        lambda o: o["projections"][1].update(entries=_array_record(np.eye(2, 4)))
    ),
    "base_model_of_other_d": _edit(
        lambda o: o["base_models"][0].update(mu_hat_1=_array_record(np.zeros(3)))
    ),
    "base_model_without_d": _edit(
        lambda o: o["base_models"][0].update(mu_hat_1=_array_record(np.zeros(())))
    ),
    "omega_hat_of_other_d": _set_base_array("omega_hat", np.eye(3)),
    "sigma_hat_of_other_d": _set_base_array("sigma_hat", np.eye(3)),
    "mu_hat_2_of_other_d": _set_base_array("mu_hat_2", np.zeros(3)),
    "integer_omega_hat": _set_base_array("omega_hat", np.eye(2, dtype=np.int64)),
    "short_float_train_labels": _set_array("train_labels", lambda n, b1, b2, m: np.ones(3)),
    "train_labels_of_other_length": _set_array(
        "train_labels", lambda n, b1, b2, m: np.ones(n - 1, dtype=np.int64)
    ),
    "train_label_of_3": _set_array(
        "train_labels", lambda n, b1, b2, m: np.arange(n, dtype=np.int64) % 2 + 2
    ),
    "train_labels_of_one_class": _set_array(
        "train_labels", lambda n, b1, b2, m: np.ones(n, dtype=np.int64)
    ),
    "float_train_vote_counts": _set_array("train_vote_counts", lambda n, b1, b2, m: np.zeros(n)),
    "train_vote_count_above_B1": _set_array(
        "train_vote_counts", lambda n, b1, b2, m: np.full(n, b1 + 1, dtype=np.int64)
    ),
    "block_error_counts_of_other_shape": _set_array(
        "block_error_counts", lambda n, b1, b2, m: np.zeros((b1, b2 + 1), dtype=np.int64)
    ),
    "block_error_count_below_minus_one": _set_array(
        "block_error_counts", lambda n, b1, b2, m: np.full((b1, b2), -2, dtype=np.int64)
    ),
    "block_error_count_above_block_m": _set_array(
        "block_error_counts", lambda n, b1, b2, m: np.full((b1, b2), m + 1, dtype=np.int64)
    ),
    "winner_index_of_B2": _edit(lambda o: o["winner_indices"].__setitem__(0, o["config"]["B2"])),
    "negative_winner_index": _edit(lambda o: o["winner_indices"].__setitem__(0, -1)),
    "block_m_of_zero": _edit(lambda o: o.update(block_m=0)),
    "block_m_of_other_n": _edit(lambda o: o.update(block_m=o["block_m"] + 7)),
    "winner_not_first_minimum": _edit(lambda o: o.update(
        winner_indices=[(w + 1) % o["config"]["B2"] for w in o["winner_indices"]]
    )),
    # No fit writes a block with no scored candidate: it raises instead.
    "every_candidate_failed": _edit(_fail_every_candidate_of_block_0),
    # json.loads accepts the NaN and Infinity literals that json.dumps writes.
    "nan_prior": _edit(lambda o: o["base_models"][0].update(pi_hat_1=float("nan"))),
    "infinite_prior": _edit(lambda o: o["base_models"][1].update(pi_hat_2=float("inf"))),
    "negative_prior": _edit(lambda o: o["base_models"][0].update(pi_hat_1=-3.0)),
    "prior_of_one": _edit(lambda o: o["base_models"][0].update(pi_hat_2=1.0)),
    "nan_in_mu_hat_1": _set_base_array("mu_hat_1", np.array([0.5, np.nan])),
    "infinite_sigma_hat": _set_base_array("sigma_hat", np.array([[np.inf, 0.0], [0.0, 1.0]])),
    # Precisions that no positive definite covariance has: negating every
    # omega_hat would otherwise reverse every prediction.
    "negated_omega_hats": _negate_base_arrays("omega_hat"),
    "asymmetric_sigma_hat": _set_base_array("sigma_hat", np.array([[1.0, 0.5], [0.0, 1.0]])),
    "indefinite_omega_hat": _set_base_array("omega_hat", np.array([[1.0, 2.0], [2.0, 1.0]])),
    "nan_in_projection": _edit(
        lambda o: o["projections"][0].update(entries=_array_record(np.full((2, 5), np.nan)))
    ),
}


# What a single-character edit puts in place of a character, besides
# nothing and the character twice.
_FUZZ_INSERTS = (",", '"', "#", "\r", "nan", "1_0", "\ufeff")


def single_character_edits(text):
    """Every copy of text with one character deleted, doubled or replaced
    by one of the fuzz inserts."""
    for i, char in enumerate(text):
        for middle in ("", char * 2) + _FUZZ_INSERTS:
            yield text[:i] + middle + text[i + 1:]
