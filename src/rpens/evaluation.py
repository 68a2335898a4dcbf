"""Experiment runner and theory diagnostics.

`run` drives repetition loops: every repetition draws one train and one
test sample, every method fits on that identical train set and is scored
on that identical test set, and summaries report mean and standard error
of the per-repetition test errors (both scaled by 100, the convention used
in the result tables).

Comparators are the unprojected full-dimension classifiers.  LDA refuses
outright when n <= p + 2 and QDA refuses any repetition where the smaller
class has at most p + 1 members; refusals are recorded as NaN and surface
as N/A in reports rather than as crashes.

``run`` and the two theory diagnostics run the bundled OpenBLAS on one
thread and restore the caller's thread count on return, so their results
do not depend on it.

In a repetition the caller draws the test sample, handing each product
of a model-4 draw to one helper thread owned by ``run``, then draws the
training sample and fits the comparators while the products run. The
ensembles fit after the fill, with nothing beside them, so their fit
time does not hang on a second CPU. The results equal a serial run's
bit for bit; a process allowed one CPU runs the products inline.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

import numpy as np

from . import _blas
from . import base_classifiers as bc
from . import datagen as dg
from . import ensemble as en
from .errors import ExperimentError, RpensError
from .rng import derive_int, make_rng

COMPARATOR_KINDS = ("lda", "qda", "knn", "constant")


@dataclass(frozen=True)
class ComparatorSpec:
    """Full-dimensional reference classifier.

    ``knn`` picks k by leave-one-out cross-validation unless ``k`` is
    given; ``constant`` always predicts ``label``.
    """

    kind: str
    k: int | None = None
    label: int = 1

    def __post_init__(self):
        if self.kind not in COMPARATOR_KINDS:
            raise ValueError(f"unknown comparator kind {self.kind!r}")
        if self.k is not None and (self.kind != "knn" or self.k < 1):
            raise ValueError("k requires kind='knn' and a positive value")
        if self.label not in (1, 2):
            raise ValueError("constant label must be 1 or 2")


@dataclass(frozen=True)
class CsvSource:
    """Fixed data pool; each repetition subsamples a fresh train/test split."""

    path: str


@dataclass(frozen=True)
class MethodSpec:
    method_id: str
    config: object  # EnsembleConfig or ComparatorSpec

    def __post_init__(self):
        if not isinstance(self.config, (en.EnsembleConfig, ComparatorSpec)):
            raise TypeError(
                "method config must be an EnsembleConfig or a ComparatorSpec"
            )


@dataclass(frozen=True)
class ExperimentSpec:
    source: object  # ModelSpec or CsvSource
    n_train: int
    methods: tuple
    n_test: int | None = None
    repetitions: int = 20
    master_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.source, (dg.ModelSpec, CsvSource)):
            raise TypeError("source must be a ModelSpec or a CsvSource")
        if self.n_train < 2:
            raise ValueError("n_train must be at least 2")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.n_test is None and isinstance(self.source, dg.ModelSpec):
            raise ValueError("n_test is required for generative sources")
        if self.n_test is not None and self.n_test < 1:
            raise ValueError("n_test must be at least 1")
        methods = tuple(self.methods)
        object.__setattr__(self, "methods", methods)
        ids = [m.method_id for m in methods]
        if not ids:
            raise ValueError("at least one method is required")
        if len(set(ids)) != len(ids):
            raise ValueError("method ids must be unique")


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    errors: dict  # method_id -> float array (repetitions,), NaN = not available

    def summary(self) -> dict:
        """method_id -> (mean*100, se*100, n_valid); NaN when nothing ran."""
        out = {}
        for mid, err in self.errors.items():
            valid = err[np.isfinite(err)]
            if valid.size == 0:
                out[mid] = (math.nan, math.nan, 0)
                continue
            mean = float(valid.mean())
            se = float(valid.std(ddof=1) / math.sqrt(valid.size)) if valid.size > 1 else 0.0
            out[mid] = (mean * 100.0, se * 100.0, int(valid.size))
        return out


def comparator_knn_cv(Z, y, tie_seed: int = 0) -> int:
    """Neighbour count minimizing leave-one-out error, odd k up to 25.

    The grid is {1, 3, ..., min(25, n-1)}; the first minimum wins, so ties
    resolve to the smallest k.
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y)
    n = y.shape[0]
    if n < 2:
        raise ValueError("need at least two points to cross-validate k")
    grid = range(1, min(25, n - 1) + 1, 2)
    return min(grid, key=lambda k: np.sum(bc.knn_loo_labels(Z, y, k, tie_seed=tie_seed) != y))


def _draw_split(spec: ExperimentSpec, pool, rep: int, helper):
    """(X_tr, y_tr, X_te, y_te, pending). A generative test sample's features
    fill on ``helper`` and may be read once every future in ``pending`` is
    done; ``pending`` is empty when they are already in."""
    if isinstance(spec.source, dg.ModelSpec):
        y_te, X_te, calls = dg._start_sample(
            spec.source, spec.n_test, make_rng(spec.master_seed, "test", rep)
        )
        pending = []
        for call in calls:  # the normals are drawn here, between calls
            if helper is None:
                call()
            else:
                pending.append(helper.submit(call))
        train = dg.sample(spec.source, spec.n_train, make_rng(spec.master_seed, "train", rep))
        return train.X, train.y, X_te, y_te, pending
    X, y = pool
    n = y.shape[0]
    n_test = (n - spec.n_train) if spec.n_test is None else spec.n_test
    if spec.n_train + n_test > n or n_test < 1:
        raise ValueError(
            f"pool of {n} rows cannot supply {spec.n_train} train + {n_test} test points"
        )
    perm = make_rng(spec.master_seed, "subsample", rep).permutation(n)
    tr = perm[: spec.n_train]
    te = perm[spec.n_train : spec.n_train + n_test]
    return X[tr], y[tr], X[te], y[te], []


def _eval_comparator(comp: ComparatorSpec, X_tr, y_tr, seed_key):
    """The comparator fitted to the training sample, as a function from test
    rows to labels, or None when it refuses the sample."""
    n, p = X_tr.shape
    if comp.kind == "constant":
        return lambda X: np.full(X.shape[0], comp.label, dtype=np.int64)
    if comp.kind == "lda":
        return None if n <= p + 2 else bc.fit_lda(X_tr, y_tr).predict_many
    if comp.kind == "qda":
        n1 = int(np.sum(y_tr == 1))
        return None if min(n1, n - n1) <= p + 1 else bc.fit_qda(X_tr, y_tr).predict_many
    tie_seed = derive_int(*seed_key)
    k = comp.k if comp.k is not None else comparator_knn_cv(X_tr, y_tr, tie_seed=tie_seed)
    return bc.fit_knn(X_tr, y_tr, k=k, tie_seed=tie_seed).predict_many


def _wait(pending) -> None:
    """Wait for every future in ``pending``, raising the first one's
    exception. It polls: on a shared 2-vCPU VM, blocking here let the vCPU
    idle, and the ensemble fit that follows ran slower and less steadily."""
    for future in pending:
        while not future.done():
            time.sleep(0)  # gives up the interpreter lock
        future.result()


def _run_rep(spec: ExperimentSpec, pool, rep: int, helper) -> dict:
    X_tr, y_tr, X_te, y_te, pending = _draw_split(spec, pool, rep, helper)
    # Comparators fit while the test features fill, ensembles after it;
    # a refusal or failure scores NaN.
    predictors = {}
    for m in sorted(spec.methods, key=lambda m: isinstance(m.config, en.EnsembleConfig)):
        if isinstance(m.config, en.EnsembleConfig):
            _wait(pending)
        try:
            if isinstance(m.config, en.EnsembleConfig):
                seed = derive_int(spec.master_seed, "ensemble", rep, m.config.master_seed)
                model = en.fit(X_tr, y_tr, replace(m.config, master_seed=seed))
                predictors[m.method_id] = partial(en.predict_many, model)
            else:
                predictors[m.method_id] = _eval_comparator(
                    m.config, X_tr, y_tr, (spec.master_seed, "knn_tie", rep)
                )
        except RpensError:
            predictors[m.method_id] = None
    _wait(pending)
    out = {}
    for method_id, predict in predictors.items():
        try:
            out[method_id] = math.nan if predict is None else float(np.mean(predict(X_te) != y_te))
        except RpensError:
            out[method_id] = math.nan
    if all(math.isnan(v) for v in out.values()):
        raise ExperimentError(
            f"every method failed or refused in repetition {rep}"
        )
    return out


@_blas.single_thread
def run(spec: ExperimentSpec) -> ExperimentResult:
    """Execute the experiment; see the module docstring for the protocol."""
    pool = None
    if isinstance(spec.source, CsvSource):
        sample = dg.load_labelled_csv(spec.source.path)
        pool = (sample.X, sample.y)

    # The executor starts its thread at the first fill, and leaving the block joins it.
    with ThreadPoolExecutor(max_workers=1) as executor:
        has_mask = hasattr(os, "sched_getaffinity")  # Linux; elsewhere count every CPU
        cpus = len(os.sched_getaffinity(0)) if has_mask else (os.cpu_count() or 1)
        helper = executor if cpus >= 2 else None
        rep_results = [_run_rep(spec, pool, rep, helper) for rep in range(spec.repetitions)]

    errors = {
        m.method_id: np.array([res[m.method_id] for res in rep_results], dtype=np.float64)
        for m in spec.methods
    }
    return ExperimentResult(spec=spec, errors=errors)


# ---------------------------------------------------------------------------
# Theory diagnostics


@dataclass(frozen=True)
class Theorem1Result:
    slope: float | None
    insufficient_signal: bool
    b1_grid: tuple
    gaps: tuple  # signed gap per grid point, proxy subtracted
    gap_ses: tuple
    errors_by_b1: tuple  # mean test error per grid point
    proxy_error: float
    b1_proxy: int
    n_ensembles: int
    max_gap: float
    max_gap_se: float


def _winner_predictions(cfg, X_tr, y_tr, X_te, key_head, n_winners):
    """Boolean matrix: row i is winner i's class-1 votes on the test set."""
    blocks = en._run_blocks(cfg, X_tr, y_tr, range(n_winners), key_head=key_head)
    return en._class1_votes(
        [blk.projection for blk in blocks], [blk.model for blk in blocks], X_te
    )


@_blas.single_thread
def theorem1_rate_diagnostic(
    model: dg.ModelSpec,
    cfg: en.EnsembleConfig,
    n_train: int,
    b1_grid,
    mc_test: int,
    n_ensembles: int = 30,
    master_seed: int = 0,
) -> Theorem1Result:
    """Empirical decay rate of the ensemble-size effect on test error.

    One fixed training sample; per grid value B1, ``n_ensembles``
    independent ensembles (fresh projections, shared test points) give the
    mean test error L(B1).  A fresh run at 4x the largest grid value
    proxies the infinite-ensemble error.  The slope of log(gap) on log(B1)
    is returned from the grid points whose gap is positive; fewer than 3
    such points is reported as insufficient signal instead of a slope.

    Requires a fixed voting threshold so the comparison isolates B1.
    """
    if not isinstance(model, dg.ModelSpec):
        raise ValueError("theorem-1 diagnostic needs a generative source")
    b1_grid = tuple(int(b) for b in b1_grid)
    if len(b1_grid) < 4 or list(b1_grid) != sorted(set(b1_grid)):
        raise ValueError("b1_grid must be ascending with at least 4 distinct values")
    if cfg.alpha is None:
        raise ValueError("theorem-1 diagnostic needs a fixed alpha")
    if n_ensembles < 2:
        raise ValueError("need at least 2 ensembles per grid point")

    train = dg.sample(model, n_train, make_rng(master_seed, "t1_train"))
    test = dg.sample(model, mc_test, make_rng(master_seed, "t1_test"))
    b1_max = b1_grid[-1]
    alpha = Fraction(cfg.alpha)
    y_te = test.y

    def ensemble_errors(votes, b1_values):
        counts = np.cumsum(votes, axis=0)
        return [
            float(np.mean(en._counts_to_labels(counts[b1 - 1], alpha, b1) != y_te))
            for b1 in b1_values
        ]

    # n_ensembles independent pools of b1_max winners; the first B1 winners
    # of a pool form a valid B1-ensemble, so each pool yields every grid
    # point at once.
    per_pool = np.empty((n_ensembles, len(b1_grid)))
    for j in range(n_ensembles):
        votes = _winner_predictions(cfg, train.X, train.y, test.X, ("t1", j), b1_max)
        per_pool[j] = ensemble_errors(votes, b1_grid)

    b1_proxy = 4 * b1_max
    proxy_votes = _winner_predictions(cfg, train.X, train.y, test.X, ("t1_proxy",), b1_proxy)
    proxy_error = ensemble_errors(proxy_votes, [b1_proxy])[0]

    means = per_pool.mean(axis=0)
    ses = per_pool.std(axis=0, ddof=1) / math.sqrt(n_ensembles)
    proxy_se = math.sqrt(max(proxy_error * (1 - proxy_error), 1e-12) / mc_test)
    gaps = means - proxy_error
    gap_ses = np.sqrt(ses**2 + proxy_se**2)

    arg = int(np.argmax(gaps))
    keep = gaps > 0
    insufficient = int(keep.sum()) < 3
    slope = None if insufficient else float(
        np.polyfit(np.log(np.array(b1_grid)[keep]), np.log(gaps[keep]), 1)[0]
    )
    return Theorem1Result(
        slope=slope,
        insufficient_signal=insufficient,
        b1_grid=b1_grid,
        gaps=tuple(gaps),
        gap_ses=tuple(gap_ses),
        errors_by_b1=tuple(means),
        proxy_error=proxy_error,
        b1_proxy=b1_proxy,
        n_ensembles=n_ensembles,
        max_gap=float(gaps[arg]),
        max_gap_se=float(gap_ses[arg]),
    )


@dataclass(frozen=True)
class Theorem2Result:
    lhs: float
    rhs: float
    margin_se: float
    holds: bool
    bayes_risk: float
    ensemble_risk: float
    mean_winner_risk: float


@_blas.single_thread
def theorem2_bound_diagnostic(
    model: dg.ModelSpec,
    cfg: en.EnsembleConfig,
    n_train: int,
    mc_n: int,
    n_winners: int = 400,
    master_seed: int = 0,
) -> Theorem2Result:
    """Monte Carlo check that the excess-risk bound holds.

    The excess risk of the voting classifier at threshold alpha is bounded
    by 1/min(alpha, 1-alpha) times the mean excess risk of a single
    selected projection.  All risks here are conditional-probability
    estimates on one shared set of mc_n test points (the class-probability
    oracle supplies eta, so no label noise enters), which makes the
    comparison tightly paired.  holds is lhs <= rhs + 3 se of the paired
    margin.  Needs a generative source; there is no oracle for CSV pools.
    """
    if not isinstance(model, dg.ModelSpec):
        raise ValueError("theorem-2 diagnostic needs a generative source")
    if cfg.alpha is None:
        raise ValueError("theorem-2 diagnostic needs a fixed alpha")
    alpha = cfg.alpha
    scale = 1.0 / min(alpha, 1.0 - alpha)

    train = dg.sample(model, n_train, make_rng(master_seed, "t2_train"))
    test_X = dg.sample(model, mc_n, make_rng(master_seed, "t2_test")).X
    eta = dg.eta(model, test_X)
    votes = _winner_predictions(cfg, train.X, train.y, test_X, ("t2",), n_winners)

    # P(wrong | x) is 1 - eta where a classifier says 1 and eta where it
    # says 2; the Bayes rule attains min(eta, 1 - eta).
    bayes_pt = np.minimum(eta, 1.0 - eta)
    winner_wrong = np.where(votes, 1.0 - eta, eta)
    winner_wrong_mean = winner_wrong.mean(axis=0)

    ens_labels = en._counts_to_labels(votes.sum(axis=0), Fraction(alpha), n_winners)
    ens_wrong = np.where(ens_labels == 1, 1.0 - eta, eta)

    lhs_pt = ens_wrong - bayes_pt
    rhs_pt = scale * (winner_wrong_mean - bayes_pt)
    margin = rhs_pt - lhs_pt
    margin_se = float(margin.std(ddof=1) / math.sqrt(mc_n))
    lhs = float(lhs_pt.mean())
    rhs = float(rhs_pt.mean())
    return Theorem2Result(
        lhs=lhs,
        rhs=rhs,
        margin_se=margin_se,
        holds=bool(lhs <= rhs + 3.0 * margin_se),
        bayes_risk=float(bayes_pt.mean()),
        ensemble_risk=float(ens_wrong.mean()),
        mean_winner_risk=float(winner_wrong.mean()),
    )
