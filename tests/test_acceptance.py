"""Acceptance gate.

Nine numbered criteria, each asserted at its stated tolerance and each
printing a PASS/FAIL line with the measured numbers so a red run is
self-explaining.  Two sub-checks of criterion 1 are expected to stay red:
the frozen targets for models 3 and 4 are provably inconsistent with the
sampling laws this package implements (the faithful reference values are
printed alongside; see the README).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import rpens.projections as pj
from rpens import base_classifiers as bc
from rpens import datagen as dg
from rpens import ensemble as en
from rpens import error_estimation as ee
from rpens import evaluation as ev
from rpens import serialize as sz
from rpens.cli import main as cli_main
from rpens.rng import make_rng

from conftest import alpha_candidates, alpha_objective

SEED = 20260816


def _verdict(label: str, ok: bool, detail: str) -> str:
    line = f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


# ---------------------------------------------------------------------------
# Criterion 1: Bayes-risk oracle, mc_n = 10^6, each model < 2 min.
#
# Targets are x100; tolerance max(0.15, 3 MC se).  Models 3 and 4 carry
# frozen targets that the implemented sampling laws do not reproduce; the
# faithful values measured from those laws are listed so the red runs
# document the discrepancy instead of hiding it.

_BAYES_TARGETS = {1: 4.91, 2: 10.07, 3: 11.59, 4: 9.84}
_FAITHFUL_BAYES = {3: 12.67, 4: 22.11}


@pytest.mark.parametrize("model_id", [1, 2, 3, 4])
def test_c1_bayes_risk_oracle(model_id):
    spec = dg.ModelSpec(model_id=model_id, p=50)
    t0 = time.time()
    value, se = dg.bayes_risk(spec, 10**6, make_rng(SEED, "acceptance_bayes", model_id))
    elapsed = time.time() - t0
    measured = 100.0 * value
    target = _BAYES_TARGETS[model_id]
    tol = max(0.15, 3 * 100.0 * se)
    ok = abs(measured - target) <= tol and elapsed < 120.0
    detail = (
        f"model {model_id}: measured {measured:.3f} (mc se {100 * se:.3f}), "
        f"target {target}, tolerance {tol:.3f}, {elapsed:.0f}s"
    )
    if model_id in _FAITHFUL_BAYES:
        detail += f"; faithful value under the implemented law: {_FAITHFUL_BAYES[model_id]}"
    line = _verdict(f"C1 model {model_id}", ok, detail)
    assert elapsed < 120.0, line
    assert abs(measured - target) <= tol, line


# ---------------------------------------------------------------------------
# Criterion 2: desk-scale error-rate cell, model 1, n=200, p=50,
# B1=B2=50, 20 repetitions, 1000 test points, < 10 min total.


def test_c2_model1_desk_scale():
    t0 = time.time()
    spec = ev.ExperimentSpec(
        source=dg.ModelSpec(model_id=1, p=50),
        n_train=200,
        n_test=1000,
        repetitions=20,
        methods=(
            ev.MethodSpec("qda5", en.EnsembleConfig(B1=50, B2=50, d=5, base="qda")),
            ev.MethodSpec("lda2", en.EnsembleConfig(B1=50, B2=50, d=2, base="lda")),
        ),
        master_seed=SEED,
    )
    summary = ev.run(spec).summary()
    elapsed = time.time() - t0
    qda_mean, qda_se, _ = summary["qda5"]
    lda_mean, lda_se, _ = summary["lda2"]
    ok_qda = abs(qda_mean - 11.75) <= 2.5
    ok_lda = abs(lda_mean - 41.14) <= 3.5
    ok_time = elapsed < 600.0
    line = _verdict(
        "C2",
        ok_qda and ok_lda and ok_time,
        f"qda d=5: {qda_mean:.2f}_{qda_se:.2f} vs 11.75 +/- 2.5; "
        f"lda d=2: {lda_mean:.2f}_{lda_se:.2f} vs 41.14 +/- 3.5; {elapsed:.0f}s",
    )
    assert ok_qda and ok_lda and ok_time, line


# ---------------------------------------------------------------------------
# Criterion 3: desk-scale cell for model 2 at n=100: the d=2
# nearest-neighbour ensemble hits its target and the d=5 quadratic
# ensemble is visibly worse (ordering, not value).


def test_c3_model2_knn_cell():
    spec = ev.ExperimentSpec(
        source=dg.ModelSpec(model_id=2, p=50),
        n_train=100,
        n_test=1000,
        repetitions=20,
        methods=(
            ev.MethodSpec("knn2", en.EnsembleConfig(B1=50, B2=50, d=2, base="knn")),
            ev.MethodSpec("qda5", en.EnsembleConfig(B1=50, B2=50, d=5, base="qda")),
        ),
        master_seed=SEED,
    )
    summary = ev.run(spec).summary()
    knn_mean, knn_se, _ = summary["knn2"]
    qda_mean, qda_se, _ = summary["qda5"]
    ok_value = abs(knn_mean - 15.02) <= 2.5
    ok_order = qda_mean > knn_mean
    line = _verdict(
        "C3",
        ok_value and ok_order,
        f"knn d=2: {knn_mean:.2f}_{knn_se:.2f} vs 15.02 +/- 2.5; "
        f"qda d=5: {qda_mean:.2f}_{qda_se:.2f} must be worse",
    )
    assert ok_value and ok_order, line


# ---------------------------------------------------------------------------
# Criterion 4: the projected nearest-neighbour ensemble beats the
# full-dimension nearest-neighbour comparator by >= 3 points on model 3
# over 20 paired repetitions (full B1=B2=100 protocol).


def test_c4_ensemble_beats_full_dimension_knn():
    spec = ev.ExperimentSpec(
        source=dg.ModelSpec(model_id=3, p=50),
        n_train=200,
        n_test=1000,
        repetitions=20,
        methods=(
            ev.MethodSpec("rp", en.EnsembleConfig(B1=100, B2=100, d=5, base="knn")),
            ev.MethodSpec("knn", ev.ComparatorSpec("knn")),
        ),
        master_seed=SEED,
    )
    summary = ev.run(spec).summary()
    rp_mean, rp_se, _ = summary["rp"]
    knn_mean, knn_se, _ = summary["knn"]
    margin = knn_mean - rp_mean
    ok = margin >= 3.0
    line = _verdict(
        "C4",
        ok,
        f"rp-knn d=5: {rp_mean:.2f}_{rp_se:.2f}; full knn: {knn_mean:.2f}_{knn_se:.2f}; "
        f"margin {margin:.2f} (>= 3 required)",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 5: ensemble-size rate diagnostic on model 1, n=100, lda base,
# alpha = 0.4, grid {8,...,256}: fitted log-log slope in [-1.5, -0.6], or
# the insufficient-signal report with max gap < 3 MC se.  < 15 min.


def test_c5_rate_diagnostic():
    t0 = time.time()
    cfg = en.EnsembleConfig(B1=1, B2=5, d=2, base="lda", alpha=0.4)
    res = ev.theorem1_rate_diagnostic(
        dg.ModelSpec(model_id=1, p=50),
        cfg,
        n_train=100,
        b1_grid=(8, 16, 32, 64, 128, 256),
        mc_test=4000,
        n_ensembles=30,
        master_seed=0,
    )
    elapsed = time.time() - t0
    if res.insufficient_signal:
        ok = res.max_gap < 3 * res.max_gap_se
        detail = (
            f"insufficient signal: max gap {res.max_gap:.5f} "
            f"vs 3 se = {3 * res.max_gap_se:.5f}; {elapsed:.0f}s"
        )
    else:
        ok = -1.5 <= res.slope <= -0.6
        detail = f"slope {res.slope:.3f} in [-1.5, -0.6]; {elapsed:.0f}s"
    ok = ok and elapsed < 900.0
    line = _verdict("C5", ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 6: excess-risk bound diagnostic holds on models 1 and 4 for
# alpha in {0.3, 0.5}.


@pytest.mark.parametrize("model_id", [1, 4])
@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_c6_excess_risk_bound(model_id, alpha):
    cfg = en.EnsembleConfig(B1=1, B2=5, d=2, base="lda", alpha=alpha)
    res = ev.theorem2_bound_diagnostic(
        dg.ModelSpec(model_id=model_id, p=50),
        cfg,
        n_train=100,
        mc_n=20000,
        n_winners=400,
        master_seed=0,
    )
    line = _verdict(
        f"C6 model {model_id} alpha {alpha}",
        res.holds,
        f"lhs {res.lhs:.5f} <= rhs {res.rhs:.5f} + 3*{res.margin_se:.5f}",
    )
    assert res.holds, line


# ---------------------------------------------------------------------------
# Criterion 7: oracle equivalences, all exact.


def _random_instance(gen, d):
    """Small labelled sample with both classes comfortably above d + 2."""
    floor = d + 3
    n = int(gen.integers(2 * floor, 31))
    n1 = int(gen.integers(floor, n - floor + 1))
    y = np.array([1] * n1 + [2] * (n - n1), dtype=np.int64)
    gen.shuffle(y)
    Z = gen.normal(size=(n, d))
    Z[y == 2, 0] += 0.8
    return Z, y


def _loo_oracle(Z, y, ids, spec):
    """Naive per-point refit, no shortcuts: the independent route."""
    n = y.shape[0]
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        keep = np.arange(n) != i
        if spec.kind == "lda":
            ref = bc.fit_lda(Z[keep], y[keep])
        elif spec.kind == "qda":
            ref = bc.fit_qda(Z[keep], y[keep])
        else:
            # k is a property of the estimated sample: resolved at full n,
            # then clamped to the points that remain
            k = min(spec.resolve_k(n), n - 1)
            ref = bc.fit_knn(
                Z[keep], y[keep], k=k, tie_seed=spec.tie_seed, point_ids=ids[keep]
            )
        labels[i] = ref.predict_many(Z[i][None, :])[0]
    return labels


@pytest.mark.parametrize("base", ["lda", "qda", "knn"])
def test_c7_leave_one_out_equals_brute_force(base):
    gen = np.random.default_rng(SEED + {"lda": 1, "qda": 2, "knn": 3}[base])
    checked = 0
    for trial in range(50):
        d = int(gen.integers(1, 4))
        Z, y = _random_instance(gen, d)
        n = y.shape[0]
        ids = np.arange(n, dtype=np.int64)
        if base == "knn":
            k = [None, 1, 3, 5][trial % 4]
            spec = bc.BaseSpec("knn", k=k, tie_seed=int(gen.integers(0, 1000)))
        else:
            spec = bc.BaseSpec(base)
        est = ee.leave_one_out(Z, y, spec, point_ids=ids)
        prod_labels = ee._loo_labels(Z, y, spec, ids)
        oracle_labels = _loo_oracle(Z, y, ids, spec)
        assert np.array_equal(prod_labels, oracle_labels), (base, trial)
        assert est.errors == int(np.sum(oracle_labels != y)), (base, trial)
        assert est.m == n
        checked += 1
    _verdict(f"C7 loo {base}", True, f"{checked} random instances, exact match")


@pytest.mark.parametrize("base", ["lda", "qda", "knn"])
def test_c7_resubstitution_equals_direct_recount(base):
    gen = np.random.default_rng(SEED + 10)
    for trial in range(20):
        d = int(gen.integers(1, 4))
        Z, y = _random_instance(gen, d)
        ids = np.arange(y.shape[0], dtype=np.int64)
        spec = bc.BaseSpec(base) if base != "knn" else bc.BaseSpec("knn", k=3)
        est = ee.resubstitution(Z, y, spec)
        model = bc.fit_base(spec, Z, y, point_ids=ids)
        recount = int(np.sum(model.predict_many(Z) != y))
        assert est.errors == recount, (base, trial)
        assert est.m == y.shape[0]
    _verdict(f"C7 resubstitution {base}", True, "20 direct recounts, exact match")


def _axis_projection(p, coord):
    entries = np.zeros((1, p))
    entries[0, coord] = 1.0
    return pj.Projection(entries=entries, kind="axis_aligned")


def test_c7_block_winner_exhaustive_argmin():
    gen = np.random.default_rng(SEED + 20)
    n, p = 24, 4
    y = np.array([1] * 12 + [2] * 12, dtype=np.int64)
    X = gen.normal(size=(n, p))
    X[y == 2, 0] += 6.0  # coordinate 0 separates perfectly
    ids = np.arange(n, dtype=np.int64)
    spec = bc.BaseSpec("lda")

    # planted tie: candidates 1 and 2 are the same perfect projection
    block = [
        _axis_projection(p, 3),
        _axis_projection(p, 0),
        _axis_projection(p, 0),
        _axis_projection(p, 1),
    ]
    proj, est, _ = en.select_block_winner(X, y, block, spec, "resubstitution")
    assert proj is block[1]
    assert est.errors == 0

    # all candidates identical: smallest index wins
    same = [_axis_projection(p, 2)] * 5
    proj, est, _ = en.select_block_winner(X, y, same, spec, "resubstitution")
    assert proj is same[0]

    # randomized blocks against an independent exhaustive recount
    for trial in range(30):
        Xr = gen.normal(size=(18, p))
        yr = np.array([1] * 9 + [2] * 9, dtype=np.int64)
        gen.shuffle(yr)
        Xr[yr == 2, 0] += 1.0
        rng = np.random.default_rng(trial)
        block = [pj.sample_haar(p, 2, rng) for _ in range(6)]
        base = bc.BaseSpec("lda") if trial % 2 == 0 else bc.BaseSpec("knn", k=3)
        method = "resubstitution" if trial % 2 == 0 else "leave_one_out"
        proj, est, _ = en.select_block_winner(Xr, yr, block, base, method, point_ids=ids[:18])
        counts = [
            ee._estimate_full(c.apply(Xr), yr, base, method, point_ids=ids[:18])[0].errors
            for c in block
        ]
        expected = counts.index(min(counts))
        assert proj is block[expected], trial
        assert est.errors == min(counts), trial
    _verdict("C7 block winner", True, "tie cases + 30 exhaustive recounts, exact")


# ---------------------------------------------------------------------------
# Criterion 8: structural invariants.


def test_c8_orthonormality():
    gen = np.random.default_rng(SEED + 30)
    worst = 0.0
    for _ in range(200):
        p = int(gen.integers(1, 60))
        d = int(gen.integers(1, p + 1))
        kind = "haar" if gen.random() < 0.5 else "axis"
        if kind == "haar":
            proj = pj.sample_haar(p, d, gen)
        else:
            proj = pj.sample_axis_aligned(p, d, gen)
        gram = proj.entries @ proj.entries.T
        worst = max(worst, float(np.abs(gram - np.eye(d)).max()))
    ok = worst <= 1e-10
    line = _verdict("C8 orthonormality", ok, f"max |AA^T - I| = {worst:.2e} over 200 draws")
    assert ok, line


def test_c8_rotation_equivariance():
    gen = np.random.default_rng(SEED + 31)

    # projection-level: apply(A R^T, R x) = apply(A, x) entrywise
    worst = 0.0
    for _ in range(50):
        p = int(gen.integers(2, 40))
        d = int(gen.integers(1, p + 1))
        A = pj.sample_haar(p, d, gen)
        R = pj.sample_haar(p, p, gen).entries
        X = gen.normal(size=(12, p))
        rotated = pj.Projection(entries=A.entries @ R.T, kind="haar")
        worst = max(worst, float(np.abs(rotated.apply(X @ R.T) - A.apply(X)).max()))
    ok_proj = worst <= 1e-9
    line = _verdict("C8 rotation equivariance (apply)", ok_proj, f"max deviation {worst:.2e}")
    assert ok_proj, line

    # model-level: rotating both the probes and the stored projections,
    # keeping the fitted base models, leaves every prediction unchanged
    X = gen.normal(size=(30, 6))
    y = np.array([1] * 15 + [2] * 15, dtype=np.int64)
    X[y == 2, 0] += 2.0
    probes = gen.normal(size=(50, 6))
    R = pj.sample_haar(6, 6, gen).entries
    for base in ("lda", "qda", "knn"):
        cfg = en.EnsembleConfig(B1=8, B2=3, d=2, base=base, master_seed=SEED)
        model = en.fit(X, y, cfg)
        rotated = replace(
            model,
            projections=tuple(
                pj.Projection(entries=pr.entries @ R.T, kind="haar")
                for pr in model.projections
            ),
        )
        assert np.array_equal(
            en.predict_many(rotated, probes @ R.T), en.predict_many(model, probes)
        ), base
        assert np.array_equal(
            en.votes_many(rotated, probes @ R.T), en.votes_many(model, probes)
        ), base
    _verdict("C8 rotation equivariance (model)", True, "3 bases, exact label match")


def test_c8_alpha_optimality_over_candidates():
    gen = np.random.default_rng(SEED + 32)
    checked = 0
    for base in ("lda", "qda", "knn"):
        for trial in range(10):
            n = int(gen.integers(24, 40))
            n1 = int(gen.integers(10, n - 10))
            y = np.array([1] * n1 + [2] * (n - n1), dtype=np.int64)
            gen.shuffle(y)
            X = gen.normal(size=(n, 5))
            X[y == 2, 0] += 1.2
            cfg = en.EnsembleConfig(
                B1=9, B2=3, d=2, base=base, master_seed=int(gen.integers(0, 10**6))
            )
            model = en.fit(X, y, cfg)
            value = alpha_objective(
                model.train_vote_counts, model.train_labels, model.B1, model.alpha_hat
            )
            best = min(
                alpha_objective(model.train_vote_counts, model.train_labels, model.B1, t)
                for t in alpha_candidates(model.train_vote_counts, model.B1)
            )
            assert value <= best, (base, trial)
            checked += 1
    line = _verdict("C8 alpha optimality", True, f"{checked} fitted ensembles, exact Fractions")
    assert checked == 30, line


def test_c8_thread_count_determinism(tmp_path, synthetic_csv, capsys):
    args = [
        "simulate", "--model", "1", "--n", "40", "--p", "6", "--d", "2",
        "--B1", "8", "--B2", "3", "--reps", "4", "--n-test", "100",
        "--seed", str(SEED),
    ]
    out1, out4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
    assert cli_main(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert cli_main(args + ["--threads", "4", "--out", str(out4)]) == 0
    fit1, fit4 = tmp_path / "m1.json", tmp_path / "m4.json"
    fit_args = [
        "fit", "--train", str(synthetic_csv), "--d", "2", "--B1", "10",
        "--B2", "3", "--seed", "9",
    ]
    assert cli_main(fit_args + ["--threads", "1", "--model-out", str(fit1)]) == 0
    assert cli_main(fit_args + ["--threads", "4", "--model-out", str(fit4)]) == 0
    capsys.readouterr()
    ok = out1.read_bytes() == out4.read_bytes() and fit1.read_bytes() == fit4.read_bytes()
    line = _verdict("C8 thread determinism", ok, "simulate and fit outputs bit-identical")
    assert ok, line


def test_c8_serialization_round_trip():
    gen = np.random.default_rng(SEED + 33)
    X = gen.normal(size=(26, 5))
    y = np.array([1] * 13 + [2] * 13, dtype=np.int64)
    X[y == 2, 1] -= 1.5
    for base in ("lda", "qda", "knn"):
        cfg = en.EnsembleConfig(B1=7, B2=2, d=2, base=base, master_seed=SEED)
        model = en.fit(X, y, cfg)
        text = sz.dumps(model)
        again = sz.dumps(sz.loads(text))
        assert text == again, base
        restored = sz.loads(text)
        probes = gen.normal(size=(20, 5))
        assert np.array_equal(
            en.predict_many(restored, probes), en.predict_many(model, probes)
        ), base
    _verdict("C8 serialization", True, "dumps(loads(dumps(m))) bit-equal, 3 bases")


# ---------------------------------------------------------------------------
# Criterion 9: statistical properties.


def test_c9_haar_angle_uniformity():
    rng = make_rng(SEED, "acceptance_ks")
    angles = np.array(
        [math.atan2(*pj.sample_haar(2, 1, rng).entries[0][::-1]) for _ in range(4000)]
    )
    pvalue = stats.kstest(angles, stats.uniform(-math.pi, 2 * math.pi).cdf).pvalue
    ok = pvalue > 0.01
    line = _verdict("C9 angle KS", ok, f"p-value {pvalue:.3f} at level 0.01, 4000 draws")
    assert ok, line


def test_c9_resubstitution_optimism_sign_test():
    model = dg.ModelSpec(model_id=1, p=4, mean_shift=1.0)
    spec = bc.BaseSpec("lda")
    wins = losses = 0
    for seed in range(200):
        train = dg.sample(model, 25, make_rng(seed, "opt_train"))
        test = dg.sample(model, 2000, make_rng(seed, "opt_test"))
        est = ee.resubstitution(train.X, train.y, spec)
        fitted = bc.fit_lda(train.X, train.y)
        true_err = float(np.mean(fitted.predict_many(test.X) != test.y))
        if est.value < true_err:
            wins += 1
        elif est.value > true_err:
            losses += 1
    pvalue = stats.binomtest(wins, wins + losses, 0.5, alternative="greater").pvalue
    ok = pvalue < 0.01
    line = _verdict(
        "C9 optimism sign test",
        ok,
        f"{wins} optimistic vs {losses} pessimistic over 200 seeds, p = {pvalue:.2e}",
    )
    assert ok, line


def test_c9_select_d_concentrates_on_effective_dimension():
    # The instance: the block-covariance model with a 0.8 class-1 prior at
    # n = 100, so the minority class (about 20 points) genuinely punishes
    # quadratic fits in over-large projected dimensions. At balanced
    # priors the leave-one-out profile over d is nearly flat for this
    # model (selection optimism grows with d and cancels the complexity
    # penalty) and the chosen d scatters; the unbalanced instance
    # concentrates the choice at rate ~0.89 measured over 120 runs.
    model = dg.ModelSpec(model_id=4, p=50, pi_1=0.8)
    choices = []
    for run in range(20):
        sample = dg.sample(model, 100, make_rng(run, "sd_train"))
        cfg = en.EnsembleConfig(B1=30, B2=20, d=2, base="qda", master_seed=run)
        choices.append(en.select_d(sample.X, sample.y, (2, 3, 4, 5, 6), cfg))
    hits = sum(c in (3, 4, 5) for c in choices)
    ok = hits >= 16
    line = _verdict(
        "C9 select_d", ok, f"choices {choices}: {hits}/20 in {{3,4,5}} (>= 16 required)"
    )
    assert ok, line
