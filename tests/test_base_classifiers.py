import warnings
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from rpens import base_classifiers as bc
from rpens import error_estimation as ee
from rpens import errors

from conftest import (
    EXACT_PATHS, assert_equals_explicit_qda_refits, boundary_points, count_loo_refits, make_blobs,
    spy_rows,
)


def _lda_line(pi_1: float):
    """1-d training set with means 0 and 10, pooled variance exactly 2.

    Class sizes are chosen so the empirical class-1 prior equals pi_1;
    the class-1 spread point is solved to keep the pooled sum of squares
    at 2 * (n - 2) after class 2 contributes 2.
    """
    n2 = 2
    n1 = int(round(pi_1 / (1 - pi_1))) * n2
    n = n1 + n2
    a = np.sqrt((2.0 * (n - 2) - 2.0) / 2.0)
    z1 = np.concatenate([[a, -a], np.zeros(n1 - 2)])
    z2 = np.array([9.0, 11.0])
    Z = np.concatenate([z1, z2])[:, None]
    y = np.array([1] * n1 + [2] * n2, dtype=np.int64)
    return Z, y


def _singular_class_instance():
    """Class 1 lies on the line z2 = 2 z1 with integer moments.

    Its scatter [[4, 8], [8, 16]] has an exactly zero Cholesky pivot, so
    fit_qda needs its ridge and every leave-one-out point takes the
    explicit refit.
    """
    t = np.array([-1.0, 0.0, 1.0, -1.0, 1.0])
    Z1 = np.stack([t, 2.0 * t], axis=1)
    Z2 = np.random.default_rng(3).normal(size=(6, 2)) + [3.0, 0.0]
    return np.vstack([Z1, Z2]), np.array([1] * 5 + [2] * 6)


class TestLda:
    def test_hand_fit_one_dimension(self):
        Z = np.array([[-1.0], [1.0], [9.0], [11.0]])
        y = np.array([1, 1, 2, 2])
        m = bc.fit_lda(Z, y)
        assert m.pi_hat_1 == 0.5 and m.pi_hat_2 == 0.5
        np.testing.assert_allclose(m.mu_hat_1, [0.0])
        np.testing.assert_allclose(m.mu_hat_2, [10.0])
        # SS = 1+1+1+1 over n-2 = 2
        np.testing.assert_allclose(m.sigma_hat, [[2.0]])
        np.testing.assert_allclose(m.omega_hat, [[0.5]])

    def test_hand_rule_and_tie_goes_to_class_1(self):
        Z = np.array([[-1.0], [1.0], [9.0], [11.0]])
        y = np.array([1, 1, 2, 2])
        m = bc.fit_lda(Z, y)
        # decision boundary at the midpoint 5; the tie lands in class 1
        assert bc.predict_lda_many(m, [[4.999]])[0] == 1
        assert bc.predict_lda_many(m, [[5.0]])[0] == 1
        assert bc.predict_lda_many(m, [[5.001]])[0] == 2

    def test_empirical_prior_shifts_the_boundary(self):
        # with means 0/10 and pooled variance 2 the discriminant at 5.5 is
        # log(pi1/pi2) - 2.5, so the call flips between pi1=0.9 and 0.95
        Z, y = _lda_line(0.9)
        m = bc.fit_lda(Z, y)
        assert m.pi_hat_1 == pytest.approx(0.9)
        np.testing.assert_allclose(m.sigma_hat, [[2.0]], atol=1e-12)
        assert bc.predict_lda_many(m, [[5.5]])[0] == 2

        Z, y = _lda_line(0.95)
        m = bc.fit_lda(Z, y)
        assert m.pi_hat_1 == pytest.approx(0.95)
        assert bc.predict_lda_many(m, [[5.5]])[0] == 1

    def test_pooled_divisor_is_n_minus_2(self):
        Z = np.array([[0.0], [4.0], [10.0], [10.0], [16.0]])
        y = np.array([1, 1, 2, 2, 2])
        m = bc.fit_lda(Z, y)
        # class SS: (2^2 + 2^2) + (2^2 + 2^2 + 4^2) = 32, over n-2 = 3
        np.testing.assert_allclose(m.sigma_hat, [[32.0 / 3.0]])

    def test_precision_inverts_covariance(self, rng):
        X, y = make_blobs(30, 4, 2.0, seed=9)
        m = bc.fit_lda(X, y)
        np.testing.assert_allclose(m.omega_hat @ m.sigma_hat, np.eye(4), atol=1e-9)

    def test_closed_form_error_matches_normal_tail(self):
        m = bc.LdaModel(
            pi_hat_1=0.5,
            pi_hat_2=0.5,
            mu_hat_1=np.array([-1.0]),
            mu_hat_2=np.array([1.0]),
            sigma_hat=np.array([[1.0]]),
            omega_hat=np.array([[1.0]]),
        )
        risk = bc.lda_closed_form_test_error(
            m, 0.5, np.array([-1.0]), np.array([1.0]), np.array([[1.0]])
        )
        assert risk == pytest.approx(stats.norm.cdf(-1.0), abs=1e-12)

    def test_closed_form_error_matches_monte_carlo(self):
        gen = np.random.default_rng(77)
        X, y = make_blobs(100, 3, 2.5, seed=12)
        m = bc.fit_lda(X, y)
        mu_1 = np.zeros(3)
        mu_1[0] = -1.25
        mu_2 = -mu_1
        exact = bc.lda_closed_form_test_error(m, 0.5, mu_1, mu_2, np.eye(3))
        n_mc = 200_000
        labels = gen.integers(1, 3, size=n_mc)
        pts = gen.normal(size=(n_mc, 3))
        pts[:, 0] += np.where(labels == 1, -1.25, 1.25)
        mc = np.mean(m.predict_many(pts) != labels)
        se = np.sqrt(exact * (1 - exact) / n_mc)
        assert abs(mc - exact) < 4 * se

    def test_closed_form_degenerate_direction(self):
        m = bc.LdaModel(
            pi_hat_1=0.7,
            pi_hat_2=0.3,
            mu_hat_1=np.array([0.0]),
            mu_hat_2=np.array([0.0]),
            sigma_hat=np.array([[1.0]]),
            omega_hat=np.array([[1.0]]),
        )
        # constant rule predicts the larger estimated prior: class 1,
        # so the error is the true class-2 mass
        assert bc.lda_closed_form_test_error(
            m, 0.4, np.array([0.0]), np.array([1.0]), np.array([[1.0]])
        ) == pytest.approx(0.6)

    def test_rejects_small_or_degenerate_inputs(self):
        with pytest.raises(errors.InvalidDimensionError):
            bc.fit_lda(np.zeros((3, 2)), np.array([1, 2, 1]))
        with pytest.raises(errors.MissingClassError):
            bc.fit_lda(np.zeros((4, 1)), np.array([1, 1, 1, 1]))
        with pytest.raises(ValueError):
            bc.fit_lda(np.zeros((4, 1)), np.array([1, 2, 3, 1]))
        with pytest.raises(errors.ShapeMismatchError):
            bc.fit_lda(np.zeros((4, 1)), np.array([1, 2]))
        # identical points give a zero pooled covariance beyond repair
        Z = np.array([[1.0], [1.0], [2.0], [2.0]])
        with pytest.raises(errors.SingularCovarianceError):
            bc.fit_lda(Z, np.array([1, 1, 2, 2]))

    def test_ridge_retry_on_collinear_sample(self):
        # Two equal columns with exact integer moments: the pooled matrix is
        # [[1, 1], [1, 1]], whose Cholesky pivot is exactly zero.
        c = np.array([-1.0, 0.0, 1.0, 4.0, 5.0, 6.0])
        Z = np.stack([c, c], axis=1)
        y = np.array([1, 1, 1, 2, 2, 2])
        pooled = np.ones((2, 2))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(pooled)
        m = bc.fit_lda(Z, y)
        ridged = pooled + (bc.RIDGE_EPS * np.trace(pooled) / 2) * np.eye(2)
        np.testing.assert_array_equal(m.sigma_hat, ridged)
        np.testing.assert_allclose(m.omega_hat, np.linalg.inv(ridged), rtol=1e-6)
        np.testing.assert_array_equal(m.predict_many(Z), y)

    def test_label_swap_flips_predictions(self):
        X, y = make_blobs(25, 3, 1.0, seed=4)
        m = bc.fit_lda(X, y)
        m_sw = bc.fit_lda(X, 3 - y)
        probes = np.random.default_rng(8).normal(size=(50, 3))
        np.testing.assert_array_equal(m.predict_many(probes), 3 - m_sw.predict_many(probes))


class TestQda:
    def test_hand_fit_one_dimension(self):
        Z = np.array([[0.0], [2.0], [5.0], [9.0], [10.0]])
        y = np.array([1, 1, 2, 2, 2])
        m = bc.fit_qda(Z, y)
        assert m.pi_hat_1 == pytest.approx(0.4)
        np.testing.assert_allclose(m.mu_hat_1, [1.0])
        np.testing.assert_allclose(m.mu_hat_2, [8.0])
        # per-class divisors n_r - 1: SS1 = 2 over 1, SS2 = 14 over 2
        np.testing.assert_allclose(m.sigma_hat_1, [[2.0]])
        np.testing.assert_allclose(m.sigma_hat_2, [[7.0]])
        assert m.log_det_1 == pytest.approx(np.log(2.0))
        assert m.log_det_2 == pytest.approx(np.log(7.0))

    def test_hand_rule_probes(self):
        Z = np.array([[0.0], [2.0], [5.0], [9.0], [10.0]])
        y = np.array([1, 1, 2, 2, 2])
        m = bc.fit_qda(Z, y)

        def disc(z):
            return (
                np.log(0.4 / 0.6)
                + 0.5 * (np.log(7.0) - np.log(2.0))
                + 0.5 * ((z - 8.0) ** 2 / 7.0 - (z - 1.0) ** 2 / 2.0)
            )

        for z in [-2.0, 0.5, 1.0, 3.0, 4.5, 8.0, 12.0]:
            want = 1 if disc(z) >= 0 else 2
            assert bc.predict_qda_many(m, [[z]])[0] == want

    def test_matches_gaussian_log_likelihood_ratio(self, rng):
        X, y = make_blobs(40, 2, 2.0, seed=3)
        m = bc.fit_qda(X, y)
        probes = rng.normal(size=(30, 2))
        ll_1 = stats.multivariate_normal(m.mu_hat_1, m.sigma_hat_1).logpdf(probes)
        ll_2 = stats.multivariate_normal(m.mu_hat_2, m.sigma_hat_2).logpdf(probes)
        ratio = np.log(m.pi_hat_1 / m.pi_hat_2) + ll_1 - ll_2
        np.testing.assert_array_equal(m.predict_many(probes), np.where(ratio >= 0, 1, 2))

    def test_rejects_small_classes(self):
        Z = np.random.default_rng(0).normal(size=(5, 3))
        y = np.array([1, 1, 1, 2, 2])
        with pytest.raises(errors.InvalidDimensionError):
            bc.fit_qda(Z, y)  # class 2 has 2 < d + 1 = 4 members

    def test_loo_matches_explicit_refit(self):
        gen = np.random.default_rng(43)
        for trial in range(20):
            d = int(gen.integers(1, 4))
            n1 = int(gen.integers(d + 3, d + 9))
            n2 = int(gen.integers(d + 3, d + 9))
            Z = gen.normal(size=(n1 + n2, d))
            Z[:n1] -= 1.0
            y = np.array([1] * n1 + [2] * n2)
            labels, failed = bc.qda_loo_labels(Z, y)
            assert not failed.any()
            keep = np.ones(len(y), dtype=bool)
            for i in range(len(y)):
                keep[i] = False
                ref = bc.fit_qda(Z[keep], y[keep])
                assert labels[i] == bc.predict_qda_many(ref, Z[i][None, :])[0], (trial, i)
                keep[i] = True

    def test_loo_slow_path_on_singular_class_scatter(self, monkeypatch):
        Z, y = _singular_class_instance()
        Z1 = Z[y == 1]
        dev = Z1 - Z1.mean(axis=0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(dev.T @ dev)
        refits = count_loo_refits(monkeypatch)
        labels, failed = bc.qda_loo_labels(Z, y)
        assert refits == list(range(len(y)))
        assert not failed.all()
        assert_equals_explicit_qda_refits(Z, y, labels, failed)

    def test_estimator_refits_every_point_when_the_fit_needed_its_ridge(self, monkeypatch):
        Z, y = _singular_class_instance()
        refits = count_loo_refits(monkeypatch)
        _, _, labels = ee._estimate_full(Z, y, bc.BaseSpec("qda"), "leave_one_out")
        assert refits == list(range(len(y)))
        assert_equals_explicit_qda_refits(Z, y, labels, np.zeros(len(y), dtype=bool))

    def test_loo_refits_point_whose_deletion_is_degenerate(self, monkeypatch):
        # Without its last point class 1 lies on the line z2 = 2 z1: the
        # downdate pivot for that point is zero up to rounding.
        Z1 = np.array([[-2.0, -4.0], [-1.0, -2.0], [1.0, 2.0], [2.0, 4.0], [0.0, 3.0]])
        Z2 = np.random.default_rng(3).normal(size=(6, 2)) + [3.0, 0.0]
        Z = np.vstack([Z1, Z2])
        y = np.array([1] * 5 + [2] * 6)
        refits = count_loo_refits(monkeypatch)
        labels, failed = bc.qda_loo_labels(Z, y)
        assert refits == [4]
        assert_equals_explicit_qda_refits(Z, y, labels, failed)

    def test_loo_flags_too_small_class(self):
        # deleting a class-2 point leaves d points: refit infeasible
        gen = np.random.default_rng(5)
        d = 2
        Z = gen.normal(size=(10, d))
        y = np.array([1] * 7 + [2] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels, failed = bc.qda_loo_labels(Z, y)
        assert failed[y == 2].all()
        assert not failed[y == 1].any()

    def test_label_swap_flips_predictions(self):
        X, y = make_blobs(20, 2, 1.5, seed=6)
        m = bc.fit_qda(X, y)
        m_sw = bc.fit_qda(X, 3 - y)
        probes = np.random.default_rng(9).normal(size=(40, 2))
        np.testing.assert_array_equal(m.predict_many(probes), 3 - m_sw.predict_many(probes))


class TestKnn:
    def test_default_k(self):
        assert bc.default_knn_k(3) == 3
        assert bc.default_knn_k(9) == 3
        assert bc.default_knn_k(26) == 5
        assert bc.default_knn_k(100) == 10

    def test_matches_brute_force_on_generic_data(self):
        gen = np.random.default_rng(17)
        for trial in range(25):
            n = int(gen.integers(5, 30))
            d = int(gen.integers(1, 4))
            k = int(gen.integers(1, n + 1))
            Z = gen.normal(size=(n, d))
            y = gen.integers(1, 3, size=n)
            if len(np.unique(y)) < 2:
                y[0] = 1
                y[1] = 2
            m = bc.fit_knn(Z, y, k=k)
            queries = gen.normal(size=(8, d))
            got = m.predict_many(queries)
            for j, q in enumerate(queries):
                dist = np.sum((Z - q) ** 2, axis=1)
                order = np.argsort(dist)
                c1 = int(np.sum(y[order[:k]] == 1))
                want = 1 if 2 * c1 >= k else 2
                assert got[j] == want, (trial, j)

    def test_half_split_tie_goes_to_class_1(self):
        Z = np.array([[-1.0], [1.0]])
        y = np.array([1, 2])
        m = bc.fit_knn(Z, y, k=2)
        assert bc.predict_knn_many(m, [[0.3]])[0] == 1
        assert bc.predict_knn_many(m, [[-0.3]])[0] == 1

    def test_distance_ties_are_deterministic_and_order_free(self):
        # unit square corners: every query at the centre ties all four
        Z = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([1, 2, 2, 2])
        ids = np.arange(4)
        queries = np.array([[0.5, 0.5], [0.5, 0.5]])
        m = bc.fit_knn(Z, y, k=2, tie_seed=11, point_ids=ids)
        first = m.predict_many(queries)
        np.testing.assert_array_equal(first[0], first[1])

        perm = np.array([2, 0, 3, 1])
        m_perm = bc.fit_knn(Z[perm], y[perm], k=2, tie_seed=11, point_ids=ids[perm])
        np.testing.assert_array_equal(first, m_perm.predict_many(queries))

    def test_tie_seed_changes_tie_resolution(self):
        # a 1-in-2 tie pick: some seed pair must disagree somewhere
        Z = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([1, 2, 1, 2])
        queries = np.array([[0.5, 0.5]])
        picks = {
            int(bc.fit_knn(Z, y, k=1, tie_seed=s).predict_many(queries)[0]) for s in range(40)
        }
        assert picks == {1, 2}

    def test_loo_matches_explicit_refit(self):
        gen = np.random.default_rng(23)
        for trial in range(15):
            n = int(gen.integers(6, 25))
            d = int(gen.integers(1, 3))
            k = int(gen.integers(1, n))
            Z = gen.normal(size=(n, d))
            y = gen.integers(1, 3, size=n)
            y[:2] = [1, 2]
            ids = np.arange(n)
            labels = bc.knn_loo_labels(Z, y, k, tie_seed=7, point_ids=ids)
            keep = np.ones(n, dtype=bool)
            for i in range(n):
                keep[i] = False
                ref = bc.fit_knn(
                    Z[keep], y[keep], k=min(k, n - 1), tie_seed=7, point_ids=ids[keep]
                )
                assert labels[i] == bc.predict_knn_many(ref, Z[i][None, :])[0], (trial, i)
                keep[i] = True

    def test_tie_hash_picks_match_an_independent_ranking(self):
        # Integer grid data make exact distance ties common.  The reference
        # ranks every candidate by (squared distance, tie key) and takes the
        # first k; the library takes every point inside the k-th distance and
        # breaks only the ties at it by the key.
        gen = np.random.default_rng(2024)

        def reference(Z, y, k, tie_seed, ids, queries, loo, order_key):
            labels, kinds = [], set()
            for i, q in enumerate(queries):
                qb = np.ascontiguousarray(q, dtype=np.float64).tobytes()
                dist = np.sum((Z - q) ** 2, axis=1)  # exact on the grid
                pool = [j for j in range(len(Z)) if not (loo and j == i)]
                order = sorted(pool, key=lambda j: (dist[j], order_key(tie_seed, ids[j], qb)))
                labels.append(1 if 2 * np.sum(y[order[:k]] == 1) >= k else 2)
                kth = dist[order[k - 1]]
                tied = sum(dist[j] == kth for j in pool)
                need = k - sum(dist[j] < kth for j in pool)
                kinds.add("exact" if tied == need > 1 else "over" if tied > need else "plain")
            return np.array(labels), kinds

        def tie_key(tie_seed, pid, qb):
            return bc._tie_key(tie_seed, int(pid), qb)

        def by_id(tie_seed, pid, qb):
            return int(pid)

        kinds, sensitive = set(), False
        for trial in range(30):
            n = int(gen.integers(8, 30))
            d = int(gen.integers(1, 3))
            k = int(gen.integers(1, n))
            Z = gen.integers(-2, 3, size=(n, d)).astype(np.float64)
            y = gen.integers(1, 3, size=n)
            y[:2] = [1, 2]
            ids = gen.permutation(1000)[:n]
            tie_seed = int(gen.integers(0, 2**31))
            queries = gen.integers(-2, 3, size=(10, d)).astype(np.float64)
            for loo, Q, k_eff, got in (
                (False, queries, k,
                 bc.predict_knn_many(bc.fit_knn(Z, y, k, tie_seed, ids), queries)),
                (True, Z, min(k, n - 1), bc.knn_loo_labels(Z, y, k, tie_seed, ids)),
            ):
                want, seen = reference(Z, y, k_eff, tie_seed, ids, Q, loo, tie_key)
                np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}, loo={loo}")
                kinds |= seen
                wrong, _ = reference(Z, y, k_eff, tie_seed, ids, Q, loo, by_id)
                sensitive |= not np.array_equal(wrong, want)
        assert {"exact", "over"} <= kinds
        # Ranking ties by point id instead changes some label, so the
        # comparison above can see a wrong tie order.
        assert sensitive

    def test_tie_hash_runs_only_on_tied_rows(self, monkeypatch):
        # The spy counts the keys hashed per query; the test counts, per
        # query, the points at its k-th distance when more than k points
        # lie at or below it, and none otherwise.
        hashed = Counter()
        tie_key = bc._tie_key

        def spy(tie_seed, pid, qb):
            hashed[qb] += 1
            return tie_key(tie_seed, pid, qb)

        def tied_keys(Z, k, queries, loo):
            want = Counter()
            for i, q in enumerate(queries):
                dist = np.sum((Z - q) ** 2, axis=1)  # exact on the grid
                if loo:
                    dist = np.delete(dist, i)
                kth = np.sort(dist)[k - 1]
                if np.sum(dist <= kth) > k:
                    want[q.tobytes()] += int(np.sum(dist == kth))
            return want

        monkeypatch.setattr(bc, "_tie_key", spy)
        gen = np.random.default_rng(77)
        Z = gen.normal(size=(40, 2))
        y = np.array([1, 2] * 20)
        bc.predict_knn_many(bc.fit_knn(Z, y, k=7, tie_seed=3), gen.normal(size=(30, 2)))
        bc.knn_loo_labels(Z, y, 7, tie_seed=3)
        assert not hashed

        tied_rows = plain_rows = 0
        for trial in range(10):
            n = int(gen.integers(10, 30))
            k = int(gen.integers(1, n - 1))
            Z = gen.integers(-3, 4, size=(n, 2)).astype(np.float64)
            y = gen.integers(1, 3, size=n)
            queries = gen.integers(-3, 4, size=(20, 2)).astype(np.float64)
            for loo, Q in ((False, queries), (True, Z)):
                hashed.clear()
                if loo:
                    bc.knn_loo_labels(Z, y, k, tie_seed=trial)
                else:
                    bc.predict_knn_many(bc.fit_knn(Z, y, k=k, tie_seed=trial), Q)
                want = tied_keys(Z, k, Q, loo)
                assert hashed == want, (trial, loo)
                tied = np.array([q.tobytes() in want for q in Q])
                tied_rows += int(tied.sum())
                plain_rows += int((~tied).sum())
        assert tied_rows and plain_rows

    @pytest.mark.parametrize("kwargs, error", [
        ({"k": 0}, errors.InvalidDimensionError),
        ({"k": -1}, errors.InvalidDimensionError),
        ({"k": 3, "point_ids": np.arange(3)}, errors.ShapeMismatchError),
        ({"k": 3, "point_ids": np.full(10, 4)}, errors.ShapeMismatchError),
    ], ids=["k_zero", "k_negative", "three_ids_for_ten_points", "repeated_ids"])
    def test_loo_refuses_what_fit_refuses(self, kwargs, error):
        Z = np.random.default_rng(4).normal(size=(10, 2))
        y = np.array([1, 2] * 5)
        with pytest.raises(error):
            bc.fit_knn(Z, y, **kwargs)
        with pytest.raises(error):
            bc.knn_loo_labels(Z, y, **kwargs)

    def test_loo_clamps_k_to_the_points_left(self):
        Z = np.random.default_rng(5).normal(size=(9, 2))
        y = np.array([1, 2] * 4 + [1])
        np.testing.assert_array_equal(
            bc.knn_loo_labels(Z, y, 50, tie_seed=2), bc.knn_loo_labels(Z, y, 8, tie_seed=2)
        )

    def test_label_swap_flips_predictions_odd_k(self):
        X, y = make_blobs(15, 2, 1.0, seed=31)
        m = bc.fit_knn(X, y, k=5)
        m_sw = bc.fit_knn(X, 3 - y, k=5)
        probes = np.random.default_rng(3).normal(size=(40, 2))
        np.testing.assert_array_equal(m.predict_many(probes), 3 - m_sw.predict_many(probes))

    def test_fit_validation(self):
        Z = np.zeros((3, 1))
        y = np.array([1, 2, 1])
        with pytest.raises(errors.InvalidDimensionError):
            bc.fit_knn(Z, y, k=4)
        with pytest.raises(errors.ShapeMismatchError):
            bc.fit_knn(Z, y, k=2, point_ids=np.array([0, 0, 1]))


class TestBoundaryRows:
    """A row within rounding of the boundary takes the exact discriminant."""

    @pytest.mark.parametrize("kind", sorted(EXACT_PATHS))
    def test_rows_on_the_boundary_take_the_exact_path(self, monkeypatch, kind):
        fit, discriminant, exact, calls = EXACT_PATHS[kind]
        X, y = make_blobs(30, 4, 2.0, seed=9)
        m = fit(X[:50], y[:50])
        t = 0.3 * np.random.default_rng(10).normal(size=(40, 4))
        B = boundary_points(lambda Z: discriminant(m, Z), m.mu_hat_1 + t, m.mu_hat_2 + t)
        seen = spy_rows(monkeypatch, *exact)
        labels = m.predict_many(np.vstack([B, X]))
        expected = np.concatenate([discriminant(m, B), discriminant(m, X)]) >= 0.0
        np.testing.assert_array_equal(labels, np.where(expected, 1, 2))
        # Only the boundary rows, all of them, took the exact path.
        assert seen == [len(B)] * calls
        assert set(labels[: len(B)]) == {1, 2}

    @pytest.mark.parametrize("kind", ["lda", "qda", "knn"])
    def test_zero_rows(self, kind):
        X, y = make_blobs(10, 3, 2.0, seed=5)
        m = bc.fit_base(bc.BaseSpec(kind), X, y)
        labels = m.predict_many(np.zeros((0, 3)))
        assert labels.shape == (0,) and labels.dtype == np.int64


class TestBaseSpec:
    def test_dispatch(self):
        X, y = make_blobs(12, 2, 2.0, seed=1)
        assert isinstance(bc.fit_base(bc.BaseSpec("lda"), X, y), bc.LdaModel)
        assert isinstance(bc.fit_base(bc.BaseSpec("qda"), X, y), bc.QdaModel)
        m = bc.fit_base(bc.BaseSpec("knn"), X, y)
        assert isinstance(m, bc.KnnModel)
        assert m.k == bc.default_knn_k(24)

    def test_validation(self):
        with pytest.raises(ValueError):
            bc.BaseSpec("tree")
        with pytest.raises(ValueError):
            bc.BaseSpec("lda", k=3)
        assert bc.BaseSpec("knn", k=7).resolve_k(100) == 7
        assert bc.BaseSpec("knn").resolve_k(100) == 10


class TestLabels:
    @pytest.mark.parametrize("bad", [0, 3, 1.5, "1"], ids=repr)
    @pytest.mark.parametrize("kind", ["lda", "qda", "knn"])
    def test_labels_outside_one_and_two_are_refused(self, kind, bad):
        X, y = make_blobs(6, 2, 2.0, seed=3)
        labels = [int(v) for v in y[:-1]] + [bad]
        for damaged in (np.array(labels, dtype=object), np.array(labels), np.full(len(y), bad)):
            with pytest.raises(ValueError, match=r"labels must take values in \{1, 2\}"):
                bc.fit_base(bc.BaseSpec(kind), X, damaged)

    @pytest.mark.parametrize("kind", ["lda", "qda", "knn"])
    def test_boolean_labels_are_refused(self, kind):
        # True == 1 in numpy, so only the dtype tells a boolean array apart.
        X, y = make_blobs(6, 2, 2.0, seed=3)
        for damaged in (np.ones(len(y), dtype=bool), y == 1):
            with pytest.raises(ValueError, match=r"labels must take values in \{1, 2\}"):
                bc.fit_base(bc.BaseSpec(kind), X, damaged)

    def test_labels_of_other_numeric_dtypes_are_read(self):
        X, y = make_blobs(6, 2, 2.0, seed=3)
        ref = bc.fit_lda(X, y)
        for dtype in (np.int8, np.uint16, np.float32, object):
            m = bc.fit_lda(X, y.astype(dtype))
            np.testing.assert_array_equal(m.omega_hat, ref.omega_hat)
