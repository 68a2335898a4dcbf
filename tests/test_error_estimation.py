from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpens import base_classifiers as bc
from rpens import error_estimation as ee
from rpens import errors

from conftest import make_blobs


class TestErrorEstimate:
    @given(m=st.integers(min_value=1, max_value=500), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_value_is_exact_count_over_m(self, m, data):
        k = data.draw(st.integers(min_value=0, max_value=m))
        est = ee.ErrorEstimate(errors=k, m=m, method="resubstitution")
        assert est.errors == k
        assert Fraction(est.errors, est.m) == Fraction(k, m)
        assert est.value == k / m

    def test_rejects_non_rational_and_out_of_range(self):
        with pytest.raises(TypeError):
            ee.ErrorEstimate(errors=0.5, m=2, method="resubstitution")
        with pytest.raises(ValueError):
            ee.ErrorEstimate(errors=-1, m=10, method="resubstitution")
        with pytest.raises(ValueError):
            ee.ErrorEstimate(errors=1, m=2, method="bootstrap")
        with pytest.raises(ValueError):
            ee.ErrorEstimate(errors=3, m=2, method="leave_one_out")

    def test_default_pairing(self):
        assert ee.default_estimator("lda") == "resubstitution"
        assert ee.default_estimator("qda") == "leave_one_out"
        assert ee.default_estimator("knn") == "leave_one_out"


class TestResubstitution:
    @pytest.mark.parametrize("kind", ["lda", "qda", "knn"])
    def test_equals_direct_recount(self, kind):
        X, y = make_blobs(15, 2, 1.2, seed=2)
        spec = bc.BaseSpec(kind)
        est = ee.resubstitution(X, y, spec)
        model = bc.fit_base(spec, X, y)
        direct = int(np.sum(model.predict_many(X) != y))
        assert est.errors == direct
        assert est.m == len(y)
        assert est.method == "resubstitution"

    def test_is_optimistic_for_one_nearest_neighbour(self):
        # every point is its own nearest neighbour, so the count is 0
        X, y = make_blobs(20, 3, 0.2, seed=13)
        est = ee.resubstitution(X, y, bc.BaseSpec("knn", k=1))
        assert est.errors == 0


class TestLeaveOneOut:
    @pytest.mark.parametrize("kind", ["lda", "qda", "knn"])
    def test_equals_explicit_per_point_refit(self, kind):
        gen = np.random.default_rng(101)
        for trial in range(8):
            d = int(gen.integers(1, 3))
            n1 = int(gen.integers(d + 4, d + 10))
            n2 = int(gen.integers(d + 4, d + 10))
            Z = gen.normal(size=(n1 + n2, d))
            Z[:n1, 0] -= 1.5
            y = np.array([1] * n1 + [2] * n2)
            spec = bc.BaseSpec(kind, tie_seed=5) if kind == "knn" else bc.BaseSpec(kind)
            n = len(y)
            ids = np.arange(n)
            est = ee.leave_one_out(Z, y, spec, point_ids=ids)

            wrong = 0
            keep = np.ones(n, dtype=bool)
            for i in range(n):
                keep[i] = False
                if kind == "knn":
                    # k is resolved once on the full sample, then held
                    # fixed through the refits (clamped to what remains)
                    ref = bc.fit_knn(
                        Z[keep],
                        y[keep],
                        k=min(spec.resolve_k(n), n - 1),
                        tie_seed=spec.tie_seed,
                        point_ids=ids[keep],
                    )
                else:
                    ref = bc.fit_base(spec, Z[keep], y[keep])
                wrong += int(ref.predict_many(Z[i][None, :])[0] != y[i])
                keep[i] = True
            assert est.errors == wrong, (kind, trial)
            assert est.m == len(y)

    def test_knn_invariant_to_row_order_with_ids(self):
        # grid data generates exact distance ties; identity-keyed
        # tie-breaks make the estimate independent of storage order
        xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0))
        Z = np.column_stack([xs.ravel(), ys.ravel()])
        y = np.array([1, 2] * 8)
        ids = np.arange(16)
        spec = bc.BaseSpec("knn", k=4, tie_seed=3)
        base = ee.leave_one_out(Z, y, spec, point_ids=ids)
        gen = np.random.default_rng(0)
        for _ in range(5):
            perm = gen.permutation(16)
            est = ee.leave_one_out(Z[perm], y[perm], spec, point_ids=ids[perm])
            assert est.value == base.value

    def test_lda_refit_failure_raises_with_point_index(self):
        # n = d + 2: deleting any point starves the pooled covariance
        Z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1, 1, 2, 2])
        with pytest.raises(errors.EstimationFailureError) as exc_info:
            ee.leave_one_out(Z, y, bc.BaseSpec("lda"))
        assert "point 0" in str(exc_info.value)

    def test_qda_infeasible_refits_count_as_errors(self):
        gen = np.random.default_rng(3)
        d = 2
        Z = gen.normal(size=(11, d))
        Z[8:] += 4.0
        y = np.array([1] * 8 + [2] * 3)  # class 2 at the d + 1 floor
        spec = bc.BaseSpec("qda")
        with pytest.warns(UserWarning, match="refits failed"):
            est = ee.leave_one_out(Z, y, spec)
        labels, failed = bc.qda_loo_labels(Z, y)
        assert failed.sum() == 3
        manual = int(np.sum(labels[~failed] != y[~failed])) + int(failed.sum())
        assert est.errors == manual


class TestSampleSplit:
    def test_counts_errors_on_held_out_half_only(self):
        X, y = make_blobs(20, 2, 2.0, seed=21)
        spec = bc.BaseSpec("lda")
        est, model, labels = ee._estimate_full(X, y, spec, "sample_split")
        n = len(y)
        half = n // 2
        ref = bc.fit_lda(X[:half], y[:half])
        np.testing.assert_allclose(ref.mu_hat_1, model.mu_hat_1)
        np.testing.assert_allclose(ref.sigma_hat, model.sigma_hat)
        direct = int(np.sum(ref.predict_many(X[half:]) != y[half:]))
        assert est.errors == direct
        assert est.m == n - half
        assert labels is None

    def test_public_wrapper(self):
        X, y = make_blobs(12, 2, 2.0, seed=22)
        est = ee.sample_split(X[:12], y[:12], X[12:], y[12:], bc.BaseSpec("knn", k=3))
        assert est.method == "sample_split"
        assert est.m == 12

    def test_rejects_empty_side(self):
        X, y = make_blobs(6, 2, 2.0, seed=23)
        # one point splits into an empty fitting half
        with pytest.raises(ValueError, match="both sides"):
            ee._estimate_full(X[:1], y[:1], bc.BaseSpec("lda"), "sample_split")


def test_unknown_estimator_rejected():
    X, y = make_blobs(8, 2, 2.0, seed=1)
    with pytest.raises(ValueError):
        ee._estimate_full(X, y, bc.BaseSpec("lda"), "bootstrap")
