import itertools
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpens import base_classifiers as bc
from rpens import ensemble as en
from rpens import error_estimation as ee
from rpens import datagen, errors, projections, rng, serialize

from conftest import (
    EXACT_PATHS, alpha_candidates, alpha_objective, assert_equals_explicit_qda_refits,
    boundary_points, count_loo_refits, make_blobs, pooled_covariance, rank_deficient_sample,
    spy_rows,
)


def _axis_projection(p, coord):
    entries = np.zeros((1, p))
    entries[0, coord] = 1.0
    return projections.Projection(entries=entries, kind="axis_aligned")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            en.EnsembleConfig(B1=0, B2=1, d=1)
        with pytest.raises(errors.InvalidDimensionError):
            en.EnsembleConfig(B1=1, B2=1, d=0)
        with pytest.raises(ValueError):
            en.EnsembleConfig(B1=1, B2=1, d=1, base="forest")
        with pytest.raises(ValueError):
            en.EnsembleConfig(B1=1, B2=1, d=1, estimator="bootstrap")
        with pytest.raises(ValueError):
            en.EnsembleConfig(B1=1, B2=1, d=1, base="lda", knn_k=3)
        with pytest.raises(ValueError):
            en.EnsembleConfig(B1=1, B2=1, d=1, alpha=1.0)
        with pytest.raises(ValueError):
            en.EnsembleConfig(B1=1, B2=1, d=1, projection_kind="sparse")

    def test_estimator_defaults(self):
        assert en.EnsembleConfig(B1=1, B2=1, d=1).estimator_name == "resubstitution"
        assert en.EnsembleConfig(B1=1, B2=1, d=1, base="qda").estimator_name == "leave_one_out"
        assert en.EnsembleConfig(B1=1, B2=1, d=1, base="knn").estimator_name == "leave_one_out"
        cfg = en.EnsembleConfig(B1=1, B2=1, d=1, base="knn", estimator="sample_split")
        assert cfg.estimator_name == "sample_split"


class TestSelectBlockWinner:
    def _block_data(self):
        gen = np.random.default_rng(37)
        X = gen.normal(size=(30, 4))
        X[:15, 0] -= 4.0
        X[15:, 0] += 4.0
        y = np.array([1] * 15 + [2] * 15)
        return X, y

    def test_separable_axis_wins_with_zero_estimate(self):
        X, y = self._block_data()
        noise = _axis_projection(4, 2)
        signal = _axis_projection(4, 0)
        proj, est, model = en.select_block_winner(
            X, y, [noise, signal], bc.BaseSpec("knn", k=3), "leave_one_out"
        )
        assert proj is signal
        assert est.errors == 0
        assert isinstance(model, bc.KnnModel)

    def test_equal_estimates_keep_smallest_index(self):
        X, y = self._block_data()
        first = _axis_projection(4, 0)
        second = _axis_projection(4, 0)
        proj, est, _ = en.select_block_winner(
            X, y, [first, second], bc.BaseSpec("lda"), "resubstitution"
        )
        assert proj is first

    def test_matches_exhaustive_recount(self):
        gen = np.random.default_rng(11)
        X, y = make_blobs(12, 5, 1.0, seed=44)
        block = [projections.sample_haar(5, 2, rng.make_rng(9, "blk", i)) for i in range(6)]
        spec = bc.BaseSpec("lda")
        proj, est, _ = en.select_block_winner(X, y, block, spec, "resubstitution")
        recounted = [
            ee._estimate_full(b.apply(X), y, spec, "resubstitution")[0].errors for b in block
        ]
        assert est.errors == min(recounted)
        assert proj is block[int(np.argmin(recounted))]

    def test_empty_block_raises(self):
        X, y = self._block_data()
        with pytest.raises(errors.BlockFailureError):
            en.select_block_winner(X, y, [], bc.BaseSpec("lda"), "resubstitution")

    @pytest.mark.parametrize("labels, error", [
        ([1.5] * 10 + [2.0] * 10, ValueError),
        ([2] * 20, errors.MissingClassError),
    ], ids=["fractional", "one_class"])
    def test_labels_fit_refuses_are_refused_before_projecting(self, monkeypatch, labels, error):
        X = np.random.default_rng(38).normal(size=(20, 4))
        block = [projections.sample_haar(4, 2, rng.make_rng(1, i)) for i in range(3)]

        def refuse_apply(*args, **kwargs):
            raise AssertionError("projected before the labels were checked")

        monkeypatch.setattr(projections, "_apply_stack", refuse_apply)
        with pytest.raises(error):
            en.select_block_winner(X, labels, block, bc.BaseSpec("lda"), "resubstitution")

    @pytest.mark.parametrize("base, estimator", [
        ("lda", "resubstitution"), ("lda", "leave_one_out"), ("qda", "leave_one_out"),
        ("knn", "leave_one_out"),
    ])
    def test_block_of_mixed_dimension_is_refused_before_projecting(
        self, monkeypatch, base, estimator
    ):
        X, y = make_blobs(15, 6, 1.0, seed=68)
        block = [projections.sample_haar(6, d, rng.make_rng(2, i)) for i, d in enumerate((2, 2, 3))]

        def refuse_apply(*args, **kwargs):
            raise AssertionError("projected a block of mixed dimension")

        monkeypatch.setattr(projections, "_apply_stack", refuse_apply)
        with pytest.raises(errors.InvalidDimensionError, match="one dimension"):
            en.select_block_winner(X, y, block, bc.BaseSpec(base), estimator)

    def test_all_candidates_failing_raises(self):
        # constant rows per class leave nothing for a covariance estimate
        X = np.vstack([np.zeros((3, 4)), np.ones((3, 4))])
        y = np.array([1, 1, 1, 2, 2, 2])
        block = [_axis_projection(4, 0), _axis_projection(4, 1)]
        with pytest.raises(errors.BlockFailureError):
            en.select_block_winner(X, y, block, bc.BaseSpec("lda"), "resubstitution")


class TestStackedProjection:
    """Candidates and winners are projected in groups of p // d per product."""

    @pytest.mark.parametrize("base", ["lda", "qda", "knn"])
    def test_votes_many_over_row_chunks_matches_per_projection_loop(self, base):
        X, y = make_blobs(20, 6, 1.5, seed=60)
        m = en.fit(X, y, en.EnsembleConfig(B1=7, B2=2, d=2, base=base, master_seed=5))
        probes = np.random.default_rng(61).normal(size=(2 * en._ROW_CHUNK + 1, 6))
        expected = sum(
            (bm.predict_many(proj.apply(probes)) == 1).astype(np.int64)
            for proj, bm in zip(m.projections, m.base_models)
        )
        np.testing.assert_array_equal(en.votes_many(m, probes), expected)

    @staticmethod
    def _count_groups(monkeypatch):
        groups = []
        apply_stack = projections._apply_stack

        def counting_apply_stack(projs, X):
            groups.append(len(projs))
            return apply_stack(projs, X)

        monkeypatch.setattr(projections, "_apply_stack", counting_apply_stack)
        return groups

    def test_fit_and_votes_call_the_stacked_product_once_per_group(self, monkeypatch):
        groups = []
        apply_stack = projections._apply_stack

        def counting_apply_stack(projs, X):
            groups.append(len(projs))
            return apply_stack(projs, X)

        def refuse_apply(*args, **kwargs):
            raise AssertionError("projections.apply called")

        monkeypatch.setattr(projections, "_apply_stack", counting_apply_stack)
        monkeypatch.setattr(projections, "apply", refuse_apply)
        X, y = make_blobs(13, 6, 2.0, seed=62)
        cfg = en.EnsembleConfig(B1=4, B2=7, d=2, base="lda", master_seed=3)
        m = en.fit(X, y, cfg)
        assert groups == [3, 3, 1] * cfg.B1
        groups.clear()
        # lda winners vote through their folded vectors: no row here is
        # near a boundary, so nothing is projected.
        en.votes_many(m, X)
        assert groups == []
        m = en.fit(X, y, replace(cfg, base="qda"))
        groups.clear()
        en.votes_many(m, X)
        assert groups == [3, 1]

    def test_groups_cross_block_boundaries_when_b2_is_below_p_over_d(self, monkeypatch):
        # p // d = 6 candidates per product: waves of three blocks of two.
        groups = self._count_groups(monkeypatch)
        X, y = make_blobs(13, 12, 2.0, seed=65)
        cfg = en.EnsembleConfig(B1=4, B2=2, d=2, base="lda", master_seed=3)
        m = en.fit(X, y, cfg)
        assert groups == [6, 2]
        groups.clear()
        en.select_d_profile(X, y, [2, 3], cfg)
        assert groups == [6, 2, 4, 4]
        groups.clear()
        en.votes_many(m, X)
        assert groups == []
        m = en.fit(X, y, replace(cfg, base="qda"))
        groups.clear()
        en.votes_many(m, X)
        assert groups == [4]

    # (p, B2): a block of several groups, and waves of blocks sharing a group.
    @pytest.mark.parametrize("p, B2", [(6, 7), (12, 2)], ids=["groups_per_block", "blocks_per_group"])
    @pytest.mark.parametrize("base", ["lda", "qda", "knn"])
    def test_block_of_several_groups_matches_per_candidate_fits(self, base, p, B2):
        X, y = make_blobs(13, p, 1.0, seed=63)
        cfg = en.EnsembleConfig(B1=4, B2=B2, d=2, base=base, master_seed=8)
        m = en.fit(X, y, cfg)
        for b1 in range(cfg.B1):
            counts = []
            for b2 in range(cfg.B2):
                proj = en._sample_projections(cfg, p, [(b1, b2, en._TAG_PROJECTION)])[0]
                spec = en._base_spec(cfg, rng.derive_int(cfg.master_seed, b1, b2, en._TAG_TIEBREAK))
                try:
                    est, _, _ = ee._estimate_full(proj.apply(X), y, spec, cfg.estimator_name)
                except en._CANDIDATE_ERRORS:
                    counts.append(-1)
                else:
                    counts.append(est.errors)
            np.testing.assert_array_equal(m.block_error_counts[b1], counts)
            assert m.winner_indices[b1] == counts.index(min(c for c in counts if c >= 0))

    @pytest.mark.parametrize("base", ["lda", "qda"])
    def test_one_block_of_a_wave_falls_back_alone(self, monkeypatch, base):
        X, y = make_blobs(13, 12, 1.0, seed=66)
        cfg = en.EnsembleConfig(B1=4, B2=2, d=2, base=base, master_seed=4)
        groups = self._count_groups(monkeypatch)
        seen = []
        stacked_counts = en._stacked_counts

        def refuse_second_block(*args):
            seen.append(None if len(seen) == 1 else stacked_counts(*args))
            return seen[-1]

        monkeypatch.setattr(en, "_stacked_counts", refuse_second_block)
        m = en.fit(X, y, cfg)
        assert groups == [6, 2]
        assert [c is None for c in seen] == [False, True, False, False]
        ref = _scalar_reference(monkeypatch, lambda: en.fit(X, y, cfg))
        assert serialize.dumps(m) == serialize.dumps(ref)


def _spy_stacked_counts(monkeypatch):
    """The list of what each call of the stacked scorer returns from now on."""
    seen = []
    stacked_counts = en._stacked_counts

    def spying(*args):
        seen.append(stacked_counts(*args))
        return seen[-1]

    monkeypatch.setattr(en, "_stacked_counts", spying)
    return seen


def _scalar_reference(monkeypatch, run):
    """run() with the stacked scorer taken out, so every block takes the scalar loop."""
    with monkeypatch.context() as patch:
        patch.setattr(en, "_stacked_counts", lambda *args: None)
        return run()


def _block_outputs(blk):
    return (
        blk.winner_index, blk.projection.entries.tobytes(), blk.estimate,
        serialize._encode_base_model(blk.model), blk.vote_labels.tolist(),
        blk.candidate_counts.tolist(),
    )


class TestStackedScorer:
    """Blocks are scored as a stack of counts; the scalar loop is their oracle."""

    @pytest.mark.parametrize("base, estimator", sorted(en._STACKED_SCORERS))
    @pytest.mark.parametrize("model_id", [1, 2, 3, 4])
    def test_counts_and_fit_equal_the_scalar_loop(self, monkeypatch, model_id, base, estimator):
        seen = _spy_stacked_counts(monkeypatch)
        for n, d in itertools.product((30, 50, 200), (2, 5)):
            s = datagen.sample(datagen.ModelSpec(model_id=model_id, p=50), n,
                               rng.make_rng(77, model_id, n))
            cfg = en.EnsembleConfig(B1=2, B2=50, d=d, base=base, estimator=estimator,
                                    master_seed=100 * n + d)
            seen.clear()
            stacked = serialize.dumps(en.fit(s.X, s.y, cfg))
            assert len(seen) == cfg.B1 and all(c is not None for c in seen), (n, d)
            ref = _scalar_reference(monkeypatch, lambda: en.fit(s.X, s.y, cfg))
            np.testing.assert_array_equal(np.stack(seen), ref.block_error_counts)
            assert stacked == serialize.dumps(ref), (n, d)

    def test_rank_deficient_data_fall_back_to_ridge_and_failed_candidates(self, monkeypatch):
        X, y = rank_deficient_sample()
        with pytest.raises(np.linalg.LinAlgError):
            bc._lda_stack_discriminants(np.stack([X[:, [2, 3]], X[:, [2, 4]]]), y)
        cfg = en.EnsembleConfig(
            B1=3, B2=6, d=2, base="lda", projection_kind="axis_aligned", master_seed=1
        )
        seen = _spy_stacked_counts(monkeypatch)
        m = en.fit(X, y, cfg)
        assert len(seen) == cfg.B1 and all(c is None for c in seen)
        ref = _scalar_reference(monkeypatch, lambda: en.fit(X, y, cfg))
        assert serialize.dumps(m) == serialize.dumps(ref)
        assert (m.block_error_counts == -1).any()
        assert any(
            not np.allclose(bm.sigma_hat, pooled_covariance(proj.apply(X), y), rtol=1e-12, atol=0)
            for bm, proj in zip(m.base_models, m.projections)
        ), "no winner took the ridge fallback"

    def test_rank_one_scatter_falls_back_under_haar_projections(self, monkeypatch):
        # Each class is a line along one direction, so every projected pooled
        # covariance is singular; its Cholesky factorisation succeeds or
        # fails with the rounding, and the stack must refuse it either way.
        gen = np.random.default_rng(1)
        y = np.array([1] * 10 + [2] * 10)
        X = np.outer(y == 2, gen.normal(size=6)) + np.outer(gen.normal(size=20), gen.normal(size=6))
        cfg = en.EnsembleConfig(B1=8, B2=2, d=2, base="lda", master_seed=5)
        seen = _spy_stacked_counts(monkeypatch)
        m = en.fit(X, y, cfg)
        assert len(seen) == cfg.B1 and all(c is None for c in seen)
        ref = _scalar_reference(monkeypatch, lambda: en.fit(X, y, cfg))
        assert serialize.dumps(m) == serialize.dumps(ref)

    def test_qda_pivot_at_the_tolerance_falls_back(self, monkeypatch):
        # The data of the one-point refit test: without its last point
        # class 1 lies on a line, so that point's downdate pivot is zero up
        # to rounding, and stays so under any linear map.
        Z1 = np.array([[-2.0, -4.0], [-1.0, -2.0], [1.0, 2.0], [2.0, 4.0], [0.0, 3.0]])
        Z2 = np.random.default_rng(3).normal(size=(6, 2)) + [3.0, 0.0]
        Z = np.vstack([Z1, Z2])
        y = np.array([1] * 5 + [2] * 6)
        _, pivot = bc._qda_discriminants(Z[None], y, drop=1)
        assert np.flatnonzero(pivot[0] <= bc._LOO_PIVOT_TOL).tolist() == [4]
        block = [
            projections.Projection(entries=np.array([[0.6, 0.8], [-0.8, 0.6]])),
            projections.Projection(entries=np.eye(2)),
        ]
        candidates = [(proj, bc.BaseSpec("qda")) for proj in block]
        images = list(en._projected(Z, block))
        seen = _spy_stacked_counts(monkeypatch)
        blk = en._select(images, y, candidates, "leave_one_out")
        assert len(seen) == 1 and seen[0] is None
        ref = _scalar_reference(
            monkeypatch, lambda: en._select(images, y, candidates, "leave_one_out")
        )
        assert _block_outputs(blk) == _block_outputs(ref)

    def test_nearly_collinear_qda_class_downdates_alone_and_falls_back_in_the_stack(
        self, monkeypatch
    ):
        # Class 1 lies within 1e-3 of the line z2 = 2 z1: its covariance
        # factors, so fit_qda takes no ridge, but its second pivot keeps
        # far less than _STACK_COLLINEAR_TOL of the diagonal entry.
        gen = np.random.default_rng(8)
        t = gen.normal(size=8)
        Z1 = np.stack([t, 2.0 * t + 1e-3 * gen.normal(size=8)], axis=1)
        Z = np.vstack([Z1, gen.normal(size=(8, 2)) + [3.0, 0.0]])
        y = np.array([1] * 8 + [2] * 8)
        cov = np.cov(Z1, rowvar=False)
        assert np.linalg.cholesky(cov)[1, 1] ** 2 <= bc._STACK_COLLINEAR_TOL * cov[1, 1]
        refits = count_loo_refits(monkeypatch)
        labels, failed = bc.qda_loo_labels(Z, y)
        assert refits == [] and not failed.any()
        assert_equals_explicit_qda_refits(Z, y, labels, failed)

        block = [
            projections.Projection(entries=np.eye(2)),
            projections.Projection(entries=np.array([[0.0, 1.0], [1.0, 0.0]])),
        ]
        candidates = [(proj, bc.BaseSpec("qda")) for proj in block]
        images = list(en._projected(Z, block))
        seen = _spy_stacked_counts(monkeypatch)
        blk = en._select(images, y, candidates, "leave_one_out")
        assert len(seen) == 1 and seen[0] is None
        ref = _scalar_reference(
            monkeypatch, lambda: en._select(images, y, candidates, "leave_one_out")
        )
        assert _block_outputs(blk) == _block_outputs(ref)

    def test_exact_zero_discriminant_trips_the_margin_guard(self, monkeypatch):
        # Integer grid, equal classes: the point at 3 lies exactly on the
        # lda boundary, where the scalar path's >= 0 decides its label.
        grid = np.array([0.0, 1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 6.0])
        y = np.array([1] * 4 + [2] * 4)
        X = np.stack([grid, np.random.default_rng(4).normal(size=8)], axis=1)
        assert 0.0 in bc._lda_discriminant(bc.fit_lda(X[:, :1], y), X[:, :1])
        candidates = [(_axis_projection(2, c), bc.BaseSpec("lda")) for c in (1, 0)]
        images = list(en._projected(X, [proj for proj, _ in candidates]))
        seen = _spy_stacked_counts(monkeypatch)
        blk = en._select(images, y, candidates, "resubstitution")
        assert len(seen) == 1 and seen[0] is None
        ref = _scalar_reference(
            monkeypatch, lambda: en._select(images, y, candidates, "resubstitution")
        )
        assert _block_outputs(blk) == _block_outputs(ref)

    def test_winner_that_rescores_to_another_count_falls_back(self, monkeypatch):
        X, y = make_blobs(15, 5, 0.5, seed=64)
        cfg = en.EnsembleConfig(B1=3, B2=4, d=2, base="qda", master_seed=2)
        ref = _scalar_reference(monkeypatch, lambda: en.fit(X, y, cfg))
        assert (ref.block_error_counts[:, 0] > 0).all()
        # Claim zero errors everywhere: candidate 0 wins and re-scores higher.
        monkeypatch.setattr(en, "_stacked_counts", lambda *args: np.zeros(cfg.B2, dtype=np.int64))
        assert serialize.dumps(en.fit(X, y, cfg)) == serialize.dumps(ref)

    @pytest.mark.parametrize("base, estimator", sorted(en._STACKED_SCORERS))
    @pytest.mark.parametrize("labels", [
        lambda y: np.where(y == 2, 3, 1), lambda y: y == 1, lambda y: y[:-1], lambda y: y[:, None],
    ], ids=["label_3", "boolean", "too_few", "column"])
    def test_labels_the_base_fit_refuses_raise_as_in_the_scalar_loop(
        self, monkeypatch, base, estimator, labels
    ):
        X, y = make_blobs(10, 4, 1.0, seed=67)
        block = [_axis_projection(4, c) for c in (0, 1, 2)]

        def run():
            with pytest.raises(Exception) as info:
                en.select_block_winner(X, labels(y), block, bc.BaseSpec(base), estimator)
            return info.type, str(info.value)

        assert run() == _scalar_reference(monkeypatch, run)

    @pytest.mark.parametrize("base, estimator", [
        ("lda", "leave_one_out"), ("knn", "leave_one_out"),
        ("lda", "sample_split"), ("qda", "sample_split"),
    ])
    def test_other_pairings_take_the_scalar_loop(self, monkeypatch, base, estimator):
        assert (base, estimator) not in en._STACKED_SCORERS
        X, y = make_blobs(12, 5, 1.0, seed=65)
        cfg = en.EnsembleConfig(B1=2, B2=3, d=2, base=base, estimator=estimator, master_seed=3)
        seen = _spy_stacked_counts(monkeypatch)
        en.fit(X, y, cfg)
        assert len(seen) == cfg.B1 and all(c is None for c in seen)

    def test_small_classes_keep_the_scalar_warnings(self, monkeypatch):
        # Class 2 has d + 1 points: fit_qda accepts it, but deleting one of
        # them leaves too few, so qda_loo_labels fails those points and warns.
        X, y = make_blobs(12, 5, 1.0, seed=66)
        keep = np.flatnonzero(y == 1).tolist() + np.flatnonzero(y == 2)[:3].tolist()
        X, y = X[keep], y[keep]
        cfg = en.EnsembleConfig(B1=2, B2=3, d=2, base="qda", alpha=0.5, master_seed=4)
        seen = _spy_stacked_counts(monkeypatch)
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            m = en.fit(X, y, cfg)
        assert len(seen) == cfg.B1 and all(c is None for c in seen)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            ref = _scalar_reference(monkeypatch, lambda: en.fit(X, y, cfg))
        assert serialize.dumps(m) == serialize.dumps(ref)
        messages = [str(w.message) for w in got]
        assert messages == [str(w.message) for w in want]
        assert messages and all("leave-one-out refits failed" in msg for msg in messages)

    def test_class_of_d_plus_one_points_is_unusable_only_when_left_out(self, monkeypatch):
        # The data of the test above, where class 2 has d + 1 points.  The
        # size rule, not the sign of a pivot that rounds to about 0, marks
        # that class's leave-one-out discriminants unusable.
        X, y = make_blobs(12, 5, 1.0, seed=66)
        keep = np.flatnonzero(y == 1).tolist() + np.flatnonzero(y == 2)[:3].tolist()
        X, y = X[keep], y[keep]
        Zs = np.stack([X[:, [0, 1]], X[:, [2, 3]], X[:, [1, 4]]])
        delta, pivot = bc._qda_discriminants(Zs, y, drop=1)
        assert np.isnan(delta[:, y == 2]).all() and np.isnan(pivot[:, y == 2]).all()
        assert np.isfinite(delta[:, y == 1]).all() and np.isfinite(pivot[:, y == 1]).all()
        delta, pivot = bc._qda_discriminants(Zs, y, drop=0)
        assert np.isfinite(delta).all() and (pivot == 1.0).all()

        cfg = en.EnsembleConfig(B1=2, B2=3, d=2, base="qda", estimator="resubstitution",
                                master_seed=4)
        seen = _spy_stacked_counts(monkeypatch)
        m = en.fit(X, y, cfg)
        assert len(seen) == cfg.B1 and all(c is not None for c in seen)
        ref = _scalar_reference(monkeypatch, lambda: en.fit(X, y, cfg))
        np.testing.assert_array_equal(np.stack(seen), ref.block_error_counts)
        assert serialize.dumps(m) == serialize.dumps(ref)


class TestFit:
    def test_bit_identical_reruns_and_thread_counts(self):
        X, y = make_blobs(20, 6, 2.0, seed=50)
        cfg = en.EnsembleConfig(B1=7, B2=3, d=2, base="knn", master_seed=4)
        blobs = [serialize.dumps(en.fit(X, y, cfg)) for _ in range(3)]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_master_seed_changes_projections(self):
        X, y = make_blobs(20, 6, 2.0, seed=50)
        a = en.fit(X, y, en.EnsembleConfig(B1=2, B2=2, d=2, master_seed=0))
        b = en.fit(X, y, en.EnsembleConfig(B1=2, B2=2, d=2, master_seed=1))
        assert not np.array_equal(a.projections[0].entries, b.projections[0].entries)

    def test_winner_storage_is_auditable(self):
        X, y = make_blobs(20, 6, 1.0, seed=51)
        cfg = en.EnsembleConfig(B1=6, B2=5, d=2, base="lda", master_seed=7)
        m = en.fit(X, y, cfg)
        assert m.block_error_counts.shape == (6, 5)
        for b1 in range(cfg.B1):
            counts = m.block_error_counts[b1]
            valid = counts >= 0
            assert valid.any()
            best = counts[valid].min()
            w = m.winner_indices[b1]
            assert counts[w] == best
            assert not np.any(counts[:w][valid[:w]] == best), "not the smallest argmin index"

    def test_winners_reproduce_from_seed_streams(self):
        X, y = make_blobs(15, 5, 2.0, seed=52)
        cfg = en.EnsembleConfig(B1=4, B2=3, d=2, base="lda", master_seed=13)
        m = en.fit(X, y, cfg)
        for b1, w in enumerate(m.winner_indices):
            again = en._sample_projections(cfg, 5, [(b1, w, en._TAG_PROJECTION)])[0]
            np.testing.assert_array_equal(m.projections[b1].entries, again.entries)

    def test_vote_counts_recount_lda(self):
        X, y = make_blobs(15, 5, 1.5, seed=53)
        cfg = en.EnsembleConfig(B1=5, B2=4, d=2, base="lda", master_seed=3)
        m = en.fit(X, y, cfg)
        counts = np.zeros(len(y), dtype=np.int64)
        for proj, model in zip(m.projections, m.base_models):
            counts += model.predict_many(proj.apply(X)) == 1
        np.testing.assert_array_equal(m.train_vote_counts, counts)

    def test_vote_counts_are_loo_for_knn(self):
        # stored votes must come from leave-one-out labels, not refits
        X, y = make_blobs(12, 4, 1.0, seed=54)
        cfg = en.EnsembleConfig(B1=3, B2=2, d=1, base="knn", knn_k=3, master_seed=6)
        m = en.fit(X, y, cfg)
        counts = np.zeros(len(y), dtype=np.int64)
        for b1, (proj, w) in enumerate(zip(m.projections, m.winner_indices)):
            tie_seed = rng.derive_int(cfg.master_seed, b1, w, en._TAG_TIEBREAK)
            labels = bc.knn_loo_labels(
                proj.apply(X), y, k=3, tie_seed=tie_seed, point_ids=np.arange(len(y))
            )
            counts += labels == 1
        np.testing.assert_array_equal(m.train_vote_counts, counts)

    def test_single_block_reduces_to_winner(self):
        X, y = make_blobs(15, 5, 2.5, seed=55)
        cfg = en.EnsembleConfig(B1=1, B2=4, d=2, base="lda", master_seed=1)
        m = en.fit(X, y, cfg)
        probes = np.random.default_rng(2).normal(size=(40, 5))
        direct = m.base_models[0].predict_many(m.projections[0].apply(probes))
        votes = en.votes_many(m, probes)
        np.testing.assert_array_equal(votes, (direct == 1).astype(np.int64))

    def test_fixed_alpha_is_used_verbatim(self):
        X, y = make_blobs(15, 5, 2.0, seed=56)
        cfg = en.EnsembleConfig(B1=4, B2=2, d=2, alpha=0.25, master_seed=9)
        m = en.fit(X, y, cfg)
        assert m.alpha_hat == Fraction(0.25)

    def test_sample_split_denominator(self):
        X, y = make_blobs(13, 5, 2.0, seed=57)  # n = 26, eval half = 13
        cfg = en.EnsembleConfig(
            B1=3, B2=2, d=2, base="lda", estimator="sample_split", master_seed=2
        )
        m = en.fit(X, y, cfg)
        assert m.block_m == 13
        # winners are fitted on the first half only
        keep = slice(0, 13)
        for proj, model in zip(m.projections, m.base_models):
            ref = bc.fit_lda(proj.apply(X[keep]), y[keep])
            np.testing.assert_allclose(model.mu_hat_1, ref.mu_hat_1)
            np.testing.assert_allclose(model.sigma_hat, ref.sigma_hat)

    def test_sample_split_fits_each_candidate_once(self, monkeypatch):
        calls = []
        fit_base = bc.fit_base

        def counting_fit_base(*args, **kwargs):
            calls.append(args[0].kind)
            return fit_base(*args, **kwargs)

        monkeypatch.setattr(bc, "fit_base", counting_fit_base)
        X, y = make_blobs(13, 5, 2.0, seed=57)
        cfg = en.EnsembleConfig(
            B1=3, B2=4, d=2, base="lda", estimator="sample_split", master_seed=2
        )
        m = en.fit(X, y, cfg)
        assert np.all(m.block_error_counts >= 0)
        assert len(calls) == cfg.B1 * cfg.B2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_a_data_error(self, bad):
        X, y = make_blobs(10, 3, 1.0, seed=58)
        cfg = en.EnsembleConfig(B1=2, B2=2, d=2, master_seed=1)
        m = en.fit(X, y, cfg)
        X_bad = X.copy()
        X_bad[4, 1] = bad
        with pytest.raises(errors.DataFormatError):
            en.fit(X_bad, y, cfg)
        with pytest.raises(errors.DataFormatError):
            en.select_d_profile(X_bad, y, [1, 2], cfg)
        with pytest.raises(errors.DataFormatError):
            en.select_block_winner(X_bad, y, m.projections, bc.BaseSpec("knn"), "leave_one_out")
        with pytest.raises(errors.DataFormatError):
            en.votes_many(m, X_bad)

    def test_rejects_bad_inputs(self):
        X, y = make_blobs(10, 3, 1.0, seed=58)
        with pytest.raises(errors.InvalidDimensionError):
            en.fit(X, y, en.EnsembleConfig(B1=2, B2=2, d=4))
        with pytest.raises(errors.MissingClassError):
            en.fit(X, np.ones_like(y), en.EnsembleConfig(B1=2, B2=2, d=1))

    def test_all_blocks_failing_raises(self):
        X = np.vstack([np.zeros((4, 3)), np.ones((4, 3))])
        y = np.array([1] * 4 + [2] * 4)
        with pytest.raises(errors.BlockFailureError):
            en.fit(X, y, en.EnsembleConfig(B1=2, B2=3, d=1, base="qda"))


@pytest.fixture(scope="module")
def fitted():
    X, y = make_blobs(20, 5, 2.0, seed=60)
    cfg = en.EnsembleConfig(B1=9, B2=4, d=2, base="lda", master_seed=5)
    return en.fit(X, y, cfg), X, y


class TestVotesAndPredict:

    def test_votes_match_brute_force(self, fitted):
        m, X, _ = fitted
        probes = np.random.default_rng(1).normal(size=(25, 5))
        counts = en.votes_many(m, probes)
        for j, x in enumerate(probes):
            manual = sum(
                int(model.predict_many(proj.apply(x[None, :]))[0] == 1)
                for proj, model in zip(m.projections, m.base_models)
            )
            assert counts[j] == manual

    def test_predict_consistent_with_threshold(self, fitted):
        m, _, _ = fitted
        probes = np.random.default_rng(3).normal(size=(30, 5))
        counts = en.votes_many(m, probes)
        want = np.where(
            counts * m.alpha_hat.denominator >= m.alpha_hat.numerator * m.B1, 1, 2
        )
        np.testing.assert_array_equal(en.predict_many(m, probes), want)

    def test_threshold_tie_goes_to_class_1(self):
        assert en._counts_to_labels(np.array([2]), Fraction(1, 2), 4)[0] == 1
        assert en._counts_to_labels(np.array([1]), Fraction(1, 2), 4)[0] == 2
        # 0.69 < 0.7 <= 0.70 at B1 = 100
        assert en._counts_to_labels(np.array([69]), Fraction(7, 10), 100)[0] == 2
        assert en._counts_to_labels(np.array([70]), Fraction(7, 10), 100)[0] == 1

    def test_raising_threshold_never_adds_class_1(self):
        counts = np.arange(0, 13)
        alphas = [Fraction(k, 24) for k in range(1, 24)]
        prev = en._counts_to_labels(counts, alphas[0], 12)
        for a in alphas[1:]:
            cur = en._counts_to_labels(counts, a, 12)
            assert not np.any((prev == 2) & (cur == 1))
            prev = cur

    @pytest.mark.parametrize("base", sorted(EXACT_PATHS))
    def test_rows_on_a_winner_boundary_take_the_exact_path(self, monkeypatch, base):
        _, discriminant, exact, calls = EXACT_PATHS[base]
        X, y = make_blobs(20, 5, 2.0, seed=60)
        # p // d = 1: each winner's images come from its own product, as proj.apply's do.
        m = en.fit(X, y, en.EnsembleConfig(B1=3, B2=2, d=3, base=base, master_seed=7))
        gen = np.random.default_rng(11)
        for i, (proj, model) in enumerate(zip(m.projections, m.base_models)):
            # Points x = A.T z + u, z on this winner's boundary and u orthogonal to A's rows.
            t = 0.2 * gen.normal(size=(16, 3))
            Z = boundary_points(
                lambda Z: discriminant(model, Z), model.mu_hat_1 + t, model.mu_hat_2 + t
            )
            G = gen.normal(size=(16, 5))
            P = Z @ proj.entries + G - (G @ proj.entries.T) @ proj.entries
            expected = np.array([
                discriminant(bm, pr.apply(P)) >= 0.0 for pr, bm in zip(m.projections, m.base_models)
            ])
            with monkeypatch.context() as patch:
                seen = spy_rows(patch, *exact)
                votes = en._class1_votes(m.projections, m.base_models, P)
            np.testing.assert_array_equal(votes, expected)
            # Only this winner's rows, all of them, took the exact path.
            assert seen == [len(P)] * calls
            assert set(expected[i]) == {False, True}
            counts = expected.sum(axis=0)
            np.testing.assert_array_equal(en.votes_many(m, P), counts)
            np.testing.assert_array_equal(
                en.predict_many(m, P), en._counts_to_labels(counts, m.alpha_hat, m.B1)
            )

    @pytest.mark.parametrize("base", ["lda", "qda", "knn"])
    def test_zero_rows(self, base):
        X, y = make_blobs(20, 5, 2.0, seed=60)
        m = en.fit(X, y, en.EnsembleConfig(B1=3, B2=2, d=2, base=base, master_seed=7))
        counts = en.votes_many(m, np.zeros((0, 5)))
        assert counts.shape == (0,) and counts.dtype == np.int64
        assert en.predict_many(m, np.zeros((0, 5))).shape == (0,)

    def test_dimension_mismatch(self, fitted):
        m, _, _ = fitted
        with pytest.raises(errors.ShapeMismatchError):
            en.predict_many(m, np.zeros((3, 7)))
        # One point is a (1, p) array; a bare p-vector is refused.
        with pytest.raises(errors.ShapeMismatchError):
            en.votes_many(m, np.zeros(5))
        assert en.votes_many(m, np.zeros((1, 5))).shape == (1,)


class TestEstimateAlpha:
    def test_separable_votes_give_one_half(self):
        # class 1 all vote 1, class 2 all vote 0: minimizers cover (0, 1]
        counts = np.array([8, 8, 0, 0])
        labels = np.array([1, 1, 2, 2])
        assert en.estimate_alpha(counts, labels, 8) == Fraction(1, 2)

    def test_spec_interval_midpoint(self):
        # votes 0.9, 0.8 vs 0.1, 0.2: any threshold in (0.2, 0.8] is
        # perfect, and the midpoint is 0.5
        counts = np.array([9, 8, 1, 2])
        labels = np.array([1, 1, 2, 2])
        assert en.estimate_alpha(counts, labels, 10) == Fraction(1, 2)

    def test_attains_minimum_over_candidates(self):
        gen = np.random.default_rng(71)
        for trial in range(120):
            b1 = int(gen.integers(2, 12))
            n = int(gen.integers(4, 25))
            labels = gen.integers(1, 3, size=n)
            labels[:2] = [1, 2]
            counts = gen.integers(0, b1 + 1, size=n)
            # odd trials weight the classes by explicit priors
            priors = (Fraction(int(gen.integers(1, 20)), 20),) if trial % 2 else None
            if np.all(counts == counts[0]):
                continue
            a = en.estimate_alpha(counts, labels, b1, priors=priors)
            if _genuinely_clamped(counts, labels, b1, a, priors):
                # the inward nudge of an exact-zero minimizer may cost
                # objective value; covered by the clamp test below
                continue
            got = alpha_objective(counts, labels, b1, a, priors=priors)
            best = min(
                alpha_objective(counts, labels, b1, t, priors=priors)
                for t in alpha_candidates(counts, b1)
            )
            assert got == best, trial

    def test_equals_reference_piece_scan(self):
        # The threshold is built from one vote-count table; the reference
        # below scans sorted Fraction votes piece by piece.  Both must agree
        # exactly on random, three-valued, separated and anti-learning
        # votes, with empirical and explicit priors.  The last 20 trials take
        # B1 = 100, n = 1,000 and float priors, whose numerators of about 52
        # bits put the weighted objective past 2**63.
        gen = np.random.default_rng(2017)
        for trial in range(5020):
            large = trial >= 5000
            b1 = 100 if large else int(gen.integers(1, 30))
            n = 1000 if large else int(gen.integers(2, 40))
            labels = gen.integers(1, 3, size=n)
            labels[:2] = [1, 2]
            shape = trial % 4
            if shape == 0:
                counts = gen.integers(0, b1 + 1, size=n)
            elif shape == 1:
                counts = gen.choice(gen.integers(0, b1 + 1, size=3), size=n)
            else:
                cut = int(gen.integers(0, b1 + 1))
                high = gen.integers(cut, b1 + 1, size=n)
                low = gen.integers(0, cut + 1, size=n)
                # separated: class 1 votes high; anti-learning: class 1 votes low
                class1_high = shape == 2
                counts = np.where((labels == 1) == class1_high, high, low)
            priors = None
            if trial % 3 == 1 and not large:
                priors = (Fraction(int(gen.integers(1, 40)), 40),)
            elif trial % 3 == 2 or large:
                priors = (float(gen.uniform(0.01, 0.99)),)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = _reference_estimate_alpha(counts, labels, b1, priors)
                got = en.estimate_alpha(counts, labels, b1, priors=priors)
            assert got == want, (trial, counts.tolist(), labels.tolist(), b1, priors)

    @pytest.mark.parametrize(
        "counts,labels,b1",
        [
            ([9, 8, 1, 2], [1, 1, 2, 2], 10),
            ([9, 7, 2, 1], [1, 1, 2, 2], 10),
            ([9, 1, 5], [1, 2, 2], 10),
            ([6, 5, 7, 2, 3, 1], [1, 1, 1, 2, 2, 2], 8),
        ],
    )
    def test_label_vote_swap_symmetry(self, counts, labels, b1):
        # relabelling and reflecting the votes mirrors the threshold
        # when the minimizing region sits strictly inside (0, 1); the
        # strict-below vote CDF can express "everything is class 1"
        # (t = 0) but not its reflection, so one-sided optima are only
        # symmetric up to the candidate set and are covered separately
        # by the clamp and snap tests
        counts = np.asarray(counts)
        labels = np.asarray(labels)
        a = en.estimate_alpha(counts, labels, b1)
        a_sw = en.estimate_alpha(b1 - counts, 3 - labels, b1)
        assert a_sw == 1 - a

    def test_disconnected_region_snaps_to_nearest_piece(self):
        # class-1 votes {0}, class-2 votes {1/2}: the objective is 1/2 both
        # at the degenerate point 0 and on (1/2, 1]; the global midpoint
        # 1/2 falls in the gap, so the estimate snaps to the wider piece
        counts = np.array([0, 1])
        labels = np.array([1, 2])
        assert en.estimate_alpha(counts, labels, 2) == Fraction(3, 4)

    def test_clamp_when_zero_is_the_unique_minimizer(self):
        # anti-learning votes: class 1 votes 0, class 2 votes B1; the
        # unique minimizer is t = 0, nudged inward to 1/(2 B1)
        counts = np.array([0, 5])
        labels = np.array([1, 2])
        assert en.estimate_alpha(counts, labels, 5) == Fraction(1, 10)

    def test_flat_votes_warn_and_fall_back(self):
        with pytest.warns(RuntimeWarning, match="flat"):
            a = en.estimate_alpha(np.array([3, 3, 3]), np.array([1, 2, 1]), 6)
        assert a == Fraction(1, 2)

    def test_single_class_rejected(self):
        with pytest.raises(errors.DegenerateVotesError):
            en.estimate_alpha(np.array([1, 2]), np.array([1, 1]), 4)

    @pytest.mark.parametrize("counts", [
        [5, 5, 0, 0, 4, 1],  # above b1 in both classes
        [4, 1, 0, 0, 2, 1],  # above b1 in class 1 only
        [-1, 1, 0, 2, 2, 1],
    ])
    def test_counts_outside_zero_to_b1_rejected(self, counts):
        with pytest.raises(ValueError, match=r"vote counts must lie in \[0, 3\]"):
            en.estimate_alpha(counts, [1, 2, 1, 2, 1, 2], 3)

    @pytest.mark.parametrize("prior", [1.5, -2, 0, 1, Fraction(1), float("nan")])
    def test_priors_outside_zero_to_one_rejected(self, prior):
        with pytest.raises(ValueError, match=r"class-1 prior must lie in \(0, 1\)"):
            en.estimate_alpha([0, 1, 2, 3], [1, 2, 1, 2], 3, priors=(prior,))

    def test_explicit_priors_shift_the_threshold(self):
        # one noisy class-2 point at vote 3/4: with a heavy class-2 prior
        # the cheapest rule concedes the low region entirely
        counts = np.array([2, 3, 6])
        labels = np.array([1, 1, 2])
        bal = en.estimate_alpha(counts, labels, 8)
        skew = en.estimate_alpha(counts, labels, 8, priors=(Fraction(1, 100),))
        assert bal < skew

    def test_fitted_ensemble_alpha_is_optimal(self):
        X, y = make_blobs(18, 5, 1.2, seed=61)
        cfg = en.EnsembleConfig(B1=11, B2=3, d=2, base="lda", master_seed=8)
        m = en.fit(X, y, cfg)
        got = alpha_objective(m.train_vote_counts, m.train_labels, m.B1, m.alpha_hat)
        best = min(
            alpha_objective(m.train_vote_counts, m.train_labels, m.B1, t)
            for t in alpha_candidates(m.train_vote_counts, m.B1)
        )
        assert got == best


def _genuinely_clamped(counts, labels, b1, a, priors=None):
    """True when `a` is the inward nudge of a bare minimizer at 0."""
    if a != Fraction(1, 2 * b1):
        return False
    got = alpha_objective(counts, labels, b1, a, priors=priors)
    best = min(
        alpha_objective(counts, labels, b1, t, priors=priors)
        for t in alpha_candidates(counts, b1)
    )
    return got > best


def _reference_vote_pieces(vote_fracs, labels, pi_1, pi_2):
    """Maximal intervals (lo, hi, value) where the threshold objective is constant."""
    n1 = sum(1 for lab in labels if lab == 1)
    n2 = len(labels) - n1
    distinct = sorted(set(vote_fracs))
    pairs = sorted(zip(vote_fracs, labels))
    pieces = []
    below1 = 0  # class-1 votes <= current piece's lower knot
    below2 = 0
    idx = 0
    for j, v in enumerate(distinct):
        lo = Fraction(0) if j == 0 else distinct[j - 1]
        value = pi_1 * Fraction(below1, n1) + pi_2 * (1 - Fraction(below2, n2))
        pieces.append((lo, v, value))
        while idx < len(pairs) and pairs[idx][0] == v:
            if pairs[idx][1] == 1:
                below1 += 1
            else:
                below2 += 1
            idx += 1
    if distinct[-1] < 1:
        value = pi_1 * Fraction(below1, n1) + pi_2 * (1 - Fraction(below2, n2))
        pieces.append((distinct[-1], Fraction(1), value))
    return pieces


def _reference_estimate_alpha(counts, labels, b1, priors=None):
    """Threshold by a sorted scan over Fraction votes, O(n log n) Fraction work."""
    n1 = int(np.sum(labels == 1))
    n2 = int(np.sum(labels == 2))
    if np.all(counts == counts[0]):
        return Fraction(1, 2)
    pi_1 = Fraction(n1, n1 + n2) if priors is None else Fraction(priors[0])
    fracs = [Fraction(int(c), b1) for c in counts]
    pieces = _reference_vote_pieces(fracs, labels.tolist(), pi_1, 1 - pi_1)
    best = min(value for _, _, value in pieces)
    argmin = [(lo, hi) for lo, hi, value in pieces if value == best]
    global_mid = (argmin[0][0] + argmin[-1][1]) / 2

    def contains(piece, t):
        lo, hi = piece
        return t == lo if lo == hi else lo < t <= hi

    if any(contains(piece, global_mid) for piece in argmin):
        mid = global_mid
    else:
        mid = min(
            ((lo + hi) / 2 for lo, hi in argmin),
            key=lambda m: (abs(m - global_mid), m),
        )
    if mid <= 0:
        return Fraction(1, 2 * b1)
    if mid >= 1:
        return 1 - Fraction(1, 2 * b1)
    return mid


class TestGCurves:
    def test_hand_counts(self):
        cfg = en.EnsembleConfig(B1=4, B2=1, d=1)
        m = en.EnsembleModel(
            config=cfg,
            projections=(),
            base_models=(),
            alpha_hat=Fraction(1, 2),
            train_vote_counts=np.array([0, 2, 2, 4]),
            train_labels=np.array([1, 1, 2, 2]),
            winner_indices=(),
            block_error_counts=np.zeros((0, 0), dtype=np.int64),
            block_m=4,
        )
        thresholds, g1, g2 = en.g_curves(m)
        np.testing.assert_allclose(thresholds, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(g1, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(g2, [0.0, 0.0, 0.5])


class TestSelectD:
    def _data(self):
        gen = np.random.default_rng(80)
        n_per = 20
        X = gen.normal(size=(2 * n_per, 6))
        X[:n_per, :2] -= 2.5
        X[n_per:, :2] += 2.5
        y = np.array([1] * n_per + [2] * n_per)
        return X, y

    def test_singleton(self):
        X, y = self._data()
        cfg = en.EnsembleConfig(B1=3, B2=2, d=1, base="lda", master_seed=0)
        assert en.select_d(X, y, [3], cfg) == 3

    def test_zero_error_candidate_wins(self):
        X, y = self._data()
        cfg = en.EnsembleConfig(B1=4, B2=3, d=1, base="lda", master_seed=1)
        chosen, profile = en.select_d_profile(X, y, [2, 3], cfg)
        assert set(profile) == {2, 3}
        assert all(v.shape == (4,) for v in profile.values())
        if profile[2].sum() == 0:
            assert chosen == 2
        totals = {d: int(v.sum()) for d, v in profile.items()}
        best = min(totals.values())
        assert chosen == min(d for d, t in totals.items() if t == best)

    def test_profile_counts_are_winner_errors(self):
        X, y = self._data()
        cfg = en.EnsembleConfig(B1=3, B2=2, d=1, base="lda", master_seed=2)
        _, profile = en.select_d_profile(X, y, [2], cfg)
        blocks = en._run_blocks(en.replace(cfg, d=2), X, y, range(3), key_head=(2,))
        assert profile[2].tolist() == [blk.error_count for blk in blocks]

    def test_thread_invariance(self):
        X, y = self._data()
        cfg = en.EnsembleConfig(B1=5, B2=2, d=1, base="knn", master_seed=3)
        a = en.select_d_profile(X, y, [1, 2, 4], cfg)
        b = en.select_d_profile(X, y, [1, 2, 4], cfg)
        assert a[0] == b[0]
        for d in a[1]:
            np.testing.assert_array_equal(a[1][d], b[1][d])

    def test_validation(self):
        X, y = self._data()
        cfg = en.EnsembleConfig(B1=2, B2=2, d=1, master_seed=0)
        with pytest.raises(ValueError):
            en.select_d(X, y, [], cfg)
        with pytest.raises(errors.InvalidDimensionError):
            en.select_d(X, y, [7], cfg)

    def test_every_candidate_is_checked_before_any_block(self, monkeypatch):
        X, y = self._data()
        blocks = []
        run_blocks = en._run_blocks

        def counting(*args, **kwargs):
            blocks.append(args)
            return run_blocks(*args, **kwargs)

        monkeypatch.setattr(en, "_run_blocks", counting)
        cfg = en.EnsembleConfig(B1=3, B2=3, d=1, master_seed=0)
        with pytest.raises(errors.InvalidDimensionError, match="dimension 7 outside"):
            en.select_d(X, y, [2, 3, 7], cfg)
        assert blocks == []
        # The probe sees the blocks of a valid call, one wave run per d.
        en.select_d(X, y, [2, 3], cfg)
        assert len(blocks) == 2


class TestRotationEquivariance:
    @pytest.mark.parametrize("base", ["lda", "qda", "knn"])
    def test_predictions_commute_with_rotation(self, base):
        X, y = make_blobs(20, 6, 2.0, seed=90)
        cfg = en.EnsembleConfig(B1=5, B2=3, d=2, base=base, master_seed=10)
        m = en.fit(X, y, cfg)
        gen = np.random.default_rng(91)
        R, _ = np.linalg.qr(gen.normal(size=(6, 6)))
        rotated = tuple(
            projections.Projection(entries=proj.entries @ R.T, kind="haar")
            for proj in m.projections
        )
        m_rot = en.EnsembleModel(
            config=m.config,
            projections=rotated,
            base_models=m.base_models,
            alpha_hat=m.alpha_hat,
            train_vote_counts=m.train_vote_counts,
            train_labels=m.train_labels,
            winner_indices=m.winner_indices,
            block_error_counts=m.block_error_counts,
            block_m=m.block_m,
        )
        probes = gen.normal(size=(40, 6))
        np.testing.assert_array_equal(
            en.predict_many(m_rot, probes @ R.T), en.predict_many(m, probes)
        )
        np.testing.assert_array_equal(
            en.votes_many(m_rot, probes @ R.T), en.votes_many(m, probes)
        )
