import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpens import base_classifiers as bc
from rpens import ensemble as en
from rpens import error_estimation as ee
from rpens import errors, projections, rng, serialize

from conftest import alpha_candidates, alpha_objective, make_blobs


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


class TestVoteFraction:
    def test_exact_value(self):
        v = en.VoteFraction(3, 4)
        assert v.value == Fraction(3, 4)
        assert float(v) == 0.75

    def test_range_check(self):
        with pytest.raises(ValueError):
            en.VoteFraction(5, 4)
        with pytest.raises(ValueError):
            en.VoteFraction(-1, 4)


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

    def test_all_candidates_failing_raises(self):
        # constant rows per class leave nothing for a covariance estimate
        X = np.vstack([np.zeros((3, 4)), np.ones((3, 4))])
        y = np.array([1, 1, 1, 2, 2, 2])
        block = [_axis_projection(4, 0), _axis_projection(4, 1)]
        with pytest.raises(errors.BlockFailureError):
            en.select_block_winner(X, y, block, bc.BaseSpec("lda"), "resubstitution")


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
            again = en._sample_projection(cfg, 5, b1, w, en._TAG_PROJECTION)
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
        with pytest.raises(errors.DataFormatError):
            en.predict(m, X_bad[4])

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
        v = en.votes(m, probes[0])
        assert isinstance(v, en.VoteFraction)
        assert v.count == counts[0] and v.b1 == 9

    def test_predict_consistent_with_threshold(self, fitted):
        m, _, _ = fitted
        probes = np.random.default_rng(3).normal(size=(30, 5))
        counts = en.votes_many(m, probes)
        want = np.where(
            counts * m.alpha_hat.denominator >= m.alpha_hat.numerator * m.B1, 1, 2
        )
        np.testing.assert_array_equal(en.predict_many(m, probes), want)
        assert en.predict(m, probes[0]) == want[0]

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

    def test_dimension_mismatch(self, fitted):
        m, _, _ = fitted
        with pytest.raises(errors.ShapeMismatchError):
            en.predict_many(m, np.zeros((3, 7)))


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
        # votes, with empirical and explicit priors.
        gen = np.random.default_rng(2017)
        for trial in range(5000):
            b1 = int(gen.integers(1, 30))
            n = int(gen.integers(2, 40))
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
            if trial % 3 == 1:
                priors = (Fraction(int(gen.integers(1, 40)), 40),)
            elif trial % 3 == 2:
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
        for b1 in range(3):
            blk = en._run_block(en.replace(cfg, d=2), X, y, b1, key_head=(2,))
            assert profile[2][b1] == blk.error_count

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
