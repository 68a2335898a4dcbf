import math
import threading
import time
from functools import partial

import numpy as np
import pytest

from rpens import base_classifiers as bc
from rpens import datagen as dg
from rpens import ensemble as en
from rpens import errors
from rpens import evaluation as ev
from rpens import rng as rng_mod


def _gauss_model(p=4):
    return dg.ModelSpec(model_id=1, p=p, mean_shift=2.0)


def _rp_method(mid="rp", **kw):
    defaults = dict(B1=4, B2=2, d=2, base="lda", master_seed=0)
    defaults.update(kw)
    return ev.MethodSpec(mid, en.EnsembleConfig(**defaults))


class TestSpecs:
    def test_comparator_validation(self):
        with pytest.raises(ValueError):
            ev.ComparatorSpec("svm")
        with pytest.raises(ValueError):
            ev.ComparatorSpec("lda", k=3)
        with pytest.raises(ValueError):
            ev.ComparatorSpec("constant", label=0)

    def test_method_and_experiment_validation(self):
        with pytest.raises(TypeError):
            ev.MethodSpec("x", object())
        good = _rp_method()
        with pytest.raises(TypeError):
            ev.ExperimentSpec(source=object(), n_train=10, methods=(good,), n_test=5)
        with pytest.raises(ValueError):
            ev.ExperimentSpec(
                source=_gauss_model(), n_train=10, methods=(good,), n_test=None
            )
        with pytest.raises(ValueError):
            ev.ExperimentSpec(
                source=_gauss_model(),
                n_train=10,
                methods=(good, _rp_method("rp")),
                n_test=5,
            )
        with pytest.raises(ValueError):
            ev.ExperimentSpec(source=_gauss_model(), n_train=10, methods=(), n_test=5)


class TestComparatorKnnCv:
    def test_matches_exhaustive_grid(self):
        gen = np.random.default_rng(7)
        for trial in range(6):
            n = int(gen.integers(8, 40))
            Z = gen.normal(size=(n, 3))
            y = gen.integers(1, 3, size=n)
            y[:2] = [1, 2]
            got = ev.comparator_knn_cv(Z, y, tie_seed=trial)
            grid = list(range(1, min(25, n - 1) + 1, 2))
            errs = [
                int(np.sum(bc.knn_loo_labels(Z, y, k, tie_seed=trial) != y)) for k in grid
            ]
            best = min(errs)
            assert got == grid[errs.index(best)], trial

    def test_smallest_k_wins_ties_and_grid_is_odd(self):
        # perfectly separated data: every k scores zero, so k = 1
        Z = np.vstack([np.zeros((6, 2)), np.ones((6, 2)) * 9])
        y = np.array([1] * 6 + [2] * 6)
        assert ev.comparator_knn_cv(Z, y) == 1

    def test_tiny_pool(self):
        assert ev.comparator_knn_cv(np.array([[0.0], [1.0]]), np.array([1, 2])) == 1
        with pytest.raises(ValueError):
            ev.comparator_knn_cv(np.array([[0.0]]), np.array([1]))


class TestRun:
    def test_identical_methods_get_identical_errors(self):
        spec = ev.ExperimentSpec(
            source=_gauss_model(),
            n_train=30,
            n_test=60,
            repetitions=4,
            methods=(_rp_method("a"), _rp_method("b"), _rp_method("c", master_seed=1)),
            master_seed=5,
        )
        res = ev.run(spec)
        np.testing.assert_array_equal(res.errors["a"], res.errors["b"])
        # a different inner seed legitimately changes the numbers
        assert not np.array_equal(res.errors["a"], res.errors["c"])

    def test_method_order_and_threads_do_not_matter(self):
        methods = (
            _rp_method("rp"),
            ev.MethodSpec("knn3", ev.ComparatorSpec("knn", k=3)),
            ev.MethodSpec("const", ev.ComparatorSpec("constant", label=2)),
        )
        base = ev.ExperimentSpec(
            source=_gauss_model(), n_train=24, n_test=40, repetitions=3,
            methods=methods, master_seed=9,
        )
        flipped = ev.ExperimentSpec(
            source=_gauss_model(), n_train=24, n_test=40, repetitions=3,
            methods=methods[::-1], master_seed=9,
        )
        r1 = ev.run(base)
        r2 = ev.run(flipped)
        r3 = ev.run(base)
        for mid in ("rp", "knn3", "const"):
            np.testing.assert_array_equal(r1.errors[mid], r2.errors[mid])
            np.testing.assert_array_equal(r1.errors[mid], r3.errors[mid])

    def test_constant_comparator_scores_class_balance(self):
        spec = ev.ExperimentSpec(
            source=_gauss_model(),
            n_train=10,
            n_test=500,
            repetitions=2,
            methods=(
                ev.MethodSpec("c1", ev.ComparatorSpec("constant", label=1)),
                ev.MethodSpec("c2", ev.ComparatorSpec("constant", label=2)),
            ),
            master_seed=3,
        )
        res = ev.run(spec)
        total = res.errors["c1"] + res.errors["c2"]
        np.testing.assert_allclose(total, 1.0)

    def test_lda_refuses_small_samples_as_nan(self):
        spec = ev.ExperimentSpec(
            source=_gauss_model(p=10),
            n_train=12,  # n <= p + 2
            n_test=20,
            repetitions=2,
            methods=(
                ev.MethodSpec("lda", ev.ComparatorSpec("lda")),
                _rp_method("rp", d=2),
            ),
            master_seed=1,
        )
        res = ev.run(spec)
        assert np.isnan(res.errors["lda"]).all()
        assert np.isfinite(res.errors["rp"]).all()
        mean, se, n_valid = res.summary()["lda"]
        assert math.isnan(mean) and n_valid == 0

    def test_qda_refusal_depends_on_class_split(self):
        # p = 5: QDA needs the smaller class above p + 1 = 6 members
        spec = ev.ExperimentSpec(
            source=dg.ModelSpec(model_id=1, p=5, mean_shift=2.0),
            n_train=14,
            n_test=30,
            repetitions=6,
            methods=(
                ev.MethodSpec("qda", ev.ComparatorSpec("qda")),
                ev.MethodSpec("const", ev.ComparatorSpec("constant")),
            ),
            master_seed=17,
        )
        res = ev.run(spec)
        for rep in range(6):
            y_tr = dg.sample(
                spec.source, 14, rng_mod.make_rng(17, "train", rep)
            ).y
            n_small = min(int(np.sum(y_tr == 1)), int(np.sum(y_tr == 2)))
            assert np.isnan(res.errors["qda"][rep]) == (n_small <= 6), rep

    def test_all_methods_failing_raises(self):
        spec = ev.ExperimentSpec(
            source=_gauss_model(p=10),
            n_train=12,
            n_test=10,
            repetitions=1,
            methods=(ev.MethodSpec("lda", ev.ComparatorSpec("lda")),),
            master_seed=0,
        )
        with pytest.raises(errors.ExperimentError):
            ev.run(spec)

    def test_summary_recomputes_from_errors(self):
        spec = ev.ExperimentSpec(
            source=_gauss_model(),
            n_train=20,
            n_test=50,
            repetitions=5,
            methods=(_rp_method("rp"),),
            master_seed=2,
        )
        res = ev.run(spec)
        mean, se, n_valid = res.summary()["rp"]
        err = res.errors["rp"]
        assert n_valid == 5
        assert mean == pytest.approx(err.mean() * 100)
        assert se == pytest.approx(err.std(ddof=1) / math.sqrt(5) * 100)

    def test_single_repetition_se_is_zero(self):
        spec = ev.ExperimentSpec(
            source=_gauss_model(),
            n_train=20,
            n_test=30,
            repetitions=1,
            methods=(_rp_method("rp"),),
            master_seed=4,
        )
        _, se, n_valid = ev.run(spec).summary()["rp"]
        assert se == 0.0 and n_valid == 1


def _cpus(monkeypatch, count):
    """Make ``run`` see ``count`` CPUs in the process's affinity mask."""
    monkeypatch.setattr(ev.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestTestSampleFill:
    """The test features fill on a helper thread, or inline on one CPU, and
    the ensembles fit after the fill."""

    def _spec(self, source):
        methods = (
            _rp_method("rp"),
            ev.MethodSpec("lda", ev.ComparatorSpec("lda")),
            _rp_method("rp2", base="qda", master_seed=3),
        )
        return ev.ExperimentSpec(
            source=source, n_train=40, n_test=300, repetitions=3,
            methods=methods, master_seed=21,
        )

    @staticmethod
    def _record_fill_calls(monkeypatch, events, delay=0.0):
        """Append (event, thread) around every call that fills a test sample,
        which first sleeps ``delay`` seconds."""
        steps = dg._fill_steps

        def recording(spec, y, *args):
            for call in steps(spec, y, *args):
                if len(y) != 300:  # a training sample
                    yield call
                    continue

                def recorded(call=call):
                    events.append(("start", threading.current_thread()))
                    time.sleep(delay)
                    result = call()
                    events.append(("end", threading.current_thread()))
                    return result

                yield recorded

        monkeypatch.setattr(dg, "_fill_steps", recording)

    # Model 1 draws on the caller; model 4 hands over two products, two
    # shifts and the move into label order.
    @pytest.mark.parametrize("source,calls", [(_gauss_model(), 0), (dg.ModelSpec(model_id=4, p=6), 5)])
    def test_helper_and_inline_fills_give_identical_errors(self, monkeypatch, source, calls):
        spec = self._spec(source)
        events = []
        self._record_fill_calls(monkeypatch, events)
        results, threads = {}, {}
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            results[cpus] = ev.run(spec).errors
            threads[cpus] = [t for e, t in events if e == "start"]
            events.clear()
        for mid in ("rp", "lda", "rp2"):
            assert results[1][mid].tobytes() == results[2][mid].tobytes()
        main = threading.main_thread()
        assert threads[1] == [main] * 3 * calls
        assert len(threads[2]) == 3 * calls and main not in threads[2]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_ensembles_fit_after_the_fill(self, monkeypatch, cpus):
        # Nothing fills beside an ensemble fit, so its time does not depend
        # on a second CPU being free.
        _cpus(monkeypatch, cpus)
        events = []
        self._record_fill_calls(monkeypatch, events, delay=0.02)  # a fill slower than a fit
        seen = []
        fit = en.fit

        def recording_fit(*args, **kwargs):
            seen.append([e for e, _ in events])
            return fit(*args, **kwargs)

        monkeypatch.setattr(en, "fit", recording_fit)
        ev.run(self._spec(dg.ModelSpec(model_id=4, p=6)))
        # two ensembles a repetition, each after that repetition's five calls
        assert [len(e) for e in seen] == [10, 10, 20, 20, 30, 30]
        assert all(e == ["start", "end"] * (len(e) // 2) for e in seen)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_no_thread_outlives_run(self, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        before = threading.active_count()
        ev.run(self._spec(_gauss_model()))
        assert threading.active_count() == before
        failing = ev.ExperimentSpec(
            source=_gauss_model(p=10), n_train=12, n_test=10, repetitions=2,
            methods=(ev.MethodSpec("lda", ev.ComparatorSpec("lda")),), master_seed=0,
        )
        with pytest.raises(errors.ExperimentError):
            ev.run(failing)
        assert threading.active_count() == before

    @pytest.mark.parametrize("source", [_gauss_model(), dg.ModelSpec(model_id=4, p=6)])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_fill_exception_surfaces_unchanged(self, monkeypatch, cpus, source):
        _cpus(monkeypatch, cpus)
        boom = MemoryError("test draw failed")

        def failing(*args):
            yield partial(_raise, boom)

        monkeypatch.setattr(dg, "_fill_steps", failing)
        before = threading.active_count()
        with pytest.raises(MemoryError) as info:
            ev.run(self._spec(source))
        assert info.value is boom
        assert threading.active_count() == before


def _raise(exc):
    raise exc


class TestCsvSource:
    def test_subsampling_accounting(self, synthetic_csv):
        spec = ev.ExperimentSpec(
            source=ev.CsvSource(str(synthetic_csv)),
            n_train=40,
            n_test=None,  # remainder: 20 points
            repetitions=3,
            methods=(ev.MethodSpec("knn", ev.ComparatorSpec("knn", k=3)),),
            master_seed=8,
        )
        res = ev.run(spec)
        err = res.errors["knn"]
        assert np.all((err * 20) == np.round(err * 20))

    def test_deterministic_and_seed_sensitive(self, synthetic_csv):
        def result(seed):
            spec = ev.ExperimentSpec(
                source=ev.CsvSource(str(synthetic_csv)),
                n_train=30,
                n_test=20,
                repetitions=4,
                methods=(ev.MethodSpec("knn", ev.ComparatorSpec("knn", k=3)),),
                master_seed=seed,
            )
            return ev.run(spec).errors["knn"]

        np.testing.assert_array_equal(result(1), result(1))
        assert not np.array_equal(result(1), result(2))

    def test_oversubscribed_pool_rejected(self, synthetic_csv):
        spec = ev.ExperimentSpec(
            source=ev.CsvSource(str(synthetic_csv)),
            n_train=50,
            n_test=20,
            repetitions=1,
            methods=(ev.MethodSpec("knn", ev.ComparatorSpec("knn", k=3)),),
        )
        with pytest.raises(ValueError, match="pool"):
            ev.run(spec)

    def test_pool_with_no_test_rows_rejected(self, synthetic_csv):
        spec = ev.ExperimentSpec(
            source=ev.CsvSource(str(synthetic_csv)),
            n_train=60,
            n_test=None,  # remainder of the 60-row pool: no test points
            repetitions=1,
            methods=(ev.MethodSpec("knn", ev.ComparatorSpec("knn", k=3)),),
        )
        with pytest.raises(ValueError, match="pool of 60 rows cannot supply 60 train \\+ 0 test"):
            ev.run(spec)

    def test_unlabelled_file_refused(self, tmp_path, synthetic_csv):
        lines = synthetic_csv.read_text(encoding="utf-8").splitlines(True)
        unlabelled = tmp_path / "x.csv"
        unlabelled.write_text(
            "".join(line if line.startswith("#") else line.partition(",")[2] for line in lines),
            encoding="utf-8",
        )
        spec = ev.ExperimentSpec(
            source=ev.CsvSource(str(unlabelled)),
            n_train=40,
            n_test=None,
            repetitions=1,
            methods=(ev.MethodSpec("knn", ev.ComparatorSpec("knn", k=3)),),
        )
        with pytest.raises(errors.DataFormatError, match="first header column must be 'label'"):
            ev.run(spec)


class TestTheorem1:
    def _cfg(self, **kw):
        defaults = dict(B1=2, B2=2, d=1, base="lda", alpha=0.4, master_seed=0)
        defaults.update(kw)
        return en.EnsembleConfig(**defaults)

    def test_validation(self):
        model = _gauss_model()
        with pytest.raises(ValueError, match="generative"):
            ev.theorem1_rate_diagnostic(
                ev.CsvSource("x.csv"), self._cfg(), 20, (2, 4, 8, 16), 100
            )
        with pytest.raises(ValueError, match="alpha"):
            ev.theorem1_rate_diagnostic(
                model, self._cfg(alpha=None), 20, (2, 4, 8, 16), 100
            )
        with pytest.raises(ValueError, match="grid"):
            ev.theorem1_rate_diagnostic(model, self._cfg(), 20, (2, 4, 8), 100)
        with pytest.raises(ValueError, match="grid"):
            ev.theorem1_rate_diagnostic(model, self._cfg(), 20, (8, 4, 2, 16), 100)

    def test_separable_data_reports_insufficient_signal(self):
        # a huge class gap makes every ensemble size perfect, so all
        # gaps are zero and no decay rate can be read off; axis
        # projections keep every 1-d view of the shift fully separated
        model = dg.ModelSpec(model_id=1, p=3, mean_shift=40.0)
        res = ev.theorem1_rate_diagnostic(
            model,
            self._cfg(projection_kind="axis_aligned"),
            n_train=30,
            b1_grid=(2, 4, 8, 16),
            mc_test=200,
            n_ensembles=4,
            master_seed=6,
        )
        assert res.insufficient_signal
        assert res.slope is None
        assert res.max_gap <= 0.0
        assert res.proxy_error == 0.0
        assert len(res.gaps) == 4

    def test_grid_point_past_the_int64_vote_product(self):
        # Fraction(0.1) has denominator 2**55, so from 256 votes on a count
        # times it leaves int64; on fully separated data every label must
        # still be right at every grid point and in the proxy run.
        model = dg.ModelSpec(model_id=1, p=3, mean_shift=40.0)
        res = ev.theorem1_rate_diagnostic(
            model,
            self._cfg(alpha=0.1, projection_kind="axis_aligned"),
            n_train=30,
            b1_grid=(2, 4, 8, 300),
            mc_test=200,
            n_ensembles=2,
            master_seed=6,
        )
        assert res.proxy_error == 0.0
        assert res.max_gap <= 0.0

    def test_deterministic(self):
        model = _gauss_model()
        kw = dict(
            n_train=24, b1_grid=(2, 4, 8, 16), mc_test=100, n_ensembles=3, master_seed=2
        )
        a = ev.theorem1_rate_diagnostic(model, self._cfg(), **kw)
        b = ev.theorem1_rate_diagnostic(model, self._cfg(), **kw)
        assert a == b


class TestTheorem2:
    def test_bound_holds_on_gaussian_model(self):
        cfg = en.EnsembleConfig(B1=2, B2=3, d=1, base="lda", alpha=0.3, master_seed=0)
        res = ev.theorem2_bound_diagnostic(
            _gauss_model(), cfg, n_train=30, mc_n=2000, n_winners=40, master_seed=3
        )
        assert res.holds
        assert res.lhs <= res.rhs + 3 * res.margin_se + 1e-12
        assert res.ensemble_risk >= res.bayes_risk - 1e-12

    def test_near_zero_excess_risk(self):
        # overwhelming separation: both sides of the bound collapse
        model = dg.ModelSpec(model_id=1, p=3, mean_shift=30.0)
        cfg = en.EnsembleConfig(
            B1=2, B2=2, d=1, base="lda", alpha=0.5,
            projection_kind="axis_aligned", master_seed=0,
        )
        res = ev.theorem2_bound_diagnostic(
            model, cfg, n_train=30, mc_n=1500, n_winners=25, master_seed=4
        )
        assert res.holds
        assert abs(res.lhs) < 1e-3

    def test_validation(self):
        cfg = en.EnsembleConfig(B1=2, B2=2, d=1, base="lda", alpha=0.5)
        with pytest.raises(ValueError, match="generative"):
            ev.theorem2_bound_diagnostic(ev.CsvSource("x.csv"), cfg, 20, 100)
        with pytest.raises(ValueError, match="alpha"):
            ev.theorem2_bound_diagnostic(
                _gauss_model(), en.EnsembleConfig(B1=2, B2=2, d=1), 20, 100
            )
