import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from rpens import _blas
from rpens import datagen as dg
from rpens import rng
from rpens.cli import main
from rpens.errors import DataFormatError

from conftest import single_character_edits


def _gen(seed=0):
    return rng.make_rng(seed, "datagen-test")


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            dg.ModelSpec(model_id=5)
        with pytest.raises(ValueError):
            dg.ModelSpec(model_id=1, pi_1=0.0)
        with pytest.raises(ValueError):
            dg.ModelSpec(model_id=2, p=4)  # needs the 5-coordinate head
        with pytest.raises(ValueError):
            dg.ModelSpec(model_id=4, p=3)
        with pytest.raises(ValueError):
            dg.ModelSpec(model_id=2, dof=(0, 2))
        assert dg.ModelSpec(model_id=1, p=1).p == 1


class TestSampling:
    def test_shapes_and_labels(self):
        spec = dg.ModelSpec(model_id=1, p=7)
        s = dg.sample(spec, 200, _gen(1))
        assert s.X.shape == (200, 7)
        assert set(np.unique(s.y)) <= {1, 2}
        assert s.eta is None

    def test_label_prior(self):
        spec = dg.ModelSpec(model_id=3, p=6, pi_1=0.3)
        s = dg.sample(spec, 40_000, _gen(2))
        share = np.mean(s.y == 1)
        assert abs(share - 0.3) < 4 * math.sqrt(0.3 * 0.7 / 40_000)

    def test_model1_moments(self):
        spec = dg.ModelSpec(model_id=1, p=4)
        s = dg.sample(spec, 60_000, _gen(3))
        X1 = s.X[s.y == 1]
        X2 = s.X[s.y == 2]
        # standard Laplace: mean 0, variance 2
        assert np.all(np.abs(X1.mean(axis=0)) < 0.05)
        assert np.all(np.abs(X1.var(axis=0) - 2.0) < 0.1)
        assert np.all(np.abs(X2.mean(axis=0) - 0.125) < 0.05)
        assert np.all(np.abs(X2.var(axis=0) - 1.0) < 0.05)

    def test_model2_medians_and_correlation_sign(self):
        # heavy tails rule out moment checks; medians are exact centres
        spec = dg.ModelSpec(model_id=2, p=8)
        s = dg.sample(spec, 60_000, _gen(4))
        X1 = s.X[s.y == 1]
        X2 = s.X[s.y == 2]
        assert np.all(np.abs(np.median(X1, axis=0)) < 0.05)
        med2 = np.median(X2, axis=0)
        assert np.all(np.abs(med2[:5] - 2.0) < 0.08)
        assert np.all(np.abs(med2[5:]) < 0.08)
        # positive association inside the equicorrelated head
        sgn = np.sign((X2[:, 0] - med2[0]) * (X2[:, 1] - med2[1]))
        assert sgn.mean() > 0.2

    def test_model3_class1_mixture(self):
        spec = dg.ModelSpec(model_id=3, p=6)
        s = dg.sample(spec, 60_000, _gen(5))
        X1 = s.X[s.y == 1]
        assert np.all(np.abs(X1.mean(axis=0)) < 0.06)
        # head coordinates: mixture of N(+-1, 1) has second moment 2
        assert np.all(np.abs((X1[:, :5] ** 2).mean(axis=0) - 2.0) < 0.08)
        assert np.all(np.abs((X1[:, 5:] ** 2).mean(axis=0) - 1.0) < 0.08)

    def test_model4_rotation_is_fixed_and_orthonormal(self):
        spec = dg.ModelSpec(model_id=4, p=10, rotation_seed=3)
        der = dg._derived(spec)
        R = der["rotation"]
        np.testing.assert_allclose(R @ R.T, np.eye(10), atol=1e-10)
        same = dg._derived(dg.ModelSpec(model_id=4, p=10, rotation_seed=3))["rotation"]
        np.testing.assert_array_equal(R, same)
        other = dg._derived(dg.ModelSpec(model_id=4, p=10, rotation_seed=4))["rotation"]
        assert not np.array_equal(R, other)

    def test_model4_back_rotated_moments(self):
        spec = dg.ModelSpec(model_id=4, p=8)
        s = dg.sample(spec, 80_000, _gen(6))
        R = dg._derived(spec)["rotation"]
        back2 = s.X[s.y == 2] @ R
        np.testing.assert_allclose(
            back2.mean(axis=0), [1, 1, 1, 0, 0, 0, 0, 0], atol=0.05
        )
        cov2 = np.cov(back2.T)
        want = dg._derived(spec)["sigma"][1]
        assert np.max(np.abs(cov2 - want)) < 0.12

    @pytest.mark.parametrize("p", [10, 500])
    def test_model4_draw_matches_two_product_oracle(self, p):
        spec = dg.ModelSpec(model_id=4, p=p)
        der = dg._derived(spec)
        R = der["rotation"]
        for r in (1, 2):
            gen = _gen(12)
            clone = copy.deepcopy(gen)
            got = np.empty((40, p))
            for call in dg._fill_steps(spec, np.full(40, r), got, np.empty((40, p)), gen):
                call()  # one class
            L = np.linalg.cholesky(der["sigma"][r - 1])
            want = (der["mu"][r - 1] + clone.standard_normal((40, p)) @ L.T) @ R.T
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [4, 500])
    @pytest.mark.parametrize("n,pi_1", [(1, 0.5), (2, 0.5), (7, 0.5), (1000, 0.5), (5, 0.01)])
    def test_model4_draw_matches_row_scatter(self, p, n, pi_1):
        # The class-ordered draw moved into label order equals the scatter
        # of one product per class into that class's rows, bit for bit.
        spec = dg.ModelSpec(model_id=4, p=p, pi_1=pi_1)
        der = dg._derived(spec)

        @_blas.single_thread  # as the sampler runs; the thread count moves last bits
        def row_scatter(gen):
            y = np.where(gen.random(n) < pi_1, 1, 2).astype(np.int64)
            X = np.empty((n, p))
            for r in (1, 2):
                mask = y == r
                if mask.any():
                    z = gen.standard_normal((int(mask.sum()), p))
                    X[mask] = z @ der["factor"][r - 1] + der["rotated_mu"][r - 1]
            return X, y

        X, y = row_scatter(_gen(13))
        got = dg.sample(spec, n, _gen(13))
        assert got.y.tobytes() == y.tobytes()
        assert got.X.tobytes() == X.tobytes()
        if pi_1 == 0.01:
            assert y.tolist() == [2] * n  # the draw has an empty class

    @pytest.mark.parametrize("pi_1", [0.5, 0.01])
    def test_model4_calls_draw_nothing_and_may_lag(self, pi_1):
        # The iteration draws every normal, so the calls it yields may run
        # after it ends, on another thread, and the sample is the same.
        spec = dg.ModelSpec(model_id=4, p=7, pi_1=pi_1)
        want = dg.sample(spec, 50, _gen(15))
        gen = _gen(15)
        y, X, fill = dg._start_sample(spec, 50, gen)
        calls = list(fill)
        state = copy.deepcopy(gen.bit_generator.state)
        for call in calls:
            call()
        assert gen.bit_generator.state == state
        assert y.tobytes() == want.y.tobytes() and X.tobytes() == want.X.tobytes()

    def test_model4_draw_peaks_under_one_and_a_half_samples(self):
        # The sample and one buffer of normals as tall as the larger class;
        # a scatter of per-class products peaked at twice the sample.
        spec = dg.ModelSpec(model_id=4, p=500)
        dg._derived(spec)
        tracemalloc.start()
        try:
            s = dg.sample(spec, 10_000, _gen(14))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * s.X.nbytes

    def test_with_eta_attaches_posterior(self):
        spec = dg.ModelSpec(model_id=1, p=3)
        s = dg.sample(spec, 50, _gen(7), with_eta=True)
        np.testing.assert_array_equal(s.eta, dg.eta(spec, s.X))
        assert np.all((s.eta >= 0) & (s.eta <= 1))


class TestDensities:
    def test_helper_densities_integrate_to_one(self):
        cases = [
            lambda x: math.exp(dg._laplace_log_density(np.array([[x]]))[0]),
            lambda x: math.exp(dg._cauchy_log_density(np.array([[x]]))[0]),
            lambda x: math.exp(dg._gauss_log_density(np.array([[x]]), 0.0)[0]),
            lambda x: math.exp(
                dg._t_log_density(np.array([[x]]), 0.0, np.eye(1), 0.0, 1)[0]
            ),
            lambda x: math.exp(
                dg._t_log_density(np.array([[x]]), 0.0, np.eye(1), 0.0, 2)[0]
            ),
        ]
        for f in cases:
            total, _ = integrate.quad(f, -np.inf, np.inf)
            assert abs(total - 1.0) < 1e-6

    def test_model1_spot_values(self):
        spec = dg.ModelSpec(model_id=1, p=4)
        zero = np.zeros(4)
        assert dg.log_density(spec, 1, zero) == pytest.approx(-4 * math.log(2.0))
        x = np.array([1.0, -2.0, 0.5, 0.0])
        assert dg.log_density(spec, 1, x) == pytest.approx(-4 * math.log(2.0) - 3.5)
        mu = np.full(4, 0.125)
        assert dg.log_density(spec, 2, mu) == pytest.approx(-2.0 * math.log(2 * math.pi))

    def test_model2_matches_multivariate_t_oracle(self):
        # p=50 is the dimension of criterion 1's Bayes-risk cell.
        for p in (6, 50):
            spec = dg.ModelSpec(model_id=2, p=p)
            der = dg._derived(spec)
            probes = _gen(8).normal(size=(40, p)) * 2.0
            for r in (1, 2):
                oracle = stats.multivariate_t(
                    loc=der["mu"][r - 1], shape=der["sigma"][r - 1], df=spec.dof[r - 1]
                ).logpdf(probes)
                np.testing.assert_allclose(dg.log_density(spec, r, probes), oracle, atol=1e-10)

    def test_model3_spot_value_and_mixture_oracle(self):
        spec = dg.ModelSpec(model_id=3, p=6)
        zero = np.zeros(6)
        want = 5 * (-math.log(math.pi)) - 0.5 * math.log(2 * math.pi)
        assert dg.log_density(spec, 2, zero) == pytest.approx(want)

        probes = _gen(9).normal(size=(30, 6)) * 1.5
        mu = dg._derived(spec)["mu1"]
        a = stats.multivariate_normal(mu, np.eye(6)).logpdf(probes)
        b = stats.multivariate_normal(-mu, np.eye(6)).logpdf(probes)
        oracle = np.logaddexp(a, b) - math.log(2.0)
        np.testing.assert_allclose(dg.log_density(spec, 1, probes), oracle, atol=1e-10)

    def test_model4_matches_rotated_gaussian_oracle(self):
        for p in (6, 50):
            spec = dg.ModelSpec(model_id=4, p=p)
            der = dg._derived(spec)
            R = der["rotation"]
            probes = _gen(10).normal(size=(30, p)) * 1.5
            for r in (1, 2):
                oracle = stats.multivariate_normal(
                    R @ der["mu"][r - 1], R @ der["sigma"][r - 1] @ R.T
                ).logpdf(probes)
                np.testing.assert_allclose(dg.log_density(spec, r, probes), oracle, atol=1e-9)

    def test_eta_matches_direct_ratio(self):
        spec = dg.ModelSpec(model_id=1, p=3, pi_1=0.35)
        probes = _gen(11).normal(size=(25, 3))
        f1 = np.exp(dg.log_density(spec, 1, probes))
        f2 = np.exp(dg.log_density(spec, 2, probes))
        want = 0.35 * f1 / (0.35 * f1 + 0.65 * f2)
        np.testing.assert_allclose(dg.eta(spec, probes), want, atol=1e-12)

    @pytest.mark.parametrize("model_id,p", [(1, 4), (2, 6), (3, 6), (4, 6)])
    def test_mean_posterior_recovers_prior(self, model_id, p):
        # E[eta(X)] over the feature marginal equals pi_1; a wrong
        # normalising constant in any density would bias this
        spec = dg.ModelSpec(model_id=model_id, p=p, pi_1=0.4)
        s = dg.sample(spec, 60_000, _gen(12 + model_id), with_eta=True)
        se = s.eta.std(ddof=1) / math.sqrt(len(s.eta))
        assert abs(s.eta.mean() - 0.4) < 5 * se + 1e-3


class TestBayesRisk:
    def test_matches_quadrature_in_one_dimension(self):
        for pi_1 in (0.5, 0.3):
            spec = dg.ModelSpec(model_id=1, p=1, pi_1=pi_1)

            def integrand(x):
                pt = np.array([x])
                f1 = math.exp(dg.log_density(spec, 1, pt))
                f2 = math.exp(dg.log_density(spec, 2, pt))
                return min(pi_1 * f1, (1 - pi_1) * f2)

            exact, _ = integrate.quad(integrand, -40, 40, limit=200)
            risk, se = dg.bayes_risk(spec, 300_000, _gen(20))
            assert abs(risk - exact) < 4 * se

    def test_rotation_invariance_of_model4_risk(self):
        a, se_a = dg.bayes_risk(dg.ModelSpec(model_id=4, p=8, rotation_seed=0), 150_000, _gen(21))
        b, se_b = dg.bayes_risk(dg.ModelSpec(model_id=4, p=8, rotation_seed=9), 150_000, _gen(22))
        assert abs(a - b) < 4 * math.hypot(se_a, se_b)

    def test_rejects_tiny_mc(self):
        with pytest.raises(ValueError):
            dg.bayes_risk(dg.ModelSpec(model_id=1, p=1), 1, _gen(0))


class TestCsvLoading:
    def test_round_trip_fixture(self, synthetic_csv):
        s = dg.load_labelled_csv(synthetic_csv)
        assert s.X.shape == (60, 6)
        assert np.bincount(s.y, minlength=3).tolist() == [0, 30, 30]

    def _write(self, tmp_path, text):
        f = tmp_path / "data.csv"
        f.write_text(text, encoding="utf-8")
        return f

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        f = self._write(tmp_path, "# note\nlabel,x\n\n1,0.5\n# mid\n2,1.5\n")
        s = dg.load_labelled_csv(f)
        assert s.X.shape == (2, 1)

    def test_error_messages_name_the_line(self, tmp_path):
        from rpens.errors import DataFormatError

        f = self._write(tmp_path, "label,x\n1,0.5\n3,1.0\n")
        with pytest.raises(DataFormatError, match=r":3:"):
            dg.load_labelled_csv(f)

        f = self._write(tmp_path, "label,x\n1,abc\n")
        with pytest.raises(DataFormatError, match=r":2:"):
            dg.load_labelled_csv(f)

        f = self._write(tmp_path, "label,x\n1,0.5,9\n")
        with pytest.raises(DataFormatError, match="columns"):
            dg.load_labelled_csv(f)

        f = self._write(tmp_path, "x,label\n0.5,1\n")
        with pytest.raises(DataFormatError, match="label"):
            dg.load_labelled_csv(f)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        from rpens.errors import DataFormatError

        f = self._write(tmp_path, f"label,x,y\n1,0.5,1.0\n2,0.25,{cell}\n1,{cell},0.0\n")
        with pytest.raises(DataFormatError, match=r":3: non-finite value .* column 'y'"):
            dg.load_labelled_csv(f)

    def test_degenerate_files(self, tmp_path):
        from rpens.errors import DataFormatError

        with pytest.raises(DataFormatError, match="cannot open"):
            dg.load_labelled_csv(tmp_path / "missing.csv")
        with pytest.raises(DataFormatError, match="missing header"):
            dg.load_labelled_csv(self._write(tmp_path, "# only a comment\n"))
        with pytest.raises(DataFormatError, match="no data rows"):
            dg.load_labelled_csv(self._write(tmp_path, "label,x\n"))
        with pytest.raises(DataFormatError, match="no feature columns"):
            dg.load_labelled_csv(self._write(tmp_path, "label\n1\n"))

    def test_label_column_is_optional_on_request(self, tmp_path):
        s = dg.load_labelled_csv(self._write(tmp_path, "x,y\n0.5,1.0\n2,3\n"), require_label=False)
        assert s.y is None
        assert s.X.tolist() == [[0.5, 1.0], [2.0, 3.0]]
        s = dg.load_labelled_csv(self._write(tmp_path, "label,y\n1,1.0\n"), require_label=False)
        assert s.y.tolist() == [1] and s.X.tolist() == [[1.0]]
        with pytest.raises(DataFormatError, match=r":2: label must be 1 or 2, got '3'"):
            dg.load_labelled_csv(self._write(tmp_path, "label,y\n3,1.0\n"), require_label=False)


def _outcome(parse):
    """(X bytes, X shape, y bytes or None) of a parse, or its error message."""
    try:
        s = parse()
    except DataFormatError as exc:
        return str(exc)
    assert s.X.dtype == np.float64 and s.X.flags.c_contiguous
    return s.X.tobytes(), s.X.shape, None if s.y is None else s.y.tobytes()


def _check_paths_agree(path, require_label=True):
    """The C parse, when it accepts a file, equals the cell-by-cell parse,
    and the loader returns or raises exactly what the cell-by-cell parse does.
    Returns whether the C parse accepted the file."""
    slow = _outcome(lambda: dg._parse_cells(path, require_label))
    fast = None
    if path.exists():
        fast = dg._parse_well_formed(path, require_label)
    if fast is not None:
        assert _outcome(lambda: fast) == slow
    assert _outcome(lambda: dg.load_labelled_csv(path, require_label=require_label)) == slow
    return fast is not None


# (file text, whether numpy's parse takes it, the cell-by-cell outcome: the
# expected rows of X, or a pattern of the error message)
_CASES = {
    "comment_at_line_start": ("# a\nlabel,x\n# b\n1,0.5\n#c,d\n2,1.5\n", True, [[0.5], [1.5]]),
    "hash_mid_line": ("label,x\n1,0.5 # note\n", False, r":2: non-numeric value '0.5 # note'"),
    "hash_in_cell": ("label,x\n1,#0.5\n", False, r":2: non-numeric value '#0.5'"),
    "hash_in_header_name": ("label,x#1\n1,0.5\n", True, [[0.5]]),
    "indented_hash_is_data": ("label,x\n1,0.5\n  # note\n", False, r":3: expected 2 columns, got 1"),
    "quoted_fields": ('"label","x"\n"1",0.5\n2,"1.5"\n', False, [[0.5], [1.5]]),
    "quoted_comma": ('label,x\n1,"0,5"\n', False, r":2: non-numeric value '0,5'"),
    "quoted_comment": ('"#x",1\nlabel,x\n1,2\n', False, [[2.0]]),
    "quoted_line_break": ('label,x\n1,"0.5\n"\n', False, [[0.5]]),
    # the quoted header name spans three lines, so csv reads a 3-column header
    "quote_spanning_lines": ('label,"x\n1,2\n#",y\n1,5\n', False, r":4: expected 3 columns, got 2"),
    # the record before the bad label spans lines 2 and 3
    "bad_label_after_quoted_line_break": ('label,x\n1,"0.5\n"\n3,1\n', False, r":4: label must be 1 or 2, got '3'"),
    "blank_lines": ("\nlabel,x\n\n1,0.5\n\n\n2,1\n\n", True, [[0.5], [1.0]]),
    "whitespace_line": ("label,x\n1,0.5\n   \n2,1\n", False, r":3: expected 2 columns, got 1"),
    "whitespace_line_first": (" \t\nlabel,x\n1,2\n", False, r":1: first header column must be 'label'"),
    "whitespace_in_cells": ("label , x,y\n 1 , 0.5 ,\t-2 \n2,\xa01.5,3\u2003\n", True, [[0.5, -2.0], [1.5, 3.0]]),
    "crlf": ("label,x\r\n1,0.5\r\n\r\n2,1.5\r\n", True, [[0.5], [1.5]]),
    "bare_cr": ("label,x\r1,0.5\r\r2,1.5\r", True, [[0.5], [1.5]]),
    "no_final_newline": ("label,x\n1,0.5\n2,1.5", True, [[0.5], [1.5]]),
    "trailing_comma": ("label,x\n1,0.5,\n", False, r":2: expected 2 columns, got 3"),
    "trailing_comma_everywhere": ("label,x,\n1,0.5,\n", False, r":2: non-numeric value '' in column ''"),
    "empty_cell": ("label,x,y\n1,,0.5\n", False, r":2: non-numeric value '' in column 'x'"),
    "label_only_row": ("label,x\n1\n", False, r":2: expected 2 columns, got 1"),
    "label_1.0": ("label,x\n1.0,0.5\n", False, r":2: label must be 1 or 2, got '1.0'"),
    "label_+1": ("label,x\n2,0.5\n+1,0.5\n", False, r":3: label must be 1 or 2, got '\+1'"),
    "label_spaced_2": ("label,x\n 2 ,0.5\n", True, [[0.5]]),
    "underscore_digits": ("label,x\n1,1_0\n", False, [[10.0]]),
    "arabic_indic_digits": ("label,x\n1,\u0661\u0662\u0663\n", False, [[123.0]]),
    "separator_char": ("label,x\n1,\x1c0.5\n", False, r":2: non-numeric value '\\x1c0.5'"),
    "nan": ("label,x\n1,nan\n", False, r":2: non-finite value 'nan' in column 'x'"),
    "minus_inf": ("label,x\n1,0.5\n2,-inf\n", False, r":3: non-finite value '-inf'"),
    "infinity": ("label,x\n1,Infinity\n", False, r":2: non-finite value 'Infinity'"),
    "overflow": ("label,x\n1,1e400\n", False, r":2: non-finite value '1e400'"),
    "ragged": ("label,x,y\n1,0.5,1\n2,0.5\n", False, r":3: expected 3 columns, got 2"),
    "no_feature_columns": ("label\n1\n", False, r":1: no feature columns"),
    "no_rows": ("# a\nlabel,x\n", False, r"no data rows"),
    "unlabelled": ("x,y\n0.5,1\n", False, r":1: first header column must be 'label'"),
    # the first bad line in file order is reported, and in it the first check
    # it fails: its column count, then its label, then its cells in order
    "label_before_ragged": ("label,x\n1,0.5\n3,1.5\n2,0.5\n1,0.5,9\n", False, r":3: label must be 1 or 2, got '3'"),
    "cell_before_ragged": ("label,x,y\n1,0.5,1\n2,abc,1\n1,1\n", False, r":3: non-numeric value 'abc' in column 'x'"),
    "nan_before_text": ("label,x,y\n2,0.5,nan\n1,abc,1\n", False, r":2: non-finite value 'nan' in column 'y'"),
    "nan_then_text": ("label,x,y\n1,nan,abc\n", False, r":2: non-finite value 'nan' in column 'x'"),
    "label_then_cells": ("label,x,y\n3,nan,abc\n", False, r":2: label must be 1 or 2, got '3'"),
    "columns_then_label": ("label,x,y\n3,nan\n", False, r":2: expected 3 columns, got 2"),
}


@pytest.mark.filterwarnings("error")
class TestCsvFastPath:
    @pytest.mark.parametrize("name", sorted(_CASES))
    def test_agrees_with_cell_by_cell_parse(self, tmp_path, name):
        text, fast, expected = _CASES[name]
        f = tmp_path / "data.csv"
        f.write_bytes(text.encode("utf-8"))
        assert _check_paths_agree(f) == fast
        if isinstance(expected, str):
            with pytest.raises(DataFormatError, match=expected):
                dg.load_labelled_csv(f)
        else:
            assert dg.load_labelled_csv(f).X.tolist() == expected

    @pytest.mark.parametrize("text, fast", [
        ("x,y\n0.5,1\n# c\n\n2,3\n", True),
        ("x\r\n 0.5 \r\n", True),
        ("label,x\n1,0.5\n", True),
        ("label,x\n1\n", False),
        ("x,y\n0.5\n", False),
        ("x,y\n0.5,nan\n", False),
        ("x\n1_0\n", False),
        ("x\n\n  \n", False),
        ("x\n", False),
    ])
    def test_unlabelled_agrees_with_cell_by_cell_parse(self, tmp_path, text, fast):
        f = tmp_path / "data.csv"
        f.write_text(text, encoding="utf-8", newline="")
        assert _check_paths_agree(f, require_label=False) == fast

    def test_undecodable_and_missing_files(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_bytes(b"label,x\n1,0.5\xff\n")
        with pytest.raises(DataFormatError) as fast:
            dg.load_labelled_csv(f)
        with pytest.raises(DataFormatError) as slow:
            dg._parse_cells(f, True)
        assert str(fast.value) == str(slow.value)
        assert _check_paths_agree(tmp_path / "missing.csv") is False

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        cells=st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
            min_size=1, max_size=6,
        ),
        labels=st.lists(st.sampled_from(["1", "2"]), min_size=6, max_size=6),
        width=st.integers(1, 3),
    )
    def test_repr_floats_round_trip_on_the_fast_path(self, tmp_path, cells, labels, width):
        f = tmp_path / "data.csv"
        with open(f, "w", encoding="utf-8") as fh:
            fh.write("label," + ",".join(f"x{j}" for j in range(width)) + "\n")
            for label, row in zip(labels, cells):
                fh.write(label + "," + ",".join(map(repr, row[:width])) + "\n")
        assert _check_paths_agree(f)
        s = dg.load_labelled_csv(f)
        want = np.array([row[:width] for row in cells], dtype=np.float64)
        assert s.X.tobytes() == want.tobytes()
        assert s.y.tolist() == [int(lab) for lab in labels[: len(cells)]]


def _write_sample(path, drawn, header="label"):
    """Write a sample as this package does: a header, then repr-written rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "," + ",".join(f"x{j + 1}" for j in range(drawn.X.shape[1])) + "\n")
        for label, row in zip(drawn.y.tolist(), drawn.X.tolist()):
            fh.write(f"{label}," + ",".join(map(repr, row)) + "\n")


@pytest.mark.filterwarnings("error")
class TestCsvStreaming:
    """The fast path reads one line at a time and still falls back, or
    raises, exactly where the cell-by-cell parse says."""

    def test_peak_memory_is_about_the_array(self, tmp_path):
        drawn = dg.sample(dg.ModelSpec(model_id=1, p=100), 2000, _gen(11))
        f = tmp_path / "wide.csv"
        _write_sample(f, drawn)
        tracemalloc.start()
        try:
            s = dg.load_labelled_csv(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.X.tobytes() == drawn.X.tobytes() and s.y.tobytes() == drawn.y.tobytes()
        assert peak < s.X.nbytes + 2_000_000, f"traced peak {peak} bytes"

    @pytest.mark.parametrize("row, message", [
        ("3,0.5", r":50002: label must be 1 or 2, got '3'"),
        ("1,0.5,0.25", r":50002: expected 2 columns, got 3"),
        ("2,nan", r":50002: non-finite value 'nan' in column 'x'"),
    ], ids=["bad_label", "ragged", "nan"])
    def test_bad_row_past_the_first_loadtxt_chunk(self, tmp_path, row, message):
        # the bad row lies past numpy's _loadtxt_chunksize of 50,000 rows
        f = tmp_path / "long.csv"
        f.write_text("label,x\n" + "1,0.5\n2,1.5\n" * 25_000 + row + "\n", encoding="utf-8")
        assert _check_paths_agree(f) is False
        with pytest.raises(DataFormatError, match=message):
            dg.load_labelled_csv(f)

    @pytest.mark.parametrize("text, message", [
        ("label,x\n", "no data rows"),
        ("# only a comment\n\n# and another\n", "missing header row"),
        ("x\n", "first header column must be 'label'"),
    ])
    def test_files_without_rows_raise_without_a_numpy_warning(self, tmp_path, text, message):
        f = tmp_path / "empty.csv"
        f.write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError, match=message):
            dg.load_labelled_csv(f)
        assert dg._parse_well_formed(f, False) is None

    @pytest.mark.parametrize("require_label", [True, False])
    def test_leading_byte_order_mark_is_ignored(self, tmp_path, require_label):
        text = "# exported\nlabel,x,y\n1,0.5,1\n2,1.5,-2\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf#")
        outcome = _outcome(lambda: dg.load_labelled_csv(plain, require_label=require_label))
        assert outcome[2] is not None  # the label column was read as labels
        for parse in (dg.load_labelled_csv, dg._parse_well_formed, dg._parse_cells):
            got = _outcome(lambda: parse(marked, require_label=require_label))
            assert got == outcome, parse.__name__


@pytest.mark.filterwarnings("error")
class TestCellByCellParse:
    """The fallback holds no cell text past its row."""

    @pytest.mark.parametrize("header, last_label", [('"label"', None), ("label", "3")],
                             ids=["quoted_header", "bad_last_label"])
    def test_peak_memory_is_about_the_array(self, tmp_path, header, last_label):
        drawn = dg.sample(dg.ModelSpec(model_id=1, p=100), 2000, _gen(12))
        if last_label is not None:
            drawn.y[-1] = int(last_label)
        f = tmp_path / "wide.csv"
        _write_sample(f, drawn, header)
        parsed = error = None
        tracemalloc.start()
        try:
            parsed = dg._parse_cells(f, True)
        except DataFormatError as exc:
            error = str(exc)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        if last_label is None:
            assert _outcome(lambda: parsed) == (drawn.X.tobytes(), drawn.X.shape, drawn.y.tobytes())
        else:
            assert error.endswith(":2001: label must be 1 or 2, got '3'")
        assert peak < 2 * drawn.X.nbytes + 2_000_000, f"traced peak {peak} bytes"


# A small well-formed labelled file.
_FUZZ_BASE = "# c\nlabel,x,y\n1,0.5,-2\n2,1e3,3\n"


@pytest.mark.filterwarnings("error")
def test_single_character_edits_load_or_raise_a_data_error(tmp_path):
    f = tmp_path / "data.csv"
    variants = sorted(set(single_character_edits(_FUZZ_BASE)))
    assert len(variants) > 200
    for text in variants:
        f.write_bytes(text.encode("utf-8"))
        for require_label in (True, False):
            _check_paths_agree(f, require_label)


class TestCsvFastPathGuard:
    """Files in the shapes this package writes never reach the cell loop."""

    @pytest.fixture
    def no_cell_loop(self, monkeypatch):
        def refuse(path, require_label):
            raise AssertionError(f"{path} fell back to the cell-by-cell parse")

        monkeypatch.setattr(dg, "_parse_cells", refuse)

    def test_sample_written_with_repr(self, tmp_path, no_cell_loop):
        drawn = dg.sample(dg.ModelSpec(model_id=2, p=7), 50, _gen(5))
        f = tmp_path / "train.csv"
        _write_sample(f, drawn)
        s = dg.load_labelled_csv(f)
        assert s.X.tobytes() == drawn.X.tobytes()
        assert s.y.tobytes() == drawn.y.tobytes()

    def test_files_with_audit_headers(self, tmp_path, synthetic_csv, no_cell_loop, capsys):
        sim = tmp_path / "sim.csv"
        assert main([
            "simulate", "--model", "1", "--n", "24", "--p", "4", "--d", "2",
            "--B1", "4", "--B2", "2", "--reps", "1", "--n-test", "20", "--out", str(sim),
        ]) == 0
        audit = [line for line in sim.read_text(encoding="utf-8").splitlines(True)
                 if line.startswith("#")]
        assert len(audit) > 3
        f = tmp_path / "data.csv"
        f.write_text("".join(audit) + synthetic_csv.read_text(encoding="utf-8"), encoding="utf-8")
        assert dg.load_labelled_csv(f).X.shape == (60, 6)

        curves = tmp_path / "curves.csv"
        assert main([
            "fit", "--train", str(f), "--model-out", str(tmp_path / "m.json"),
            "--d", "2", "--B1", "5", "--B2", "2", "--curves-out", str(curves),
        ]) == 0
        capsys.readouterr()
        s = dg.load_labelled_csv(curves, require_label=False)
        assert s.y is None and s.X.shape[1] == 3
