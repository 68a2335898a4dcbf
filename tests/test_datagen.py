import math

import numpy as np
import pytest
from scipy import integrate, stats

from rpens import datagen as dg
from rpens import rng


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
        spec = dg.ModelSpec(model_id=2, p=6)
        der = dg._derived(spec)
        probes = _gen(8).normal(size=(40, 6)) * 2.0
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
        spec = dg.ModelSpec(model_id=4, p=6)
        der = dg._derived(spec)
        R = der["rotation"]
        probes = _gen(10).normal(size=(30, 6)) * 1.5
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
