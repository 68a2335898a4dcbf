import json
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from rpens import base_classifiers as bc
from rpens import ensemble as en
from rpens import errors, serialize
from rpens.cli import main

from conftest import (
    DAMAGED_MODELS, _array_record, make_blobs, pooled_covariance, rank_deficient_sample,
)


def _fit(base, seed=100, **kw):
    X, y = make_blobs(16, 5, 1.8, seed=seed)
    cfg = en.EnsembleConfig(B1=5, B2=3, d=2, base=base, master_seed=seed, **kw)
    return en.fit(X, y, cfg), X


@pytest.mark.parametrize("base", ["lda", "qda", "knn"])
class TestRoundTrip:
    def test_dumps_loads_is_bit_exact(self, base):
        m, _ = _fit(base)
        text = serialize.dumps(m)
        again = serialize.dumps(serialize.loads(text))
        assert text == again

    def test_loaded_model_predicts_identically(self, base):
        m, X = _fit(base)
        m2 = serialize.loads(serialize.dumps(m))
        probes = np.random.default_rng(0).normal(size=(30, 5))
        np.testing.assert_array_equal(en.predict_many(m, probes), en.predict_many(m2, probes))
        np.testing.assert_array_equal(en.votes_many(m, probes), en.votes_many(m2, probes))
        assert m2.alpha_hat == m.alpha_hat
        assert m2.config == m.config
        assert m2.winner_indices == m.winner_indices
        np.testing.assert_array_equal(m2.block_error_counts, m.block_error_counts)

    def test_file_round_trip(self, base, tmp_path):
        m, _ = _fit(base)
        path = tmp_path / "model.json"
        serialize.save_model(m, path)
        m2 = serialize.load_model(path)
        assert serialize.dumps(m2) == serialize.dumps(m)
        # canonical form: single line plus trailing newline
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1


class TestFormat:
    def test_canonical_json_properties(self):
        m, _ = _fit("lda")
        text = serialize.dumps(m)
        obj = json.loads(text)
        assert obj["format"] == serialize.FORMAT_NAME
        assert obj["version"] == serialize.FORMAT_VERSION
        assert json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" == text

    def test_alpha_stored_as_integer_pair(self):
        m, _ = _fit("lda", alpha=0.25)
        obj = json.loads(serialize.dumps(m))
        assert obj["alpha_hat"] == {"den": 4, "num": 1}
        m2 = serialize.loads(serialize.dumps(m))
        assert m2.alpha_hat == Fraction(1, 4)

    def test_rejects_foreign_and_damaged_containers(self):
        m, _ = _fit("lda")
        obj = json.loads(serialize.dumps(m))

        wrong = dict(obj, format="other-format")
        with pytest.raises(errors.DataFormatError, match="format"):
            serialize.model_from_dict(wrong)

        future = dict(obj, version=99)
        with pytest.raises(errors.DataFormatError, match="version"):
            serialize.model_from_dict(future)

        with pytest.raises(errors.DataFormatError, match="invalid model container"):
            serialize.loads("{ not json")

    def test_rejects_unknown_base_kind(self):
        m, _ = _fit("lda")
        obj = json.loads(serialize.dumps(m))
        obj["base_models"][0]["kind"] = "tree"
        with pytest.raises(errors.DataFormatError, match="kind"):
            serialize.model_from_dict(obj)

    def test_array_codec_preserves_exact_bits(self):
        a = np.array([0.1, -0.0, np.pi, 1e-308, 2.0**53 + 1.0])
        out = serialize._decode_array(serialize._encode_array(a))
        assert out.dtype == np.float64
        assert a.tobytes() == out.tobytes()
        b = np.arange(6, dtype=np.int64).reshape(2, 3)
        out_b = serialize._decode_array(serialize._encode_array(b))
        np.testing.assert_array_equal(b, out_b)
        assert out_b.dtype == np.int64

    def test_array_codec_rejects_other_dtypes(self):
        with pytest.raises(TypeError):
            serialize._encode_array(np.zeros(3, dtype=np.float32))
        with pytest.raises(errors.DataFormatError):
            serialize._decode_array({"shape": [1], "dtype": "<f4", "data": "AAAAAA=="})


class TestLoadBoundary:
    @pytest.mark.parametrize("case", sorted(DAMAGED_MODELS))
    def test_damaged_container_is_a_data_error(self, case, tmp_path):
        m, _ = _fit("lda")
        raw = DAMAGED_MODELS[case](serialize.dumps(m))
        with pytest.raises(errors.DataFormatError):
            serialize.loads(raw.decode("latin-1"))
        path = tmp_path / "model.json"
        path.write_bytes(raw)
        with pytest.raises(errors.DataFormatError):
            serialize.load_model(path)

    def test_directory_path_is_a_data_error(self, tmp_path):
        with pytest.raises(errors.DataFormatError, match="cannot read model"):
            serialize.load_model(tmp_path)

    def test_record_layout_is_the_dataclass_fields(self):
        m, _ = _fit("qda")
        obj = json.loads(serialize.dumps(m))
        assert set(obj["config"]) == {f.name for f in fields(en.EnsembleConfig)}
        assert set(obj["projections"][0]) == {"entries", "kind"}
        assert set(obj["base_models"][0]) == {f.name for f in fields(bc.QdaModel)} | {"kind"}

    @pytest.mark.parametrize("base, field, make", [
        ("qda", "omega_hat_1", lambda m: np.eye(3)),
        ("qda", "sigma_hat_2", lambda m: np.eye(2)[:, :1]),
        ("knn", "points", lambda m: np.zeros((m - 1, 2))),
        ("knn", "points", lambda m: np.zeros((m, 3))),
        ("knn", "labels", lambda m: np.arange(m, dtype=np.int64) % 2 + 2),
        ("knn", "labels", lambda m: np.ones(m)),
        ("knn", "point_ids", lambda m: np.zeros(m, dtype=np.int64)),
        ("knn", "point_ids", lambda m: np.arange(m + 1, dtype=np.int64)),
        ("knn", "k", lambda m: 0),
        ("knn", "k", lambda m: m + 1),
    ], ids=[
        "qda_omega_of_other_d", "qda_flat_sigma", "knn_fewer_points_than_labels",
        "knn_points_of_other_d", "knn_label_of_3", "knn_float_labels", "knn_repeated_point_ids",
        "knn_more_point_ids_than_points", "knn_k_of_0", "knn_k_above_m",
    ])
    def test_base_model_arrays_must_fit_d_and_each_other(self, base, field, make):
        m, _ = _fit(base)
        obj = serialize.model_to_dict(m)
        record = obj["base_models"][-1]
        value = make(len(m.train_labels))
        record[field] = value if isinstance(value, int) else _array_record(value)
        with pytest.raises(errors.DataFormatError):
            serialize.model_from_dict(obj)

    @pytest.mark.parametrize("field, value", [
        ("log_det_1", lambda bm: bm["log_det_1"] + 1e-3),
        ("log_det_2", lambda bm: -bm["log_det_2"] - 1.0),
        ("omega_hat_2", lambda bm: _array_record(np.array([[1.0, 0.0], [0.0, -1.0]]))),
        ("sigma_hat_1", lambda bm: _array_record(np.array([[1.0, 0.0], [1e-3, 1.0]]))),
    ], ids=["log_det_1_off", "log_det_2_off", "indefinite_omega", "asymmetric_sigma"])
    def test_qda_matrices_must_be_a_positive_definite_fit(self, field, value):
        m, _ = _fit("qda")
        obj = json.loads(serialize.dumps(m))
        record = obj["base_models"][1]
        record[field] = value(record)
        with pytest.raises(errors.DataFormatError, match=field):
            serialize.loads(json.dumps(obj))

    def test_model_fitted_through_the_ridge_fallback_round_trips(self):
        X, y = rank_deficient_sample()
        cfg = en.EnsembleConfig(
            B1=3, B2=6, d=2, base="lda", projection_kind="axis_aligned", master_seed=1
        )
        m = en.fit(X, y, cfg)
        ridged = [
            not np.allclose(bm.sigma_hat, pooled_covariance(proj.apply(X), y), rtol=1e-12, atol=0)
            for bm, proj in zip(m.base_models, m.projections)
        ]
        assert any(ridged), "no winner took the ridge fallback"
        text = serialize.dumps(m)
        assert serialize.dumps(serialize.loads(text)) == text

    @pytest.mark.parametrize("base, field, value", [
        ("qda", "pi_hat_1", np.nan),
        ("qda", "log_det_2", np.inf),
        ("qda", "log_det_1", -np.inf),
        ("qda", "omega_hat_1", np.array([[1.0, 0.0], [0.0, np.inf]])),
        ("knn", "points", np.full((32, 2), np.nan)),
    ], ids=["qda_nan_prior", "qda_infinite_log_det", "qda_minus_infinite_log_det",
            "qda_infinite_omega", "knn_nan_points"])
    def test_non_finite_numbers_are_data_errors(self, base, field, value):
        # json.loads accepts the NaN, Infinity and -Infinity literals.
        m, _ = _fit(base)
        obj = json.loads(serialize.dumps(m))
        record = obj["base_models"][0]
        record[field] = _array_record(value) if isinstance(value, np.ndarray) else value
        with pytest.raises(errors.DataFormatError, match=f"{field} (must hold finite|has JSON)"):
            serialize.loads(json.dumps(obj))


# Every JSON leaf of each small saved model takes each of these values in turn.
_MUTANT_VALUES = (
    None, "x", [], {}, -1, 0, 1, 2, 3, 10**30, -(10**30), 0.5, -0.0, 1e308, True, [1], [0.5, 2],
)


def _small_models():
    """The saved form of small lda, qda and knn fits, and of lda with
    sample_split and qda with leave_one_out."""
    X, y = make_blobs(16, 5, 1.8, seed=100)
    for base, kw in [("lda", {}), ("qda", {}), ("knn", {}),
                     ("lda", {"estimator": "sample_split"}),
                     ("qda", {"estimator": "leave_one_out"})]:
        cfg = en.EnsembleConfig(B1=2, B2=2, d=2, base=base, master_seed=100, **kw)
        yield json.loads(serialize.dumps(en.fit(X, y, cfg)))


def _leaf_paths(obj, path=()):
    """Key paths to every scalar and every empty list or dict in obj."""
    if isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, list):
        items = list(enumerate(obj))
    else:
        items = []
    if not items:
        yield path
    for key, value in items:
        yield from _leaf_paths(value, path + (key,))


def _mutants(obj):
    """(key path, value, JSON text of obj with that leaf set to that value)
    for every leaf and value."""
    for path in _leaf_paths(obj):
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        kept = parent[path[-1]]
        for value in _MUTANT_VALUES:
            parent[path[-1]] = value
            yield path, value, json.dumps(obj)
        parent[path[-1]] = kept


class TestMutatedModels:
    """A model file with any one leaf changed loads and predicts, or is a data error."""

    def test_every_leaf_mutation_predicts_or_is_a_data_error(self):
        probes = np.random.default_rng(0).normal(size=(4, 5))
        loaded = 0
        for obj in _small_models():
            for path, value, text in _mutants(obj):
                try:
                    mutated = serialize.loads(text)
                except errors.DataFormatError:
                    continue
                assert en.predict_many(mutated, probes).shape == (4,), (path, value)
                loaded += 1
        assert loaded > 0

    def test_predict_command_exits_0_or_3(self, tmp_path, capsys):
        data = tmp_path / "x.csv"
        data.write_text("x1,x2,x3,x4,x5\n0.5,-1,2,0,1e3\n", encoding="utf-8")
        model_path = tmp_path / "model.json"
        codes = set()
        for obj in _small_models():
            for i, (path, value, text) in enumerate(_mutants(obj)):
                # every 101st mutation, and each of the threshold's denominator
                if i % 101 and path != ("alpha_hat", "den"):
                    continue
                model_path.write_text(text, encoding="ascii")
                code = main([
                    "predict", "--model-in", str(model_path),
                    "--data", str(data), "--out", str(tmp_path / "pred.csv"),
                ])
                assert code in (0, 3), (path, value)
                codes.add(code)
        capsys.readouterr()
        assert codes == {0, 3}
