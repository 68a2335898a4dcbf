"""Versioned, bit-exact model serialization.

Models are stored as canonical JSON: keys sorted, no insignificant
whitespace, one trailing newline.  Arrays travel as base64-encoded raw
little-endian bytes in row-major order with their shape and dtype, floats
as JSON numbers (Python's float repr round-trips exactly), and the voting
threshold as an integer numerator/denominator pair, so a load followed by
a save reproduces the original file byte for byte.

The config, each projection and each base model is a record keyed by
the fields of its dataclass, so the dataclass alone defines its layout:
a field annotated ``np.ndarray`` is an array record, any other field a
JSON value of its annotated type.  Base-model records add a ``kind``.
Loading is a data boundary: a container whose records, types, counts or
shapes do not fit together, whose audit data no fit writes (a ``block_m``
other than the estimator's count, a winner other than its block's first
minimum), or that holds a NaN or an infinity, raises DataFormatError.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import fields
from fractions import Fraction
from typing import get_type_hints

import numpy as np

from .base_classifiers import KnnModel, LdaModel, QdaModel
from .ensemble import EnsembleConfig, EnsembleModel, _first_minimum
from .error_estimation import evaluation_count
from .errors import DataFormatError, RpensError
from .projections import Projection

FORMAT_NAME = "rpens-ensemble"
FORMAT_VERSION = 1

# Only these dtypes ever appear in a model.
_DTYPES = ("<f8", "<i8")

_MODEL_CLASSES = {"lda": LdaModel, "qda": QdaModel, "knn": KnnModel}
_MODEL_KINDS = {cls: kind for kind, cls in _MODEL_CLASSES.items()}


def _field_types(cls) -> dict:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


# Field name -> annotated type, per record class.
_FIELD_TYPES = {
    cls: _field_types(cls) for cls in (EnsembleConfig, Projection, *_MODEL_CLASSES.values())
}

_CONTAINER_KEYS = {"format", "version"} | {f.name for f in fields(EnsembleModel)}

# Dtype, shape and optional value range of each base-model array, the
# shape in terms of the projected dimension d and the number m of points a
# knn model stores.
_F, _I = np.float64, np.int64
_BASE_ARRAYS = {
    LdaModel: {
        "mu_hat_1": (_F, "d"), "mu_hat_2": (_F, "d"),
        "sigma_hat": (_F, "dd"), "omega_hat": (_F, "dd"),
    },
    QdaModel: {
        "mu_hat_1": (_F, "d"), "mu_hat_2": (_F, "d"),
        "sigma_hat_1": (_F, "dd"), "sigma_hat_2": (_F, "dd"),
        "omega_hat_1": (_F, "dd"), "omega_hat_2": (_F, "dd"),
    },
    KnnModel: {"points": (_F, "md"), "labels": (_I, "m", 1, 2), "point_ids": (_I, "m")},
}

# Covariances and precisions, each with the log-determinant field its
# covariance must match (None where the model stores none).
_SPD_ARRAYS = {
    LdaModel: {"sigma_hat": None, "omega_hat": None},
    QdaModel: {
        "sigma_hat_1": "log_det_1", "sigma_hat_2": "log_det_2",
        "omega_hat_1": None, "omega_hat_2": None,
    },
}


def _encode_array(a: np.ndarray) -> dict:
    dtype = a.dtype.newbyteorder("<").str
    if dtype not in _DTYPES:
        raise TypeError(f"unsupported array dtype {a.dtype}")
    data = base64.b64encode(np.ascontiguousarray(a, dtype=dtype).tobytes()).decode("ascii")
    return {"shape": list(a.shape), "dtype": dtype, "data": data}


def _decode_array(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict) or obj.keys() != {"shape", "dtype", "data"}:
        raise DataFormatError("array record needs exactly shape, dtype and data")
    dtype = obj["dtype"]
    if dtype not in _DTYPES:
        raise DataFormatError(f"unsupported array dtype {dtype!r}")
    try:
        raw = base64.b64decode(obj["data"], validate=True)
        a = np.frombuffer(raw, dtype=dtype).reshape(obj["shape"])
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"undecodable array: {exc}") from None
    return a.astype(dtype.replace("<", "="), copy=True)


def _encode_record(obj) -> dict:
    return {
        name: _encode_array(getattr(obj, name)) if typ is np.ndarray else getattr(obj, name)
        for name, typ in _FIELD_TYPES[type(obj)].items()
    }


def _decode_record(cls, obj: dict):
    """An instance of ``cls`` from a record holding exactly its fields."""
    types = _FIELD_TYPES[cls]
    if not isinstance(obj, dict) or obj.keys() != types.keys():
        raise DataFormatError(f"{cls.__name__} record needs keys {sorted(types)}")
    values = {}
    for name, typ in types.items():
        value = obj[name]
        if typ is np.ndarray:
            value = _decode_array(value)
        elif (isinstance(value, bool) or not isinstance(value, typ)
              or (isinstance(value, float) and not math.isfinite(value))):
            raise DataFormatError(f"{cls.__name__}.{name} has JSON value {value!r}")
        values[name] = value
    try:
        return cls(**values)
    except (ValueError, RpensError) as exc:
        raise DataFormatError(f"invalid {cls.__name__} record: {exc}") from None


def _encode_base_model(model) -> dict:
    return dict(_encode_record(model), kind=_MODEL_KINDS[type(model)])


def _decode_base_model(obj: dict, kind: str):
    if not isinstance(obj, dict) or obj.get("kind") != kind:
        raise DataFormatError(f"base model kind must be the config's {kind!r}")
    record = {key: value for key, value in obj.items() if key != "kind"}
    return _decode_record(_MODEL_CLASSES[kind], record)


def _check_array(a, dtype, shape, name, low=None, high=None) -> None:
    """Refuse an array of another dtype or shape, non-finite, or with values outside [low, high]."""
    if a.dtype != dtype or a.shape != shape:
        raise DataFormatError(f"{name} must be {np.dtype(dtype).name} of shape {shape}")
    if a.dtype == _F and not np.isfinite(a).all():
        raise DataFormatError(f"{name} must hold finite values")
    if a.size and low is not None and not (low <= a.min() and a.max() <= high):
        raise DataFormatError(f"{name} must hold values in [{low}, {high}]")


def _check_base_model(bm, d: int) -> None:
    """Refuse a base model whose arrays do not fit d and each other.

    Covariances and precisions must be symmetric and pass a Cholesky
    factorisation, and a qda log-determinant must match its covariance.
    """
    name = type(bm).__name__
    knn = isinstance(bm, KnnModel)
    dims = {"d": d, "m": bm.labels.size if knn else 0}
    for field, (dtype, axes, *bounds) in _BASE_ARRAYS[type(bm)].items():
        shape = tuple(dims[axis] for axis in axes)
        _check_array(getattr(bm, field), dtype, shape, f"{name}.{field}", *bounds)
    if not knn and not (0 < bm.pi_hat_1 < 1 and 0 < bm.pi_hat_2 < 1):
        raise DataFormatError(f"{name} priors must lie in (0, 1)")
    m = dims["m"]
    if knn and (len(np.unique(bm.point_ids)) != m or not 1 <= bm.k <= m):
        raise DataFormatError(f"{name} needs distinct point_ids and 1 <= k <= {m}")
    for field, log_det_field in _SPD_ARRAYS.get(type(bm), {}).items():
        a = getattr(bm, field)
        if not np.array_equal(a, a.T):
            raise DataFormatError(f"{name}.{field} must be symmetric")
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise DataFormatError(f"{name}.{field} must be positive definite") from None
        if log_det_field is not None:
            log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
            if not math.isclose(getattr(bm, log_det_field), log_det, rel_tol=1e-9, abs_tol=1e-9):
                raise DataFormatError(f"{name}.{log_det_field} does not match {field}")


def model_to_dict(model: EnsembleModel) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "config": _encode_record(model.config),
        "alpha_hat": {"num": model.alpha_hat.numerator, "den": model.alpha_hat.denominator},
        "projections": [_encode_record(proj) for proj in model.projections],
        "base_models": [_encode_base_model(bm) for bm in model.base_models],
        "train_vote_counts": _encode_array(model.train_vote_counts),
        "train_labels": _encode_array(model.train_labels),
        "winner_indices": list(model.winner_indices),
        "block_error_counts": _encode_array(model.block_error_counts),
        "block_m": model.block_m,
    }


def _list(obj: dict, key: str, item=dict) -> list:
    value = obj[key]
    if not isinstance(value, list) or any(type(v) is not item for v in value):
        raise DataFormatError(f"{key} must be a list of {item.__name__} values")
    return value


def model_from_dict(obj: dict) -> EnsembleModel:
    head = (obj.get("format"), obj.get("version")) if isinstance(obj, dict) else None
    if head != (FORMAT_NAME, FORMAT_VERSION):
        raise DataFormatError(f"not an ensemble model container: (format, version) = {head!r}")
    if obj.keys() != _CONTAINER_KEYS:
        raise DataFormatError(f"model container needs keys {sorted(_CONTAINER_KEYS)}")
    cfg = _decode_record(EnsembleConfig, obj["config"])
    alpha, block_m = obj["alpha_hat"], obj["block_m"]
    if not isinstance(alpha, dict) or alpha.keys() != {"num", "den"}:
        raise DataFormatError("alpha_hat needs exactly num and den")
    num, den = alpha["num"], alpha["den"]
    if any(type(v) is not int for v in (num, den, block_m)):
        raise DataFormatError("alpha_hat and block_m must hold integers")
    if den == 0 or not 0 < Fraction(num, den) < 1:
        raise DataFormatError(f"alpha_hat {num}/{den} is not in (0, 1)")
    projections = [_decode_record(Projection, r) for r in _list(obj, "projections")]
    base_models = [_decode_base_model(r, cfg.base) for r in _list(obj, "base_models")]
    winner_indices = _list(obj, "winner_indices", int)
    if not len(projections) == len(base_models) == len(winner_indices) == cfg.B1:
        raise DataFormatError(f"projection, base-model and winner counts must equal B1={cfg.B1}")
    p = projections[0].p
    if any(proj.entries.shape != (cfg.d, p) for proj in projections):
        raise DataFormatError(f"projections must all have shape ({cfg.d}, p)")
    for bm in base_models:
        _check_base_model(bm, cfg.d)
    labels = _decode_array(obj["train_labels"])
    n = labels.size
    _check_array(labels, _I, (n,), "train_labels", 1, 2)
    if not ((labels == 1).any() and (labels == 2).any()):
        raise DataFormatError("train_labels must hold both classes")
    vote_counts = _decode_array(obj["train_vote_counts"])
    _check_array(vote_counts, _I, (n,), "train_vote_counts", 0, cfg.B1)
    error_counts = _decode_array(obj["block_error_counts"])
    _check_array(error_counts, _I, (cfg.B1, cfg.B2), "block_error_counts", -1, block_m)
    if block_m != evaluation_count(cfg.estimator_name, n):
        raise DataFormatError(f"block_m {block_m} is not {cfg.estimator_name}'s count for n={n}")
    if [_first_minimum(row) for row in error_counts] != winner_indices:
        raise DataFormatError("each winner index must be its block's first minimum error count")
    return EnsembleModel(
        config=cfg,
        projections=tuple(projections),
        base_models=tuple(base_models),
        alpha_hat=Fraction(num, den),
        train_vote_counts=vote_counts,
        train_labels=labels,
        winner_indices=tuple(winner_indices),
        block_error_counts=error_counts,
        block_m=block_m,
    )


def dumps(model: EnsembleModel) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> EnsembleModel:
    if not text.isascii():
        raise DataFormatError("invalid model container: non-ASCII characters")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid model container: {exc}") from None
    return model_from_dict(obj)


def save_model(model: EnsembleModel, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps(model))


def load_model(path) -> EnsembleModel:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read model {path}: {exc}") from None
    return loads(text)
