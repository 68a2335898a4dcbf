"""Command-line interface.

Subcommands: ``simulate`` (generative experiments with optional
full-dimension comparators), ``fit`` / ``predict`` (CSV workflows around a
serialized model), ``select-d`` (projected-dimension choice), ``diagnose``
(theory diagnostics), and ``bayes-risk`` (oracle Monte Carlo).

Exit codes are a stable contract: 0 success, 2 usage error, 3 data error,
4 numerical failure.  Every CSV the tool writes starts with '#' audit
lines carrying the version, the canonical flag set, and the master seed;
reruns with identical flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from . import base_classifiers as bc
from . import datagen as dg
from . import ensemble as en
from . import error_estimation as ee
from . import evaluation as ev
from . import projections as pj
from . import serialize as sz
from .errors import (
    BlockFailureError,
    DataFormatError,
    DegenerateVotesError,
    EstimationFailureError,
    ExperimentError,
    InvalidDimensionError,
    MissingClassError,
    ShapeMismatchError,
    SingularCovarianceError,
)
from .rng import make_rng

_DATA_ERRORS = (
    DataFormatError,
    ShapeMismatchError,
    MissingClassError,
    OSError,
)
_NUMERICAL_ERRORS = (
    SingularCovarianceError,
    DegenerateVotesError,
    BlockFailureError,
    EstimationFailureError,
    ExperimentError,
)


def _fmt(x) -> str:
    """Deterministic cell rendering; floats use their round-trip repr."""
    if isinstance(x, float):
        return "NA" if math.isnan(x) else repr(x)
    return str(x)


def _audit_header(command: str, flags: dict, master_seed: int) -> str:
    lines = [f"# rpens {__version__}", f"# command: {command}"]
    for key in sorted(flags):
        lines.append(f"# {key}={flags[key]}")
    lines.append(f"# master_seed: {master_seed}")
    return "\n".join(lines) + "\n"


def _write_csv(path, header: str, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")


def _summary_line(method_id: str, stats) -> str:
    mean100, se100, n_valid = stats
    if n_valid == 0:
        return f"{method_id}: N/A"
    return f"{method_id}: {mean100:.2f}_{{{se100:.2f}}} (reps={n_valid})"


# ---------------------------------------------------------------------------
# shared flag groups


def _add_model_flags(sp, with_n=True):
    sp.add_argument("--model", type=int, required=True, choices=(1, 2, 3, 4),
                    help="generative model id")
    if with_n:
        sp.add_argument("--n", type=int, required=True, help="training sample size")
    sp.add_argument("--p", type=int, default=50, help="ambient dimension")
    sp.add_argument("--pi1", type=float, default=0.5, help="class-1 prior")


def _add_ensemble_flags(sp, require_d=True, defaults=True):
    sp.add_argument("--d", type=int, required=require_d,
                    default=None, help="projected dimension")
    sp.add_argument("--base", choices=bc.BASE_KINDS,
                    default="lda" if defaults else None, help="base classifier")
    sp.add_argument("--B1", type=int, default=100 if defaults else None,
                    help="number of blocks")
    sp.add_argument("--B2", type=int, default=100 if defaults else None,
                    help="projections per block")
    sp.add_argument("--estimator", choices=ee.ESTIMATORS,
                    default=None, help="test-error estimator (default: pairing by base)")
    sp.add_argument("--alpha", type=float, default=None,
                    help="fixed voting threshold in (0,1); default data-driven")
    sp.add_argument("--knn-k", type=int, default=None, help="neighbour count for base knn")
    sp.add_argument("--projection", choices=pj.KINDS,
                    default="haar" if defaults else None, help="projection distribution")


def _ensemble_config(args, seed: int) -> en.EnsembleConfig:
    return en.EnsembleConfig(
        B1=args.B1,
        B2=args.B2,
        d=args.d,
        base=args.base,
        knn_k=args.knn_k,
        estimator=args.estimator,
        projection_kind=args.projection,
        alpha=args.alpha,
        master_seed=seed,
    )


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    model = dg.ModelSpec(model_id=args.model, p=args.p, pi_1=args.pi1)
    cfg = _ensemble_config(args, args.seed)
    methods = [ev.MethodSpec("rp", cfg)]
    for comp in args.comparator:
        methods.append(ev.MethodSpec(comp, ev.ComparatorSpec(comp)))
    spec = ev.ExperimentSpec(
        source=model,
        n_train=args.n,
        n_test=args.n_test,
        repetitions=args.reps,
        methods=tuple(methods),
        master_seed=args.seed,
    )
    result = ev.run(spec)
    summary = result.summary()
    for m in methods:
        print(_summary_line(m.method_id, summary[m.method_id]))
    if args.out:
        flags = {
            "model": args.model, "n": args.n, "p": args.p, "pi1": args.pi1,
            "d": args.d, "base": args.base, "B1": args.B1, "B2": args.B2,
            "estimator": args.estimator, "alpha": args.alpha,
            "knn_k": args.knn_k, "projection": args.projection,
            "reps": args.reps, "n_test": args.n_test,
            "comparators": ",".join(args.comparator),
        }
        rows = [
            (m.method_id, rep, float(result.errors[m.method_id][rep]))
            for m in methods
            for rep in range(args.reps)
        ]
        header = _audit_header("simulate", flags, args.seed)
        for m in methods:
            mean100, se100, n_valid = summary[m.method_id]
            if n_valid == 0:
                header += f"# summary: method={m.method_id} NA\n"
            else:
                header += (
                    f"# summary: method={m.method_id} mean100={mean100:.2f} "
                    f"se100={se100:.2f} reps={n_valid}\n"
                )
        _write_csv(args.out, header, ("method", "rep", "error"), rows)
    return 0


# ---------------------------------------------------------------------------
# fit / predict


# ``threads`` is accepted and ignored: fits run serially.
_CONFIG_INT_KEYS = ("d", "B1", "B2", "knn_k", "seed", "threads")
_CONFIG_FLOAT_KEYS = ("alpha",)
_CONFIG_STR_KEYS = ("base", "estimator", "projection")


def _read_config_file(path) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{line_no}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key in _CONFIG_INT_KEYS:
                values[key] = int(value)
            elif key in _CONFIG_FLOAT_KEYS:
                values[key] = float(value)
            elif key in _CONFIG_STR_KEYS:
                values[key] = value
            else:
                raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return values


_FIT_DEFAULTS = {
    "d": None, "base": "lda", "B1": 100, "B2": 100, "estimator": None,
    "alpha": None, "knn_k": None, "projection": "haar", "seed": 0,
}


def _cmd_fit(args) -> int:
    merged = dict(_FIT_DEFAULTS)
    if args.config:
        merged.update(_read_config_file(args.config))
    for key in _FIT_DEFAULTS:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
    if merged["d"] is None:
        raise ValueError("projected dimension required: pass --d or put d= in --config")
    cfg = _ensemble_config(argparse.Namespace(**merged), merged["seed"])
    train = dg.load_labelled_csv(args.train)
    model = en.fit(train.X, train.y, cfg)
    sz.save_model(model, args.model_out)
    print(
        f"fitted B1={cfg.B1} B2={cfg.B2} d={cfg.d} base={cfg.base} "
        f"estimator={cfg.estimator_name} on n={train.y.shape[0]} p={train.X.shape[1]}"
    )
    print(f"alpha_hat = {model.alpha_hat} ({float(model.alpha_hat):.6f})")
    print(f"model written to {args.model_out}")
    if args.curves_out:
        thresholds, g1, g2 = en.g_curves(model)
        flags = {key: merged[key] for key in sorted(_FIT_DEFAULTS)}
        flags["train"] = args.train
        header = _audit_header("fit", flags, merged["seed"])
        rows = list(zip(thresholds.tolist(), g1.tolist(), g2.tolist()))
        _write_csv(args.curves_out, header, ("threshold", "g1", "g2"), rows)
        print(f"vote-CDF curve data written to {args.curves_out}")
    return 0


def _cmd_predict(args) -> int:
    model = sz.load_model(args.model_in)
    data = dg.load_labelled_csv(args.data, require_label=False)
    counts = en.votes_many(model, data.X)
    labels = en._counts_to_labels(counts, model.alpha_hat, model.B1)
    flags = {"model_in": args.model_in, "data": args.data}
    header = _audit_header("predict", flags, model.config.master_seed)
    rows = [
        (i, int(lab), f"{int(c)}/{model.B1}")
        for i, (lab, c) in enumerate(zip(labels, counts))
    ]
    _write_csv(args.out, header, ("row", "prediction", "vote_fraction"), rows)
    print(f"wrote {len(rows)} predictions to {args.out}")
    if data.y is not None:
        err = float(np.mean(labels != data.y))
        print(f"error against file labels: {err:.4f}")
    return 0


# ---------------------------------------------------------------------------
# select-d


def _cmd_select_d(args) -> int:
    if (args.train is None) == (args.model is None):
        raise ValueError("pass exactly one of --train or --model")
    if args.model is not None:
        if args.n is None:
            raise ValueError("--n is required with --model")
        model = dg.ModelSpec(model_id=args.model, p=args.p, pi_1=args.pi1)
        sample = dg.sample(model, args.n, make_rng(args.seed, "select_d_train"))
    else:
        sample = dg.load_labelled_csv(args.train)
    candidates = _parse_int_list(args.candidates, "candidates")
    # the config's own d is a placeholder; select_d_profile substitutes
    # each candidate in turn
    args.d = min(candidates)
    cfg = _ensemble_config(args, args.seed)
    chosen, profile = en.select_d_profile(sample.X, sample.y, candidates, cfg)
    m = ee.evaluation_count(cfg.estimator_name, sample.y.shape[0])
    print(f"selected d = {chosen}")
    for d in sorted(profile):
        print(f"  d={d}: mean winner estimate {profile[d].mean() / m:.4f}")
    if args.out:
        flags = {
            "candidates": args.candidates, "base": args.base, "B1": args.B1,
            "B2": args.B2, "estimator": args.estimator, "projection": args.projection,
            "train": args.train, "model": args.model, "n": args.n,
            "p": args.p if args.model is not None else None, "chosen_d": chosen,
        }
        header = _audit_header("select-d", flags, args.seed)
        rows = [
            (d, b1, int(profile[d][b1]))
            for d in sorted(profile)
            for b1 in range(len(profile[d]))
        ]
        _write_csv(args.out, header, ("d", "block", "winner_error_count"), rows)
    return 0


# ---------------------------------------------------------------------------
# diagnose


def _parse_int_list(text: str, what: str):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list") from None
    if not values:
        raise ValueError(f"{what} must be a comma-separated integer list")
    return values


def _cmd_diagnose(args) -> int:
    model = dg.ModelSpec(model_id=args.model, p=args.p, pi_1=args.pi1)
    if args.alpha is None:
        raise ValueError("diagnostics need a fixed --alpha")
    cfg = replace(_ensemble_config(args, args.seed), B1=1)
    if args.check == "theorem1":
        grid = _parse_int_list(args.grid, "grid")
        res = ev.theorem1_rate_diagnostic(
            model, cfg, args.n, grid, args.mc_test,
            n_ensembles=args.ensembles, master_seed=args.seed,
        )
        print(f"proxy error (B1={res.b1_proxy}): {res.proxy_error:.4f}")
        for b1, g, se in zip(res.b1_grid, res.gaps, res.gap_ses):
            print(f"  B1={b1}: gap={g:+.5f} (se {se:.5f})")
        if res.insufficient_signal:
            print(f"insufficient signal: max gap {res.max_gap:.5f} "
                  f"(se {res.max_gap_se:.5f})")
        else:
            print(f"log-log slope: {res.slope:.3f}")
        if args.out:
            flags = {
                "check": "theorem1", "model": args.model, "n": args.n, "p": args.p,
                "pi1": args.pi1, "d": args.d, "base": args.base, "B2": args.B2,
                "alpha": args.alpha, "grid": args.grid, "mc_test": args.mc_test,
                "ensembles": args.ensembles,
            }
            header = _audit_header("diagnose", flags, args.seed)
            rows = list(zip(res.b1_grid, res.errors_by_b1, res.gaps, res.gap_ses))
            _write_csv(args.out, header, ("B1", "mean_error", "gap", "gap_se"), rows)
        return 0
    res = ev.theorem2_bound_diagnostic(
        model, cfg, args.n, args.mc_n,
        n_winners=args.winners, master_seed=args.seed,
    )
    print(f"bayes risk (conditional MC): {res.bayes_risk:.4f}")
    print(f"ensemble excess risk  (lhs): {res.lhs:.5f}")
    print(f"scaled winner excess  (rhs): {res.rhs:.5f}")
    print(f"margin se: {res.margin_se:.5f}")
    print(f"holds: {res.holds}")
    return 0


# ---------------------------------------------------------------------------
# bayes-risk


def _cmd_bayes_risk(args) -> int:
    model = dg.ModelSpec(model_id=args.model, p=args.p, pi_1=args.pi1)
    value, se = dg.bayes_risk(model, args.mc_n, make_rng(args.seed, "bayes"))
    print(f"bayes_risk = {value:.6f} (se {se:.6f})")
    print(f"x100: {100 * value:.2f} (se {100 * se:.2f})")
    return 0


# ---------------------------------------------------------------------------
# parser


_THREADS_HELP = "accepted and ignored: fits run serially"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpens",
        description="Random-projection ensemble classifier toolkit",
    )
    parser.add_argument("--version", action="version", version=f"rpens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run a generative experiment")
    _add_model_flags(sp)
    _add_ensemble_flags(sp)
    sp.add_argument("--reps", type=int, default=20, help="repetitions")
    sp.add_argument("--n-test", type=int, default=1000, help="test points per repetition")
    sp.add_argument("--comparator", action="append", default=[],
                    choices=ev.COMPARATOR_KINDS,
                    help="add a full-dimension comparator (repeatable)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    sp.add_argument("--out", default=None, help="per-repetition results CSV")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("fit", help="fit on a labelled CSV and serialize the model")
    sp.add_argument("--train", required=True, help="training CSV")
    sp.add_argument("--model-out", required=True, help="output model path")
    sp.add_argument("--config", default=None, help="key=value config file; flags override")
    _add_ensemble_flags(sp, require_d=False, defaults=False)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    sp.add_argument("--curves-out", default=None, help="vote-CDF curve CSV")
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("predict", help="predict with a serialized model")
    sp.add_argument("--model-in", required=True, help="model path from fit")
    sp.add_argument("--data", required=True,
                    help="CSV to predict on; the label column is optional")
    sp.add_argument("--out", required=True, help="predictions CSV")
    sp.set_defaults(func=_cmd_predict)

    sp = sub.add_parser("select-d", help="choose the projected dimension")
    sp.add_argument("--train", default=None, help="training CSV")
    sp.add_argument("--model", type=int, default=None, choices=(1, 2, 3, 4),
                    help="generative model id (alternative to --train)")
    sp.add_argument("--n", type=int, default=None, help="training size with --model")
    sp.add_argument("--p", type=int, default=50)
    sp.add_argument("--pi1", type=float, default=0.5)
    sp.add_argument("--candidates", required=True, help="comma-separated d values")
    _add_ensemble_flags(sp, require_d=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    sp.add_argument("--out", default=None, help="per-block winner estimate CSV")
    sp.set_defaults(func=_cmd_select_d)

    sp = sub.add_parser("diagnose", help="run a theory diagnostic")
    sp.add_argument("--check", required=True, choices=("theorem1", "theorem2"))
    _add_model_flags(sp)
    _add_ensemble_flags(sp)
    sp.add_argument("--grid", default="8,16,32,64,128,256",
                    help="theorem1: comma-separated B1 grid")
    sp.add_argument("--mc-test", type=int, default=4000,
                    help="theorem1: test points")
    sp.add_argument("--ensembles", type=int, default=30,
                    help="theorem1: ensembles per grid point")
    sp.add_argument("--winners", type=int, default=400,
                    help="theorem2: selected projections")
    sp.add_argument("--mc-n", type=int, default=20000,
                    help="theorem2: oracle Monte Carlo points")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="theorem1 gap CSV")
    sp.set_defaults(func=_cmd_diagnose)

    sp = sub.add_parser("bayes-risk", help="oracle Bayes risk by Monte Carlo")
    _add_model_flags(sp, with_n=False)
    sp.add_argument("--mc-n", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_bayes_risk)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, InvalidDimensionError, TypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
