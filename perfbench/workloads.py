"""The two benchmark workloads.

Each workload draws its inputs from the benchmark seed with
``rpens.datagen``, runs one closed-loop iteration at a time on one client in
this process with the program's default ``threads=1``, keeps what it needs
to check the outputs afterwards, and checks them against ``reference``.

An iteration returns its timings: ``fit_s`` (one ensemble fit) and ``rep_s``
(the whole iteration).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time

import numpy as np

import reference as ref
from tracing import E2E_TARGETS, Tracer

import rpens.cli
import rpens.datagen
import rpens.ensemble
import rpens.evaluation
import rpens.serialize


def data_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def iteration_seed(seed: int, i: int) -> int:
    """Master seed handed to the program in iteration i."""
    return int(np.random.SeedSequence([seed, 7, i]).generate_state(1)[0])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class WideQdaCli:
    """CSV workflow on the wide cell: `rpens fit --base qda` then `rpens predict`,
    in-process.

    Model 4 (p=500): a 1,000-row training CSV and a 2,000-row labelled test
    CSV written at set-up.  The fit is qda, d=5, B1=50, B2=10, with the
    default leave-one-out estimator and Haar projections.
    """

    ops_per_iteration = 2  # rpens fit, rpens predict
    n_train = 1000
    n_test = 2000
    loo_checked = 2  # winners per iteration whose leave-one-out count is recounted
    vote_rows = 400  # test rows per iteration whose votes are recomputed

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.spec = rpens.datagen.ModelSpec(model_id=4, p=500)
        self.runs = []

    @staticmethod
    def _write_csv(path, sample):
        p = sample.X.shape[1]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("label," + ",".join(f"x{j + 1}" for j in range(p)) + "\n")
            for label, row in zip(sample.y.tolist(), sample.X.tolist()):
                fh.write(f"{label}," + ",".join(map(repr, row)) + "\n")

    def setup(self):
        # As on wide-lda, set-up pays for model 4's cached factors.
        rpens.datagen._derived.cache_clear()
        self.train = rpens.datagen.sample(self.spec, self.n_train, data_rng(self.seed, 1))
        self.test = rpens.datagen.sample(self.spec, self.n_test, data_rng(self.seed, 2))
        self.train_csv = str(self.workdir / "train.csv")
        self.test_csv = str(self.workdir / "test.csv")
        self._write_csv(self.train_csv, self.train)
        self._write_csv(self.test_csv, self.test)

    @staticmethod
    def _cli(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = rpens.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"rpens {' '.join(argv)} exited {code}: {out.getvalue()}")

    def iteration(self, i):
        model_path = str(self.workdir / f"model{i}.json")
        pred_path = str(self.workdir / f"pred{i}.csv")
        t0 = time.perf_counter()
        self._cli([
            "fit", "--train", self.train_csv, "--base", "qda", "--d", "5",
            "--B1", "50", "--B2", "10", "--seed", str(iteration_seed(self.seed, i)),
            "--model-out", model_path,
        ])
        t1 = time.perf_counter()
        self._cli(["predict", "--model-in", model_path, "--data", self.test_csv, "--out", pred_path])
        t2 = time.perf_counter()
        self.runs.append((i, model_path, pred_path))
        return {"fit_s": t1 - t0, "rep_s": t2 - t0}

    def check(self):
        failures = []
        errors = []
        risk, risk_se = ref.model4_bayes_risk(400_000, data_rng(self.seed, 9))
        floor = risk - 3.0 * math.sqrt(risk * (1 - risk) / self.n_test + risk_se * risk_se)
        y = self.train.y
        for i, model_path, pred_path in self.runs:
            with open(model_path, encoding="ascii") as fh:
                text = fh.read()
            m = ref.read_qda_model(text)
            b1 = m["B1"]
            counts = m["block_error_counts"]
            projections = m["projections"]
            # Part 1: leave-one-out recount of seeded winners by naive refits.
            for b in data_rng(self.seed, 3, i).choice(b1, size=self.loo_checked, replace=False):
                stored = int(counts[b, m["winner_indices"][b]])
                recount = ref.qda_loo_errors(self.train.X @ projections[b].T, y)
                if recount != stored:
                    failures.append(f"iter {i} block {b}: loo recount {recount} != stored {stored}")
            # Part 2: first-minimum winners and an optimal threshold.
            for b in range(b1):
                row = counts[b]
                valid = np.flatnonzero(row >= 0)
                first_min = valid[np.argmin(row[valid])]
                if m["winner_indices"][b] != first_min:
                    failures.append(f"iter {i} block {b}: winner {m['winner_indices'][b]} != first min {first_min}")
            if not np.array_equal(m["train_labels"], y):
                failures.append(f"iter {i}: saved training labels differ from the training CSV")
            if not ref.threshold_is_optimal(m["train_vote_counts"], y, b1, m["alpha_hat"]):
                failures.append(f"iter {i}: alpha_hat {m['alpha_hat']} does not minimise the objective")
            # Part 3: votes of independently refitted winners on seeded test
            # rows; labels follow the threshold; the container round-trips.
            labels, votes = ref.read_predictions(pred_path)
            if len(labels) != self.n_test:
                failures.append(f"iter {i}: {len(labels)} predictions for {self.n_test} rows")
                continue
            rows = data_rng(self.seed, 4, i).choice(self.n_test, size=self.vote_rows, replace=False)
            X = self.test.X[rows]
            expected = np.zeros(len(rows), dtype=np.int64)
            for A in projections:
                params = ref.qda_fit(self.train.X @ A.T, y)
                expected += ref.qda_discriminant(params, X @ A.T) >= 0.0
            bad = int(np.sum(expected != votes[rows]))
            if bad:
                failures.append(f"iter {i}: {bad} sampled rows disagree with recomputed qda votes")
            if not np.array_equal(labels, ref.labels_from_votes(votes, m["alpha_hat"], b1)):
                failures.append(f"iter {i}: prediction column does not follow alpha_hat={m['alpha_hat']}")
            if rpens.serialize.dumps(rpens.serialize.loads(text)) != text:
                failures.append(f"iter {i}: loads then dumps changed the model file")
            err = float(np.mean(labels != self.test.y))
            errors.append(err)
            if err < floor:
                failures.append(f"iter {i}: error {err:.4f} below Bayes risk less 3 se {floor:.4f}")
        details = {
            "bayes_risk_x100": 100.0 * risk,
            "mean_error_x100": 100.0 * float(np.mean(errors)) if errors else None,
        }
        return failures, details

    def digests(self):
        _, model_path, pred_path = self.runs[0]
        with open(model_path, "rb") as fh:
            model_sha = _sha256(fh.read())
        # The '#' audit lines name this run's file paths, so they are left out.
        with open(pred_path, "rb") as fh:
            pred_sha = _sha256(b"".join(line for line in fh if not line.startswith(b"#")))
        return {"first_model_sha256": model_sha, "first_predictions_sha256": pred_sha}


class WideLda:
    """Model 4, n=1000, p=500: lda ensemble (d=5, B1=50, B2=10, resubstitution)
    plus the full-dimensional lda comparator, one repetition per
    ``evaluation.run`` call.
    """

    ops_per_iteration = 1  # evaluation.run
    n_test = 10_000

    def __init__(self, seed, workdir):
        self.seed = seed
        self.model = rpens.datagen.ModelSpec(model_id=4, p=500)
        self.runs = []
        # The fit inside a repetition is timed by a span on ensemble.fit,
        # tracing nothing else.
        self.timer = Tracer(E2E_TARGETS)

    def setup(self):
        # The fixed rotation and covariance factors are built once per
        # process and cached; a user pays that at the first repetition.
        rpens.datagen._derived.cache_clear()
        rpens.datagen._derived(self.model)

    def iteration(self, i):
        spec = rpens.evaluation.ExperimentSpec(
            source=self.model,
            n_train=1000,
            n_test=self.n_test,
            repetitions=1,
            methods=(
                rpens.evaluation.MethodSpec(
                    "rp", rpens.ensemble.EnsembleConfig(B1=50, B2=10, d=5, base="lda")
                ),
                rpens.evaluation.MethodSpec("lda", rpens.evaluation.ComparatorSpec("lda")),
            ),
            master_seed=iteration_seed(self.seed, i),
        )
        mark = self.timer.mark()
        self.timer.install()
        try:
            t0 = time.perf_counter()
            result = rpens.evaluation.run(spec)
            t1 = time.perf_counter()
        finally:
            self.timer.remove()
        ((_, _, fit_start, fit_end, _),) = self.timer.since(mark)
        self.runs.append((i, {k: v.tolist() for k, v in result.errors.items()}))
        return {"fit_s": fit_end - fit_start, "rep_s": t1 - t0}

    def check(self):
        failures = []
        risk, risk_se = ref.model4_bayes_risk(400_000, data_rng(self.seed, 9))
        details = {"bayes_risk_x100": 100.0 * risk, "bayes_risk_se_x100": 100.0 * risk_se}
        for method in ("rp", "lda"):
            errs = np.array([errors[method][0] for _, errors in self.runs])
            if not np.all(np.isfinite(errs)):
                failures.append(f"{method}: non-finite error in some repetition")
                continue
            mean = float(errs.mean())
            if len(errs) > 1:
                se = float(errs.std(ddof=1) / math.sqrt(len(errs)))
            else:
                se = math.sqrt(mean * (1 - mean) / self.n_test)
            floor = risk - 3.0 * math.sqrt(se * se + risk_se * risk_se)
            details[f"{method}_mean_error_x100"] = 100.0 * mean
            if mean < floor:
                failures.append(f"{method}: mean error {mean:.4f} below Bayes risk less 3 se {floor:.4f}")
        return failures, details

    def digests(self):
        first = repr(sorted(self.runs[0][1].items())).encode("ascii")
        return {"first_repetition_errors_sha256": _sha256(first)}


WORKLOADS = {"wide-lda": WideLda, "wide-qda-cli": WideQdaCli}
