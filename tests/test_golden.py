"""Golden digests: a fixed seed's fitted outputs must not move.

Each fit case trains an ensemble on one small seeded model-1 sample and
pins the sha256 of ``serialize.dumps`` of the fitted model, over every
base classifier, estimator, projection kind and a fixed or data-driven
threshold.  Two more fit cases (lda and qda, d=1, B2=3) draw fewer
candidates per block than p // d, so their blocks are sampled and
projected in waves that cross block boundaries.  One more case pins a
``select_d_profile``, and one the bytes of a small ``rpens simulate
--out`` CSV written through ``cli.main``.  Three more pin the bytes of
``votes_many`` of a seeded lda, qda and knn ensemble on a seeded
500-row test set.  Four more pin the bytes of one seeded
``datagen.sample`` per built-in model.  One more pins the model file and
the predictions file (without their '#' audit lines) of ``rpens fit`` and
``rpens predict`` run through ``cli.main`` on seeded CSVs written with
``repr``, so the CSV reader is on the pinned path.  A change to the
fitting or sampling path that is meant to keep behaviour keeps every
digest; a change that moves one on purpose must name the output and say
why.

The digests hold for one numpy/BLAS build: elsewhere, rounding in the
base classifiers can move them.  ``PYTHONPATH=src python
tests/test_golden.py`` prints the digests of the code as it stands.
"""

import contextlib
import hashlib
import io
import os
import tempfile

import pytest

from rpens import datagen, serialize
from rpens import ensemble as en
from rpens.cli import main as cli_main
from rpens.rng import make_rng

N_TRAIN = 40
P = 10
SIMULATE_ARGS = [
    "simulate", "--model", "1", "--n", "40", "--p", "6", "--d", "2",
    "--B1", "8", "--B2", "3", "--reps", "3", "--n-test", "100",
    "--comparator", "knn", "--seed", "11",
]
FIT_CASES = [
    (base, estimator, kind, alpha)
    for base in ("lda", "qda", "knn")
    for estimator in ("resubstitution", "leave_one_out", "sample_split")
    for kind in ("haar", "axis_aligned")
    for alpha in (None, 0.4)
]
WAVE_BASES = ("lda", "qda")
VOTE_BASES = ("lda", "qda", "knn")
N_VOTE_TEST = 500
SAMPLE_MODELS = (1, 2, 3, 4)
CSV_SPEC = datagen.ModelSpec(model_id=4, p=40)
CSV_FIT_ARGS = ["--d", "2", "--B1", "6", "--B2", "3", "--base", "qda", "--seed", "13"]

GOLDEN = {
    "lda-resubstitution-haar-data_alpha": "2f7488e0084a7058c19d361ae72f0f3a5f45a0d18f9fd1673a4c6ffd1ac3255d",
    "lda-resubstitution-haar-fixed_alpha": "5619f86aa502c0b40682f0810e901ea32d60c3bec63d0fa0d42c7bf401e6f87f",
    "lda-resubstitution-axis_aligned-data_alpha": "8d9bc77bea6d762bf74cdab7a4f73398fb0cd0ca654f7565b5993443b5e08114",
    "lda-resubstitution-axis_aligned-fixed_alpha": "31641c9867cab7c66320ee0f06ef3f5e7b55bd13ea525d41b3c1d388c2410f77",
    "lda-leave_one_out-haar-data_alpha": "0db890b27d5246c70c9cf5adb0c06189aa1d0c0ffc01692cd57b9f05fcaaceee",
    "lda-leave_one_out-haar-fixed_alpha": "1dbd01caa887b6313a0c20f019077e9f2946b2838c83d155afab2d06355150f9",
    "lda-leave_one_out-axis_aligned-data_alpha": "dcb0eff5bbf83410706fca2e80e4842f6ede525e2f24977fc23143ff51210b26",
    "lda-leave_one_out-axis_aligned-fixed_alpha": "f892fc7a7f230e6fd1d2413b73e72b2628b9dc783fe739fdc4f8347d51c96514",
    "lda-sample_split-haar-data_alpha": "b3626570045038b82b4102c72b91caf688ecfecaed610dd986431aba031f9a6c",
    "lda-sample_split-haar-fixed_alpha": "4fe24a43a2269208ec4b69daff02df5a87a76b72312edfce3fe029cb146b10b7",
    "lda-sample_split-axis_aligned-data_alpha": "97ff11d1f82801a7095bc328a2e461d2a6cf3cd9103627f9d70ac71fce5121a9",
    "lda-sample_split-axis_aligned-fixed_alpha": "4583c188e4beba25c1e8cabed7272275d2af304ccb64dfe168c30a30015a8d11",
    "qda-resubstitution-haar-data_alpha": "d8f285c1e25f9f59ef953baf91a1205d25bd22a9bc7b0f7b615aef092b3a2017",
    "qda-resubstitution-haar-fixed_alpha": "f5a037bc9c06b31356b59b00af59c43cb9c0997b9ead3649e0e67878aba4a2a4",
    "qda-resubstitution-axis_aligned-data_alpha": "c7b356916733da2e1e4a4d6f2237c461722c99348ccfe091f87733d315648d06",
    "qda-resubstitution-axis_aligned-fixed_alpha": "bb1060383911fc1dc42b11237513d41b78690db02c2d8a6f6baa4c1f345c5fe5",
    "qda-leave_one_out-haar-data_alpha": "cbc934af2c7b1121d49fab1e236a36f958ef3038469076d58a74f6fad31c8d52",
    "qda-leave_one_out-haar-fixed_alpha": "996c1982528060c7639c65ea960afb60ab2d63c269ace18752338ccc315e6d16",
    "qda-leave_one_out-axis_aligned-data_alpha": "ffae62af2488d50415673b964bf735fd733cbf8acec181983e5d502e3287e1a0",
    "qda-leave_one_out-axis_aligned-fixed_alpha": "231510c9d7e5e39dc5bfcd168e7f482a4d2b57d93621773c48fa814cc367f61b",
    "qda-sample_split-haar-data_alpha": "71210c4cae9f0f7954b890163321458d62f7a4e2652978cbbf3c919129369ddb",
    "qda-sample_split-haar-fixed_alpha": "a402ce48216ed9accb4946c61a264e391929c535a80695547f3b8de53a59cc5b",
    "qda-sample_split-axis_aligned-data_alpha": "12265f74231d885255759c0282f1b7161ce15f83795261f62196a956b6e487a2",
    "qda-sample_split-axis_aligned-fixed_alpha": "77c6ceb65c8f17144939dc5a22ad845f2c9ad58b80298d70a84ca5c75a5c2fa5",
    "knn-resubstitution-haar-data_alpha": "33a6a65b56f6c8a458ea330dd82942ca750c43971c3e3597df9d8d05e88d60ef",
    "knn-resubstitution-haar-fixed_alpha": "ca0b53c041da0096ce62a54d1419e458c8f93c5bebfe81394b9c8d349c45c7c9",
    "knn-resubstitution-axis_aligned-data_alpha": "9f90676f0bbae1205c88dae168aff7ec6c861cd19f3120527e3ea48c45769431",
    "knn-resubstitution-axis_aligned-fixed_alpha": "b7d3e7e63e7e620510a295c9de418c02ae9de7ae20f7843e9aecbbbd49afe6a2",
    "knn-leave_one_out-haar-data_alpha": "05525f1364ca595fb92cf1c54371e36734533ceb7cbca87ea01c91439ce77c0e",
    "knn-leave_one_out-haar-fixed_alpha": "a670dec5e65d59a54cdbd80d60d8fc78e318ec0dc3eb01420ddb6ff64da68da9",
    "knn-leave_one_out-axis_aligned-data_alpha": "5915912dbaf4e5ed294f16269caa2fa35fe552dfa82f763c1d94eef2235e6f04",
    "knn-leave_one_out-axis_aligned-fixed_alpha": "eefa9e6b5c13b9787468bc6e0579c9c235fc8a6d8cbee81dd3fa261ed5a3ad6b",
    "knn-sample_split-haar-data_alpha": "07076bb7cc77e2dd8534516c6544f1d77730bc40852c9cf121c22d40d8fe74d9",
    "knn-sample_split-haar-fixed_alpha": "2f02377ac4f3da62ae69a323787295e3dca72362bb22f9c8a9d9f47c0b87792e",
    "knn-sample_split-axis_aligned-data_alpha": "7e5c75ca842b51d408de9770bcbf56623b417fc0e9948cfe9651208289c2884f",
    "knn-sample_split-axis_aligned-fixed_alpha": "19747c74c113ea3fe8b65cdc0c26ce2420345ad319b9fc1bf310d61cb5ba7189",
    "lda-waves": "5bcc5920979eb6b2d5b061eaed9ade57257e7d9eaca24fdbd5099ef8e6e83ba3",
    "qda-waves": "c7e75b184c9aa1c5da76d2552c58ca487981dd673ee749d42bdadf51811002c8",
    "lda-votes": "9f27bd24294dfb5565ab3b1e56eafefe78441089b4ca45f0c345dc6bef301d34",
    "qda-votes": "a70e56797bf1d3bf5a37254d6f7422f5fe6e4ceab9090b8e4816402badae2e11",
    "knn-votes": "b4a2a2efb66f5387008b2a4914fbfa46fb2c36aef1d4bb4e6dea54204162007d",
    "select_d_profile": "895bdc57a0b4f9eb247d8f06a401730c14e2ae65246fcdd26015e4c60f1f2d4a",
    "simulate_out": "65d7bb71d2656e436ff92c681d1496e73a9e7fc661a2fcc9f4f16bf8642721b4",
    "csv_round_trip": "8ab5ddd21d1798bd59a553d3433703664e81561b62cd8c5d7f1bbb49feda38e3",
    "sample-model1": "d578bfc9bbf290e1cb8689d9ef171ab35d071be8b7c52585729101cad946b898",
    "sample-model2": "2bfb381ef636fb9f0096405817bc23702ec3623e04147bd73c9753a523560a58",
    "sample-model3": "e028a7360749cf8c8c696ff9a6b08cd0e8779bb333addec2e1316cc6f756ece8",
    "sample-model4": "107319088fc5795c726a06d9e82ef32a55a3806fbfae5cb238ba992fa9d8a231",
}


def _sample():
    s = datagen.sample(datagen.ModelSpec(model_id=1, p=P), N_TRAIN, make_rng(2017, "golden"))
    return s.X, s.y


def _case_id(base, estimator, kind, alpha):
    return f"{base}-{estimator}-{kind}-{'data_alpha' if alpha is None else 'fixed_alpha'}"


def _fit_digest(X, y, base, estimator, kind, alpha):
    cfg = en.EnsembleConfig(
        B1=3, B2=4, d=2, base=base, estimator=estimator,
        projection_kind=kind, alpha=alpha, master_seed=5,
    )
    return hashlib.sha256(serialize.dumps(en.fit(X, y, cfg)).encode("ascii")).hexdigest()


def _wave_digest(X, y, base):
    # p // d = 10 candidates per product: waves of three whole blocks.
    cfg = en.EnsembleConfig(B1=5, B2=3, d=1, base=base, master_seed=5)
    return hashlib.sha256(serialize.dumps(en.fit(X, y, cfg)).encode("ascii")).hexdigest()


def _votes_digest(X, y, base):
    cfg = en.EnsembleConfig(B1=6, B2=3, d=2, base=base, master_seed=5)
    model = en.fit(X, y, cfg)
    spec = datagen.ModelSpec(model_id=1, p=P)
    test = datagen.sample(spec, N_VOTE_TEST, make_rng(2017, "golden-votes"))
    return hashlib.sha256(en.votes_many(model, test.X).tobytes()).hexdigest()


def _simulate_digest(out_dir):
    out = os.path.join(out_dir, "simulate.csv")
    assert cli_main(SIMULATE_ARGS + ["--out", out]) == 0
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sample_digest(model_id):
    spec = datagen.ModelSpec(model_id=model_id, p=P)
    s = datagen.sample(spec, N_TRAIN, make_rng(2017, "golden-sample", model_id))
    return hashlib.sha256(s.X.tobytes() + s.y.tobytes()).hexdigest()


def _write_repr_csv(path, s):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label," + ",".join(f"x{j + 1}" for j in range(s.X.shape[1])) + "\n")
        for label, row in zip(s.y.tolist(), s.X.tolist()):
            fh.write(f"{label}," + ",".join(map(repr, row)) + "\n")


def _csv_round_trip_digest(out_dir):
    train, test, model, predictions = (
        os.path.join(out_dir, name) for name in ("train.csv", "test.csv", "model.json", "pred.csv")
    )
    _write_repr_csv(train, datagen.sample(CSV_SPEC, 200, make_rng(2017, "golden-csv-train")))
    _write_repr_csv(test, datagen.sample(CSV_SPEC, 100, make_rng(2017, "golden-csv-test")))
    assert cli_main(["fit", "--train", train, "--model-out", model] + CSV_FIT_ARGS) == 0
    assert cli_main(["predict", "--model-in", model, "--data", test, "--out", predictions]) == 0
    digest = hashlib.sha256()
    for path in (model, predictions):
        with open(path, "rb") as fh:
            digest.update(b"".join(line for line in fh if not line.startswith(b"#")))
    return digest.hexdigest()


def _select_d_digest(X, y):
    cfg = en.EnsembleConfig(B1=4, B2=3, d=1, base="knn", master_seed=9)
    chosen, profile = en.select_d_profile(X, y, (1, 2, 3), cfg)
    text = repr((chosen, [(d, profile[d].tolist()) for d in sorted(profile)]))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.fixture(scope="module")
def sample():
    return _sample()


@pytest.mark.parametrize(
    "base,estimator,kind,alpha", FIT_CASES, ids=[_case_id(*c) for c in FIT_CASES]
)
def test_fit_digest(sample, base, estimator, kind, alpha):
    name = _case_id(base, estimator, kind, alpha)
    got = _fit_digest(*sample, base, estimator, kind, alpha)
    assert got == GOLDEN[name], f"serialized model of {name} moved"


@pytest.mark.parametrize("base", WAVE_BASES)
def test_wave_fit_digest(sample, base):
    assert _wave_digest(*sample, base) == GOLDEN[f"{base}-waves"], f"{base} wave fit moved"


@pytest.mark.parametrize("base", VOTE_BASES)
def test_votes_digest(sample, base):
    assert _votes_digest(*sample, base) == GOLDEN[f"{base}-votes"], f"{base} test-point votes moved"


def test_select_d_profile_digest(sample):
    assert _select_d_digest(*sample) == GOLDEN["select_d_profile"], "select_d_profile moved"


def test_simulate_out_digest(tmp_path, capsys):
    got = _simulate_digest(str(tmp_path))
    capsys.readouterr()
    assert got == GOLDEN["simulate_out"], "simulate --out CSV moved"


def test_csv_round_trip_digest(tmp_path, capsys):
    got = _csv_round_trip_digest(str(tmp_path))
    capsys.readouterr()
    assert got == GOLDEN["csv_round_trip"], "fit/predict outputs of a CSV round trip moved"


@pytest.mark.parametrize("model_id", SAMPLE_MODELS)
def test_sample_digest(model_id):
    name = f"sample-model{model_id}"
    assert _sample_digest(model_id) == GOLDEN[name], f"seeded {name} moved"


if __name__ == "__main__":
    X, y = _sample()
    for case in FIT_CASES:
        print(f'    "{_case_id(*case)}": "{_fit_digest(X, y, *case)}",')
    for base in WAVE_BASES:
        print(f'    "{base}-waves": "{_wave_digest(X, y, base)}",')
    for base in VOTE_BASES:
        print(f'    "{base}-votes": "{_votes_digest(X, y, base)}",')
    print(f'    "select_d_profile": "{_select_d_digest(X, y)}",')
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        digest = _simulate_digest(tmp)
    print(f'    "simulate_out": "{digest}",')
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        digest = _csv_round_trip_digest(tmp)
    print(f'    "csv_round_trip": "{digest}",')
    for model_id in SAMPLE_MODELS:
        print(f'    "sample-model{model_id}": "{_sample_digest(model_id)}",')
