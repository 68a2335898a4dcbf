"""OpenBLAS thread pinning: outputs independent of the thread count, and the
caller's count restored after every library call."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import rpens
from rpens import _blas
from rpens import base_classifiers as bc
from rpens import datagen as dg
from rpens import ensemble as en
from rpens import errors
from rpens import evaluation as ev

from conftest import make_blobs

needs_openblas = pytest.mark.skipif(
    not _blas.LIBRARIES, reason="no bundled OpenBLAS found; pinning is a no-op"
)

# Model-4 sampling and posterior at p=500, and fits on a 400 x 500 sample:
# shapes at which the last bits of the unpinned results move with the
# OpenBLAS thread count.
_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from rpens import datagen, ensemble, serialize
from rpens.rng import make_rng

def sha(data):
    return hashlib.sha256(data).hexdigest()

spec = datagen.ModelSpec(model_id=4, p=500)
test = datagen.sample(spec, 300, make_rng(5, "probe"))
print("sample", sha(test.X.tobytes() + test.y.tobytes()))
print("eta", sha(datagen.eta(spec, test.X).tobytes()))
gen = np.random.default_rng(17)
X = gen.standard_normal((400, 500))
y = np.where(gen.random(400) < 0.5, 1, 2)
X[y == 2, :10] += 0.5
for base in ("lda", "qda", "knn"):
    cfg = ensemble.EnsembleConfig(B1=6, B2=5, d=5, base=base, master_seed=3)
    model = ensemble.fit(X, y, cfg)
    print(base, "model", sha(serialize.dumps(model).encode()))
    print(base, "votes", sha(ensemble.votes_many(model, test.X).tobytes()))
"""


def _digests(blas_threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    src = str(Path(rpens.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout


@needs_openblas
def test_outputs_do_not_depend_on_blas_threads():
    one, two = _digests(1), _digests(2)
    assert len(one.splitlines()) == 8
    assert one == two


def _counts(libraries=None):
    return [get() for get, _ in (libraries or _blas.LIBRARIES)]


def _set_counts(n):
    for _, set_ in _blas.LIBRARIES:
        set_(n)


@pytest.fixture
def two_threads():
    """Every bundled OpenBLAS at 2 threads for the test, then as before."""
    if not _blas.LIBRARIES:
        pytest.skip("no bundled OpenBLAS found; pinning is a no-op")
    before = _counts()
    _set_counts(2)
    try:
        yield [2] * len(before)
    finally:
        for (_, set_), count in zip(_blas.LIBRARIES, before):
            set_(count)


@pytest.fixture
def inside(monkeypatch):
    """Thread counts seen by every base-classifier fit the test runs."""
    seen = []
    fit_base = bc.fit_base
    libraries = _blas.LIBRARIES

    def probe(*args, **kwargs):
        seen.append(_counts(libraries))
        return fit_base(*args, **kwargs)

    monkeypatch.setattr(bc, "fit_base", probe)
    return seen


def _blobs_cfg():
    X, y = make_blobs(20, 6, 2.0, seed=50)
    return X, y, en.EnsembleConfig(B1=3, B2=2, d=2, base="lda")


def _run_threads(work, n_threads):
    """Run ``work`` in ``n_threads`` threads with a very short switch interval."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(n_threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)


class TestPinLifecycle:
    def test_fit_runs_on_one_thread_and_restores(self, two_threads, inside):
        X, y, cfg = _blobs_cfg()
        en.fit(X, y, cfg)
        assert inside and all(c == [1] * len(two_threads) for c in inside)
        assert _counts() == two_threads
        assert _blas._depth == 0

    def test_failed_fit_restores(self, two_threads):
        X, y, cfg = _blobs_cfg()
        X = X.copy()
        X[3, 1] = np.nan
        with pytest.raises(errors.DataFormatError):
            en.fit(X, y, cfg)
        assert _counts() == two_threads
        X = np.vstack([np.zeros((4, 3)), np.ones((4, 3))])
        y = np.array([1] * 4 + [2] * 4)
        with pytest.raises(errors.BlockFailureError):
            en.fit(X, y, en.EnsembleConfig(B1=2, B2=3, d=1, base="qda"))
        assert _counts() == two_threads
        assert _blas._depth == 0

    def test_nested_run_restores(self, two_threads, inside):
        spec = ev.ExperimentSpec(
            source=dg.ModelSpec(model_id=1, p=4, mean_shift=2.0),
            n_train=30,
            n_test=40,
            repetitions=2,
            methods=(
                ev.MethodSpec("rp", en.EnsembleConfig(B1=3, B2=2, d=2)),
                ev.MethodSpec("lda", ev.ComparatorSpec("lda")),
            ),
        )
        ev.run(spec)
        assert len(inside) == 12
        assert all(c == [1] * len(two_threads) for c in inside)
        assert _counts() == two_threads
        assert _blas._depth == 0

    def test_concurrent_fits_restore(self, two_threads, inside):
        X, y, cfg = _blobs_cfg()
        expected = en.fit(X, y, cfg).winner_indices
        inside.clear()
        results = []

        def work():
            for _ in range(3):
                results.append(en.fit(X, y, cfg).winner_indices)

        _run_threads(work, 4)
        assert results == [expected] * 12
        # A lost update of the depth count would let one thread restore the
        # caller's count while another is still fitting.
        assert len(inside) == 12 * 6
        assert all(c == [1] * len(two_threads) for c in inside)
        assert _counts() == two_threads
        assert _blas._depth == 0

    def test_concurrent_short_calls_keep_the_depth(self, two_threads):
        # Many tiny pinned calls make the window between reading and writing
        # the depth count as likely to be hit as the test can make it.
        libraries = _blas.LIBRARIES
        seen = []
        probe = _blas.single_thread(lambda: seen.append(_counts(libraries)))

        def work():
            for _ in range(2000):
                probe()

        _run_threads(work, 8)
        assert len(seen) == 8 * 2000
        assert all(c == [1] * len(two_threads) for c in seen)
        assert _counts() == two_threads
        assert _blas._depth == 0

    def test_no_library_calls_straight_through(self, two_threads, inside, monkeypatch):
        monkeypatch.setattr(_blas, "LIBRARIES", ())
        X, y, cfg = _blobs_cfg()
        en.fit(X, y, cfg)
        assert inside and all(c == two_threads for c in inside)
        assert _blas._depth == 0
