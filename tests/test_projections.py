import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpens import errors, projections, rng


@given(
    p=st.integers(min_value=1, max_value=40),
    d_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["haar", "axis_aligned"]),
)
@settings(max_examples=120, deadline=None)
def test_rows_orthonormal(p, d_frac, seed, kind):
    d = 1 + int(d_frac * (p - 1))
    gen = rng.make_rng(seed, "proj")
    sampler = projections.sample_haar if kind == "haar" else projections.sample_axis_aligned
    proj = sampler(p, d, gen)
    gram = proj.entries @ proj.entries.T
    assert np.max(np.abs(gram - np.eye(d))) <= 1e-10
    assert proj.entries.shape == (d, p)
    assert proj.kind == kind


def test_sampling_is_deterministic():
    a = projections.sample_haar(12, 4, rng.make_rng(3, "x"))
    b = projections.sample_haar(12, 4, rng.make_rng(3, "x"))
    np.testing.assert_array_equal(a.entries, b.entries)


def _haar_by_one_qr(p, d, gen):
    """A Haar projection as drawn before sampling was stacked: one QR per draw."""
    q, r = np.linalg.qr(gen.standard_normal((d, p)).T, mode="reduced")
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return (q * signs).T


@pytest.mark.parametrize("p, d, B", [(50, 5, 50), (500, 5, 10), (50, 2, 100)])
def test_stacked_haar_sampler_equals_per_candidate_draws(p, d, B):
    stacked = projections._sample_haar_stack(p, d, [rng.make_rng(12, p, b) for b in range(B)])
    assert len(stacked) == B
    for b, proj in enumerate(stacked):
        one = projections.sample_haar(p, d, rng.make_rng(12, p, b))
        np.testing.assert_array_equal(proj.entries, one.entries)
        np.testing.assert_array_equal(proj.entries, _haar_by_one_qr(p, d, rng.make_rng(12, p, b)))


def test_stacked_haar_sampler_validates_every_candidate(monkeypatch):
    def rngs():
        return [rng.make_rng(13, b) for b in range(5)]

    checked = []
    post_init = projections.Projection.__post_init__

    def counting(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(projections.Projection, "__post_init__", counting)
    projections._sample_haar_stack(20, 3, rngs())
    assert len(checked) == 5

    qr = np.linalg.qr

    def last_factor_stretched(a, mode):
        q, r = qr(a, mode=mode)
        q = q.copy()
        q[-1] *= 2.0
        return q, r

    monkeypatch.setattr(np.linalg, "qr", last_factor_stretched)
    with pytest.raises(ValueError, match="not orthonormal"):
        projections._sample_haar_stack(20, 3, rngs())


def test_axis_aligned_rows_are_basis_vectors():
    proj = projections.sample_axis_aligned(9, 4, rng.make_rng(0, "ax"))
    for row in proj.entries:
        nz = np.flatnonzero(row)
        assert len(nz) == 1 and row[nz[0]] == 1.0
    cols = [int(np.flatnonzero(r)[0]) for r in proj.entries]
    assert len(set(cols)) == 4


def test_axis_aligned_coordinate_frequencies():
    # each coordinate should be selected about d/p of the time
    p, d, m = 6, 2, 3000
    counts = np.zeros(p)
    for i in range(m):
        proj = projections.sample_axis_aligned(p, d, rng.make_rng(7, "freq", i))
        counts[np.flatnonzero(proj.entries.sum(axis=0))] += 1
    freq = counts / m
    expected = d / p
    se = np.sqrt(expected * (1 - expected) / m)
    assert np.all(np.abs(freq - expected) < 5 * se)


def test_apply_matches_matmul(rng):
    proj = projections.sample_haar(10, 3, rng)
    X = rng.normal(size=(17, 10))
    np.testing.assert_allclose(proj.apply(X), X @ proj.entries.T, atol=1e-14)
    x = X[0]
    np.testing.assert_allclose(projections.apply(proj, x), proj.entries @ x, atol=1e-14)
    assert projections.apply(proj, x).shape == (3,)


def test_apply_rejects_wrong_width(rng):
    proj = projections.sample_haar(8, 2, rng)
    with pytest.raises(errors.ShapeMismatchError):
        proj.apply(np.zeros((5, 7)))


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        projections.Projection(entries=np.ones((2, 3)))
    with pytest.raises(errors.InvalidDimensionError):
        projections.Projection(entries=np.ones((3, 2)) / np.sqrt(2))
    with pytest.raises(ValueError):
        projections.Projection(entries=np.eye(2, 4), kind="mystery")
    scaled = np.eye(2, 5)
    scaled[0, 0] = 0.5
    with pytest.raises(ValueError):
        projections.Projection(entries=scaled, kind="axis_aligned")
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not orthonormal"):
            projections.Projection(entries=np.array([[0.0, 1.0, 0.0, bad]]))


def test_entries_are_read_only():
    proj = projections.sample_haar(5, 2, rng.make_rng(1, "ro"))
    with pytest.raises(ValueError):
        proj.entries[0, 0] = 9.0


def test_haar_rotation_equivariance():
    # QR with the positive-diagonal convention is a unique factorisation,
    # so rotating the Gaussian draw rotates the output: if G -> Q(G),
    # then G R^T -> Q(G) R^T for any rotation R.
    gen = np.random.default_rng(5150)
    p, d = 7, 3
    gauss = gen.standard_normal((d, p))
    R, _ = np.linalg.qr(gen.standard_normal((p, p)))

    def orth(g):
        q, r = np.linalg.qr(g.T, mode="reduced")
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        return (q * signs).T

    left = orth(gauss @ R.T)
    right = orth(gauss) @ R.T
    np.testing.assert_allclose(left, right, atol=1e-9)


def test_haar_angle_uniformity():
    # with p=2, d=1 the projection is a unit vector whose angle must be
    # uniform on the circle; a plain QR without the sign fix fails this
    from scipy import stats

    m = 4000
    angles = np.empty(m)
    for i in range(m):
        proj = projections.sample_haar(2, 1, rng.make_rng(11, "angle", i))
        v = proj.entries[0]
        angles[i] = np.arctan2(v[1], v[0])
    u = (angles + np.pi) / (2 * np.pi)
    assert stats.kstest(u, "uniform").pvalue > 0.01
