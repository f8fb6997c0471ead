import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgrad.errors import InvalidDimension, OverflowGuard
from dualgrad.kernelmap import FourierFeatureMap, exp_estimate, phi, phi_matrix, sample_feature_map
from dualgrad.rng import stream


def test_feature_shapes():
    fmap = sample_feature_map(4, 64, seed=1)
    assert fmap.frequencies.shape == (32, 4)
    assert phi(fmap, np.ones(4)).shape == (64,)
    assert phi_matrix(fmap, np.ones((4, 7))).shape == (64, 7)


def test_sampling_is_deterministic_in_seed():
    a = sample_feature_map(5, 128, seed=42)
    b = sample_feature_map(5, 128, seed=42)
    c = sample_feature_map(5, 128, seed=43)
    assert np.array_equal(a.frequencies, b.frequencies)
    assert not np.array_equal(a.frequencies, c.frequencies)


def test_frequencies_are_frozen():
    fmap = sample_feature_map(3, 32, seed=0)
    with pytest.raises(ValueError):
        fmap.frequencies[0, 0] = 1.0


def test_norm_identity_oracle():
    # |phi(x)|^2 = e^{|x|^2} / 2 exactly, from sin^2 + cos^2 = 1
    fmap = sample_feature_map(6, 128, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(0, 0.7, 6)
        f = phi(fmap, x)
        expected = np.exp(float(x @ x)) / 2.0
        assert float(f @ f) == pytest.approx(expected, rel=1e-12)


def test_self_estimate_is_exact():
    fmap = sample_feature_map(4, 64, seed=9)
    x = np.array([0.3, -0.5, 1.1, 0.2])
    assert exp_estimate(fmap, x, x) == pytest.approx(np.exp(x @ x), rel=1e-12)


def test_cross_estimate_unbiased_over_seeds():
    # mean over independent frequency draws approaches e^{x.y}
    x = np.array([0.4, -0.2, 0.7])
    y = np.array([-0.1, 0.5, 0.3])
    estimates = [
        exp_estimate(sample_feature_map(3, 256, seed=s), x, y) for s in range(400)
    ]
    assert np.mean(estimates) == pytest.approx(np.exp(x @ y), rel=0.02)


def test_phi_matrix_matches_columnwise_phi():
    fmap = sample_feature_map(5, 64, seed=2)
    xs = np.random.default_rng(1).normal(0, 1, (5, 6))
    batch = phi_matrix(fmap, xs)
    for j in range(6):
        assert np.allclose(batch[:, j], phi(fmap, xs[:, j]), atol=1e-15)


@pytest.mark.parametrize("d, D, seed", [(1, 2, 0), (4, 64, 7), (16, 256, 12345)])
def test_frequencies_are_the_unit_normal_draw_of_the_stream(d, D, seed):
    fmap = sample_feature_map(d, D, seed)
    want = stream(seed, f"rff/{d}/{D}/1.0").normal(0.0, 1.0, (D // 2, d))
    assert fmap.frequencies.tobytes() == want.tobytes()
    assert (fmap.input_dim, fmap.feature_dim) == (d, D)


@pytest.mark.parametrize("shape", [(3,), (2, 3, 1), ()])
def test_frequency_matrix_must_be_2d(shape):
    with pytest.raises(InvalidDimension):
        FourierFeatureMap(np.ones(shape))


@pytest.mark.parametrize(
    "kwargs,err",
    [
        (dict(input_dim=0, feature_dim=64), InvalidDimension),
        (dict(input_dim=4, feature_dim=63), InvalidDimension),
        (dict(input_dim=4, feature_dim=0), InvalidDimension),
    ],
)
def test_sampling_validation(kwargs, err):
    with pytest.raises(err):
        sample_feature_map(**kwargs)


def test_dimension_mismatch_rejected():
    fmap = sample_feature_map(4, 64, seed=0)
    with pytest.raises(InvalidDimension):
        phi(fmap, np.ones(5))


def test_overflow_guard():
    fmap = sample_feature_map(2, 64, seed=0)
    with pytest.raises(OverflowGuard):
        phi(fmap, np.array([30.0, 0.0]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=3),
    st.integers(min_value=0, max_value=50),
)
def test_norm_identity_property(coords, seed):
    fmap = sample_feature_map(3, 64, seed=seed)
    x = np.array(coords)
    f = phi(fmap, x)
    assert float(f @ f) == pytest.approx(np.exp(float(x @ x)) / 2.0, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
)
def test_phi_is_the_one_column_case_of_phi_matrix(d, seed):
    fmap = sample_feature_map(d, 64, seed=seed % 97)
    x = np.random.default_rng(seed).normal(0, 0.8, d)
    assert phi(fmap, x).tobytes() == phi_matrix(fmap, x[:, None])[:, 0].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 5, 8, 9, 16, 17]),
    st.sampled_from([2, 8, 64, 256, 1024]),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
)
def test_phi_matrix_columns_are_batch_invariant(d, D, n, seed):
    # a column's features have the same bits alone, in any split and in a batch
    rng = np.random.default_rng(seed)
    fmap = sample_feature_map(d, D, seed=seed % 89)
    xs = rng.normal(0, 0.5, (d, n))
    batch = phi_matrix(fmap, xs)
    cut = int(rng.integers(0, n + 1))
    parts = np.hstack([phi_matrix(fmap, xs[:, :cut]), phi_matrix(fmap, xs[:, cut:])])
    assert parts.tobytes() == batch.tobytes()
    for j in {0, n // 2, n - 1}:
        assert phi_matrix(fmap, xs[:, j : j + 1]).tobytes() == batch[:, j].tobytes()


@pytest.mark.parametrize("n", [2, 3, 7])
def test_phi_matrix_guard_sees_a_column_over_the_bound_beside_a_nan(n):
    # the largest squared norm of a block with a NaN column is NaN, so a guard
    # that compared only the maximum would let the column over the bound through
    fmap = sample_feature_map(3, 8, seed=0)
    for nan_col in range(n):
        for big_col in set(range(n)) - {nan_col}:
            xs = np.full((3, n), 0.1)
            xs[:, nan_col] = np.nan
            xs[:, big_col] = 20.0  # squared norm 1200
            with pytest.raises(OverflowGuard):
                phi_matrix(fmap, xs)


def _phi_matrix_oracle(fmap, xs):
    """phi_matrix in its plain form, sines and cosines stacked and then scaled."""
    rows = np.ascontiguousarray(xs.T)
    sq = np.einsum("ij,ij->i", rows, rows)
    proj = np.matmul(fmap.frequencies, rows[:, :, None])[:, :, 0]
    scale = np.exp(0.5 * sq) / np.sqrt(fmap.feature_dim)
    return (scale[:, None] * np.hstack([np.sin(proj), np.cos(proj)])).T


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 8),
    st.sampled_from([2, 8, 1024]),
    st.integers(0, 70),
    st.integers(0, 2**32 - 1),
)
def test_phi_matrix_is_bitwise_the_stacked_oracle(d, D, n, seed):
    # the in-place sin/cos/scale writes give the bits of the stacked form
    fmap = sample_feature_map(d, D, seed=seed % 83)
    xs = np.random.default_rng(seed).normal(0, 0.6, (d, n))
    got, want = phi_matrix(fmap, xs), _phi_matrix_oracle(fmap, xs)
    assert got.shape == want.shape == (D, n)
    assert got.tobytes() == want.tobytes()
