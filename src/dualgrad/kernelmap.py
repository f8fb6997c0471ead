"""Random Fourier feature map linearizing the exponential (softmax) kernel.

The map is

    phi(x) = e^{|x|^2/2} / sqrt(D) * (sin(u_1.x), .., sin(u_{D/2}.x),
                                      cos(u_1.x), .., cos(u_{D/2}.x))

with u_i drawn once from N(0, I), the spectral measure of the exponential
kernel.  Its inner products estimate that kernel: E[2 phi(x).phi(y)] = e^{x.y},
and the estimate is exact whenever x = y (sin^2 + cos^2 identity).  Attention outputs
normalized by c = (1' phi(K)' phi(q))^{-1} are invariant to any constant
rescaling of phi, so the 1/sqrt(D) convention is kept verbatim and the x2
correction appears only in :func:`exp_estimate`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, OverflowGuard
from .rng import stream

# e^{|x|^2/2} overflows well before this; reject instead of emitting inf.
MAX_SQ_NORM = 500.0


@dataclass(frozen=True)
class FourierFeatureMap:
    """Frozen random frequencies realizing phi. Immutable and pure."""

    frequencies: np.ndarray  # (feature_dim // 2, input_dim)

    def __post_init__(self):
        if self.frequencies.ndim != 2:
            raise InvalidDimension(f"frequencies must be 2-D, got shape {self.frequencies.shape}")
        self.frequencies.setflags(write=False)

    @property
    def input_dim(self) -> int:
        return self.frequencies.shape[1]

    @property
    def feature_dim(self) -> int:
        return 2 * self.frequencies.shape[0]


def sample_feature_map(input_dim: int, feature_dim: int = 128, seed: int = 0) -> FourierFeatureMap:
    """Draw the frequency matrix from N(0, I); a pure function of the three parameters."""
    if input_dim < 1:
        raise InvalidDimension(f"input_dim must be >= 1, got {input_dim}")
    if feature_dim < 2 or feature_dim % 2 != 0:
        raise InvalidDimension(f"feature_dim must be even and >= 2, got {feature_dim}")
    # the label's "1.0" is part of every seed's stream: another text would redraw every map
    rng = stream(seed, f"rff/{input_dim}/{feature_dim}/1.0")
    return FourierFeatureMap(rng.normal(0.0, 1.0, size=(feature_dim // 2, input_dim)))


def matvecs(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``a @ r`` for every row ``r`` of ``rows``: (n, k) -> (n, m).

    One matrix-vector product per row, so a row's result has the same bits
    however many rows come with it; a single matrix product blocks its sums
    differently for different widths.
    """
    return np.matmul(a, np.ascontiguousarray(rows)[:, :, None])[:, :, 0]


def phi(fmap: FourierFeatureMap, x: np.ndarray) -> np.ndarray:
    """Feature map for a single vector, shape (input_dim,) -> (feature_dim,)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidDimension("phi expects a vector; use phi_matrix for batches")
    return phi_matrix(fmap, x[:, None])[:, 0]


def phi_matrix(fmap: FourierFeatureMap, xs: np.ndarray) -> np.ndarray:
    """Column-wise feature map, shape (input_dim, n) -> (feature_dim, n).

    Every step is per column (``matvecs``, a row-wise norm, elementwise
    exp/sin/cos), so a column's features have the same bits in a batch of
    any width: features of keys computed one at a time equal those of a batch.
    Sines and cosines are written straight into one (n, D) array, which is
    then scaled in place; the result is its transpose, a fresh array that the
    feature cache adopts without a copy.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise InvalidDimension("phi_matrix expects a (input_dim, n) array")
    half, input_dim = fmap.frequencies.shape
    if xs.shape[0] != input_dim:
        raise InvalidDimension(f"expected leading dimension {input_dim}, got {xs.shape[0]}")
    rows = np.ascontiguousarray(xs.T)
    sq = np.einsum("ij,ij->i", rows, rows)
    if (sq > MAX_SQ_NORM).any():  # not sq.max(): a NaN column would hide one over the bound
        raise OverflowGuard(f"squared norm {np.max(sq):.1f} exceeds {MAX_SQ_NORM}")
    proj = matvecs(fmap.frequencies, rows)
    scale = np.exp(0.5 * sq) / math.sqrt(2 * half)
    out = np.empty((len(rows), 2 * half))
    np.sin(proj, out=out[:, :half])
    np.cos(proj, out=out[:, half:])
    out *= scale[:, None]
    return out.T


def exp_estimate(fmap: FourierFeatureMap, x: np.ndarray, y: np.ndarray) -> float:
    """Estimator of e^{x.y}; exact when x = y, unbiased over seeds otherwise."""
    return 2.0 * float(phi(fmap, x) @ phi(fmap, y))
