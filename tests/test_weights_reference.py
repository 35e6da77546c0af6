"""Two-dimensional power weights against the (2^L, 2^L, 8, 8) tensor form they replaced,
bit for bit: the midpoint rule summed one y-subsample at a time adds the 64 points of a
cell in the order of numpy's pairwise sum over them.  Should a numpy release change that
order, these equalities fail rather than drift."""

import tracemalloc

import numpy as np
import pytest

from sparselab.weights import WEIGHT_FLOOR, power_weight


def reference_power_weight_2d(alpha, center, L, ss=8):
    """The cell averages of dist_torus(x, center)^alpha as one tensor mean, kept as the reference."""
    N = 1 << L
    pts = (np.arange(N)[:, None] + (np.arange(ss) + 0.5)[None, :] / ss) / N  # (N, ss)
    dx = np.abs(pts - center[0]) % 1.0
    dx = np.minimum(dx, 1.0 - dx)
    dy = np.abs(pts - center[1]) % 1.0
    dy = np.minimum(dy, 1.0 - dy)
    r2 = dx[:, None, :, None] ** 2 + dy[None, :, None, :] ** 2  # (N, N, ss, ss)
    vals = (r2 ** (alpha / 2.0)).mean(axis=(2, 3))
    return np.maximum(vals, WEIGHT_FLOOR)


ALPHAS = [-1.999, -1.5, -0.6, -0.3, 0.0, 0.3, 0.5, 1.0, 1.7, 2.0, 5.0, 49.0]
ALPHAS_TOP = [-1.999, -0.3, 0.3, 1.0, 49.0]  # at L = 8, where a reference takes 40 ms
# (1/16, 3/16) lies on cell edges from L = 4 on; at L = 0 it is a point of the midpoint
# rule, where a negative alpha has no finite value
CASES = [(L, c) for L in (0, 1, 2, 3, 4, 6, 8)
         for c in [(0.0, 0.0), (0.37, 0.81), (0.5, 0.5), (0.123, 0.999)]]
CASES += [(L, (1 / 16, 3 / 16)) for L in (4, 5, 8)]


@pytest.mark.parametrize("L,center", CASES)
def test_power_weight_2d_matches_tensor_form(L, center):
    for alpha in ALPHAS if L < 8 else ALPHAS_TOP:
        got = power_weight(alpha, center, n=2, L=L).values
        assert np.array_equal(got, reference_power_weight_2d(alpha, center, L)), alpha


def test_power_weight_2d_holds_a_few_grid_arrays():
    # n=2 L=8: one (256, 256) array is 0.5 MB; the midpoint rule keeps 8 running sums and
    # one term at a time (measured 5.6-6.4 MB), where the tensor form took 64.5 MB
    tracemalloc.start()
    try:
        power_weight(0.3, (0.37, 0.81), n=2, L=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
