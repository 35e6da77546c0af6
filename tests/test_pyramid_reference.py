"""The mean pyramid against a chain of numpy block means, one per level."""

import numpy as np
from hypothesis import given, settings, strategies as st

from sparselab.grid import mean_pyramid


def reference_mean_pyramid(values, n, L):
    """Each level numpy's mean over the 2^n children of every cube of the level below."""
    out = [None] * (L + 1)
    out[L] = np.asarray(values, dtype=float).reshape((1 << L,) * n)
    for j in range(L - 1, -1, -1):
        out[j] = out[j + 1].reshape((1 << j, 2) * n).mean(axis=tuple(range(1, 2 * n, 2)))
    return out


@st.composite
def pyramid_case(draw):
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(0, 12 if n == 1 else 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (1 << L,) * n
    # magnitudes spread over e^-30 .. e^30, with exact zeros and ties mixed in
    spread = draw(st.sampled_from([0.0, 1.0, 30.0]))
    vals = np.exp(rng.uniform(-spread, spread, shape))
    vals[rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    if draw(st.booleans()):
        vals = np.round(vals, 1)
    return n, L, vals


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pyramid_case())
def test_mean_pyramid_matches_block_reduce_chain(case):
    n, L, vals = case
    got = mean_pyramid(vals, n, L)
    ref = reference_mean_pyramid(vals, n, L)
    assert len(got) == len(ref) == L + 1
    for j, (a, b) in enumerate(zip(got, ref)):
        assert a.shape == b.shape == (1 << j,) * n
        # bit for bit, signed zeros included
        assert a.tobytes() == b.tobytes()
