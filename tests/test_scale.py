"""The exact checks give the same verdict at every scale.

Multiplying every input by 2^s is exact in floating point, and at p0 in {1, 2}
so are the powers and roots the checks take, so each verdict at 2^s must be the
verdict at 1: a correct result passes at every s and a tampered one fails at
every s.  The cases include the ones an absolute tolerance got wrong: a Lerner
decomposition with zeroed oscillations, a CZ decomposition with one input
short-circuited, a domination against an emptied family and a non-Hermitian
symbol, each at a scale where the absolute bound let it through.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings, strategies as st

from sparselab.grid import GridFunction, root_cube
from sparselab.kernels import Symbol
from sparselab.oscillation import lerner_decompose
from sparselab.samples import random_carleson, random_function, rng_from
from sparselab.sparse import _cell_ratio, cz_decompose, dominate

SCALE = st.integers(-60, 60)
SEED = st.integers(0, 2**16)
P0 = st.sampled_from([1.0, 2.0])
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def scaled(f: GridFunction, s: int) -> GridFunction:
    return GridFunction(f.dim, f.level, f.values * 2.0**s)


@SETTINGS
@given(SEED, st.sampled_from([1, 2]), SCALE)
@example(3, 1, -40)
def test_lerner_verdict_is_scale_free(seed, n, s):
    L = 10 if n == 1 else 5
    f = random_function(rng_from(seed), n, L)
    for g in (f, scaled(f, s)):
        dec = lerner_decompose(g, root_cube(n))
        zeroed = dataclasses.replace(dec, osc={j: 0.0 * a for j, a in dec.osc.items()})
        assert dec.verify(g)
        assert not zeroed.verify(g)


@SETTINGS
@given(SEED, st.sampled_from([1, 2]), SCALE, P0, st.sampled_from([1, 2]),
       st.sampled_from([0.75, 0.875]), st.booleans())
@example(0, 1, 0, 1.0, 2, 1.0, True)
@example(0, 1, -40, 2.0, 1, 0.75, False)
def test_cz_verdict_is_scale_free(seed, n, s, p0, m, height, short):
    # a height t whose powers are exact: lam = t^m, so lam^(p0/m) = t^p0 at every scale
    L = 6 if n == 1 else 4
    rng = rng_from(seed)
    fs = [random_function(rng, n, L) for _ in range(m)]
    if short and m == 2:
        fs[0] = GridFunction.constant(n, L, 100.0)
    for t in (0, s):
        c = 2.0**t
        gs = [scaled(f, t) for f in fs]
        dec = cz_decompose(gs, (c * height) ** m, p0, root_cube(n))
        assert dec.short_circuit == ([0] if short and m == 2 else [])
        assert dec.verify(gs)
        # shift the bad part of the input that was decomposed
        i = m - 1
        bad = list(dec.bad)
        bad[i] = GridFunction(n, L, bad[i].values + 1e-6 * c**p0)
        assert not dataclasses.replace(dec, bad=bad).verify(gs)


@SETTINGS
@given(SEED, SCALE, P0, st.sampled_from([0, 1]))
@example(0, -30, 1.0, 0)
def test_domination_cover_is_scale_free(seed, s, p0, k):
    rng = rng_from(seed)
    a = random_carleson(rng, 1, 7, k_grid=k)
    fs = [random_function(rng, 1, 7) for _ in range(2)]
    for gs in (fs, [scaled(f, s) for f in fs]):
        res = dominate(a, k, p0, gs)
        assert res.covered
        # against an emptied family every cell where lhs is positive is uncovered
        assert not _cell_ratio(res.lhs, np.zeros_like(res.rhs))[1]


@SETTINGS
@given(SEED, st.sampled_from([1, 2]), SCALE)
@example(0, 1, -45)
def test_hermitian_verdict_is_scale_free(seed, d, s):
    rng = rng_from(seed)
    # the spectrum of a real function is Hermitian, up to the FFT's rounding, once its
    # bins with a -N/2 coordinate are zeroed as the built-in real symbols do
    v = np.fft.fftshift(np.fft.fftn(rng.uniform(-1.0, 1.0, (8,) * d)))
    v[np.indices(v.shape).min(axis=0) == 0] = 0.0
    tampered = v.copy()
    tampered[(3,) * d] += 1e-6j * np.max(np.abs(v.real))
    for c in (1.0, 2.0**s):
        assert Symbol(d, v * c).is_hermitian()
        assert not Symbol(d, tampered * c).is_hermitian()
        assert not Symbol(1, np.arange(8.0) * c).is_hermitian()
