"""Weight constants and dyadic maximal functions from level pyramids, against the
per-level full-grid block_reduce loops they replaced."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from sparselab.grid import MAX_LEVEL, GridFunction, argmax_cube, block_reduce, top_level, upsample
from sparselab.sparse import dyadic_maximal
from sparselab.weights import WeightTuple, ap_constant, conjugate, multi_ap_constant, rh_constant

# relative tolerance of a constant: its supremum is one cube's value, whose
# means the pyramid sums in another order than a full-grid reduction
REL = 1e-15
# a maximal function holds every cell's largest mean, level-0 means of up to
# 2^16 cells among them, so a few more ulps of reordering show through
REL_MAXIMAL = 8 * np.finfo(float).eps


# --- references: the loops with one full-grid block_reduce per level, per-level arrays out


def reference_ap_levels(w, p, maxlevel=None):
    n, L = w.dim, w.level
    vals = w.values
    dual = None if p == 1 else vals ** (-1.0 / (p - 1.0))
    out = []
    for j in range(top_level(maxlevel, L) + 1):
        mw = block_reduce(vals, n, L, j, "mean")
        if p == 1:
            out.append(mw / block_reduce(vals, n, L, j, "min"))
        else:
            out.append(mw * block_reduce(dual, n, L, j, "mean") ** (p - 1.0))
    return out


def reference_rh_levels(w, q, maxlevel=None):
    n, L = w.dim, w.level
    vals = w.values
    out = []
    for j in range(top_level(maxlevel, L) + 1):
        mw = block_reduce(vals, n, L, j, "mean")
        if math.isinf(q):
            out.append(block_reduce(vals, n, L, j, "max") / mw)
        else:
            out.append(block_reduce(vals**q, n, L, j, "mean") ** (1.0 / q) / mw)
    return out


def reference_multi_ap_levels(t, r, maxlevel=None):
    n, L = t.dim, t.level
    a = t.p / r
    a_i = [p / r for p in t.exponents]
    nu_vals = np.ones_like(t.weights[0].values)
    for w, p_i in zip(t.weights, t.exponents):
        nu_vals = nu_vals * w.values ** (t.p / p_i)
    duals = [w.values ** (1.0 - conjugate(ai)) for w, ai in zip(t.weights, a_i)]
    out = []
    for j in range(top_level(maxlevel, L) + 1):
        acc = block_reduce(nu_vals, n, L, j, "mean")
        for d, ai in zip(duals, a_i):
            acc = acc * block_reduce(d, n, L, j, "mean") ** (a / conjugate(ai))
        out.append(acc)
    return out


def reference_maximal(f, p0=1.0, sigma=None, maxlevel=None):
    n, L = f.dim, f.level
    out = np.zeros((1 << L,) * n)
    if sigma is not None:
        num = np.abs(f.values) * sigma.values
        for j in range(top_level(maxlevel, L) + 1):
            ratio = (block_reduce(num, n, L, j, "mean")
                     / block_reduce(sigma.values, n, L, j, "mean"))
            out = np.maximum(out, upsample(ratio, 1 << (L - j)))
        return out
    power = np.abs(f.values) ** p0
    for j in range(top_level(maxlevel, L) + 1):
        out = np.maximum(out, upsample(block_reduce(power, n, L, j, "mean"), 1 << (L - j)))
    return out ** (1.0 / p0)


# --- cases ----------------------------------------------------------------------------


@st.composite
def grid_case(draw):
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(0, MAX_LEVEL[n]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maxlevel = draw(st.one_of(st.none(), st.integers(0, L + 1)))
    return n, L, rng, maxlevel


def draw_weight(draw, rng, n, L):
    """Cell values spread over e^-s .. e^s, s in {0, 1, 30}, ties mixed in."""
    spread = draw(st.sampled_from([0.0, 1.0, 30.0]))
    vals = np.exp(rng.uniform(-spread, spread, (1 << L,) * n))
    if draw(st.booleans()):
        vals = np.exp(np.round(np.log(vals)))
    return GridFunction(n, L, vals)


def assert_report_matches(rep, ref_levels, maxlevel):
    ref_value, ref_witness = argmax_cube(enumerate(ref_levels))
    assert rep.maxlevel == maxlevel == len(ref_levels) - 1
    assert abs(rep.value - ref_value) <= REL * ref_value
    at_witness = ref_levels[rep.witness.level][rep.witness.index]
    assert rep.witness == ref_witness or abs(at_witness - ref_value) <= REL * ref_value


@settings(max_examples=200, deadline=None, derandomize=True)
@given(grid_case(), st.data())
def test_ap_and_rh_constants_match_block_reduce_loops(case, data):
    n, L, rng, maxlevel = case
    w = draw_weight(data.draw, rng, n, L)
    top = top_level(maxlevel, L)
    p = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    assert_report_matches(ap_constant(w, p, maxlevel), reference_ap_levels(w, p, maxlevel), top)
    q = data.draw(st.sampled_from([1.5, 2.0, 4.0, math.inf]))
    assert_report_matches(rh_constant(w, q, maxlevel), reference_rh_levels(w, q, maxlevel), top)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(grid_case(), st.data())
def test_multi_ap_constant_matches_block_reduce_loop(case, data):
    n, L, rng, maxlevel = case
    m = data.draw(st.sampled_from([1, 2]))
    weights = [draw_weight(data.draw, rng, n, L) for _ in range(m)]
    exponents = data.draw(st.sampled_from([(2.0, 2.0), (3.0, 1.5), (4.0, 4.0)]))[:m]
    p0 = data.draw(st.sampled_from([1.0, 1.2]))
    t = WeightTuple(weights, exponents, p0=p0)
    for r in (1.0, p0):
        rep = multi_ap_constant(t, r=r, maxlevel=maxlevel)
        assert_report_matches(rep, reference_multi_ap_levels(t, r, maxlevel),
                              top_level(maxlevel, L))
        # a second call returns the report computed once for the tuple
        assert multi_ap_constant(t, r=r, maxlevel=maxlevel) is rep


@settings(max_examples=200, deadline=None, derandomize=True)
@given(grid_case(), st.data())
def test_dyadic_maximal_matches_block_reduce_loop(case, data):
    n, L, rng, maxlevel = case
    f = draw_weight(data.draw, rng, n, L)
    if data.draw(st.booleans()):
        f = GridFunction(n, L, f.values * rng.choice([-1.0, 0.0, 1.0], f.values.shape))
    if data.draw(st.booleans()):
        sigma = draw_weight(data.draw, rng, n, L)
        got = dyadic_maximal(f, sigma=sigma, maxlevel=maxlevel).values
        ref = reference_maximal(f, sigma=sigma, maxlevel=maxlevel)
    else:
        p0 = data.draw(st.sampled_from([1.0, 1.5, 2.0]))
        got = dyadic_maximal(f, p0, maxlevel=maxlevel).values
        ref = reference_maximal(f, p0, maxlevel=maxlevel)
    assert np.all(np.abs(got - ref) <= REL_MAXIMAL * ref)
