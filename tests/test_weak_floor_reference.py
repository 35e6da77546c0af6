"""The weak-norm floor of the default cstar against the sampling loop it replaces,
bit for bit: ``max(1.0, measure_weak_norm(...))`` and that loop kept here as written
before trials under the floor were certified by their L^1 bound.  The certificate's
L^1 bound is checked against its first form, which powered every input's averages
on their own."""

import functools
import math
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

import sparselab.sparse as sparse_mod
from sparselab.grid import DyadicCube, GridFunction, at_most, block_reduce, mean_pyramid, weak_norm
from sparselab.samples import random_carleson, rng_from
from sparselab.sparse import (
    CarlesonSequence,
    _trial_l1,
    _trial_weak_norm,
    _weak_floor,
    _weak_trials,
    eval_sparse_A,
    measure_weak_norm,
    slice_scales,
)


def reference_weak_norm(a, k, p0, m, trials=8, seed=0):
    """The estimate's loop: every trial's normalized inputs through the operator."""
    n = a.dim
    L_res = max(a.levels, default=a.root.level)
    rng = np.random.default_rng(seed)
    best = 0.0
    shape = (1 << L_res,) * n
    for _ in range(trials):
        fs = []
        for _ in range(m):
            vals = rng.uniform(0.0, 1.0, shape)
            nrm = (vals**p0).mean() ** (1.0 / p0)
            if nrm == 0:  # a trial with a zero input is skipped
                break
            fs.append(GridFunction(n, L_res, vals / nrm))
        else:
            best = max(best, weak_norm(eval_sparse_A(a, k, p0, fs), p0 / m))
    return best


def ancestor_mass(a, k):
    """|Q| alpha_Q summed onto the level of the k-th ancestors Q^(k)."""
    n = a.dim
    return {j - k: block_reduce(arr, n, j, j - k, "sum") * 2.0 ** (-n * j)
            for j, arr in a.levels.items() if j - k >= a.root.level}


def reference_trial_l1(mass, n, L_res, p0, trial):
    """The L^1 bound with one power per input and cube: per ancestor level, ``mass``
    against the product of the inputs' averages, each raised to 1/p0 on its own."""
    pyramids = [mean_pyramid(power, n, L_res) for _, power, _ in trial]
    inv = 1.0 / p0
    total = sum(float(functools.reduce(lambda t, pyr: t * pyr[lvl] ** inv, pyramids, c).sum())
                for lvl, c in mass.items())
    return total / math.prod(nrm for _, _, nrm in trial)


def scaled(a, s):
    return CarlesonSequence(a.root, {j: arr * s for j, arr in a.levels.items()})


@st.composite
def floor_case(draw):
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(1, 8 if n == 1 else 5))
    # mostly random sequences; on an empty or shallow one the operator vanishes, and
    # every level of a shallow one lies less than k below its root
    kind = draw(st.sampled_from(["random", "random", "random", "empty", "shallow"]))
    k = draw(st.integers(1 if kind == "shallow" else 0, 3))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    rl = draw(st.integers(0, L))
    root = DyadicCube(rl, tuple(int(i) for i in rng.integers(0, 1 << rl, n)))
    if kind == "empty":
        a = CarlesonSequence(root, {})
    elif kind == "shallow":
        a = random_carleson(rng, n, rl + k - 1, root)
    else:
        a = random_carleson(rng, n, L)
        # a selection reads the estimate of a slice piece at k >= 1, of a itself at 0
        pieces = slice_scales(a, k) if k else []
        if pieces:
            a = pieces[draw(st.integers(0, len(pieces) - 1))]
    # large coefficients lift the estimate above one, so the fallback runs
    a = scaled(a, draw(st.one_of(st.just(1.0), st.floats(10.0, 1000.0))))
    m = draw(st.integers(1, 3))
    p0 = draw(st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0]))
    return a, k, p0, m, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(floor_case())
def test_floor_matches_estimate(case):
    a, k, p0, m, seed = case
    est = measure_weak_norm(a, k, p0, m, seed=seed)
    assert est == reference_weak_norm(a, k, p0, m, seed=seed)
    assert _weak_floor(a, k, p0, m, seed=seed) == max(1.0, est)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(floor_case())
def test_l1_bound_matches_reference_and_certifies(case):
    a, k, p0, m, seed = case
    n, L_res = a.dim, max(a.levels, default=a.root.level)
    mass = ancestor_mass(a, k)
    for trial in _weak_trials(a, p0, m, 8, seed):
        bound = _trial_l1(mass, n, L_res, p0, trial)
        ref = reference_trial_l1(mass, n, L_res, p0, trial)
        assert abs(bound - ref) <= 1e-13 * ref
        if p0 / m <= 1:  # the weak L^q norm on the unit cube is at most the L^1 norm
            wn = _trial_weak_norm(a, k, p0, m, trial)
            assert at_most(wn, bound, max(wn, bound))


def test_floor_holds_one_trial_at_a_time():
    # n=2 L=8, m=2: two inputs' value and power arrays are 2 MB, their pyramids and the
    # ancestor masses about 1 MB more; every trial here is certified under the floor,
    # and holding the 8 trials at once would take 14 MB more
    a = random_carleson(rng_from(1), 2, 8)
    tracemalloc.start()
    try:
        assert _weak_floor(a, 0, 1.5, 2, seed=0) == 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# (n, L, seed, k, scale, m, p0): q = p0/m <= 1 under the floor and above it, q > 1,
# and a case whose trials fall on both sides of the floor
FIXED = [(2, 6, 1, 0, 1.0, 2, 1.5), (1, 9, 2, 2, 1.0, 1, 1.0), (2, 5, 3, 1, 1000.0, 2, 1.0),
         (1, 8, 4, 0, 1.0, 1, 2.0), (2, 5, 5, 3, 50.0, 3, 2.0), (1, 10, 2, 0, 2.0, 1, 1.0)]


def test_fixed_cases_take_both_branches(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return eval_sparse_A(*args)

    evaluated = []
    for n, L, s, k, scale, m, p0 in FIXED:
        a = random_carleson(rng_from(s), n, L)
        a = scaled(slice_scales(a, k)[0] if k else a, scale)
        want = max(1.0, measure_weak_norm(a, k, p0, m, seed=s))
        monkeypatch.setattr(sparse_mod, "eval_sparse_A", counted)
        calls.clear()
        assert _weak_floor(a, k, p0, m, seed=s) == want
        monkeypatch.undo()
        evaluated.append(len(calls))
    # of 8 trials each: all certified, all evaluated, and both in one call
    assert 0 in evaluated and 8 in evaluated
    assert any(0 < e < 8 for e in evaluated)
