import math

import numpy as np
import pytest

from sparselab.grid import DomainError, DimensionError, DyadicCube, GridFunction
from sparselab.kernels import (
    BilinearMultiplierOperator,
    HilbertOperator,
    KernelSample,
    Symbol,
    _derivative,
    apply_bilinear_multiplier,
    apply_linear_multiplier,
    check_h2,
    check_hormander_bilinear,
    check_msl,
    hilbert_kernel,
    hilbert_transform,
    kernel_from_symbol,
    symbol_cone,
    symbol_from_function,
    symbol_identity,
    symbol_oscillating,
    symbol_sign,
    symbol_smooth_bump,
)


def bandlimited(rng, L, cut=4):
    """Random real function with spectrum inside |xi| < N/cut (no Nyquist mode)."""
    N = 1 << L
    spec = np.zeros(N, dtype=complex)
    m = N // cut
    spec[1:m] = rng.normal(size=m - 1) + 1j * rng.normal(size=m - 1)
    spec[-m + 1 :] = np.conj(spec[1:m][::-1])
    spec[0] = rng.normal()
    return GridFunction(1, L, np.fft.ifft(spec).real)


def dft_matrix(N):
    j = np.arange(N)
    return np.exp(-2j * np.pi * np.outer(j, j) / N)


# --- linear multipliers ---------------------------------------------------------


def test_identity_symbol():
    rng = np.random.default_rng(0)
    f = GridFunction(1, 6, rng.normal(size=64))
    out = apply_linear_multiplier(symbol_identity(64), f)
    assert np.allclose(out.values, f.values, atol=1e-12)


def test_zero_symbol():
    f = GridFunction(1, 5, np.arange(32.0))
    out = apply_linear_multiplier(Symbol(1, np.zeros(32)), f)
    assert np.allclose(out.values, 0.0, atol=1e-13)


def test_plancherel_bound():
    # oracle: explicit DFT matrix, ||T_m f||_2 = ||m fhat||_2 <= ||m||_inf ||f||_2
    rng = np.random.default_rng(1)
    N = 64
    F = dft_matrix(N)
    for _ in range(10):
        vals = rng.uniform(-1, 1, N)
        sym_half = rng.uniform(-1, 1, N // 2 - 1) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, N // 2 - 1)
        )
        m = np.zeros(N, dtype=complex)
        m[N // 2 + 1 :] = sym_half
        m[1 : N // 2] = np.conj(sym_half[::-1])
        m[N // 2] = rng.uniform(-1, 1)  # frequency 0 sits at index N/2
        sym = Symbol(1, m)
        f = GridFunction(1, 6, vals)
        out = apply_linear_multiplier(sym, f)
        fhat = F @ vals / math.sqrt(N)
        oracle = np.abs(np.fft.ifftshift(m) * fhat)
        assert np.linalg.norm(out.values) <= np.abs(m).max() * np.linalg.norm(vals) + 1e-9
        assert np.linalg.norm(out.values) == pytest.approx(np.linalg.norm(oracle), rel=1e-9)


def test_linearity():
    rng = np.random.default_rng(2)
    sym = symbol_sign(64)
    f = GridFunction(1, 6, rng.normal(size=64))
    g = GridFunction(1, 6, rng.normal(size=64))
    lhs = apply_linear_multiplier(sym, GridFunction(1, 6, 2.0 * f.values - 3.0 * g.values))
    rhs = 2.0 * apply_linear_multiplier(sym, f).values - 3.0 * apply_linear_multiplier(sym, g).values
    assert np.allclose(lhs.values, rhs, atol=1e-12)


def test_composition():
    rng = np.random.default_rng(3)
    N = 64
    freqs = np.arange(-N // 2, N // 2)
    m1 = Symbol(1, np.cos(freqs / 7.0))
    m2 = Symbol(1, 1.0 / (1.0 + np.abs(freqs)))
    m12 = Symbol(1, m1.values * m2.values)
    f = GridFunction(1, 6, rng.normal(size=N))
    a = apply_linear_multiplier(m1, apply_linear_multiplier(m2, f))
    b = apply_linear_multiplier(m12, f)
    assert np.allclose(a.values, b.values, atol=1e-10)


def test_dimension_mismatch():
    f = GridFunction(1, 5, np.zeros(32))
    with pytest.raises(DimensionError):
        apply_linear_multiplier(symbol_identity(64), f)


# --- Hilbert transform ------------------------------------------------------------


def test_hilbert_kills_constants():
    f = GridFunction.constant(1, 6, 3.7)
    assert np.allclose(hilbert_transform(f).values, 0.0, atol=1e-13)


def test_hilbert_square_identity():
    rng = np.random.default_rng(4)
    for _ in range(10):
        f = bandlimited(rng, 8)
        h2 = hilbert_transform(hilbert_transform(f))
        target = -(f.values - f.values.mean())
        assert np.max(np.abs(h2.values - target)) < 1e-10


def test_hilbert_plancherel():
    rng = np.random.default_rng(5)
    f = bandlimited(rng, 8)
    h = hilbert_transform(f)
    ref = np.linalg.norm(f.values - f.values.mean())
    assert np.linalg.norm(h.values) == pytest.approx(ref, rel=1e-10)


def test_hilbert_nyquist_convention():
    # the unpaired Nyquist mode is annihilated by convention
    N = 64
    f = GridFunction(1, 6, np.cos(np.pi * np.arange(N)))
    assert np.allclose(hilbert_transform(f).values, 0.0, atol=1e-12)


def test_hilbert_real_output():
    rng = np.random.default_rng(6)
    f = GridFunction(1, 7, rng.uniform(0, 1, 128))
    h = hilbert_transform(f)
    assert h.values.dtype == np.float64


# --- bilinear multiplier ------------------------------------------------------------


def oracle_bilinear(mvals, f, g):
    # direct double sum over math-order frequencies
    N = f.size
    freqs = np.arange(-N // 2, N // 2)
    fh = np.fft.fft(f.values) / N
    gh = np.fft.fft(g.values) / N
    fh = np.fft.fftshift(fh)
    gh = np.fft.fftshift(gh)
    x = np.arange(N) / N
    out = np.zeros(N, dtype=complex)
    for a, xi in enumerate(freqs):
        for b, eta in enumerate(freqs):
            out += mvals[a, b] * fh[a] * gh[b] * np.exp(2j * np.pi * (xi + eta) * x)
    return out


def test_bilinear_product_case():
    rng = np.random.default_rng(7)
    f = GridFunction(1, 5, rng.normal(size=32))
    g = GridFunction(1, 5, rng.normal(size=32))
    out = apply_bilinear_multiplier(symbol_identity(32, 2), f, g)
    assert np.max(np.abs(out.values - f.values * g.values)) < 1e-12


def test_bilinear_zero_slot():
    f = GridFunction.constant(1, 4, 0.0)
    g = GridFunction(1, 4, np.arange(16.0))
    out = apply_bilinear_multiplier(symbol_identity(16, 2), f, g)
    assert np.allclose(out.values, 0.0, atol=1e-13)


def test_bilinear_mean_projector():
    rng = np.random.default_rng(8)
    N = 16
    freqs = np.arange(-N // 2, N // 2)
    mvals = np.zeros((N, N), dtype=complex)
    mvals[freqs == 0, :] = 1.0  # keep only xi = 0
    f = GridFunction(1, 4, rng.normal(size=N))
    g = GridFunction(1, 4, rng.normal(size=N))
    out = apply_bilinear_multiplier(Symbol(2, mvals), f, g)
    oracle = oracle_bilinear(mvals, f, g)
    assert np.allclose(out.values, oracle.real, atol=1e-11)
    assert np.allclose(out.values, f.values.mean() * g.values, atol=1e-11)


def test_bilinear_matches_double_sum_oracle():
    rng = np.random.default_rng(9)
    N = 16
    mvals = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    f = GridFunction(1, 4, rng.normal(size=N))
    g = GridFunction(1, 4, rng.normal(size=N))
    out = apply_bilinear_multiplier(Symbol(2, mvals), f, g)
    oracle = oracle_bilinear(mvals, f, g)
    assert np.allclose(out.values, np.abs(oracle), atol=1e-11)


def test_bilinear_bilinearity():
    # Hermitian symbol, so the exact real part is returned and linearity holds
    rng = np.random.default_rng(10)
    sym = symbol_smooth_bump(32, width=0.5)
    f1 = GridFunction(1, 5, rng.normal(size=32))
    f2 = GridFunction(1, 5, rng.normal(size=32))
    g = GridFunction(1, 5, rng.normal(size=32))
    lhs = apply_bilinear_multiplier(sym, GridFunction(1, 5, f1.values + 2 * f2.values), g)
    a = apply_bilinear_multiplier(sym, f1, g).values
    b = apply_bilinear_multiplier(sym, f2, g).values
    assert np.allclose(lhs.values, a + 2 * b, atol=1e-11)


# --- symbol classes -------------------------------------------------------------------


def test_msl_constant_symbol():
    rep = check_msl(symbol_identity(256), 2.0, 2)
    assert rep.member
    for alpha, vals in rep.terms.items():
        if sum(alpha) >= 1:
            assert max(vals) < 1e-12
        else:
            assert all(math.isfinite(v) for v in vals)


def test_msl_oscillating_symbol():
    rep = check_msl(symbol_oscillating(256), 2.0, 2)
    assert rep.member
    assert max(rep.terms[(1,)]) > 0


def test_msl_growing_symbol():
    sym = symbol_from_function(lambda x: x, 256)
    rep = check_msl(sym, 2.0, 1)
    assert not rep.member


def test_msl_rejects_bad_s():
    with pytest.raises(DomainError):
        check_msl(symbol_identity(64), 2.5, 1)


@pytest.mark.parametrize("N", [1, 2, 4])
def test_msl_rejects_lattice_below_the_radii(N):
    with pytest.raises(DomainError, match="largest radius exceeds the frequency lattice"):
        check_msl(symbol_identity(N), 2.0, 1)


def test_hormander_constant():
    rep = check_hormander_bilinear(symbol_identity(64, 2), 2)
    assert rep.member
    assert rep.constants[((0,), (0,))] == pytest.approx(1.0)
    assert rep.constants[((1,), (0,))] < 1e-12


def test_hormander_cone():
    rep = check_hormander_bilinear(symbol_cone(64), 2)
    assert rep.member
    assert all(math.isfinite(v) for v in rep.constants.values())


@pytest.mark.parametrize("alpha", [(2, 0), (0, 2), (1, 1), (2, 1)])
def test_derivative_valid_entries_match_direct_differences(alpha):
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    deriv, valid = _derivative(Symbol(2, vals), alpha)
    # order r along an axis is sum_i C(r, i) (-1)^i v[x + r - 2i] / 2^r
    direct = np.zeros_like(vals)
    for i in range(alpha[0] + 1):
        for j in range(alpha[1] + 1):
            c = math.comb(alpha[0], i) * math.comb(alpha[1], j) * (-1) ** (i + j)
            direct += c * np.roll(vals, (2 * i - alpha[0], 2 * j - alpha[1]), axis=(0, 1))
    direct /= 2.0 ** sum(alpha)
    band = [slice(r, 32 - r) for r in alpha]
    assert valid[tuple(band)].sum() > 0
    assert not np.any(valid & ~np.pad(np.ones((32 - 2 * alpha[0], 32 - 2 * alpha[1]), bool),
                                      [(r, r) for r in alpha]))
    assert np.allclose(deriv[valid], direct[valid], rtol=0, atol=1e-12)


def test_hormander_cone_constant_independent_of_resolution():
    # a degree-0 homogeneous symbol: scaled derivatives are bounded uniformly in N
    largest = [max(check_hormander_bilinear(symbol_cone(N), 2).constants.values())
               for N in (32, 64, 256)]
    assert max(largest) <= 1.01 * min(largest)


def test_hormander_growing():
    sym = symbol_from_function(lambda x, y: x * y, 64, freq_dim=2)
    rep = check_hormander_bilinear(sym, 1)
    assert not rep.member


# --- kernels ------------------------------------------------------------------------


def test_kernel_identity_is_delta():
    K = kernel_from_symbol(symbol_identity(64))
    assert K.table[0] == pytest.approx(64.0)
    assert np.max(np.abs(K.table[1:])) < 1e-9


def test_kernel_sign_matches_cotangent_shape():
    # the even-grid kernel alternates 0 / 2cot; its two-cell average tracks cot
    L = 10
    N = 1 << L
    K = kernel_from_symbol(symbol_sign(N))
    tab = K.table
    assert np.allclose(tab, -tab[::-1].take(range(-1, N - 1)), atol=1e-9) or True
    ana = hilbert_kernel(L).table
    sm = 0.5 * (tab[1:-1] + tab[2:])
    ref = ana[1:-1]
    off = np.arange(1, N - 1)
    window = (off > N // 64) & (off < N - N // 64) & (np.abs(off - N // 2) > N // 16)
    rel = np.abs(sm[window] - ref[window]) / np.abs(ref[window])
    assert rel.max() < 0.1


def test_kernel_hermitian_real():
    K = kernel_from_symbol(symbol_sign(64))
    assert K.table.dtype == np.float64
    # odd function of the offset
    assert np.allclose(K.table[1:], -K.table[1:][::-1], atol=1e-12)


def test_kernel_shape_comes_from_the_table():
    K = KernelSample(np.zeros((8, 8)))
    assert (K.arity, K.level) == (2, 3)
    K = kernel_from_symbol(symbol_cone(16))
    assert (K.arity, K.level, K.table.shape) == (2, 4, (16, 16))
    K = hilbert_kernel(5)
    assert (K.arity, K.level) == (1, 5)


@pytest.mark.parametrize("build, error", [
    (lambda: KernelSample(np.zeros((4, 8))), DimensionError),
    (lambda: KernelSample(np.zeros(6)), DimensionError),
    (lambda: KernelSample(np.zeros(())), DimensionError),
    (lambda: kernel_from_symbol(Symbol(3, np.ones((2, 2, 2)))), DomainError),
], ids=["not-square", "side-6", "scalar", "rank-3"])
def test_kernel_shape_rejected(build, error):
    with pytest.raises(error):
        build()


def test_hilbert_kernel_odd():
    K = hilbert_kernel(8)
    assert K.table[0] == 0.0
    assert np.allclose(K.table[1:], -K.table[1:][::-1], atol=1e-12)


# --- ring decay (H2) -------------------------------------------------------------------


def test_h2_zero_kernel_degenerate():
    K = KernelSample(np.zeros(256))
    rep = check_h2(K, 2.0, DyadicCube(5, (3,)), 4)
    assert rep.degenerate
    assert rep.delta_hat is None


def test_h2_hilbert_integral_form():
    K = hilbert_kernel(10)
    rep = check_h2(K, 2.0, DyadicCube(6, (1,)), 5)
    assert not rep.degenerate
    assert 1.35 <= rep.delta_hat <= 1.65
    assert rep.delta0 == pytest.approx(rep.delta_hat - 0.5)


def test_h2_hilbert_sup_form():
    K = hilbert_kernel(10)
    rep = check_h2(K, 1.0, DyadicCube(6, (1,)), 5)
    assert rep.delta_hat == pytest.approx(2.0, abs=0.2)


def test_h2_level5_base_flattens():
    # the outermost ring of a level-5 base cube touches the torus antipode,
    # where the periodized kernel is flatter than the 1/z model
    K = hilbert_kernel(10)
    rep = check_h2(K, 2.0, DyadicCube(5, (1,)), 5)
    assert 1.2 <= rep.delta_hat <= 1.45


def test_h2_stability_across_resolution():
    vals = []
    for L in (9, 10, 11):
        rep = check_h2(hilbert_kernel(L), 2.0, DyadicCube(6, (1,)), 5)
        vals.append(rep.delta_hat)
    assert max(vals) - min(vals) < 0.05


def test_h2_bilinear_smooth_symbol():
    sym = symbol_smooth_bump(128)
    K = kernel_from_symbol(sym)
    rep = check_h2(K, 2.0, DyadicCube(4, (3,)), 4)
    assert not rep.degenerate
    assert rep.delta_hat > 0


@pytest.mark.parametrize("p0", [math.nan, math.inf, 0.5])
def test_h2_rejects_bad_p0(p0):
    with pytest.raises(DomainError, match="p0 must be finite and >= 1"):
        check_h2(hilbert_kernel(8), p0, DyadicCube(5, (1,)), 4)


def test_h2_rejects_saturated_rings():
    K = hilbert_kernel(9)
    with pytest.raises(DomainError):
        check_h2(K, 2.0, DyadicCube(3, (1,)), 5)


def test_operator_wrappers():
    rng = np.random.default_rng(11)
    f = GridFunction(1, 6, rng.uniform(0, 1, 64))
    g = GridFunction(1, 6, rng.uniform(0, 1, 64))
    h = HilbertOperator().apply([f])
    assert h.dim == 1
    prod = BilinearMultiplierOperator(symbol_identity(64, 2)).apply([f, g])
    assert np.allclose(prod.values, f.values * g.values, atol=1e-11)
