"""Model operators and their regularity reports: the periodic Hilbert
transform, symbol class membership, and the ring-decay fit of kernel
differences.

Run:  python3 demos/05_kernels_and_multipliers.py
"""

import numpy as np

from sparselab import check_h2, check_msl, hilbert_kernel, hilbert_transform
from sparselab.grid import DyadicCube, GridFunction
from sparselab.kernels import check_hormander_bilinear, symbol_cone, symbol_oscillating, symbol_from_function

# Double application of the Hilbert transform inverts the sign away from
# the mean (band-limited input keeps the unpaired Nyquist mode out).
rng = np.random.default_rng(4)
N = 256
spec = np.zeros(N, dtype=complex)
spec[1:32] = rng.normal(size=31) + 1j * rng.normal(size=31)
spec[-31:] = np.conj(spec[1:32][::-1])
f = GridFunction(1, 8, np.fft.ifft(spec).real)
h2f = hilbert_transform(hilbert_transform(f))
err = np.abs(h2f.values + (f.values - f.values.mean())).max()
print(f"H(H f) = -(f - mean f): max error {err:.2e}")

# Symbol classes: a bounded oscillating symbol belongs, a growing one does not.
print("\nring-integrated symbol reports (membership = bounded across octaves):")
for sym in (symbol_oscillating(256), symbol_from_function(lambda x: x, 256, name="xi")):
    rep = check_msl(sym, 2.0, 2)
    print(f"  {sym.name or 'symbol'}: member = {rep.member}")
rep = check_hormander_bilinear(symbol_cone(64), 2)
print(f"  bilinear cone symbol: member = {rep.member}")

# Ring decay of Hilbert kernel differences: the L^2 ring norms fall off at
# the rate 1 + 1/p0 = 3/2, and the sup form at rate 2.
Q = DyadicCube(6, (1,))
for p0 in (2.0, 1.0):
    rep = check_h2(hilbert_kernel(10), p0, Q, 5)
    print(f"\np0 = {p0}: ring norms {['%.2e' % b for b in rep.b_values]}")
    print(f"  fitted decay delta_hat = {rep.delta_hat:.3f}, effective rate "
          f"delta0 = {rep.delta0:.3f}")
