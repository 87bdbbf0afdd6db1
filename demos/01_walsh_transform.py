#!/usr/bin/env python3
"""Walsh functions and the fast Walsh-Fourier transform.

Walks through the generating iteration, checks the butterfly against the
naive matrix product, and shows why zero-padding to a power of two is
needed for a 1440-minute day.
"""

import numpy as np

from walshscape import fast_wft_batch, next_pow2, walsh_matrix

print("=== Walsh functions from the multiplicative iteration ===")
w8 = walsh_matrix(8)
print("The 8x8 table of W(t, j) values (rows t, columns j):")
for row in w8:
    print("  " + " ".join(f"{v:+d}" for v in row))
gram = w8 @ w8.T
print("\n(1/8) * W W^T is the identity:", np.array_equal(gram, 8 * np.eye(8, dtype=np.int64)))

print("\n=== Padding a day of minutes ===")
print(f"A 1440-minute day pads to T2 = next_pow2(1440) = {next_pow2(1440)}")

rng = np.random.default_rng(0)
day = rng.integers(0, 3, size=1440)
padded = np.pad(day.astype(float), (0, next_pow2(1440) - 1440))
print(f"padded length: {len(padded)}, trailing zeros: {int((padded[1440:] == 0).all())}")

print("\n=== Fast transform vs naive matrix product ===")
x = rng.normal(size=64)
naive = x @ walsh_matrix(64).astype(float) / np.sqrt(64)
fast = fast_wft_batch(x[None])[0]
print(f"max |fast - naive| at T2=64: {np.max(np.abs(fast - naive)):.2e}")

print("\n=== Parseval: the transform preserves energy ===")
coeffs = fast_wft_batch(padded[None])[0]
print(f"sum x^2      = {np.sum(padded ** 2):.6f}")
print(f"sum coeffs^2 = {np.sum(coeffs ** 2):.6f}")

print(f"\nWFT value range of this day: [{coeffs.min():.3f}, {coeffs.max():.3f}]")
print("That (min, max) pair is all the landscape features keep per series.")
