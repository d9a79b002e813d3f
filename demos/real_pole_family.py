"""The real pole family of the tritronquee solution.

Locates the unique real orbit of quantizing potentials, extracts the
normalization constants, and prints the resulting pole predictions
a_n = a* (n - 1/2)^{4/5} next to polished solver output.
"""

import numpy as np

from cubicwkb import CubicPotential, real_orbit_constants, real_poles, solve_bsb
from cubicwkb.bsb import BsbIndex

mu, a_star, b_star = real_orbit_constants()
print("real quantizing orbit:")
print(f"  orbit modulus a^3/b^2 = {mu:.6f}")
print(f"  a* = {a_star:.8f}")
print(f"  b* = {b_star:.8f}")

print("\npower law vs polished quantization solutions:")
print(f"{'n':>3} {'a_n (law)':>14} {'a_n (solved)':>14} {'b_n (solved)':>14} {'residual':>10}")
for n, (a_n, b_n) in enumerate(real_poles(6), start=1):
    sol = solve_bsb(BsbIndex(n, n), CubicPotential(a_n, b_n))
    print(
        f"{n:>3} {a_n:>14.8f} {sol.a.real:>14.8f} {sol.b.real:>14.8f} "
        f"{sol.residual_norm:>10.1e}"
    )

print("\nthe scale-invariant modulus is constant along the diagonal:")
for n in (1, 3, 6):
    a_n, b_n = real_poles(n)[-1]
    print(f"  n={n}: b^2/a^3 = {b_n**2 / a_n**3:.12e}")
