"""Cross-validation of the quantization solutions by direct monodromy.

The oracle integrates the oscillator ODE and measures the five Stokes
multipliers; at a true tritronquee pole the multipliers sigma_{+-2} vanish.
The quantization solutions are WKB approximations, so their margins
max(|sigma_2|, |sigma_-2|) are small and shrink as the index grows, while
the admissibility relations 1 + s_k s_{k+1} = -i s_{k+3} hold to machine
accuracy throughout.  Exits 1 if V = 4 x^3 misses its exact multipliers
-i (1 + sqrt 5)/2 by more than 1e-8, or if a margin fails to shrink.
"""

import sys

import numpy as np

from cubicwkb import CubicPotential, real_poles, solve_bsb, stokes_multipliers
from cubicwkb.bsb import BsbIndex
from cubicwkb.monodromy import tritronquee_test

print("symmetric oscillator V = 4 x^3 (exact reference point):")
s = stokes_multipliers(CubicPotential(0, 0))
golden = -1j * (1 + np.sqrt(5)) / 2
miss = max(abs(sk - golden) for sk in s.sigma.values())
print(f"  all multipliers equal {s.sigma[0]:.12f}")
print(f"  golden ratio check: -i (1+sqrt(5))/2 = {golden:.12f}")
print(f"  largest miss: {miss:.2e}")
print(f"  max admissibility residual: {s.max_admissibility_residual:.2e}")

print("\nquantization diagonal:")
print(f"{'n':>3} {'margin':>10} {'sigma_0':>22} {'norm resid':>12}")
margins = []
for n in range(1, 5):
    a_n, b_n = real_poles(n)[-1]
    sol = solve_bsb(BsbIndex(n, n), CubicPotential(a_n, b_n))
    s = stokes_multipliers(sol.potential)
    ok, margin = tritronquee_test(s, threshold=0.1)
    margins.append(margin)
    print(
        f"{n:>3} {margin:>10.6f} {s.sigma[0]:>22.6f} "
        f"{s.max_normalized_residual:>12.2e}"
    )
print("\nthe margins shrink with n: deeper poles are better approximated,")
print("and sigma_0 approaches the exact tritronquee value i.")

if miss > 1e-8:
    sys.exit(f"V = 4 x^3: a multiplier misses -i (1+sqrt 5)/2 by {miss:.2e}")
if any(m1 >= m0 for m0, m1 in zip(margins, margins[1:])):
    sys.exit(f"the diagonal margins do not shrink: {margins}")
