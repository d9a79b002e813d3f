"""Local expansion of Painleve I around a predicted pole.

Every pole of y'' = 6 y^2 - z carries the expansion
y = (z-a)^{-2} + a (z-a)^2/10 + (z-a)^3/6 + b (z-a)^4 + ...; the
coefficient b of the quantization solution is the second pole parameter.
The truncated series satisfies the equation to a residual that decays
geometrically with the truncation order.
"""

from cubicwkb import CubicPotential, laurent_coeffs, pi_residual, real_poles, solve_bsb
from cubicwkb.bsb import BsbIndex
from cubicwkb.painleve import coeff_poly

print("first exact coefficient polynomials in (a, b):")
for j in range(2, 9):
    print(f"  c_{j} = {dict(coeff_poly(j)) or 0}")

a1, b1 = real_poles(1)[-1]
sol = solve_bsb(BsbIndex(1, 1), CubicPotential(a1, b1))
print(f"\nfirst real pole prediction: a = {sol.a.real:.6f}, b = {sol.b.real:.6f}")

print("\nequation residual at |z - a| = 0.1 versus truncation order:")
for N in (6, 8, 10, 12, 16, 20):
    s = laurent_coeffs(sol.a.real, sol.b.real, N=N)
    print(f"  N = {N:>2}: {pi_residual(s, s.pole + 0.1):.3e}")
