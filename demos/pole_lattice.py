"""Fill the (n, m) quantization lattice and display the pole predictions.

Every lattice cell is an approximate pole of the tritronquee solution; the
diagonal is real, off-diagonal cells come in conjugate pairs, and every
cell satisfies the sector bound |arg a| > 4 pi / 5.  The lattice builds
its cells by rescaling one continuation curve; as an independent check the
cell (2, 1) is solved again by Newton from the cell (1, 1).  Exits 1 when a
cell fails, a cell breaks the sector bound, or the two (2, 1) differ by
more than 1e-9.
"""

import sys

import numpy as np

from cubicwkb import solve_bsb, solve_lattice
from cubicwkb.bsb import BsbIndex

solved, failures = solve_lattice(4, 4, tol=1e-10)

print(f"{'n':>2} {'m':>2} {'re a':>12} {'im a':>12} {'re b':>11} {'im b':>11} "
      f"{'|arg a|':>8}")
for (n, m), sol in sorted(solved.items()):
    print(
        f"{n:>2} {m:>2} {sol.a.real:>12.6f} {sol.a.imag:>12.6f} "
        f"{sol.b.real:>11.6f} {sol.b.imag:>11.6f} "
        f"{abs(np.angle(complex(sol.a))):>8.4f}"
    )
for nm, msg in failures.items():
    print(f"failed {nm}: {msg}")

bound = 4 * np.pi / 5
min_arg = min(abs(np.angle(complex(s.a))) for s in solved.values())
print(f"\nmin |arg a| = {min_arg:.4f}  (sector bound 4 pi/5 = {bound:.4f})")
direct = solve_bsb(BsbIndex(2, 1), solved[(1, 1)].potential)
dev = max(abs(direct.a - solved[(2, 1)].a), abs(direct.b - solved[(2, 1)].b))
print(f"(2, 1) by Newton from (1, 1) against the lattice: {dev:.2e}")

if failures or min_arg <= bound or dev > 1e-9:
    sys.exit(1)
