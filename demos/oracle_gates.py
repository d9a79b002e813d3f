"""The monodromy oracle along the real poles and across the (20, 20) lattice.

At a BSB cell the exact multipliers sigma_{+-2} are at most about the WKB
relative error rho_max (0.1815/(n - 1/2) on the diagonal), and the
admissibility relations 1 + s_k s_{k+1} = -i s_{k+3} hold exactly.  The
oracle's walks follow the internal Stokes lines, through a third turning
point where no single line joins two walls, so neither degrades with the
size of the cell.  Exits 1 when:
- `cubicwkb verify` does not exit 0 at a real pole n = 1..30;
- a real pole n = 1..30 has a normalized residual above 1e-6 or
  |sigma_{+-2}| above 0.1815/(n - 1/2);
- a cell (n, m), m >= n, of solve_lattice(20, 20) has a residual above 1e-6.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from cubicwkb import real_poles, solve_lattice, stokes_multipliers
from cubicwkb.cli import ADMISSIBILITY_GATE, main

bad = []

print("real poles, by `cubicwkb verify`:")
print(f"{'n':>3} {'residual':>10} {'est_error':>10} {'|s+-2|/rho':>11} {'exit':>5}")
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "verify.json"
    for n, (a, b) in enumerate(real_poles(30), start=1):
        out.unlink(missing_ok=True)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["verify", f"--a={a!r}", f"--b={b!r}", "--out", str(out)])
        if not out.exists():
            bad.append(f"real pole n = {n}: verify exits {code}: {err.getvalue().strip()}")
            continue
        rep = json.loads(out.read_text())
        res = max(rep["normalized_residuals"])
        ratio = max(abs(complex(*rep["sigma"][k])) for k in ("2", "-2")) * (n - 0.5) / 0.1815
        print(f"{n:>3} {res:>10.2e} {rep['est_error']:>10.2e} {ratio:>11.3g} {code:>5}")
        if code != 0 or not (res <= ADMISSIBILITY_GATE and ratio <= 1.0):
            bad.append(f"real pole n = {n}: exit {code}, residual {res:.2e}, "
                       f"|sigma_+-2|/rho {ratio:.3g}")

solved, failures = solve_lattice(20, 20)
cells = sorted(nm for nm in solved if nm[1] >= nm[0])
worst_res = worst_est = worst_ratio = 0.0
for nm in cells:
    sol = solved[nm]
    s = stokes_multipliers(sol.potential)
    res = s.max_normalized_residual
    worst_res, worst_est = max(worst_res, res), max(worst_est, s.est_error)
    worst_ratio = max(worst_ratio, max(abs(s.sigma[2]), abs(s.sigma[-2])) / sol.rho_max)
    if not res <= ADMISSIBILITY_GATE:
        bad.append(f"cell {nm}: residual {res:.2e}")
print(f"\n{len(cells)} cells (n, m), m >= n, of solve_lattice(20, 20):")
print(f"  largest normalized residual {worst_res:.2e}")
print(f"  largest est_error           {worst_est:.2e}")
print(f"  largest |sigma_+-2|/rho_max {worst_ratio:.3f}")
bad += [f"cell {nm} failed: {msg}" for nm, msg in failures.items()]

for line in bad:
    print(line, file=sys.stderr)
if bad:
    sys.exit(1)
