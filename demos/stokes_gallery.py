"""Trace and render the Stokes complexes of all seven topological classes.

Each class of cubic potential has a distinct complex: this script picks a
representative of every class, classifies it, and writes an SVG per class
into demos/out/.
"""

import pathlib
import sys

import numpy as np

from cubicwkb import CubicPotential, classify, graph_to_svg
from cubicwkb.bsb import real_orbit_potential

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# representatives: the quantizing class lives on a codimension-two locus,
# so it needs the solved orbit point rather than round numbers
representatives = {
    "000": CubicPotential(0.0, 0.0),
    "110": CubicPotential(6.0, 2.0 / 7.0),     # 4 (x+1)^2 (x-2)
    "100": CubicPotential(6.0, -2.0 / 7.0),    # 4 (x-1)^2 (x+2)
    "311": CubicPotential(1.654, -1.649),
    "310": CubicPotential(2.0, 0.0),
    "300": CubicPotential(-2.0, 1.0),
    "320": real_orbit_potential(),
}

wrong = []
for want, p in representatives.items():
    g = classify(p)
    name = OUT / f"class_{g.class_code}.svg"
    name.write_text(graph_to_svg(g, compactified=False))
    disk = OUT / f"class_{g.class_code}_disk.svg"
    disk.write_text(graph_to_svg(g, compactified=True))
    tag = ""
    if g.class_code != want:
        tag = f"  (expected {want}!)"
        wrong.append(want)
    print(
        f"a={p.a:+.4f}  b={p.b:+.4f}  ->  class {g.class_code}, "
        f"shift {g.decoration_shift}, {len(g.internal_edges)} internal lines"
        f"  [{name.name}]{tag}"
    )

print(f"\nSVGs written to {OUT}/")
if wrong:
    sys.exit(f"wrong class for the representatives of {', '.join(wrong)}")
