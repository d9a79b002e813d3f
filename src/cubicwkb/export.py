"""Flat-file exports: SVG drawings of Stokes complexes and JSON graph dumps."""

from __future__ import annotations

import cmath
import json
import math

from .stokes import _R_FACTOR, PHI, StokesComplexGraph


def _disk_map(z: complex) -> complex:
    """Compactification onto the unit disk: r e^{i phi} -> (2/pi) atan(r) e^{i phi}."""
    r = abs(z)
    return (2.0 / math.pi) * math.atan(r) * z / r if r else 0j


def graph_to_json(g: StokesComplexGraph) -> str:
    """JSON dump {vertices, edges, class_code, shift} of a classified complex.
    Of the two lines of a connection, an internal edge is the one from the
    lower vertex, which comes first in g.lines."""
    vertices = [
        {"z": [z.real, z.imag], "multiplicity": m}
        for z, m in zip(g.tps.roots, g.tps.multiplicities)
    ]
    edges = []
    for ln in g.lines:
        kind, t = ln.terminal
        if kind == "tp" and ln.origin > t:
            continue
        poly = [[z.real, z.imag] for z in ln.points]
        if kind == "tp":
            edges.append({"type": "internal", "from": ln.origin, "to": t, "polyline": poly})
        else:
            edges.append({"type": "external", "from": ln.origin, "ray": t, "polyline": poly})
    labels = {
        name: [z.real, z.imag] for name, z in (g.tp_labels or {}).items()
    }
    # built fresh, without cycles: the encoder's cycle check is skipped
    return json.dumps(
        {
            "vertices": vertices,
            "edges": edges,
            "class_code": g.class_code,
            "shift": g.decoration_shift,
            "tp_labels": labels,
        },
        check_circular=False,
    )


def graph_to_svg(g: StokesComplexGraph, compactified: bool = False) -> str:
    """SVG drawing of the traced complex, 640 px square: polylines, turning
    points, ray labels.

    With compactified=True the plane is shrunk onto the unit disk so the
    asymptotic ray structure is visible in full.
    """
    size = 640
    if compactified:
        radius = 1.05
    else:
        radius = 1.45 * max(max(abs(z) for z in g.tps.roots), 1e-9)
        radius = max(radius, 2.0)
        # the crop keeps traced points only: the chord that ends an external
        # line reaches out to the end radius
        assert 1.02 * radius < _R_FACTOR * (1.0 + g.tps.scale)

    def xy(z):
        """Picture coordinates of a point."""
        w = _disk_map(z) if compactified else z
        x = (w.real / radius * 0.5 + 0.5) * size
        y = (-w.imag / radius * 0.5 + 0.5) * size
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    if compactified:
        cx = cy = size / 2
        r_disk = 0.5 * size / radius
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{r_disk:.1f}" fill="none" '
            f'stroke="#bbbbbb" stroke-dasharray="4 4"/>'
        )
    for ln in g.lines:
        kind, _ = ln.terminal
        color = "#c0392b" if kind == "tp" else "#2c3e50"
        pts = ln.points
        if not compactified:
            pts = [z for z in pts if abs(z) <= radius * 1.02]
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(xy, pts))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.4"/>'
        )
    for z, m in zip(g.tps.roots, g.tps.multiplicities):
        x, y = xy(z)
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{3 + 2 * m}" fill="#2980b9"/>'
        )
    for k in range(-2, 3):
        w = 0.94 * radius * cmath.exp(1j * PHI[k + 2])
        lx = (w.real / radius * 0.5 + 0.5) * size
        ly = (-w.imag / radius * 0.5 + 0.5) * size
        parts.append(
            f'<text x="{lx:.1f}" y="{ly:.1f}" font-size="14" fill="#555555" '
            f'text-anchor="middle">{k}</text>'
        )
    parts.append(
        f'<text x="12" y="{size - 12}" font-size="16" fill="#111111">'
        f"class {g.class_code}, shift {g.decoration_shift}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)
