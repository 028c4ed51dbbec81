"""Deterministic SVG rendering of lattice figures and fans.

Scale is 40 px per lattice unit with the origin at the bottom-left corner;
no timestamps, randomness or external assets.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import multiplicity, vadd
from .nash import a3_semigroup, dn_set, pn_family

UNIT = 40
MARGIN = 1  # lattice units around the drawn points


def _svg_document(width_units, height_units, body) -> str:
    w, h = width_units * UNIT, height_units * UNIT
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    lines.extend(body)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _to_px(p, height_units):
    x = (p[0] + MARGIN) * UNIT
    y = (height_units - MARGIN - p[1]) * UNIT
    return x, y


def _fmt(f: Fraction) -> str:
    """f exactly if integral, else to two decimals, ties to even; f >= 0."""
    if f.denominator == 1:
        return str(f.numerator)
    q = round(f * 100)
    return f"{q // 100}.{q % 100:02d}"


def pn_dn_figure(n: int) -> str:
    """P_n and D_n with the dual-cone rays and the dividing polygonal line."""
    fam = pn_family(n)
    dn = sorted(dn_set(n))
    pts = sorted(fam.points())
    max_x = max(p[0] for p in pts + dn) + 2
    max_y = max(p[1] for p in pts + dn) + 2
    width, height = max_x + 2 * MARGIN, max_y + 2 * MARGIN

    body = []
    # boundary rays of the dual cone
    dual = a3_semigroup().dual_cone
    ox, oy = _to_px((0, 0), height)
    for ray in (dual.ray1, dual.ray2):
        k = max(max_x, max_y)
        ex, ey = _to_px((ray[0] * k, ray[1] * k), height)
        body.append(
            f'<line class="dual-ray" x1="{ox}" y1="{oy}" x2="{ex}" y2="{ey}" '
            'stroke="black" stroke-width="1"/>'
        )
    # polygonal dividing line through the family, continued along the dual cone's second ray
    chain = [fam.p] + list(reversed(fam.q)) + list(fam.r) + [fam.s]
    chain.append(vadd(fam.s, dual.ray2))
    coords = " ".join(
        "{},{}".format(*_to_px(p, height)) for p in chain
    )
    body.append(
        f'<polyline class="dividing-line" points="{coords}" '
        'fill="none" stroke="blue" stroke-width="2"/>'
    )
    for p in dn:
        x, y = _to_px(p, height)
        body.append(
            f'<circle class="d-marker" cx="{x}" cy="{y}" r="5" '
            'fill="white" stroke="black" stroke-width="1.5"/>'
        )
    for p in pts:
        x, y = _to_px(p, height)
        body.append(
            f'<circle class="p-marker" cx="{x}" cy="{y}" r="5" fill="black"/>'
        )
    return _svg_document(width, height, body)


def fan_figure(cones) -> str:
    """The fan inside its support cone, rays drawn to a fixed radius.

    Coordinates are exact Fractions until ``_fmt`` prints them, and every
    one is positive: the ray ends lie within radius·UNIT of the centre.
    """
    rays = [cones[0].cone.ray1] + [gc.cone.ray2 for gc in cones]
    radius = 6  # lattice units
    width = height = 2 * (radius + 2 * MARGIN)
    cx, cy = (width // 2, height // 2)
    ox, oy = (cx * UNIT, cy * UNIT)

    def ray_end(r):
        scale = Fraction(radius, max(abs(r[0]), abs(r[1])))
        return ox + scale * r[0] * UNIT, oy - scale * r[1] * UNIT

    body = []
    for r in rays:
        ex, ey = ray_end(r)
        body.append(
            f'<line class="fan-ray" x1="{ox}" y1="{oy}" x2="{_fmt(ex)}" y2="{_fmt(ey)}" '
            'stroke="black" stroke-width="1.5"/>'
        )
    for gc in cones:
        mid = vadd(gc.cone.ray1, gc.cone.ray2)
        mx, my = ray_end(mid)
        body.append(
            f'<text class="mult-label" x="{_fmt((ox + mx) / 2)}" y="{_fmt((oy + my) / 2)}" '
            f'font-family="monospace" font-size="14">{multiplicity(gc.cone)}</text>'
        )
    return _svg_document(width, height, body)
