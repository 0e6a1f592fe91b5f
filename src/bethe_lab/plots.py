"""Static SVG scatter plots of Bethe roots on the complex plane.

One panel per magnon sector: real axis horizontal, dotted gridlines at
spacing 0.33, solutions labelled in descending order of their leading
root, and the singular roots at +/- i/2 drawn as open squares instead of
dots.
"""

from __future__ import annotations

import os
import warnings

from .baesolver import RootSet, _pair_side, _root_key

GRID_SPACING = 0.33
_SIZE = 420
_MARGIN = 40


def _svg_header(w: int, h: int) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
    )


def render_sector_svg(rootsets: list[RootSet], title: str) -> str:
    """SVG text for one sector's root scatter."""
    roots = [z for rs in rootsets for z in rs.roots]
    span = max([1.0] + [max(abs(z.real), abs(z.imag)) for z in roots]) + GRID_SPACING
    scale = (_SIZE / 2 - _MARGIN) / span
    cx = cy = _SIZE / 2

    def to_px(z: complex) -> tuple[float, float]:
        return cx + z.real * scale, cy - z.imag * scale

    parts = [_svg_header(_SIZE, _SIZE)]
    parts.append(f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>\n')
    parts.append(
        f'<text x="{_MARGIN}" y="20" font-size="14" font-family="sans-serif">{title}</text>\n'
    )
    # dotted gridlines every 0.33 in both directions
    k = 1
    while k * GRID_SPACING <= span:
        for sgn in (1, -1):
            x, _ = to_px(complex(sgn * k * GRID_SPACING, 0))
            parts.append(
                f'<line x1="{x:.2f}" y1="{_MARGIN}" x2="{x:.2f}" y2="{_SIZE - _MARGIN}" '
                'stroke="#999" stroke-width="0.6" stroke-dasharray="2,4"/>\n'
            )
            _, y = to_px(complex(0, sgn * k * GRID_SPACING))
            parts.append(
                f'<line x1="{_MARGIN}" y1="{y:.2f}" x2="{_SIZE - _MARGIN}" y2="{y:.2f}" '
                'stroke="#999" stroke-width="0.6" stroke-dasharray="2,4"/>\n'
            )
        k += 1
    # axes
    parts.append(
        f'<line x1="{_MARGIN}" y1="{cy}" x2="{_SIZE - _MARGIN}" y2="{cy}" '
        'stroke="black" stroke-width="1"/>\n'
    )
    parts.append(
        f'<line x1="{cx}" y1="{_MARGIN}" x2="{cx}" y2="{_SIZE - _MARGIN}" '
        'stroke="black" stroke-width="1"/>\n'
    )
    # solutions labelled in the solver's order: descending leading root
    ordered = sorted(rootsets, key=lambda rs: tuple(map(_root_key, rs.roots)))
    for label, rs in enumerate(ordered, start=1):
        for z in rs.roots:
            x, y = to_px(z)
            if _pair_side(z):
                parts.append(
                    f'<rect x="{x - 4:.2f}" y="{y - 4:.2f}" width="8" height="8" '
                    'fill="none" stroke="#c00" stroke-width="1.5"/>\n'
                )
            else:
                parts.append(
                    f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#036"/>\n'
                )
        lx, ly = to_px(rs.roots[0])
        parts.append(
            f'<text x="{lx + 6:.2f}" y="{ly - 6:.2f}" font-size="11" '
            f'font-family="sans-serif">{label}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def plot_roots(rootsets: list[RootSet], out: str) -> list[str]:
    """Write one SVG per (n, ell) sector found in ``rootsets``.

    ``out`` is a directory (created if needed), or a single .svg path
    when only one sector is present; a .svg path with several sectors
    raises ValueError.  Empty sectors produce a warning and no file.
    """
    if not rootsets:
        warnings.warn("no root sets to plot; no file written")
        return []
    groups: dict[tuple[int, int], list[RootSet]] = {}
    for rs in rootsets:
        if rs.ell == 0:
            continue
        groups.setdefault((rs.n, rs.ell), []).append(rs)
    if not groups:
        warnings.warn("only empty sectors supplied; no file written")
        return []
    single_file = out.endswith(".svg")
    if single_file and len(groups) > 1:
        raise ValueError(
            f"cannot write {len(groups)} sectors to the single file {out}; give a directory"
        )
    written = []
    for (n, ell), group in sorted(groups.items()):
        svg = render_sector_svg(group, f"n={n} sector ell={ell}")
        if single_file:
            path = out
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        else:
            os.makedirs(out, exist_ok=True)
            path = os.path.join(out, f"n{n}_ell{ell}.svg")
        with open(path, "w") as fh:
            fh.write(svg)
        written.append(path)
    return written
