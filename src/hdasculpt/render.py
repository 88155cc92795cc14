"""Best-effort DOT and TikZ renderings of low-dimensional automata.

States become graph nodes and transitions labeled edges.  Squares show up
as gray helper nodes linked by dotted lines in DOT, and as shaded corner
polygons in TikZ.  Layout is a simple longest-path layering, good enough
for the corpus-sized examples these exports are meant for.
"""

from __future__ import annotations

from .precubical import Hda

# TeX's special characters, as an edge label writes them
_TEX = str.maketrans({c: "\\" + c for c in "#$%&_{}"} | {
    "\\": r"\textbackslash{}", "^": r"\textasciicircum{}", "~": r"\textasciitilde{}"})


def _quoted(name: str) -> str:
    """A DOT quoted ID, its backslashes and double quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _layers(h: Hda) -> dict[str, int]:
    """Longest sequential distance from the initial state, per state."""
    depth = {v: 0 for v in h.grade(0)}
    arcs = []
    for e in h.grade(1):
        arcs.append((h.s(e, 1), h.t(e, 1)))
    for _ in range(len(h.grade(0))):
        changed = False
        for v, w in arcs:
            if v in depth and w in depth and depth[w] < depth[v] + 1:
                depth[w] = depth[v] + 1
                changed = True
        if not changed:
            break
    return depth


def to_dot(h: Hda) -> str:
    name = {c: _quoted(c) for c in h.all_cells()}
    lines = ["digraph hda {", "  rankdir=LR;"]
    for v in h.grade(0):
        shape = "doublecircle" if v == h.initial else "circle"
        lines.append(f"  {name[v]} [shape={shape}];")
    for e in h.grade(1):
        lines.append(f"  {name[h.s(e, 1)]} -> {name[h.t(e, 1)]} [label={name[e]}];")
    for q in h.grade(2):
        lines.append(f"  {name[q]} [shape=box, style=filled, fillcolor=gray85];")
        for corner in (h.s(h.s(q, 1), 1), h.t(h.t(q, 1), 1)):
            lines.append(f"  {name[q]} -> {name[corner]} [style=dotted, arrowhead=none];")
    lines.append("}")
    return "\n".join(lines)


def to_tikz(h: Hda) -> str:
    if h.dimension > 2:
        raise ValueError("tikz export supports dimension at most 2")
    depth = _layers(h)
    by_layer: dict[int, list[str]] = {}
    for v in h.grade(0):
        by_layer.setdefault(depth[v], []).append(v)
    coord: dict[str, tuple[float, float]] = {}
    for d, vs in sorted(by_layer.items()):
        for i, v in enumerate(vs):
            coord[v] = (2.0 * d, 1.5 * i)
    # TikZ reads "(0,1)" as a point, so nodes are named by declaration order
    name = {v: f"v{i}" for i, v in enumerate(h.grade(0))}
    lines = ["\\begin{tikzpicture}[>=stealth]"]
    for q in h.grade(2):
        cs = [h.s(h.s(q, 1), 1), h.t(h.s(q, 1), 1),
              h.t(h.t(q, 1), 1), h.t(h.s(q, 2), 1)]
        pts = " -- ".join(f"({coord[c][0]},{coord[c][1]})" for c in cs)
        lines.append(f"  \\fill[gray!20] {pts} -- cycle;")
    for v in h.grade(0):
        style = "circle,draw,fill=black" if v == h.initial else "circle,draw"
        x, y = coord[v]
        lines.append(f"  \\node[{style},inner sep=1.5pt] ({name[v]}) at ({x},{y}) {{}};")
    for e in h.grade(1):
        lines.append(f"  \\draw[->] ({name[h.s(e, 1)]}) -- node[above,font=\\tiny]"
                     f" {{{e.translate(_TEX)}}} ({name[h.t(e, 1)]});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines)
