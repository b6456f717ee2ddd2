"""Graphviz DOT export for the analysis structures.

Renders the four graphs this project revolves around — the CFG, the
interference graph, the Register Preference Graph, and the Coloring
Precedence Graph — as DOT text, for inspection with any Graphviz
viewer::

    from repro.viz import rpg_to_dot
    print(rpg_to_dot(rpg))        # pipe into `dot -Tsvg`

Pure text generation; no Graphviz dependency.
"""

from __future__ import annotations

from repro.analysis.interference import InterferenceGraph
from repro.cfg.analysis import CFG
from repro.core.cpg import BOTTOM, TOP, ColoringPrecedenceGraph
from repro.core.rpg import PrefKind, RegGroup, RegisterPreferenceGraph
from repro.ir.values import PReg, VReg

__all__ = ["cfg_to_dot", "interference_to_dot", "rpg_to_dot", "cpg_to_dot"]

_PREF_STYLE = {
    PrefKind.COALESCE: "solid",
    PrefKind.SEQ_NEXT: "dashed",
    PrefKind.SEQ_PREV: "dashed",
    PrefKind.GROUP: "dotted",
}


def _quote(text: str) -> str:
    return '"' + str(text).replace('"', r"\"") + '"'


def cfg_to_dot(cfg: CFG, name: str = "cfg") -> str:
    """Block-level control flow; the entry is drawn doubled."""
    lines = [f"digraph {name} {{", "  node [shape=box, fontname=monospace];"]
    lines.append(f"  {_quote(cfg.entry)} [peripheries=2];")
    for src, targets in sorted(cfg.succs.items()):
        for dst in targets:
            lines.append(f"  {_quote(src)} -> {_quote(dst)};")
    lines.append("}")
    return "\n".join(lines)


def interference_to_dot(ig: InterferenceGraph,
                        name: str = "interference") -> str:
    """Undirected interference edges; move relations drawn dashed."""
    lines = [f"graph {name} {{", "  node [fontname=monospace];"]
    for node in sorted(ig.nodes(), key=str):
        shape = "box" if isinstance(node, PReg) else "ellipse"
        lines.append(f"  {_quote(node)} [shape={shape}];")
    seen: set[frozenset] = set()
    for node in ig.nodes():
        for other in ig.neighbors(node):
            key = frozenset((str(node), str(other)))
            if key in seen:
                continue
            seen.add(key)
            lines.append(f"  {_quote(node)} -- {_quote(other)};")
    for mv in ig.moves:
        key = frozenset((str(mv.dst), str(mv.src), "move"))
        if key in seen:
            continue
        seen.add(key)
        lines.append(
            f"  {_quote(mv.dst)} -- {_quote(mv.src)} "
            f"[style=dashed, constraint=false];"
        )
    lines.append("}")
    return "\n".join(lines)


def rpg_to_dot(rpg: RegisterPreferenceGraph, name: str = "rpg") -> str:
    """Preference edges labeled with kind and strength (Figure 7(c))."""
    lines = [f"digraph {name} {{", "  node [fontname=monospace];"]
    targets: set = set()
    for src in sorted(rpg.nodes(), key=str):
        for edge in rpg.edges_from(src):
            targets.add(edge.target)
            label = f"{edge.kind.value}\\n{edge.strength}"
            style = _PREF_STYLE[edge.kind]
            lines.append(
                f"  {_quote(src)} -> {_quote(edge.target)} "
                f"[label={_quote(label)}, style={style}];"
            )
    for target in targets:
        if isinstance(target, RegGroup):
            lines.append(f"  {_quote(target)} [shape=octagon];")
        elif isinstance(target, PReg):
            lines.append(f"  {_quote(target)} [shape=box];")
    lines.append("}")
    return "\n".join(lines)


def cpg_to_dot(cpg: ColoringPrecedenceGraph, name: str = "cpg") -> str:
    """The precedence partial order (Figure 7(e)/(f))."""
    lines = [f"digraph {name} {{", "  node [fontname=monospace];",
             "  rankdir=TB;"]
    lines.append(f"  {_quote(TOP)} [shape=plaintext];")
    lines.append(f"  {_quote(BOTTOM)} [shape=plaintext];")
    succs = cpg.succs
    for src in sorted(succs, key=str):
        for dst in sorted(succs[src], key=str):
            lines.append(f"  {_quote(src)} -> {_quote(dst)};")
    lines.append("}")
    return "\n".join(lines)
