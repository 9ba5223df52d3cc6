"""Edge-marking refinement (Biswas & Strawn, "Tetrahedral and hexahedral
mesh adaptation for CFD problems" — here the 2-D triangular analogue).

The flow is: an error indicator marks edges → :func:`close_marks` promotes
any triangle with 2+ marked edges to fully marked (so only the 1:4 and 1:2
patterns occur and the mesh stays conforming) → :func:`refine` subdivides:

* 3 marked edges → **1:4 isotropic**: four similar children (quality
  preserved exactly),
* 1 marked edge  → **1:2 bisection**: two children across the marked edge
  ("green" closure triangles).

Midpoints are memoised per edge by the mesh, so neighbouring triangles
agree on shared midpoints and no hanging nodes appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.mesh.mesh2d import EdgeKey, TriMesh, edge_key

__all__ = [
    "RefinementReport",
    "close_marks",
    "refine",
    "dissolve_green_families",
    "hanging_edge_marks",
]


@dataclass
class RefinementReport:
    """What one refinement pass did (consumed by PLUM and the harness)."""

    refined_1to4: int = 0
    refined_1to3: int = 0
    refined_1to2: int = 0
    new_triangles: List[int] = field(default_factory=list)
    new_vertices: int = 0
    #: closure/refine iterations a cascade took (1 = single pass)
    cascade_rounds: int = 0
    #: parent -> children ids
    families: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    @property
    def refined(self) -> int:
        return self.refined_1to4 + self.refined_1to3 + self.refined_1to2


def close_marks(mesh: TriMesh, marked: Set[EdgeKey], mode: str = "red-green") -> Set[EdgeKey]:
    """Closure of an edge-mark set.

    ``mode="red-green"`` (default) promotes any triangle with 2 marked
    edges to fully marked, so only the 1:4 and 1:2 patterns occur — the
    conservative scheme with the best element quality.  ``mode="mixed"``
    leaves 2-marked triangles alone (they subdivide 1:3), producing fewer
    elements per phase at some quality cost — the Biswas-Strawn pattern
    set.  Terminates because marks only grow and are bounded by the edge
    count.
    """
    if mode not in ("red-green", "mixed"):
        raise ValueError(f"unknown closure mode {mode!r}")
    marked = set(marked)
    if mode == "mixed":
        return marked
    changed = True
    while changed:
        changed = False
        for tid in mesh.alive_tris():
            edges = mesh.tri_edges(tid)
            count = sum(1 for e in edges if e in marked)
            if count == 2:
                for e in edges:
                    if e not in marked:
                        marked.add(e)
                        changed = True
    return marked


def refine(mesh: TriMesh, marked: Set[EdgeKey], mode: str = "red-green") -> RefinementReport:
    """Subdivide every alive triangle touched by closed marks ``marked``.

    Under ``mode="red-green"`` the marks must be closed (each triangle has
    0, 1 or 3 marked edges — :func:`close_marks` guarantees that) and a
    2-mark triangle raises.  Under ``mode="mixed"`` a 2-mark triangle
    subdivides 1:3 (an anisotropic "green" pattern, dissolved next phase
    like 1:2).
    """
    report = RefinementReport()
    nv_before = mesh.num_vertices
    for tid in list(mesh.alive_tris()):
        a, b, c = mesh.tri_verts(tid)
        edges = [edge_key(a, b), edge_key(b, c), edge_key(c, a)]
        flags = [e in marked for e in edges]
        count = sum(flags)
        if count == 0:
            continue
        if count == 2:
            if mode != "mixed":
                raise ValueError(
                    f"triangle {tid} has exactly 2 marked edges; run close_marks first"
                )
            # 1:3 split: rotate so the UNmarked edge becomes (rc, ra); the
            # marked edges (ra,rb) and (rb,rc) then share vertex rb
            which = flags.index(False)
            order = [(b, c, a), (c, a, b), (a, b, c)][which]
            ra, rb, rc = order
            m1 = mesh.midpoint(edge_key(ra, rb))
            m2 = mesh.midpoint(edge_key(rb, rc))
            children = (
                mesh.add_triangle(ra, m1, m2, parent=tid),
                mesh.add_triangle(m1, rb, m2, parent=tid),
                mesh.add_triangle(ra, m2, rc, parent=tid),
            )
            mesh.green.add(tid)  # anisotropic: dissolved next phase
            report.refined_1to3 += 1
            mesh.kill(tid)
            mesh.children[tid] = children
            report.families[tid] = children
            report.new_triangles.extend(children)
            continue
        if count == 3:
            mab = mesh.midpoint(edges[0])
            mbc = mesh.midpoint(edges[1])
            mca = mesh.midpoint(edges[2])
            children = (
                mesh.add_triangle(a, mab, mca, parent=tid),
                mesh.add_triangle(mab, b, mbc, parent=tid),
                mesh.add_triangle(mca, mbc, c, parent=tid),
                mesh.add_triangle(mab, mbc, mca, parent=tid),
            )
            report.refined_1to4 += 1
        else:  # exactly one marked edge: bisect toward the opposite vertex
            which = flags.index(True)
            # rotate (a, b, c) so the marked edge is (a, b)
            order = [(a, b, c), (b, c, a), (c, a, b)][which]
            ra, rb, rc = order
            m = mesh.midpoint(edges[which])
            children = (
                mesh.add_triangle(ra, m, rc, parent=tid),
                mesh.add_triangle(m, rb, rc, parent=tid),
            )
            mesh.green.add(tid)
            report.refined_1to2 += 1
        mesh.kill(tid)
        mesh.children[tid] = children
        report.families[tid] = children
        report.new_triangles.extend(children)
    report.new_vertices = mesh.num_vertices - nv_before
    return report


def dissolve_green_families(mesh: TriMesh) -> Dict[int, Tuple[int, ...]]:
    """Undo every 1:2 ("green") split, reviving the parents.

    Green triangles exist only to close one adaptation phase; the red-green
    discipline dissolves them before the next phase so they are never
    themselves refined (repeated bisection would degrade element quality
    without bound).  The mesh is *temporarily non-conforming* afterwards —
    the hanging nodes this exposes are returned to the marking step by
    :func:`hanging_edge_marks` and re-closed by the subsequent refinement.

    Returns the dissolved families (``parent -> children``) so callers can
    hand vertex data from the children's owners to the revived parent's
    owner (the dissolution handoff).
    """
    dissolved: Dict[int, Tuple[int, ...]] = {}
    for parent in sorted(mesh.green):
        children = mesh.children.get(parent)
        if children is None:
            mesh.green.discard(parent)
            continue
        if any(not mesh.alive[c] for c in children):
            raise AssertionError(
                f"green child of parent {parent} was refined; red-green "
                "discipline violated (dissolve greens before refining)"
            )
        for child in children:
            mesh.kill(child)
        mesh.revive(parent)
        del mesh.children[parent]
        dissolved[parent] = children
    mesh.green.clear()
    return dissolved


def hanging_edge_marks(mesh: TriMesh) -> Set[EdgeKey]:
    """Alive edges whose memoised midpoint is in use: they *must* refine.

    After :func:`dissolve_green_families` (or any partial coarsening) an
    alive triangle may border a refined neighbour across an edge whose
    midpoint vertex is still in use — a hanging node.  Marking those edges
    (and closing) restores conformity on the next :func:`refine`.
    """
    used: Set[int] = set()
    for tid in mesh.alive_tris():
        used.update(mesh.tri_verts(tid))
    marks: Set[EdgeKey] = set()
    for e in mesh.edges():
        mid = mesh.edge_midpoint.get(e)
        if mid is not None and mid in used:
            marks.add(e)
    return marks


def refine_cascade(mesh: TriMesh, marked: Set[EdgeKey], mode: str = "red-green") -> RefinementReport:
    """Refine until no alive triangle holds a whole marked edge.

    A single closure+refine pass is not enough on a multi-level mesh: when a
    coarse triangle refines 1:4, its children inherit *half-edges* that may
    themselves be marked (a finer neighbour asked for them), which triangle-
    granularity closure cannot see.  This driver loops — and if a marked
    edge lands on a green child created earlier in the cascade, the green
    family is dissolved and its parent fully marked (the red-green "a green
    may never be refined" rule).

    Terminates: each iteration either refines at least one triangle whose
    marked edges come from the finite ``marked`` set (each such triangle is
    killed and its children hold strictly shorter sub-edges), or converts a
    green family to red (greens are finite and conversion only happens for
    marked families).
    """
    marked = set(marked)
    total = RefinementReport()
    while True:
        total.cascade_rounds += 1
        marked = close_marks(mesh, marked, mode=mode)
        # red-green rule: a marked green child forces its parent to go 1:4
        converted = False
        for parent in sorted(mesh.green):
            children = mesh.children.get(parent, ())
            if not any(
                e in marked for c in children if mesh.alive[c] for e in mesh.tri_edges(c)
            ):
                continue
            for child in children:
                mesh.kill(child)
            mesh.revive(parent)
            del mesh.children[parent]
            mesh.green.discard(parent)
            for e in _tri_edge_list(mesh, parent):
                marked.add(e)
            converted = True
        if converted:
            continue
        report = refine(mesh, marked, mode=mode)
        total.refined_1to4 += report.refined_1to4
        total.refined_1to3 += report.refined_1to3
        total.refined_1to2 += report.refined_1to2
        total.new_triangles.extend(report.new_triangles)
        total.new_vertices += report.new_vertices
        total.families.update(report.families)
        if report.refined == 0:
            return total


def _tri_edge_list(mesh: TriMesh, tid: int) -> Tuple[EdgeKey, ...]:
    a, b, c = mesh.tri_verts(tid)
    return (edge_key(a, b), edge_key(b, c), edge_key(c, a))
