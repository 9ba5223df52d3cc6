"""Coarsening: reviving refinement families behind the moving feature.

A *family* (a killed parent plus its live children) is eligible when

1. every child is alive (none was refined further),
2. every child is in the requested coarsening set, and
3. the parent is not a green (1:2) family — those are dissolved by
   :func:`repro.mesh.refine.dissolve_green_families` instead.

Eligible families are then filtered as a **batch**: a family survives only
if each of its midpoint vertices is used exclusively by children of other
surviving families (so that when the whole batch coarsens together, no
hanging node remains).  The filter iterates to a fixpoint because removing
one family can expose midpoints of its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.mesh.mesh2d import TriMesh

__all__ = ["CoarseningReport", "coarsen"]


@dataclass
class CoarseningReport:
    families_merged: int = 0
    triangles_removed: int = 0
    triangles_revived: int = 0
    #: parent -> children that were merged away (for ownership handoff)
    families: Dict[int, Tuple[int, ...]] = field(default_factory=dict)


def coarsen(mesh: TriMesh, candidates: Set[int]) -> CoarseningReport:
    """Coarsen every family whose children are all in ``candidates``.

    ``candidates`` holds *child* triangle ids the error indicator deems
    over-resolved.  One call removes one refinement level; call again for
    deeper coarsening.  The mesh stays conforming.
    """
    report = CoarseningReport()

    # group alive candidate children by parent; keep only complete families
    by_parent: Dict[int, Set[int]] = {}
    for tid in candidates:
        if 0 <= tid < mesh.num_all_triangles and mesh.alive[tid]:
            parent = mesh.parent[tid]
            if parent >= 0 and parent not in mesh.green:
                by_parent.setdefault(parent, set()).add(tid)

    eligible: Dict[int, Tuple[int, ...]] = {}
    for parent, kids in by_parent.items():
        family = mesh.children.get(parent)
        if family is None or set(family) != kids:
            continue
        if any(not mesh.alive[c] for c in family):
            continue
        eligible[parent] = family

    if not eligible:
        return report

    # vertex usage by all alive triangles vs by eligible-family children
    usage: Dict[int, int] = {}
    for tid in mesh.alive_tris():
        for v in mesh.tris[tid]:
            usage[v] = usage.get(v, 0) + 1
    eligible_usage: Dict[int, int] = {}
    midpoints: Dict[int, List[int]] = {}
    for parent, family in eligible.items():
        parent_verts = set(mesh.tris[parent])
        mids: Set[int] = set()
        for child in family:
            for v in mesh.tris[child]:
                eligible_usage[v] = eligible_usage.get(v, 0) + 1
                if v not in parent_verts:
                    mids.add(v)
        midpoints[parent] = sorted(mids)

    # fixpoint filter: a family is blocked if any midpoint has usage from
    # outside the current eligible batch
    changed = True
    while changed:
        changed = False
        for parent in sorted(eligible):
            if any(
                usage.get(m, 0) > eligible_usage.get(m, 0) for m in midpoints[parent]
            ):
                for child in eligible[parent]:
                    for v in mesh.tris[child]:
                        eligible_usage[v] -= 1
                del eligible[parent]
                changed = True

    for parent in sorted(eligible):
        family = eligible[parent]
        for child in family:
            mesh.kill(child)
        mesh.revive(parent)
        del mesh.children[parent]
        report.families[parent] = family
        report.families_merged += 1
        report.triangles_removed += len(family)
        report.triangles_revived += 1
    return report
