"""Simplicial complex combinatorics and the brute-force oracles.

Complexes are stored by their facet list (an inclusion antichain over
the universe's vertices).  The empty face is always a face; the complex
with facet list [set()] is the (-1)-dimensional complex.  Vertices not
covered by any facet are simply absent from the complex.

The oracles here are deliberately independent of the closed-form
classification in mixedprod.products: Reisner's criterion runs on exact
link homology, sequential Cohen-Macaulayness goes through pure skeleta,
and shellability is checked or searched directly from the definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

from .homology import HOMOLOGY_VERTEX_CAP, _faces_by_dim, reduced_homology_ranks
from .ideals import (
    DomainError,
    InvalidInput,
    VariableUniverse,
    mask_of,
    sort_key,
)

SHELLING_FACET_CAP = 10

Face = FrozenSet[int]


@dataclass(frozen=True)
class SimplicialComplex:
    universe: VariableUniverse
    facets: Tuple[Face, ...]

    def __repr__(self):
        parts = ["{" + ",".join(self.universe.var_name(i) for i in sorted(f)) + "}"
                 for f in self.facets]
        return f"SimplicialComplex({self.universe.n}+{self.universe.m}; {' '.join(parts)})"


@dataclass(frozen=True)
class ShellingResult:
    """Outcome of a shelling search: shellable / not_shellable / inconclusive."""

    status: str
    order: Optional[Tuple[Face, ...]] = None


def make_complex(universe: VariableUniverse, facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Canonical complex from a raw facet list: validated, maximal, sorted."""
    raw = []
    for f in facets:
        s = frozenset(f)
        for i in s:
            universe.check_index(i)
        raw.append(s)
    if not raw:
        raise InvalidInput("a complex needs at least one facet (use [set()] for the (-1)-complex)")
    sets = set(raw)
    maximal = [f for f in sets if not any(f < g for g in sets)]
    return SimplicialComplex(universe, tuple(sorted(maximal, key=sort_key)))


def dim(c: SimplicialComplex) -> int:
    return max(len(f) for f in c.facets) - 1


def is_pure(c: SimplicialComplex) -> bool:
    return len({len(f) for f in c.facets}) == 1


def all_faces(c: SimplicialComplex) -> list[Face]:
    """Every face of c (including the empty face), canonically sorted."""
    by_dim = _faces_by_dim(c)
    return [f for d in sorted(by_dim) for f in by_dim[d]]


def faces_of_dim(c: SimplicialComplex, d: int) -> list[Face]:
    if not -1 <= d <= dim(c):
        raise InvalidInput(f"face dimension {d} out of range for dim {dim(c)}")
    return _faces_by_dim(c).get(d, [])


def skeleton(c: SimplicialComplex, l: int) -> SimplicialComplex:
    """The pure complex generated by all faces of dimension exactly l-1."""
    if not 0 <= l <= dim(c) + 1:
        raise InvalidInput(f"skeleton level {l} out of range for dim {dim(c)}")
    return make_complex(c.universe, faces_of_dim(c, l - 1))


def link(c: SimplicialComplex, f: Iterable[int]) -> SimplicialComplex:
    fs = frozenset(f)
    containing = [g - fs for g in c.facets if fs <= g]
    if not containing:
        raise InvalidInput(f"{sorted(fs)} is not a face of the complex")
    return make_complex(c.universe, containing)


def is_strongly_connected(c: SimplicialComplex) -> bool:
    """Connectivity of the ridge graph of a pure complex."""
    if not is_pure(c):
        raise DomainError("strong connectivity is defined for pure complexes only")
    t = len(c.facets)
    if t == 1:
        return True
    size = len(c.facets[0])
    masks = [mask_of(f) for f in c.facets]
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(t):
            if j not in seen and (masks[i] & masks[j]).bit_count() == size - 1:
                seen.add(j)
                stack.append(j)
    return len(seen) == t


def _blocking_position(f: int, placed: Sequence[int]) -> Optional[int]:
    """Position of the first placed facet that blocks appending ``f``, or None.

    Facet i blocks when f minus F_i holds no vertex v with f minus {v}
    equal to f's intersection with some placed facet.
    """
    singles = 0
    for k in placed:
        d = f & ~k
        if d and d & (d - 1) == 0:
            singles |= d
    for i, g in enumerate(placed):
        if not (f & ~g) & singles:
            return i
    return None


def verify_shelling_order(c: SimplicialComplex, order: Sequence[Iterable[int]]):
    """Check the shelling condition for a given facet order.

    Returns (True, None), or (False, (i, j)) with the first failing pair
    (0-based positions, lexicographic in (j, i)).
    """
    ordered = [frozenset(f) for f in order]
    if sorted(ordered, key=sort_key) != list(c.facets):
        raise InvalidInput("order is not a permutation of the facet list")
    masks = [mask_of(f) for f in ordered]
    for j in range(1, len(masks)):
        i = _blocking_position(masks[j], masks[:j])
        if i is not None:
            return False, (i, j)
    return True, None


def find_shelling(c: SimplicialComplex, cap: int = SHELLING_FACET_CAP) -> ShellingResult:
    """Backtracking shelling search with memoized dead prefixes."""
    t = len(c.facets)
    if t > cap:
        return ShellingResult("inconclusive")
    if t == 1:
        return ShellingResult("shellable", c.facets)
    masks = [mask_of(f) for f in c.facets]
    dead: set[frozenset] = set()

    def extend(used: frozenset, placed: list[int], order: list[int]):
        if len(order) == t:
            return list(order)
        if used in dead:
            return None
        for i in range(t):
            if i in used:
                continue
            if _blocking_position(masks[i], placed) is None:
                placed.append(masks[i])
                order.append(i)
                found = extend(used | {i}, placed, order)
                if found is not None:
                    return found
                placed.pop()
                order.pop()
        dead.add(used)
        return None

    found = extend(frozenset(), [], [])
    if found is None:
        return ShellingResult("not_shellable")
    return ShellingResult("shellable", tuple(c.facets[i] for i in found))


def reisner_cm(c: SimplicialComplex, cap_vertices: int = HOMOLOGY_VERTEX_CAP):
    """Reisner's criterion over the rationals.

    CM iff for every face F the reduced homology of link(F) vanishes in
    all degrees below its dimension.  Returns (True, None) or
    (False, (F, i)) with the lexicographically least failing face.
    """
    for f in all_faces(c):
        lk = link(c, f)
        d = dim(lk)
        if d <= 0:
            continue  # nothing below dim 0 but H~_{-1}, which vanishes off the [set()] complex
        ranks = reduced_homology_ranks(lk, cap_vertices)
        for i in range(-1, d):
            if ranks.get(i, 0):
                return False, (f, i)
    return True, None


def duval_scm(c: SimplicialComplex, cap_vertices: int = HOMOLOGY_VERTEX_CAP):
    """Sequential CM via pure skeleta: every skeleton must pass Reisner.

    Returns (True, None) or (False, (l, reisner_witness)).
    """
    for l in range(0, dim(c) + 2):
        ok, witness = reisner_cm(skeleton(c, l), cap_vertices)
        if not ok:
            return False, (l, witness)
    return True, None
