"""Simplicial complex combinatorics and the brute-force oracles.

A complex is stored by its facets as bitmasks (bit i is vertex i): an
inclusion antichain over the universe's vertices, in increasing order.
Faces are bitmasks too; witnesses alone give a face as a sorted vertex
list.  The empty face is always a face; the complex with facet list
[set()] is the (-1)-dimensional complex.  Vertices not covered by any
facet are simply absent from the complex.  ``make_complex`` validates
raw vertex sets; links, skeleta and Duval's facet cuts are built
directly, because the faces of one size, {G - F : G a facet containing
F} and any subset of the facets are antichains already.

The oracles here are deliberately independent of the closed-form
classification in mixedprod.products: Reisner's criterion runs on exact
link homology, sequential Cohen-Macaulayness goes through pure skeleta,
and shellability is checked or searched directly from the definition.

Shelling checks keep the facets placed so far as position bitsets:
has[v] holds the positions whose facet contains v.  A set lies in some
placed facet iff the AND of has[u] over its vertices is nonzero, so
whether a new facet f may follow, and which placed facet blocks it, takes
O(|f|^2) big-int ANDs instead of passes over the placed list.
``find_shelling`` sets and clears the bits as it backtracks.

Reisner's and Duval's checks visit the same faces of c, listed once per
complex (``SimplicialComplex.checked_faces``), one per orbit when it
can.  If the facet set is invariant under S_n x S_m (the x-block and the
y-block each permuted on their own), which ``_is_block_symmetric`` checks
with the type count of ``kernels.whole_types`` that the hitting-set
kernel and the intersection bound share, then the faces with the same
(|F cap X|, |F cap Y|) form one orbit, their links are isomorphic and
have the same homology.  The first face of each class in canonical
order is the lex-least of its orbit, so testing only those faces finds
the same first failing face, hence the same witness.  A facet set that
is not invariant has every face checked.

Duval's criterion runs Reisner's on every pure skeleton, yet no skeleton
gets a face table of its own.  At level l, the link of F in the
l-skeleton agrees in every degree Reisner asks about with lk_{c_l}(F),
where the facet cut c_l is the complex generated by the facets of c of
dimension >= l - 1 (``duval_scm`` proves it).  c_l is c until l - 1
passes the least facet dimension, so there is one c_l per facet size,
and each link of a c_l serves every level that c_l does; the faces c
lists serve every level too.  ``link`` keeps each link on its complex,
face table and rank key included.  A CM complex is pure, so c_l is c
at every level and each link is one that Reisner's check has built and
ranked: Duval's check then builds, keys and ranks nothing new.

No link is enumerated again: ``link`` returns c itself for the empty
face, since lk(empty) = {G : G a face} is c, and records c and F as the
source of any other link, whose table ``homology._faces_by_dim`` then
restricts from c's.  So Reisner's check enumerates c's table at the
empty face, unless c is a cone and needs none there, and the only other
tables enumerated are those of the c_l other than c, at most one per
facet size above the least, from which their links' tables are
restricted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence, Tuple

from .homology import _canonical_key, _faces_by_dim, reduced_homology_ranks
from .ideals import DomainError, InvalidInput, VariableUniverse, vertex_lists
from .kernels import bit_indices, whole_types

SHELLING_FACET_CAP = 10


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet bitmasks, an inclusion antichain, in increasing order.

    ``source`` is (parent, F) for a link, lk_parent(F): its faces are
    those of the parent that contain F, minus F, and its face table is
    restricted from the parent's.  ``links`` holds the links ``link``
    built, by face.  Neither plays a part in equality.
    """

    universe: VariableUniverse
    masks: Tuple[int, ...]
    source: Optional[tuple] = field(default=None, compare=False, repr=False)
    links: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @cached_property
    def face_table(self) -> dict[int, list[int]]:
        """dim -> face masks in increasing order, built once per complex."""
        return _faces_by_dim(self)

    @cached_property
    def checked_faces(self) -> list[int]:
        """The faces Reisner's and Duval's checks visit: one per orbit if invariant, else all."""
        return list(_orbit_representatives(self)) if _is_block_symmetric(self) else all_faces(self)

    @cached_property
    def rank_key(self) -> tuple:
        """The relabeling-canonical key of the homology rank cache."""
        return _canonical_key(self.masks)

    def __repr__(self):
        parts = ["{" + ",".join(map(self.universe.var_name, f)) + "}"
                 for f in vertex_lists(self.masks)]
        return f"SimplicialComplex({self.universe.n}+{self.universe.m}; {' '.join(parts)})"


@dataclass(frozen=True)
class ShellingResult:
    """Outcome of a shelling search: shellable / not_shellable / inconclusive."""

    status: str
    order: Optional[Tuple[int, ...]] = None     # the shelling found, as facet masks


def make_complex(universe: VariableUniverse, facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Canonical complex from a raw facet list: validated, maximal, sorted."""
    by_size: dict[int, set[int]] = {}
    for f in facets:
        mask = universe.mask_of(f)
        by_size.setdefault(mask.bit_count(), set()).add(mask)
    if not by_size:
        raise InvalidInput("a complex needs at least one facet (use [set()] for the (-1)-complex)")
    maximal: list[int] = []
    for size in sorted(by_size, reverse=True):
        # sets of one size cannot contain each other, so only the larger ones are compared
        maximal += [f for f in by_size[size] if not any(g & f == f for g in maximal)]
    return SimplicialComplex(universe, tuple(sorted(maximal)))


def dim(c: SimplicialComplex) -> int:
    return max(f.bit_count() for f in c.masks) - 1


def is_pure(c: SimplicialComplex) -> bool:
    return len({f.bit_count() for f in c.masks}) == 1


def all_faces(c: SimplicialComplex) -> list[int]:
    """Every face mask of c (including the empty face), by size, then in lex order."""
    table = c.face_table
    return [f for d in sorted(table) for f in sorted(table[d], key=bit_indices)]


def skeleton(c: SimplicialComplex, l: int) -> SimplicialComplex:
    """The pure complex generated by all faces of dimension exactly l-1."""
    if not 0 <= l <= dim(c) + 1:
        raise InvalidInput(f"skeleton level {l} out of range for dim {dim(c)}")
    return SimplicialComplex(c.universe, tuple(c.face_table[l - 1]))


def link(c: SimplicialComplex, face: int) -> SimplicialComplex:
    """The link of the face mask ``face``: {G - face : G a facet containing face}.

    The empty face's link is c itself.  Any other link keeps c's facet
    order, as G -> G - face increases on the G containing face, has
    (c, face) as its source, and is built once and kept in ``c.links``.
    """
    lk = c.links.get(face)
    if lk is not None:
        return lk
    if not 0 <= face < 1 << c.universe.size:
        raise InvalidInput(f"face mask {face} is out of range for universe "
                           f"{c.universe.n}+{c.universe.m}")
    if not face:
        return c
    containing = tuple(g ^ face for g in c.masks if g & face == face)
    if not containing:
        raise InvalidInput(f"{list(bit_indices(face))} is not a face of the complex")
    lk = c.links[face] = SimplicialComplex(c.universe, containing, (c, face))
    return lk


def is_strongly_connected(c: SimplicialComplex) -> bool:
    """Connectivity of the ridge graph of a pure complex.

    A search from the first facet compares each facet it reaches only
    with the facets not reached yet, which it then splits into the
    reached and the rest.  Each pair of facets is compared at most once,
    and the rest shrinks fast where the ridge graph is dense.
    """
    if not is_pure(c):
        raise DomainError("strong connectivity is defined for pure complexes only")
    ridge = c.masks[0].bit_count() - 1
    rest = c.masks[1:]
    stack = [c.masks[0]]
    while stack and rest:
        f = stack.pop()
        far = []
        for g in rest:
            if (f & g).bit_count() == ridge:
                stack.append(g)
            else:
                far.append(g)
        rest = far
    return not rest


def _first_blocker(vertices: Sequence[int], has: Sequence[int], placed: int) -> Optional[int]:
    """Position of the first placed facet that blocks appending facet f, or None.

    ``vertices`` are f's vertices, ``has[v]`` the bitset of the placed
    positions whose facet holds v, and ``placed`` the bitset of all
    placed positions.  f - v lies in a placed facet iff the AND of
    has[u] over u in f - v is nonzero; call such a v a single.  The
    facet at position i blocks iff f - F_i holds no single, that is iff
    F_i holds every single of f, so the first blocker is the lowest bit
    of the AND of has[v] over the singles (every placed position if f
    has none).
    """
    blockers = placed
    for v in vertices:
        rest = placed
        for u in vertices:
            if u != v:
                rest &= has[u]
        if rest:
            blockers &= has[v]
    return (blockers & -blockers).bit_length() - 1 if blockers else None


def verify_shelling_order(c: SimplicialComplex, order: Sequence[int]):
    """Check the shelling condition for a facet order given as bitmasks.

    Returns (True, None), or (False, (i, j)) with the first failing pair
    (0-based positions, lexicographic in (j, i)).
    """
    if sorted(order) != list(c.masks):
        raise InvalidInput("order is not a permutation of the facet list")
    has = [0] * c.universe.size
    for j, f in enumerate(order):
        vertices = bit_indices(f)
        i = _first_blocker(vertices, has, (1 << j) - 1)
        if i is not None:
            return False, (i, j)
        for v in vertices:
            has[v] |= 1 << j
    return True, None


def find_shelling(c: SimplicialComplex, cap: int = SHELLING_FACET_CAP) -> ShellingResult:
    """Backtracking shelling search with memoized dead prefixes.

    The facets are tried in lex order.  The placed ones are kept as
    position bitsets per vertex, set and cleared as the search places
    and takes back a facet.
    """
    facets = sorted(c.masks, key=bit_indices)
    t = len(facets)
    if t > cap:
        return ShellingResult("inconclusive")
    if t == 1:
        return ShellingResult("shellable", tuple(facets))
    vertices = [bit_indices(f) for f in facets]
    has = [0] * c.universe.size
    dead: set[int] = set()     # placed sets (bit i is facets[i]) that lead to no shelling

    def extend(used: int, order: list[int]):
        if len(order) == t:
            return list(order)
        if used in dead:
            return None
        bit = 1 << len(order)
        for i in range(t):
            if used >> i & 1 or _first_blocker(vertices[i], has, bit - 1) is not None:
                continue
            for v in vertices[i]:
                has[v] |= bit
            order.append(i)
            found = extend(used | 1 << i, order)
            if found is not None:
                return found
            for v in vertices[i]:
                has[v] ^= bit
            order.pop()
        dead.add(used)
        return None

    found = extend(0, [])
    if found is None:
        return ShellingResult("not_shellable")
    return ShellingResult("shellable", tuple(facets[i] for i in found))


def _is_block_symmetric(c: SimplicialComplex) -> bool:
    """Whether the facet set is invariant under S_n x S_m: every type it holds, it holds whole."""
    return whole_types(c.masks, c.universe.n, c.universe.m) is not None


def _orbit_representatives(c: SimplicialComplex):
    """The first face mask of each (|F cap X|, |F cap Y|) class, in ``all_faces`` order.

    That face is the first a x-vertices plus the first b y-vertices;
    among faces of one size, more x-vertices come first.
    """
    n = c.universe.n
    for k in range(dim(c) + 2):
        for a in range(min(k, n), max(0, k - c.universe.m) - 1, -1):
            face = (1 << a) - 1 | ((1 << (k - a)) - 1) << n
            if any(g & face == face for g in c.masks):
                yield face


def reisner_cm(c: SimplicialComplex):
    """Reisner's criterion over the rationals.

    CM iff for every face F the reduced homology of link(F) vanishes in
    all degrees below its dimension.  Returns (True, None) or
    (False, (F, i)) with the first failing face in ``all_faces`` order,
    as a sorted vertex list.  Only ``c.checked_faces`` are checked: one
    face per orbit when the facet set is S_n x S_m invariant (see the
    module docstring).
    """
    for f in c.checked_faces:
        lk = link(c, f)
        d = dim(lk)
        if d <= 0:
            continue  # nothing below dim 0 but H~_{-1}, which vanishes off the [set()] complex
        ranks = reduced_homology_ranks(lk, below=d)
        for i in range(-1, d):
            if ranks[i]:
                return False, (list(bit_indices(f)), i)
    return True, None


def duval_scm(c: SimplicialComplex):
    """Sequential CM via pure skeleta: every skeleton must pass Reisner.

    Returns (True, None) or (False, (l, reisner_witness)), the witness
    that ``reisner_cm(skeleton(c, l))`` gives at the least failing l.

    At level l let c_l be the complex generated by the facets of c of
    dimension >= l - 1.  A face F of c is a face of the l-skeleton
    exactly when it lies in a facet of c_l.  For such an F, with j = l -
    1 - |F|, the link of F in the l-skeleton is generated by the j-faces
    of lk_c(F); each lies in an (l-1)-face of c that contains F, hence in
    a facet of c_l, so these are the j-faces of L = lk_{c_l}(F).  Every
    facet of L has dimension >= j, so every face of L of dimension <= j
    lies in a j-face: the link is the j-skeleton of L, and H~_i of the
    two agree for every i < j, the degrees Reisner's criterion asks
    about.  So L is asked for the degrees below j and no skeleton is
    built.  c_l is c until l passes the least facet size; a new c_l is
    built only when l passes the least facet size of the current one,
    so there is one per facet size, and ``link`` keeps each link on its
    c_l (while c_l is c, the ones Reisner's check built).  c_l is S_n x
    S_m invariant when c is, so ``c.checked_faces`` serve every level.
    """
    c_l, least = c, min(f.bit_count() for f in c.masks)
    for l in range(0, dim(c) + 2):
        if l > least:
            c_l = SimplicialComplex(c.universe, tuple(g for g in c.masks if g.bit_count() >= l))
            least = min(f.bit_count() for f in c_l.masks)
        for f in c.checked_faces:
            j = l - 1 - f.bit_count()
            if j <= 0:
                break   # faces come by size; a link of dimension <= 0 has no homology to check
            if not any(g & f == f for g in c_l.masks):
                continue    # F is no face of the l-skeleton
            ranks = reduced_homology_ranks(link(c_l, f), below=j)
            for i in range(-1, j):
                if ranks[i]:
                    return False, (l, (list(bit_indices(f)), i))
    return True, None
