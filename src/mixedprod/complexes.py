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

Reisner's and Duval's checks take a complex or a type complex, the
tuple (n, m, T).  A facet set invariant under S_n x S_m (the x-block
and the y-block each permuted on their own) is every set of each type
(a, b), a x's and b y's, in an antichain of facet types T; the sweep
hands the checks a spec's complemented prime types this way.  A face
of type (a, b) lies in exactly the facets of the types (A, B) in T with
A >= a and B >= b, so its link is, up to an order-preserving relabel
of the vertices, the type complex
(n - a, m - b, {(A - a, B - b) : (A, B) in T, A >= a, B >= b}),
which ``_signature`` normalizes to (n', m', sorted types), n' being 0
when no type holds an x (m' likewise), one rank-cache key per link.
Duval's facet cut c_l (below) is (n, m, {t in T : |t| >= l}).  Faces
of one type form one orbit and their links are isomorphic.  The first
face of each type in ``all_faces`` order, x_1..x_a y_1..y_b (x's at
bits 0..n-1, y's from bit n), is the lex-least of its orbit, and these
first faces come in the order of the key (a + b, -a): by size, more
x's first.  So the first failing face of the listed complex is the
first face of the first failing type, and the type path finds that
type by induction over vertex links, with no mask link, cut or face
table.  A ``SimplicialComplex`` has every face checked on its masks,
from the definitions (``_walk``).

``_first_failing(sig, d)`` is (a, b, i) for the first failing face
type of the type complex K with signature sig, i the least degree
below the bound in which its link has homology, or None.  The bound of
the empty face, whose link is K, is d, and each vertex of a face lowers
it by one; d None is Reisner's bound, each link's dimension.  The
induction, and why it finds the per-face walk's witness:
- The empty face is checked first; if it fails, it is the first face.
- Every other face type (a, b) has a first face F holding v = x_1 if
  a > 0, and v = y_1 if a = 0.  Then lk_K F = lk_{lk v}(F - v): the
  same complex, hence the same signature and dimension, and F's bound
  d - |F| is (d - 1) - |F - v|, the bound of F - v in lk v at d - 1.
- lk x_1 and lk y_1 are the links of the types (1, 0) and (0, 1)
  (``_type_link``).  A face type (a', b') of lk x_1 is the type
  (a' + 1, b') of K, whose first face holds x_1; lk y_1 likewise gives
  (a', b' + 1).  So the failing types of K other than (0, 0) are those
  of lk x_1 shifted by (1, 0) together with those of lk y_1 shifted by
  (0, 1), a type holding both x's and y's showing up in both.
- Each shift keeps the key's order (it adds (1, -1) or (1, 0) to it), so
  the first failing type of each link, shifted, is the first of its
  part, and the earlier of the two is K's first failing type: the
  witness the per-face walk finds.
A bound <= 0 leaves nothing to check, and so does every link below it,
so a complex checked at bound 1 takes no link.
The answer depends on (sig, d) alone, so ``_first_failures`` keeps one
memo entry per pair across calls and specs: a sweep walks each distinct
link once, and ranks a signature only where its empty face is checked,
each at most once (the rank cache).  ``reisner_cm`` looks up
(signature of c, None) and ``duval_scm`` (signature of c_l, l - 1) for
each level l.

Duval's criterion runs Reisner's on every pure skeleton, yet no skeleton
is built.  At level l, the link of F in the l-skeleton agrees in every
degree Reisner asks about with lk_{c_l}(F), where the facet cut c_l is
the complex generated by the facets of c of dimension >= l - 1
(``duval_scm`` proves it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Tuple

from .homology import _check_type_complex, _faces_by_dim, reduced_homology_ranks
from .ideals import DomainError, InvalidInput, VariableUniverse, vertex_lists
from .kernels import bit_indices

SHELLING_FACET_CAP = 10

# (link signature, bound) -> its first failing face type (a, b, i), or None
_first_failures: dict = {}


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet bitmasks, an inclusion antichain, in increasing order.

    The face table is computed on first use and kept on the complex.
    """

    universe: VariableUniverse
    masks: Tuple[int, ...]

    @cached_property
    def face_table(self) -> dict[int, list[int]]:
        """dim -> face masks in increasing order, enumerated once per complex."""
        return _faces_by_dim(self)

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
    order, as G -> G - face increases on the G containing face.
    """
    if not 0 <= face < 1 << c.universe.size:
        raise InvalidInput(f"face mask {face} is out of range for universe "
                           f"{c.universe.n}+{c.universe.m}")
    if not face:
        return c
    containing = tuple(g ^ face for g in c.masks if g & face == face)
    if not containing:
        raise InvalidInput(f"{list(bit_indices(face))} is not a face of the complex")
    return SimplicialComplex(c.universe, containing)


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


def _signature(n, m, types) -> tuple:
    """The type signature (n', m', sorted types) of the type complex with facet types ``types``."""
    return (n if any(a for a, _ in types) else 0, m if any(b for _, b in types) else 0,
            tuple(sorted(types)))


def _type_link(c, a, b) -> Optional[tuple]:
    """The signature of the link of a type-(a, b) face, or None if there is no such face."""
    n, m, types = c
    kept = [(fa - a, fb - b) for fa, fb in types if fa >= a and fb >= b]
    return _signature(n - a, m - b, kept) if kept else None


def _failing_degree(lk, below: int) -> Optional[int]:
    """The least i < below with H~_i(lk) nonzero, or None; ``lk`` is a complex or a signature."""
    if below <= 0:
        return None     # nothing below dim 0 but H~_{-1}, which vanishes off the [set()] complex
    ranks = reduced_homology_ranks(lk)
    return next((i for i in range(-1, below) if ranks[i]), None)


def _first_failing(sig, d) -> Optional[tuple]:
    """(a, b, i) for the first failing face type of the signature sig at bound d, or None.

    d bounds the degrees checked on the empty face's link, sig itself,
    and drops by one per vertex; None is Reisner's bound, each link's
    dimension.  The empty face first, then the first failures of lk x_1
    and lk y_1 shifted back, the earlier in ``all_faces`` order (module
    docstring).  Memoized on (sig, d).
    """
    below = max(a + b for a, b in sig[2]) - 1 if d is None else d
    if below <= 0:
        return None     # no face's link has a degree to check
    key = (sig, d)
    if key in _first_failures:
        return _first_failures[key]
    i = _failing_degree(sig, below)
    found = None if i is None else (0, 0, i)
    if found is None and below > 1:     # a link's bound is at most below - 1
        links = [(da, db, _type_link(sig, da, db)) for da, db in ((1, 0), (0, 1))]
        shifted = []
        for da, db, lk in links:
            failing = lk and _first_failing(lk, None if d is None else d - 1)
            if failing:
                a, b, j = failing
                shifted.append((a + da, b + db, j))
        found = min(shifted, key=lambda t: (t[0] + t[1], -t[0]), default=None)
    _first_failures[key] = found
    return found


def _walk(c, skeleta: bool = False):
    """(l, face mask, link, below) for each link Reisner's or Duval's check ranks on a complex.

    Reisner's check (l None) takes every face F of c, with lk_c(F) and
    its dimension.  Duval's (``skeleta``) takes, at each level l >= 2,
    each face F of c_l with |F| < l - 1, with lk_{c_l}(F) and
    l - 1 - |F|; c_l is generated by the facets of c of size >= l.
    Levels 0 and 1 have no such face, so they are not walked.  The
    faces come in ``all_faces`` order, and the link's homology is
    checked in the degrees below ``below``.
    """
    for l in range(2, dim(c) + 2) if skeleta else [None]:
        cut = c if l is None else SimplicialComplex(
            c.universe, tuple(g for g in c.masks if g.bit_count() >= l))
        for f in all_faces(cut):
            if l is not None and f.bit_count() >= l - 1:
                break   # faces come by size; a link of dimension <= 0 has no homology to check
            lk = link(cut, f)
            yield l, f, lk, dim(lk) if l is None else l - 1 - f.bit_count()


def _type_witness(n, failing) -> tuple:
    """Reisner's witness (F, i) for the failing type (a, b, i) of a type complex on n x's."""
    a, b, i = failing
    return [*range(a), *range(n, n + b)], i


def reisner_cm(c):
    """Reisner's criterion over the rationals, on a complex or a type complex (n, m, T).

    CM iff for every face F the reduced homology of link(F) vanishes in
    all degrees below its dimension.  Returns (True, None) or
    (False, (F, i)) with the first failing face in ``all_faces`` order,
    as a sorted vertex list.  A type complex is looked up as
    ``_first_failing(signature, None)``, its witness the first face of
    the failing type; a complex has every face walked.
    """
    if type(c) is tuple:
        _check_type_complex(c)
        failing = _first_failing(_signature(*c), None)
        return (True, None) if failing is None else (False, _type_witness(c[0], failing))
    for _, face, lk, below in _walk(c):
        i = _failing_degree(lk, below)
        if i is not None:
            return False, (list(bit_indices(face)), i)
    return True, None


def duval_scm(c):
    """Sequential CM via pure skeleta, on a complex or a type complex (n, m, T).

    Every skeleton must pass Reisner.  Returns (True, None) or
    (False, (l, reisner_witness)), the witness that
    ``reisner_cm(skeleton(c, l))`` gives at the least failing l.

    At level l let c_l be the complex generated by the facets of c of
    dimension >= l - 1.  A face F of c is a face of the l-skeleton
    exactly when it lies in a facet of c_l.  For such an F, with j = l -
    1 - |F|, the link of F in the l-skeleton is generated by the j-faces
    of lk_c(F); each lies in an (l-1)-face of c that contains F, hence in
    a facet of c_l, so these are the j-faces of L = lk_{c_l}(F).  Every
    facet of L has dimension >= j, so every face of L of dimension <= j
    lies in a j-face: the link is the j-skeleton of L, and H~_i of the
    two agree for every i < j, the degrees Reisner's criterion asks
    about.  So L is checked in the degrees below j and no skeleton is
    built.  On a type complex, c_l is the facet types of size >= l, and
    each level is looked up as ``_first_failing(signature of c_l, l - 1)``.
    """
    if type(c) is tuple:
        _check_type_complex(c)
        n, m, types = c
        for l in range(2, max(a + b for a, b in types) + 1):
            failing = _first_failing(_signature(n, m, [t for t in types if t[0] + t[1] >= l]),
                                     l - 1)
            if failing is not None:
                return False, (l, _type_witness(n, failing))
        return True, None
    for l, face, lk, below in _walk(c, skeleta=True):
        i = _failing_degree(lk, below)
        if i is not None:
            return False, (l, (list(bit_indices(face)), i))
    return True, None
