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
(n - a, m - b, {(A - a, B - b) : (A, B) in T, A >= a, B >= b}).
Duval's facet cut c_l (below) is (n, m, {t in T : |t| >= l}).
``_signature`` normalizes a type complex to (n', m', sorted types), n'
being 0 when no type holds an x (m' likewise), its rank-cache key.  On
a type complex each check is one homology query at the empty face,
whose link is the complex itself: ``reisner_cm`` asks K below dim K,
``duval_scm`` each c_l below l - 1, and a failure's witness is the
empty face, first in ``all_faces`` order, with K's least failing
degree.  By the lemma below no other face can fail first, so no link
is walked and no mask complex or face table is built.  A
``SimplicialComplex`` has every face checked on its masks, from the
definitions (``_walk``).

Lemma.  Let K be a type complex, and check the link of each face F
either below its own dimension (Reisner's bound) or below d - |F| for
a d <= the smallest facet dimension of K (Duval's c_l has d = l - 1).
If some face F fails, K fails at the empty face, below dim K or below d.
The hypothesis is needed: at d = 2 the cone (1, 2, ((1, 1),)), x_1
joined to two points, is acyclic, yet the link of x_1, two points, has
H~_0 != 0 below 2 - 1.

K's homology is read off its facet types (Fulton and Harris,
Prop. 3.12).  As an S_n-module the augmented chains of the simplex on
n >= 1 vertices split into two-term pieces, one per k = 0..n-1:
Lambda^k V in the sizes k + 1 and k, the boundary an isomorphism
between them, V the standard module of dimension n - 1 (on n = 0
vertices: Q in size 0, alone).  The chains of the join of the
x-simplex and the y-simplex are the tensor product, its pieces on the
cell types {k, k+1} x {l, l+1}, and K's chains are these pieces cut to
K's face types, a down-closed set.  A cut piece has homology only when
it keeps (k, l) alone or all but (k+1, l+1).  With the facet types
sorted by x-count, (A_1, B_1), ..., (A_r, B_r), B falling, that is:
- a facet term, C(n-1, A_i) C(m-1, B_i) classes in degree A_i + B_i - 1,
  the facet's dimension: nonzero iff A_i < n and B_i < m;
- an inner-corner term, C(n-1, A_i) C(m-1, B_{i+1}) classes in degree
  A_i + B_{i+1}: never zero, as A_i < A_{i+1} <= n and B_{i+1} < B_i <= m;
- an unused block gives a factor of 1 and no condition.

Proof, by induction on |F|; for F empty it is the claim.  Otherwise F
holds an x or a y; say an x, by symmetry x_1 (a y swaps the blocks).
Then lk_K F = lk_{lk x_1}(F - x_1), checked below the same degree
(d - |F| = (d - 1) - |F - x_1|), and lk x_1 is the type complex
(n - 1, m, {(A - 1, B) : (A, B) in T, A >= 1}), whose facets are K's
facets holding x_1 less x_1, so it meets the hypothesis at d - 1.  By
induction lk x_1 fails at its empty face, in a degree j below d - 1 or
below dim lk x_1 <= dim K - 1.  If lk x_1 has one facet type, its only
class is in its top degree, dim lk x_1, which is never below its bound:
Reisner's is dim lk x_1, and dim lk x_1 >= d - 1.  So lk x_1 has two or
more facet types and uses both blocks, and so does K.  Each class of
lk x_1 is then a term that K has one degree up: its facet term
(A - 1, B) is nonzero iff A - 1 < n - 1 and B < m, as K's facet term
(A, B) is, and its inner corner (A_i - 1, B_{i+1}) is K's inner corner
(A_i, B_{i+1}), since its facet types are a run of K's sorted list.  So
K has a class in degree j + 1, below d or below dim K, and fails at its
empty face.

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


def _failing_degree(lk, below: int) -> Optional[int]:
    """The least i < below with H~_i(lk) nonzero, or None; ``lk`` is a complex or a signature."""
    if below <= 0:
        return None     # nothing below dim 0 but H~_{-1}, which vanishes off the [set()] complex
    ranks = reduced_homology_ranks(lk)
    return next((i for i in range(-1, below) if ranks[i]), None)


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


def reisner_cm(c):
    """Reisner's criterion over the rationals, on a complex or a type complex (n, m, T).

    CM iff for every face F the reduced homology of link(F) vanishes in
    all degrees below its dimension.  Returns (True, None) or
    (False, (F, i)) with the first failing face in ``all_faces`` order,
    as a sorted vertex list.  A type complex fails, if at all, at the
    empty face (the lemma in the module docstring), so it is checked
    there alone and its witness is ([], i); a complex has every face
    walked.
    """
    if type(c) is tuple:
        _check_type_complex(c)
        i = _failing_degree(_signature(*c), max(a + b for a, b in c[2]) - 1)
        return (True, None) if i is None else (False, ([], i))
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
    built.  On a type complex, c_l is the facet types of size >= l, its
    smallest facet dimension is >= l - 1, and by the lemma in the module
    docstring it fails, if at all, at the empty face: each level is one
    query of c_l's signature below l - 1, its witness (l, ([], i)).
    """
    if type(c) is tuple:
        _check_type_complex(c)
        n, m, types = c
        for l in range(2, max(a + b for a, b in types) + 1):
            i = _failing_degree(_signature(n, m, [t for t in types if t[0] + t[1] >= l]), l - 1)
            if i is not None:
                return False, (l, ([], i))
        return True, None
    for l, face, lk, below in _walk(c, skeleta=True):
        i = _failing_degree(lk, below)
        if i is not None:
            return False, (l, (list(bit_indices(face)), i))
    return True, None
