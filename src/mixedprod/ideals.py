"""Squarefree monomial ideals over a two-block variable universe.

Variables are indexed 0..n-1 for the x-block and n..n+m-1 for the
y-block.  A squarefree monomial, a prime and a face are one object, a
vertex subset, held as a bitmask (bit i is vertex i) throughout the
package; an ideal is stored by its unique minimal (divisibility-antichain)
generating set of masks.  Vertex lists appear only at the edges:
``VariableUniverse.mask_of`` validates them on the way in, and
``vertex_lists`` lists masks as vertex lists on the way out.  All values
are immutable and every operation is a pure function.

Duality rests on one transversal computation: the minimal transversals
of the generator supports, which the hitting-set kernel returns as
bitmasks in increasing order.  They are the minimal primes, the
generators of the Alexander dual, and the complements of the facets of
the Stanley-Reisner complex, so a caller that needs all three computes
them once and passes the prime masks on to ``complex_of_primes``.
Minimal transversals form an inclusion antichain, and so do their
complements, so that complex is built directly from the facet masks,
without the maximality pass of ``make_complex`` (the argument ``link``
and ``skeleton`` use too).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import FrozenSet, Iterable

from . import kernels


class MixedProdError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(MixedProdError):
    """Malformed value: bad index, universe mismatch, bad argument."""


class DomainError(MixedProdError):
    """Operation undefined for this value (zero/unit ideal, non-pure complex)."""


class ResourceCapExceeded(MixedProdError):
    """An explicit enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class VariableUniverse:
    """n x-variables followed by m y-variables, indexed 0..n+m-1."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0 or self.n + self.m < 1:
            raise InvalidInput(f"need n, m >= 0 and n + m >= 1, got n={self.n} m={self.m}")

    @property
    def size(self) -> int:
        return self.n + self.m

    def var_name(self, i: int) -> str:
        self.check_index(i)
        return f"x{i + 1}" if i < self.n else f"y{i - self.n + 1}"

    def check_index(self, i: int) -> None:
        if not 0 <= i < self.size:
            raise InvalidInput(f"variable index {i} out of range for universe {self.n}+{self.m}")

    def mask_of(self, vertices: Iterable[int]) -> int:
        """The bitmask of the vertex indices ``vertices``, each checked to be in range."""
        mask = 0
        for i in vertices:
            self.check_index(i)
            mask |= 1 << i
        return mask


def vertex_lists(masks: Iterable[int]) -> list[list[int]]:
    """The sets of ``masks`` as sorted vertex lists, in lex order."""
    return sorted(list(kernels.bit_indices(h)) for h in masks)


@dataclass(frozen=True)
class SquarefreeIdeal:
    universe: VariableUniverse
    generators: FrozenSet[int]      # the minimal generators' supports, as bitmasks

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return 0 in self.generators

    def __repr__(self):
        gens = ["*".join(map(self.universe.var_name, g)) or "1"
                for g in vertex_lists(self.generators)]
        return f"SquarefreeIdeal({self.universe.n}+{self.universe.m}; {', '.join(gens) or '0'})"


def antichain(masks: Iterable[int]) -> frozenset:
    """Minimal elements of a family of sets under inclusion (deduplicated)."""
    sets = set(masks)
    return frozenset(g for g in sets if not any(h != g and h & g == h for h in sets))


def minimalize(universe: VariableUniverse, raw: Iterable[Iterable[int]]) -> SquarefreeIdeal:
    """The ideal generated by the vertex sets ``raw``, reduced to its minimal generating set."""
    return SquarefreeIdeal(universe, antichain(map(universe.mask_of, raw)))


def _check_same_universe(a: SquarefreeIdeal, b: SquarefreeIdeal) -> None:
    if a.universe != b.universe:
        raise InvalidInput(f"universe mismatch: {a.universe} vs {b.universe}")


def ideal_sum(a: SquarefreeIdeal, b: SquarefreeIdeal) -> SquarefreeIdeal:
    _check_same_universe(a, b)
    return SquarefreeIdeal(a.universe, antichain(a.generators | b.generators))


def ideal_product(a: SquarefreeIdeal, b: SquarefreeIdeal) -> SquarefreeIdeal:
    """Product of squarefree ideals whose generators use disjoint variables.

    The pairwise support unions are then squarefree and already minimal.
    Overlapping supports would make the product non-squarefree, so they
    raise InvalidInput.
    """
    _check_same_universe(a, b)
    shared = reduce(or_, a.generators, 0) & reduce(or_, b.generators, 0)
    if shared:
        names = ", ".join(map(a.universe.var_name, kernels.bit_indices(shared)))
        raise InvalidInput(f"product factors share the variables {names}")
    return SquarefreeIdeal(a.universe, frozenset(g | h for g in a.generators for h in b.generators))


def ideal_intersect(a: SquarefreeIdeal, b: SquarefreeIdeal) -> SquarefreeIdeal:
    """Intersection via pairwise lcms; valid for squarefree monomial ideals."""
    _check_same_universe(a, b)
    if a.is_zero or b.is_zero:
        return SquarefreeIdeal(a.universe, frozenset())
    return SquarefreeIdeal(a.universe, antichain(g | h for g in a.generators for h in b.generators))


def alexander_dual(ideal: SquarefreeIdeal) -> SquarefreeIdeal:
    """Dual of a proper nonzero squarefree ideal.

    Generators of the dual are the minimal transversals (minimal hitting
    sets) of the generator supports, that is, the minimal primes.
    """
    return SquarefreeIdeal(ideal.universe, frozenset(_prime_masks(ideal)))


def minimal_primes(ideal: SquarefreeIdeal) -> list[list[int]]:
    """Minimal primes of a proper nonzero squarefree ideal, as vertex lists in lex order."""
    return vertex_lists(_prime_masks(ideal))


def _prime_masks(ideal: SquarefreeIdeal) -> list[int]:
    """The minimal primes as bitmasks, in increasing order.

    These are the minimal transversals of the generator supports, which
    the kernel returns in that order already.
    """
    if ideal.is_zero:
        raise DomainError("dual of the zero ideal is undefined")
    if ideal.is_unit:
        raise DomainError("dual of the unit ideal is undefined")
    return kernels.minimal_hitting_sets(ideal.generators)


def complex_of_primes(universe: VariableUniverse, primes: Iterable[int]):
    """The complex whose facets are the complements of the bitmasks ``primes``.

    ``primes`` must be the minimal primes of an ideal: they form an
    antichain, so their complements do too and the facet masks need no
    maximality pass through ``make_complex``.
    """
    from .complexes import SimplicialComplex

    full = (1 << universe.size) - 1
    return SimplicialComplex(universe, tuple(sorted(full & ~p for p in primes)))


def stanley_reisner_complex(ideal: SquarefreeIdeal):
    """The simplicial complex whose non-faces generate ``ideal``.

    Facets are the vertex-set complements of the minimal primes; the
    zero ideal, whose one minimal prime is itself (mask 0), corresponds
    to the full simplex, the maximal ideal to the (-1)-dimensional
    complex with facet list [set()].
    """
    if ideal.is_unit:
        raise DomainError("the unit ideal has no associated complex here")
    return complex_of_primes(ideal.universe, [0] if ideal.is_zero else _prime_masks(ideal))


def ideal_of_complex(c) -> SquarefreeIdeal:
    """Minimal non-faces of a complex; inverse of stanley_reisner_complex.

    A set is a non-face iff it meets the complement of every facet, so
    the minimal non-faces are the minimal transversals of the facet
    complements.
    """
    full_mask = (1 << c.universe.size) - 1
    comps = [full_mask & ~f for f in c.masks]
    return SquarefreeIdeal(c.universe, frozenset(kernels.minimal_hitting_sets(comps)))
