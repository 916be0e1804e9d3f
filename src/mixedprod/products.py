"""Mixed product ideals and their closed-form classification.

A mixed product ideal is a sum of I_q * J_r summands, where I_q (J_r)
is generated by all squarefree degree-q (degree-r) monomials in the
x-block (y-block).  After normalization the exponent pairs satisfy
0 <= q_1 < ... < q_s <= n and 0 <= r_s < ... < r_1 <= m.

Everything ideal-specific lives here: the profile vectors (q_bar,
r_bar, sigma) and their inverse, the closed-form Alexander dual, the
primary decomposition, the unmixed / Cohen-Macaulay / sequentially-CM
verdicts, the facet partition, and a shelling order of every
sequentially-CM spec.  One formula carries them: the paper's dual,
computed once per spec.  Its generators are the minimal primes, whose
complements are the facets, so its summands are the prime types and
block k has the complement type of the k-th dual summand from the end;
its normalization check guards every closed form.  All verdicts are
O(s') profile arithmetic.  Only the listings enumerate, all through
``kernels.list_types``: every set of a x's and b y's as a bitmask (bit
i is vertex i), in increasing order, the one listing order of the
package.  The dual's generators, the decomposition's components, the
facet blocks and the shelling order are listed once, as masks, for the
CLI; they become vertex lists (``ideals.vertex_lists``) and vertex names
only there.  The sweep's oracles read the closed forms' types (the
dual's summands, ``decomposition_types`` and the profile) and list only
the facet blocks, for the shelling order; ``expand_generators`` hands
the generators to the generic ideal layer as a ``SquarefreeIdeal``.
One budget, ``GENERATOR_CAP``, bounds the listings:
``check_generator_count`` counts the generators ``generator_sets``
would build, and ``check_listing_size`` the variables that
``dual --expand``, ``decompose`` and ``facets`` would print.  In
``sweep.check_spec`` the vertex cap alone gates the shelling checks,
the only ones that list the facets: within it the dual's generators,
one per facet, stay under ``GENERATOR_CAP``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from . import kernels
from .ideals import (
    DomainError,
    InvalidInput,
    ResourceCapExceeded,
    SquarefreeIdeal,
    VariableUniverse,
)

GENERATOR_CAP = 100_000


class ZeroIdealError(DomainError):
    """Every summand vanishes: the result is the zero ideal."""


class NonProperIdealError(DomainError):
    """A summand is I_0 * J_0 = S: the result is not a proper ideal."""


@dataclass(frozen=True)
class MixedProductSpec:
    """A normalized mixed product ideal: the universe plus (q_i, r_i) pairs."""

    universe: VariableUniverse
    summands: Tuple[Tuple[int, int], ...]

    # the spec is frozen, so its dual and profile are computed once
    @cached_property
    def dual(self) -> MixedProductSpec:
        return closed_form_dual(self)

    @cached_property
    def profile(self) -> QRProfile:
        return qr_profile(self)

    @property
    def s(self) -> int:
        return len(self.summands)

    @property
    def qs(self) -> Tuple[int, ...]:
        return tuple(q for q, _ in self.summands)

    @property
    def rs(self) -> Tuple[int, ...]:
        return tuple(r for _, r in self.summands)

    def __repr__(self):
        terms = "+".join(f"I{q}J{r}" for q, r in self.summands)
        return f"MixedProductSpec(n={self.universe.n}, m={self.universe.m}, {terms})"


@dataclass(frozen=True)
class QRProfile:
    """Derived profile of a spec: block descriptors of the facet partition.

    Block k of the Stanley-Reisner complex consists of all vertex sets
    with q_bar[k] x-vertices and r_bar[k] y-vertices, so sigma gives the
    facet sizes, dim_ring their maximum and height the codimension.
    """

    universe: VariableUniverse
    s_prime: int
    q_bar: Tuple[int, ...]
    r_bar: Tuple[int, ...]

    @property
    def sigma(self) -> Tuple[int, ...]:
        return tuple(q + r for q, r in zip(self.q_bar, self.r_bar))

    @property
    def dim_ring(self) -> int:
        return max(self.sigma)

    @property
    def height(self) -> int:
        return self.universe.size - self.dim_ring


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.holds


@dataclass(frozen=True)
class PrimaryDecomposition:
    """Closed-form minimal primes as bitmasks, grouped into the x / mixed / y blocks.

    Each group is in increasing order.
    """

    px: Tuple[int, ...]
    pxy: Tuple[int, ...]
    py: Tuple[int, ...]

    @property
    def components(self) -> list[int]:
        """Every minimal prime as a bitmask, in increasing order."""
        return sorted(self.px + self.pxy + self.py)


@dataclass(frozen=True)
class ClassificationReport:
    spec: MixedProductSpec
    profile: QRProfile
    unmixed: Verdict
    cohen_macaulay: Verdict
    sequentially_cm: Verdict


def normalize(universe: VariableUniverse, pairs) -> MixedProductSpec:
    """Canonical spec from raw (q, r) pairs.

    Zero summands (q > n or r > m) are dropped, dominated summands are
    removed, and the rest are sorted so the q's strictly increase and
    the r's strictly decrease.
    """
    pairs = list(pairs)
    if not pairs:
        raise InvalidInput("at least one (q, r) summand is required")
    kept = set()
    for q, r in pairs:
        if q < 0 or r < 0:
            raise InvalidInput(f"negative exponent in summand ({q}, {r})")
        if q == 0 and r == 0:
            raise NonProperIdealError("summand I0*J0 = S makes the ideal non-proper")
        if q > universe.n or r > universe.m:
            continue
        kept.add((q, r))
    if not kept:
        raise ZeroIdealError("every summand vanishes (q > n or r > m throughout)")
    minimal = []
    for q, r in sorted(kept):   # a pair's dominators sort before it
        if not minimal or r < minimal[-1][1]:
            minimal.append((q, r))
    return MixedProductSpec(universe, tuple(minimal))


def _comb_upto(n: int, k: int, limit: int) -> int:
    """comb(n, k), or limit + 1 as soon as the count passes ``limit``."""
    k = min(k, n - k)
    c = 1 if k >= 0 else 0
    for i in range(k):
        c = c * (n - i) // (i + 1)   # comb(n, i + 1), increasing while i < n / 2
        if c > limit:
            return limit + 1
    return c


def _check_count(n: int, m: int, sizes, cap: int, what: str, weigh: bool = False) -> None:
    """Raise once the sum of comb(n, a) * comb(m, b) over (a, b) in sizes passes cap.

    With ``weigh`` each set counts its a + b variables instead of 1.
    """
    total = 0
    for a, b in sizes:
        total += _comb_upto(n, a, cap) * _comb_upto(m, b, cap) * (a + b if weigh else 1)
        if total > cap:
            raise ResourceCapExceeded(f"more than the cap of {cap} {what}")


def generator_sets(spec: MixedProductSpec) -> list[int]:
    """The minimal generators of ``spec`` as bitmasks, in increasing order.

    Summand i contributes the generators with exactly q_i x's and r_i
    y's, so the union is an antichain of the counted size because a
    normalized spec's (q, r) pairs are pairwise incomparable; the dual's
    normalization check rejects any other spec.
    """
    check_generator_count(spec)
    return kernels.list_types(spec.summands, spec.universe.n, spec.universe.m)


def check_generator_count(spec: MixedProductSpec) -> None:
    """Raise before ``generator_sets(spec)`` would list more than ``GENERATOR_CAP`` generators.

    Raises InvalidInput unless ``spec`` is normalized, and
    ResourceCapExceeded past the cap; nothing is listed.
    """
    spec.dual   # raises InvalidInput unless spec is normalized
    _check_count(spec.universe.n, spec.universe.m, spec.summands, GENERATOR_CAP, "generators")


def expand_generators(spec: MixedProductSpec) -> SquarefreeIdeal:
    """The minimal generators as a ``SquarefreeIdeal``: all q-subset x r-subset products."""
    return SquarefreeIdeal(spec.universe, frozenset(generator_sets(spec)))


def qr_profile(spec: MixedProductSpec) -> QRProfile:
    """The derived (s', q_bar, r_bar) profile of a normalized spec.

    A minimal prime of type (a, b), a generator of the dual, has a facet
    of type (n - a, m - b) as complement.  Taken from the last dual
    summand, these are the blocks (q_i - 1, r_{i-1} - 1) for i = 1..s + 1
    (see ``closed_form_dual``), less the first when q_1 = 0 and the last
    when r_s = 0.
    """
    n, m = spec.universe.n, spec.universe.m
    q_bar, r_bar = zip(*((n - a, m - b) for a, b in reversed(spec.dual.summands)))
    return QRProfile(spec.universe, len(q_bar), q_bar, r_bar)


def spec_from_profile(profile: QRProfile) -> MixedProductSpec:
    """Inverse of qr_profile: recover the exponent pairs from the vectors."""
    n, m = profile.universe.n, profile.universe.m
    q, r = profile.q_bar, profile.r_bar
    sp = profile.s_prime
    if not (len(q) == len(r) == sp >= 1):
        raise InvalidInput("profile vectors must have length s_prime >= 1")
    if any(q[i] >= q[i + 1] for i in range(sp - 1)) or not 0 <= q[0] <= q[-1] <= n:
        raise InvalidInput("q_bar must be strictly increasing within 0..n")
    if any(r[i] <= r[i + 1] for i in range(sp - 1)) or not 0 <= r[-1] <= r[0] <= m:
        raise InvalidInput("r_bar must be strictly decreasing within 0..m")
    if r[0] == m and q[-1] == n:
        s = sp - 1
    elif r[0] < m and q[-1] < n:
        s = sp + 1
    else:
        s = sp
    q_of = lambda i: q[i - 1] if 1 <= i <= sp else -1   # q(0) = -1
    r_of = lambda i: r[i - 1] if 1 <= i <= sp else -1   # r(s'+1) = -1
    if r[0] == m:
        pairs = [(q_of(i) + 1, r_of(i + 1) + 1) for i in range(1, s + 1)]
    else:
        pairs = [(q_of(i - 1) + 1, r_of(i) + 1) for i in range(1, s + 1)]
    return MixedProductSpec(profile.universe, tuple(pairs))


def closed_form_dual(spec: MixedProductSpec) -> MixedProductSpec:
    """The Alexander dual as a mixed product spec, via the closed form.

    Raw dual summands are (n-q_1+1, 0), then (n-q_{i+1}+1, m-r_i+1) for
    i = 1..s-1, then (0, m-r_s+1).  The first fits its block exactly when
    q_1 > 0 and the last when r_s > 0; the rest always fit, and sorted
    they form an antichain.  Raises ``InvalidInput`` unless ``spec`` is
    normalized, which every other closed form relies on.
    """
    n, m = spec.universe.n, spec.universe.m
    qs, rs = spec.qs, spec.rs
    q_ext, r_ext = qs + (n + 1,), (m + 1,) + rs   # q_{s+1} = n + 1, r_0 = m + 1
    if not (qs and all(-1 < q < q_next for q, q_next in zip(qs, q_ext[1:]))
            and all(-1 < r < r_prev for r_prev, r in zip(r_ext, rs))
            and (0, 0) not in spec.summands):
        raise InvalidInput(f"spec is not normalized: the q's must rise strictly in 0..{n}, "
                           f"the r's fall strictly in 0..{m}, without (0, 0)")
    # raw summand i is (n - q_i + 1, m - r_{i-1} + 1); it fits when q_i, r_{i-1} > 0
    dual = sorted((n - q + 1, m - r + 1) for q, r in zip(q_ext, r_ext) if q > 0 and r > 0)
    return MixedProductSpec(spec.universe, tuple(dual))


def check_listing_size(universe: VariableUniverse, types, what: str) -> None:
    """Raise before listing more than ``GENERATOR_CAP`` variables in all.

    Each (a, b) in ``types`` stands for every set of a x's and b y's.
    """
    _check_count(universe.n, universe.m, types, GENERATOR_CAP, f"variables in the {what}",
                 weigh=True)


def decomposition_types(spec: MixedProductSpec):
    """The (a, b) types of the minimal primes, grouped into P_x, P_xy and P_y.

    A prime of type (a, b) is generated by a x's and b y's.  The types are
    the dual's summands, taken in block order (reversed): P_x holds the
    one with b = 0 (there is one when q_1 > 0), P_y the one with a = 0
    (when r_s > 0), and P_xy the rest, one for each pair of consecutive
    summands of the spec.
    """
    types = spec.dual.summands[::-1]
    return ([t for t in types if t[1] == 0], [t for t in types if 0 not in t],
            [t for t in types if t[0] == 0])


def closed_form_primary_decomposition(spec: MixedProductSpec) -> PrimaryDecomposition:
    """Minimal primes from the closed form as bitmasks, grouped into P_x / P_xy / P_y."""
    n, m = spec.universe.n, spec.universe.m
    return PrimaryDecomposition(*(tuple(kernels.list_types(types, n, m))
                                  for types in decomposition_types(spec)))


def is_unmixed_closed_form(spec: MixedProductSpec) -> Verdict:
    """Unmixedness: every prime type of the closed form has the height's size."""
    px, pxy, py = decomposition_types(spec)
    h = spec.profile.height
    for i, (a, b) in enumerate(pxy):
        if a + b != h:
            return Verdict(False, ("mixed-block height", i + 1))
    if px and sum(px[0]) != h:
        return Verdict(False, ("x-block height", 1))
    if py and sum(py[0]) != h:
        return Verdict(False, ("y-block height", spec.s))
    return Verdict(True)


def is_cm_closed_form(spec: MixedProductSpec, perturb: bool = False) -> Verdict:
    """Cohen-Macaulayness: unit q-steps and unit r-steps along the profile.

    ``perturb`` deliberately breaks the q-step condition; it exists only
    so the sweep harness can prove it would catch a wrong closed form.
    """
    p = spec.profile
    q_step = 2 if perturb else 1
    for i in range(p.s_prime - 1):
        if p.q_bar[i + 1] != p.q_bar[i] + q_step or p.r_bar[i + 1] != p.r_bar[i] - 1:
            return Verdict(False, ("step", i + 1))
    return Verdict(True)


def is_scm_closed_form(spec: MixedProductSpec) -> Verdict:
    """Sequential CM: a unit step in q or r at every i, and unimodal sigma."""
    p = spec.profile
    for i in range(p.s_prime - 1):
        if p.q_bar[i] != p.q_bar[i + 1] - 1 and p.r_bar[i] != p.r_bar[i + 1] + 1:
            return Verdict(False, ("step", i + 1))
    sig = p.sigma
    i = 0
    while i + 1 < len(sig) and sig[i + 1] >= sig[i]:
        i += 1
    peak = i
    while i + 1 < len(sig) and sig[i + 1] <= sig[i]:
        i += 1
    if i + 1 < len(sig):
        return Verdict(False, ("valley", (peak + 1, i + 1, i + 2)))
    return Verdict(True)


def facet_partition(spec: MixedProductSpec) -> list[list[int]]:
    """Block k of the facet partition: all sets of q_bar[k] x's and r_bar[k] y's.

    The facets are bitmasks, each block in increasing order.
    """
    p, n, m = spec.profile, spec.universe.n, spec.universe.m
    return [kernels.list_types([t], n, m) for t in zip(p.q_bar, p.r_bar)]


def shelling_order(spec: MixedProductSpec) -> Optional[list[int]]:
    """A shelling order of the facets (bitmasks) when the spec is sequentially CM, else None.

    See ``shell_blocks``, which orders the blocks of ``facet_partition``.
    """
    if not is_scm_closed_form(spec).holds:
        return None
    return shell_blocks(spec.profile.sigma, facet_partition(spec))


def shell_blocks(sigma, blocks) -> list[int]:
    """The facets of a sequentially CM spec in shelling order, from its sigma and facet blocks.

    Start at the block of largest sigma (leftmost on ties) and grow an
    interval by appending the neighbour of larger sigma (left on ties),
    each block in ``facet_partition`` order, increasing masks.  Proof:
    each earlier facet G must meet a facet F inside an earlier facet H
    with F & H = F minus one vertex.  Within a block, G < F: the highest
    bit v of F ^ G lies in F; F and G agree above v and hold as many
    vertices of v's side (x or y), so below v G holds one more of them
    than F, and one, u, lies outside F.  H = F - v + u is of F's type and
    below F, H contains F & G, and F & H = F - v.  Across blocks, sigma
    does not fall left of the peak and each step is a unit q- or r-step,
    so each step there lowers r by one.  A facet F in block k left of
    the peak follows facets G of blocks right of k only, each with fewer
    y's; F minus a y outside G contains F & G and lies in a facet of
    block k + 1, which came earlier.  Mirror x and y right of the peak.
    With unit q-steps the block order is the paper's ascending order.
    """
    peak = sigma.index(max(sigma))
    # sigma is unimodal, so both sides descend from the peak, and a stable
    # sort by sigma merges them, the left side first on ties
    ks = sorted([*range(peak, -1, -1), *range(peak + 1, len(sigma))], key=lambda k: -sigma[k])
    return [f for k in ks for f in blocks[k]]


def skeleton_profile(spec: MixedProductSpec, l: int):
    """Merged (q_bar', r_bar') profile of the facet blocks of the (l-1)-skeleton.

    A block with sigma(k) >= l contributes the pairs (q', l - q') for q'
    from max(0, l - r(k)) to min(q(k), l); duplicates across blocks are
    merged and the result sorted by q'.
    """
    p = spec.profile
    if not 0 <= l <= p.dim_ring:
        raise InvalidInput(f"skeleton level {l} out of range 0..{p.dim_ring}")
    pairs = set()
    for q, r in zip(p.q_bar, p.r_bar):
        if q + r >= l:
            for qp in range(max(0, l - r), min(q, l) + 1):
                pairs.add((qp, l - qp))
    merged = sorted(pairs)
    return tuple(q for q, _ in merged), tuple(r for _, r in merged)


def classify(spec: MixedProductSpec) -> ClassificationReport:
    return ClassificationReport(
        spec=spec,
        profile=spec.profile,
        unmixed=is_unmixed_closed_form(spec),
        cohen_macaulay=is_cm_closed_form(spec),
        sequentially_cm=is_scm_closed_form(spec),
    )
