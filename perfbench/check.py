"""Independent reference answers for mixed product ideals, and output checks.

A mixed product ideal sum I_q J_r is invariant under permuting the
x-block and the y-block separately, so its minimal primes are whole
orbits: once one prime with a x-variables and b y-variables is minimal,
all C(n, a) * C(m, b) of them are.  A set of type (a, b) meets every
generator of I_q J_r iff a > n - q or b > m - r, so the minimal types
("corners") follow from that definition in O(s^3), for any n and m.

From the corners alone, without the paper's closed forms, follow the
primary decomposition, the height, unmixedness, the Alexander dual (the
ideal the minimal primes generate), its expanded generators and the
facets of the Stanley-Reisner complex.  The CLI's answers are checked
against these; its Cohen-Macaulay verdicts, which the sweep workloads
check against the brute-force oracles, are compared with the library.
"""

from __future__ import annotations

import json
import re
from itertools import combinations
from math import comb


class Refused(Exception):
    """The input is invalid: the CLI must exit 1 with a one-line error."""


def normalize(n, m, pairs):
    """Normalized (q, r) pairs of a raw spec, as the CLI must derive them."""
    if any(q < 0 or r < 0 for q, r in pairs):
        raise Refused("negative exponent")
    if (0, 0) in pairs:
        raise Refused("non-proper ideal")
    kept = {(q, r) for q, r in pairs if q <= n and r <= m}
    if not kept:
        raise Refused("zero ideal")
    return tuple(sorted(p for p in kept
                        if not any(o != p and o[0] <= p[0] and o[1] <= p[1] for o in kept)))


def normalized_specs(max_n, max_m, max_s):
    """Every normalized (n, m, pairs) within the bounds, from the definition:
    q strictly increasing, r strictly decreasing, and not the unit ideal."""
    return [(n, m, pairs)
            for n in range(1, max_n + 1) for m in range(1, max_m + 1)
            for s in range(1, max_s + 1)
            for qs in combinations(range(n + 1), s)
            for rs in combinations(range(m, -1, -1), s)
            for pairs in [tuple(zip(qs, rs))] if pairs != ((0, 0),)]


def corners(n, m, pairs):
    """Sorted (a, b) types of the minimal primes of sum I_q J_r."""
    def hits(a, b):
        return all(a > n - q or b > m - r for q, r in pairs)

    xs = {0} | {n - q + 1 for q, _ in pairs if q >= 1}
    ys = {0} | {m - r + 1 for _, r in pairs if r >= 1}
    return sorted((a, b) for a in xs for b in ys
                  if hits(a, b) and not (a and hits(a - 1, b)) and not (b and hits(a, b - 1)))


# Oracle entries that are the oracle's own verdict, not an agreement flag,
# and the closed-form verdict each must equal.  Every other entry is a
# check that passed (True) or failed (False).
ORACLE_VERDICTS = {"unmixed": "unmixed", "cm_strongly_connected": "cohen_macaulay",
                   "cm_reisner": "cohen_macaulay", "scm_duval": "sequentially_cm"}


def oracle_disagreements(oracle, verdicts):
    """Names of the oracle checks whose outcome contradicts the verdicts."""
    return sorted(name for name, value in oracle.items()
                  if value != (verdicts[ORACLE_VERDICTS[name]] if name in ORACLE_VERDICTS else True))


def prime_count(n, m, types):
    return sum(comb(n, a) * comb(m, b) for a, b in types)


# The oracle checks that check_spec runs on every spec below the vertex
# cap, at level fast and in addition at level full; the facet count up
# to which the default shelling search runs on a Cohen-Macaulay spec.
FAST_ORACLES = ("dual_generators", "primary_decomposition", "unmixed", "facet_partition",
                "intersection_bound", "cm_strongly_connected")
FULL_ORACLES = ("cm_reisner", "scm_duval")
SHELLING_FACET_CAP = 10


def has_shelling_order(n, m, pairs):
    """True if the facet types step by one x-vertex or by one y-vertex.

    Facet blocks are the complements of the corner types; sorted by
    x-count their y-counts decrease.  Unit steps in either count are
    the conditions under which a constructive shelling order exists.
    """
    blocks = sorted((n - a, m - b) for a, b in corners(n, m, pairs))
    steps = list(zip(blocks, blocks[1:]))
    return (all(g[0] == f[0] + 1 for f, g in steps)
            or all(f[1] == g[1] + 1 for f, g in steps))


def missing_oracles(n, m, pairs, level, oracle, cohen_macaulay):
    """Oracle checks that ``level`` must run on the spec but are absent from ``oracle``.

    ``cohen_macaulay`` is the closed-form verdict; the oracles that run
    check it, so a wrong verdict cannot hide a skipped shelling search.
    """
    required = set(FAST_ORACLES)
    if has_shelling_order(n, m, pairs):
        required.add("shelling_order")
    if level == "full":
        required.update(FULL_ORACLES)
        if cohen_macaulay and prime_count(n, m, corners(n, m, pairs)) <= SHELLING_FACET_CAP:
            required.add("shellable")
    return sorted(required - set(oracle))


def spec_dict(n, m, pairs):
    return {"n": n, "m": m, "pairs": [list(p) for p in pairs]}


def _type_of(names, n, m):
    """(x-count, y-count) of a list of variable names, or None if malformed."""
    seen = set(names)
    if len(seen) != len(names):
        return None
    a = b = 0
    for name in seen:
        block, index = name[:1], name[1:]
        if not index.isdigit():
            return None
        limit = n if block == "x" else m if block == "y" else 0
        if not 1 <= int(index) <= limit:
            return None
        a += block == "x"
        b += block == "y"
    return a, b


def _check_sets(sets, n, m, types, what):
    """Each set is distinct, of an allowed type, and the family is complete."""
    allowed = set(types)
    distinct = set()
    for s in sets:
        t = _type_of(s, n, m)
        if t not in allowed:
            return f"{what} {s} has type {t}, expected one of {sorted(allowed)}"
        distinct.add(frozenset(s))
    if len(distinct) != len(sets):
        return f"duplicate {what}"
    expected = prime_count(n, m, types)
    if len(sets) != expected:
        return f"{len(sets)} {what}s, expected {expected}"
    return None


def _parse_terms(text):
    """'I2J0 + I0J3' -> [[2, 0], [0, 3]]"""
    out = []
    for term in text.split(" + "):
        q, _, r = term[1:].partition("J")
        out.append([int(q), int(r)])
    return out


def _parse_group(text, open_, close):
    """'(x1,x2); (y1)' or '{x1,y1} {x2,y1}' -> [['x1', 'x2'], ['y1']]"""
    parts = [p.strip(" ;") for p in text.split(close)]
    return [p.lstrip(open_).split(",") if p.lstrip(open_) else [] for p in parts if p]


def _text_classify(out):
    lines = out.splitlines()
    fields = re.search(r" height=(\d+) dim=(\d+)$", lines[1])
    verdicts = {}
    for line in lines[2:5]:
        name, _, rest = line.partition(": ")
        verdicts[name] = rest.split()[0] == "true"
    return {"spec_pairs": _parse_terms(lines[0].split(" ", 3)[3]),
            "profile": {"height": int(fields[1]), "dim": int(fields[2])},
            "verdicts": verdicts, "oracle": None}


def _text_dual(out):
    lines = out.splitlines()
    payload = {"dual_pairs": _parse_terms(lines[0][len("dual: "):])}
    if len(lines) > 1:
        payload["generators"] = [g.split("*") for g in lines[1][len("generators: "):].split(", ")]
    return payload


def _text_decompose(out):
    payload = {}
    for line in out.splitlines():
        label, _, rest = line.partition(" ")
        if label == "height:":
            payload["height"] = int(rest)
        else:
            payload[label] = _parse_group(rest.partition("): ")[2], "(", ")")
    return payload


def _text_facets(out):
    return {"blocks": [_parse_group(line.partition("): ")[2], "{", "}")
                       for line in out.splitlines()]}


def check_cli(call, code, out, err, library):
    """None if the CLI's answer to ``call`` is right, else the reason it is not.

    ``library`` maps a normalized spec to the library's (cm, scm) verdicts.
    """
    n, m, pairs = call["n"], call["m"], call["pairs"]
    try:
        if pairs is None:
            raise Refused("unparsable pairs")
        spec = normalize(n, m, pairs)
    except Refused:
        if code != 1 or out or len(err.splitlines()) != 1 or not err.startswith("error: "):
            return f"expected exit 1 with a one-line error, got exit {code}, stderr {err[:200]!r}"
        return None
    if code != 0 or err:
        return f"expected exit 0, got exit {code}, stderr {err[:200]!r}"
    types = corners(n, m, spec)
    height = min(a + b for a, b in types)
    try:
        payload = json.loads(out) if call["json"] else _TEXT[call["command"]](out)
        if call["json"] and payload["spec"] != spec_dict(n, m, spec):
            return f"spec {payload['spec']} != {spec_dict(n, m, spec)}"
        if payload.get("spec_pairs", [list(p) for p in spec]) != [list(p) for p in spec]:
            return f"spec {payload['spec_pairs']} != {spec}"
        return _CHECKS[call["command"]](call, payload, n, m, spec, types, height, library)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"malformed output ({exc!r}): {out[:200]!r}"


def _check_classify(call, payload, n, m, spec, types, height, library):
    verdicts = payload["verdicts"]
    profile = payload["profile"]
    if profile["height"] != height or profile["dim"] != n + m - height:
        return f"height/dim {profile['height']}/{profile['dim']}, expected {height}/{n + m - height}"
    if call["json"]:
        blocks = sorted(zip(profile["q_bar"], profile["r_bar"]))
        if blocks != sorted((n - a, m - b) for a, b in types) or profile["s_prime"] != len(types):
            return f"profile blocks {blocks} do not match corners {types}"
    unmixed = len({a + b for a, b in types}) == 1
    if verdicts["unmixed"] != unmixed:
        return f"unmixed {verdicts['unmixed']}, expected {unmixed}"
    cm, scm = library(n, m, spec)
    if (verdicts["cohen_macaulay"], verdicts["sequentially_cm"]) != (cm, scm):
        return f"cm/scm {verdicts['cohen_macaulay']}/{verdicts['sequentially_cm']} != library {cm}/{scm}"
    oracle = payload["oracle"]
    if call.get("oracle"):
        if not oracle or oracle_disagreements(oracle, verdicts):
            return f"oracle disagrees: {oracle}"
        missing = missing_oracles(n, m, spec, call["oracle"], oracle, verdicts["cohen_macaulay"])
        if missing:
            return f"oracle checks not run: {missing}"
    elif oracle is not None:
        return f"unrequested oracle output {oracle}"
    return None


def _check_dual(call, payload, n, m, spec, types, height, library):
    dual = payload["dual"]["pairs"] if call["json"] else payload["dual_pairs"]
    if dual != [list(t) for t in types]:
        return f"dual {dual}, expected {types}"
    if call.get("expand"):
        return _check_sets(payload["generators"], n, m, types, "generator")
    return None


def _check_decompose(call, payload, n, m, spec, types, height, library):
    if payload["height"] != height:
        return f"height {payload['height']}, expected {height}"
    groups = [("px", [t for t in types if t[1] == 0]),
              ("pxy", [t for t in types if t[0] and t[1]]),
              ("py", [t for t in types if t[0] == 0])]
    for label, group in groups:
        reason = _check_sets(payload[label], n, m, group, label + " component")
        if reason:
            return reason
    return None


def _check_facets(call, payload, n, m, spec, types, height, library):
    blocks = payload["blocks"]
    facet_types = sorted((n - a, m - b) for a, b in types)
    if len(blocks) != len(facet_types):
        return f"{len(blocks)} blocks, expected {len(facet_types)}"
    seen = []
    for block in blocks:
        t = _type_of(block[0], n, m) if block else None
        if t not in facet_types or t in seen:
            return f"block of type {t}, expected one of {facet_types}"
        seen.append(t)
        reason = _check_sets(block, n, m, [t], "facet")
        if reason:
            return reason
    return None


_TEXT = {"classify": _text_classify, "dual": _text_dual,
         "decompose": _text_decompose, "facets": _text_facets}
_CHECKS = {"classify": _check_classify, "dual": _check_dual,
           "decompose": _check_decompose, "facets": _check_facets}
