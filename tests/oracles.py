"""Independent reference implementations used to cross-check the library.

Everything here is written from the definitions, directly and naively, and
shares no code with the package: set scans, explicit case selection, and
from-scratch fixed points.  Tests compare library outputs against these.
"""

from __future__ import annotations

import random
from itertools import combinations


def oracle_star(x: frozenset, y: frozenset):
    """Case-by-case star; returns (applicable_case_count, value)."""
    picks = []
    if max(x) not in y and max(y) not in x:
        picks.append(("neither", x & y))
    if max(x) in y:
        picks.append(("sup-x-in-y", x - y))
    if max(y) in x:
        picks.append(("sup-y-in-x", y - x))
    return len(picks), (picks[0][1] if picks else None)


def oracle_pair_function(kappa: int, density: float, seed: int) -> dict:
    """The values of the seeded pair function, drawn from the definition: pairs
    ``a < b`` in lexicographic order, then each ``g < a`` in ascending order,
    one draw per ``g``, admitting ``g`` when the draw falls below ``density``."""
    rng = random.Random(seed)
    values = {}
    for a, b in combinations(range(kappa), 2):
        chosen = set()
        for g in range(a):
            if rng.random() < density:
                chosen.add(g)
        values[(a, b)] = frozenset(chosen)
    return values


def oracle_good_pair_clauses(f, x, y) -> set[str]:
    """The letters of the good-pair clauses that fail, tested triple by
    triple: every shared ``alpha``, ``beta`` of ``x`` only and ``gamma`` of
    ``y`` only."""
    xs, ys = frozenset(x), frozenset(y)
    failed = set()
    for alpha in xs & ys:
        for beta in xs - ys:
            for gamma in ys - xs:
                if alpha < beta and alpha < gamma:
                    if alpha not in f.value(beta, gamma):
                        failed.add("a")
                if alpha < beta:
                    if not f.value(alpha, gamma) <= f.value(beta, gamma):
                        failed.add("b")
                if alpha < gamma:
                    if not f.value(alpha, beta) <= f.value(gamma, beta):
                        failed.add("c")
    return failed


def oracle_good_pair(f, x, y) -> bool:
    return not oracle_good_pair_clauses(f, x, y)


def oracle_twin_repair(f, p, q) -> dict:
    """The values of ``f`` enlarged as the twin sampler must enlarge them:
    first each pair of ``q``'s domain gains its ``i``-value, then, triple by
    triple (every shared ``alpha``, ``beta`` of ``p`` only and ``gamma`` of
    ``q`` only), ``f{beta,gamma}`` gains what the good-pair clauses ask of
    it, read from the values enlarged so far."""
    values = dict(f.values)

    def key(x, y):
        return (min(x, y), max(x, y))

    def grow(x, y, need):
        values[key(x, y)] = values[key(x, y)] | frozenset(need)

    for x, y in combinations(sorted(q.a), 2):
        grow(x, y, q.i[(x, y)])
    a, a2 = set(p.a), set(q.a)
    for alpha in a & a2:
        for beta in a - a2:
            for gamma in a2 - a:
                if alpha < beta and alpha < gamma:
                    grow(beta, gamma, {alpha})
                if alpha < beta:
                    grow(beta, gamma, values[key(alpha, gamma)])
                if alpha < gamma:
                    grow(gamma, beta, values[key(alpha, beta)])
    return values


def oracle_precedes(p, q) -> bool:
    """Refinement by exhaustion over the shared domain: for every point
    ``alpha`` and every avoidance set ``b`` of points below it, ``h(alpha)``
    less the union of ``h`` over ``b`` in ``p`` lies inside the same set
    built from ``q``."""
    dom = sorted(p.a)
    for alpha in dom:
        below = [x for x in dom if x < alpha]
        for r in range(len(below) + 1):
            for b in combinations(below, r):
                in_p, in_q = set(p.h[alpha]), set(q.h[alpha])
                for beta in b:
                    in_p -= p.h[beta]
                    in_q -= q.h[beta]
                if not in_p <= in_q:
                    return False
    return True


def oracle_twins(p, q) -> bool:
    """Twins from the definition: the unique order-preserving bijection between
    the domains fixes every shared point and carries ``h`` and ``i`` of ``p``
    onto those of ``q``."""
    if len(p.a) != len(q.a):
        return False
    e = dict(zip(sorted(p.a), sorted(q.a)))
    if any(e[x] != x for x in set(p.a) & set(q.a)):
        return False
    for x in p.a:
        if {e[v] for v in p.h[x]} != set(q.h[e[x]]):
            return False
    for x, y in combinations(sorted(p.a), 2):
        if {e[v] for v in p.i[(x, y)]} != set(q.i[(e[x], e[y])]):
            return False
    return True


def oracle_twin_violations(p, q) -> list[str]:
    """The clause-1 messages of the twin check, as the library named them
    before its shortcuts: every ``i`` value of ``p`` is transported through
    the bijection with ``i_value``, shared part included.  The size mismatch
    is the only message when the sizes differ; 1(i) and 1(ii) are checked
    only when 1(iii) holds."""
    if len(p.a) != len(q.a):
        return ["1 (domain sizes differ)"]
    m = dict(zip(p.a, q.a))
    common = frozenset(p.a) & frozenset(q.a)
    out = [f"1(iii) at {xi}" for xi in common if m[xi] != xi]
    if not out:
        for xi in p.a:
            if q.h[m[xi]] != frozenset(m[v] for v in p.h[xi]):
                out.append(f"1(i) at {xi}")
        for x, y in combinations(p.a, 2):
            if q.i_value(m[x], m[y]) != frozenset(m[v] for v in p.i_value(x, y)):
                out.append(f"1(ii) at {(x, y)}")
    return out


def oracle_good_twins(f, p, q) -> bool:
    """Good twins from the definition: twins that agree on ``i`` over the
    shared pairs, whose domains form a good pair for ``f``."""
    if not oracle_twins(p, q):
        return False
    shared = sorted(set(p.a) & set(q.a))
    if any(set(p.i[(x, y)]) != set(q.i[(x, y)]) for x, y in combinations(shared, 2)):
        return False
    return oracle_good_pair(f, p.a, q.a)


def oracle_anchor(p, q, eta):
    """The least ordinal in both domains whose neighbourhood set, in ``p`` or
    in ``q``, holds ``eta``; None when no shared ordinal's set holds it."""
    best = None
    for d in p.a:
        if d in q.a and (eta in p.h[d] or eta in q.h[d]):
            if best is None or d < best:
                best = d
    return best


def oracle_amalgamate(f, p, q):
    """The canonical common extension of good twins ``p`` and ``q`` as a
    triple ``(domain, h, i)``, built from the definition: a shared point
    takes the union of its two sets; a point of one side only takes its own
    set plus each point of the other side only whose anchor lies in that
    set; ``i`` is copied from the side holding both ends of a pair and is
    ``f`` cut to the domain on a mixed pair."""
    dom = sorted(set(p.a) | set(q.a))
    h = {}
    for xi in dom:
        if xi in p.a and xi in q.a:
            h[xi] = set(p.h[xi]) | set(q.h[xi])
            continue
        own, other = (p, q) if xi in p.a else (q, p)
        h[xi] = set(own.h[xi])
        for eta in other.a:
            if eta not in own.a:
                d = oracle_anchor(p, q, eta)
                if d is not None and d in own.h[xi]:
                    h[xi].add(eta)
    i = {}
    for x, y in combinations(dom, 2):
        if x in p.a and y in p.a:
            i[(x, y)] = set(p.i[(x, y)])
        elif x in q.a and y in q.a:
            i[(x, y)] = set(q.i[(x, y)])
        else:
            i[(x, y)] = set(f.value(x, y)) & set(dom)
    return dom, h, i


def oracle_validate(f, p) -> list[str]:
    """Clause-by-clause condition check, distinct from the library's
    validator and from every constructor under test."""
    problems: list[str] = []
    dom = set(p.a)
    if set(p.h) != dom:
        problems.append("i: h domain mismatch")
    if {frozenset(k) for k in p.i} != {frozenset(k) for k in combinations(dom, 2)}:
        problems.append("i: i domain mismatch")
    for xi, val in p.h.items():
        if not set(val) <= dom:
            problems.append(f"i: h({xi}) leaves the domain")
    for k, val in p.i.items():
        if not set(val) <= dom:
            problems.append(f"i: i{k} leaves the domain")
    if problems:
        return problems
    for xi in dom:
        if not p.h[xi] or max(p.h[xi]) != xi:
            problems.append(f"ii: max h({xi})")
    if problems:
        return problems
    for x, y in combinations(sorted(dom), 2):
        if not p.i[(x, y)] <= f.value(x, y):
            problems.append(f"iii: i({x},{y})")
    for x, y in combinations(sorted(dom), 2):
        count, value = oracle_star(p.h[x], p.h[y])
        assert count == 1, "star must be determined on h-values"
        union = set()
        for nu in p.i[(x, y)]:
            union |= p.h[nu]
        if not value <= union:
            problems.append(f"iv: pair ({x},{y})")
    return problems


def oracle_star_uncovered(p) -> list[tuple[tuple[int, int], list[int]]]:
    """Each domain pair ``(x, y)``, ``x < y``, at which clause (iv) fails,
    with the part of the star left uncovered as a sorted list.  Only pairs
    of points whose ``h`` is defined with the point itself as maximum are
    tested; the cover is the plain union of ``h`` over ``i{x,y}``, where an
    index without ``h`` and a missing ``i`` value add nothing."""
    def settled(x):
        return x in p.h and p.h[x] and max(p.h[x]) == x

    out = []
    for x, y in combinations(sorted(p.a), 2):
        if not (settled(x) and settled(y)):
            continue
        count, value = oracle_star(p.h[x], p.h[y])
        assert count == 1, "star must be determined on settled points"
        union = set()
        for nu in p.i.get((x, y), ()):
            union |= p.h.get(nu, set())
        left = set(value) - union
        if left:
            out.append(((x, y), sorted(left)))
    return out


def oracle_normal_form(c) -> bool:
    """Whether ``c`` has the shape every condition is built in: ``a`` a
    sorted tuple of distinct ints, ``h`` with int keys and ``i`` with keys
    ``(lo, hi)``, ``lo < hi``, and frozensets as all values."""
    return (
        type(c.a) is tuple
        and list(c.a) == sorted(set(c.a))
        and all(type(x) is int for x in c.a)
        and all(type(xi) is int and type(v) is frozenset for xi, v in c.h.items())
        and all(type(k) is tuple and len(k) == 2 and k[0] < k[1] and type(v) is frozenset for k, v in c.i.items())
    )


def oracle_leq(p, q) -> bool:
    if not set(q.a) <= set(p.a):
        return False
    if any(p.h[xi] & set(q.a) != q.h[xi] for xi in q.a):
        return False
    return all(p.i[k] == q.i[k] for k in q.i)


def oracle_pair_closure_rounds(f, base, partners) -> tuple[frozenset, int]:
    """From-scratch fixed point and its number of growing rounds: every round
    rebuilds the whole union, rescanning every pair of the current set and of
    the set against the partners."""
    cur = frozenset(base)
    side = frozenset(partners)
    rounds = 0
    while True:
        nxt = set(cur)
        for xi in cur:
            for eta in cur | side:
                if xi != eta:
                    nxt |= f.value(xi, eta)
        if frozenset(nxt) == cur:
            return cur, rounds
        cur = frozenset(nxt)
        rounds += 1


def oracle_pair_closure(f, base, partners) -> frozenset:
    return oracle_pair_closure_rounds(f, base, partners)[0]


def oracle_minimal_nbhd(space, x) -> frozenset:
    """Intersect the subbase elements containing x, cut to the carrier: for
    each gamma, H(gamma) when it holds x, else its complement among all
    ordinals, so that a point x outside the carrier is served too."""
    out = frozenset(range(space.kappa))
    for gamma in range(space.kappa):
        if x in space.H[gamma]:
            out = out & space.H[gamma]
        else:
            out = out - space.H[gamma]
    return out


def oracle_closure(space, Y) -> frozenset:
    ys = frozenset(Y)
    return frozenset(x for x in range(space.kappa) if oracle_minimal_nbhd(space, x) & ys)


def oracle_is_free_sequence(space, seq) -> bool:
    """Cut by cut: the closures of initial segment and tail are disjoint."""
    return all(not oracle_closure(space, seq[:k]) & oracle_closure(space, seq[k:]) for k in range(len(seq) + 1))


def oracle_cantor_bendixson(space) -> dict:
    """Strip isolated points stage by stage until none is left or the rest is
    perfect; each point's rank is the stage that strips it."""
    remaining = set(range(space.kappa))
    nbhds = {x: oracle_minimal_nbhd(space, x) for x in remaining}
    ranks = {}
    stage = 0
    while remaining:
        isolated = [x for x in remaining if nbhds[x] & remaining == {x}]
        if not isolated:
            break
        for x in isolated:
            ranks[x] = stage
        remaining -= set(isolated)
        stage += 1
    return ranks
