"""Good twins and the two amalgamation constructions.

Two conditions are *twins* when the unique order-preserving bijection
between their domains is an isomorphism of the triples and fixes the common
part.  *Good* twins additionally agree on ``i`` over the common pairs and
have domains that form a good pair for the ambient pair function.  One
checker, :func:`good_twin_violations`, names the failed clauses; the twin
test and the re-check in :func:`verify_membership_equiv` call it.  For good
twins the canonical common extension is assembled pointwise.  The anchor of
a point, ``delta_xi``, is the least shared ordinal whose neighbourhood set
contains it; :func:`anchors` tabulates it once per pair, and one rule reads
the table: a private neighbourhood set gains the foreign points whose anchor
it contains.

``insertion_construction`` is the layered variant: a condition whose domain
splits into layers ``S < E < F`` is rebuilt on ``S | E`` so that the part of
``S`` not yet covered from ``Q | E`` is injected into the neighbourhood set
of the least ``E``-point, while all traces that matter are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .errors import HypothesisViolated, NotGoodTwins
from .poset import Condition, h_union, validate_condition
from .universe import PairFunction, good_pair_violations


def good_twin_violations(f: PairFunction | None, p: Condition, p_prime: Condition) -> list[str]:
    """Names of the failed good-twin clauses; empty means good twins.

    Clause 1 is the twin clause: equal sizes, (iii) the shared points are
    fixed, and the natural bijection carries (i) ``h`` and (ii) ``i``.
    Clause 2 is agreement of ``i`` on the shared pairs, and clause 3 asks
    the domains to form a good pair for ``f``; it is skipped when ``f`` is
    ``None``.  This is the only evaluation of the clauses in the package.
    """
    out: list[str] = []
    if len(p.a) != len(p_prime.a):
        return ["1 (domain sizes differ)"]
    m = dict(zip(p.a, p_prime.a))
    common = frozenset(p.a) & frozenset(p_prime.a)
    for xi in common:
        if m[xi] != xi:
            out.append(f"1(iii) at {xi}")
    if not out:
        for xi in p.a:
            if p_prime.h[m[xi]] != frozenset(m[v] for v in p.h[xi]):
                out.append(f"1(i) at {xi}")
        for x, y in combinations(p.a, 2):
            if p_prime.i_value(m[x], m[y]) != frozenset(m[v] for v in p.i_value(x, y)):
                out.append(f"1(ii) at {(x, y)}")
    for x, y in combinations(sorted(common), 2):
        if p.i_value(x, y) != p_prime.i_value(x, y):
            out.append(f"2 at {(x, y)}")
    if f is not None and good_pair_violations(f, p.a, p_prime.a):
        out.append("3 (domains not a good pair)")
    return out


def are_twins(p: Condition, p_prime: Condition) -> Optional[tuple[tuple[int, int], ...]]:
    """The natural domain bijection as ``((x, x'), ...)`` pairs when it is an
    isomorphism fixing the overlap (clause 1 of :func:`good_twin_violations`);
    ``None`` otherwise.  Empty twins give ``()``."""
    if any(c.startswith("1") for c in good_twin_violations(None, p, p_prime)):
        return None
    return tuple(zip(p.a, p_prime.a))


def delta_xi(p: Condition, p_prime: Condition, xi: int) -> Optional[int]:
    """Least shared-domain ordinal whose neighbourhood set (in either twin)
    contains ``xi``; ``None`` when no such ordinal exists."""
    common = frozenset(p.a) & frozenset(p_prime.a)
    hits = [d for d in sorted(common) if xi in p.h[d] or xi in p_prime.h[d]]
    return hits[0] if hits else None


def anchors(p: Condition, p_prime: Condition) -> dict[int, Optional[int]]:
    """The ``delta_xi`` anchor of every point of either domain."""
    return {xi: delta_xi(p, p_prime, xi) for xi in frozenset(p.a) | frozenset(p_prime.a)}


def _join_foreign(own: frozenset[int], foreign: Iterable[int], anchor: dict[int, Optional[int]]) -> frozenset[int]:
    """``own`` plus the foreign points whose anchor it contains; ``None`` is in no set."""
    return own | frozenset(eta for eta in foreign if anchor[eta] in own)


def amalgamate(f: PairFunction, p: Condition, p_prime: Condition) -> Condition:
    """Canonical common extension of a good-twin pair.

    The domain is the union.  A shared point keeps the union of its two
    neighbourhood sets; a point private to one side keeps its own set plus
    those foreign points whose anchor it already contains.  The covering
    index keeps both old indices and falls back to the ambient pair function
    on mixed pairs, cut to the domain.
    """
    bad = good_twin_violations(f, p, p_prime)
    if bad:
        raise NotGoodTwins(bad)
    a, a2 = frozenset(p.a), frozenset(p_prime.a)
    b = a | a2
    anchor = anchors(p, p_prime)

    g: dict[int, frozenset[int]] = {}
    for xi in b:
        if xi in a and xi in a2:
            g[xi] = p.h[xi] | p_prime.h[xi]
        else:
            own, foreign = (p, a2 - a) if xi in a else (p_prime, a - a2)
            g[xi] = _join_foreign(own.h[xi], foreign, anchor)

    j: dict[tuple[int, int], frozenset[int]] = {}
    for x, y in combinations(sorted(b), 2):
        if x in a and y in a:
            j[(x, y)] = p.i_value(x, y)
        elif x in a2 and y in a2:
            j[(x, y)] = p_prime.i_value(x, y)
        else:
            v = f.value(x, y)
            j[(x, y)] = v if v <= b else v & b  # f's own object when it fits: no copy
    return Condition(b, g, j)


def verify_membership_equiv(p: Condition, p_prime: Condition, f: PairFunction | None) -> bool:
    """Membership through the shared domain is equivalent to membership of
    the anchor.

    For every ``eta`` in one twin's domain and every shared ``delta``:
    ``eta in h(delta)`` exactly when ``delta_xi(eta)`` is defined and sits in
    ``h(delta)``.  The twin clauses are re-checked with
    :func:`good_twin_violations` (goodness only when ``f`` is not ``None``);
    a ``False`` return on a genuine good-twin pair is a bug witness, not an
    expected outcome.
    """
    bad = good_twin_violations(f, p, p_prime)
    if bad:
        raise NotGoodTwins(bad)
    common = frozenset(p.a) & frozenset(p_prime.a)
    anchor = anchors(p, p_prime)
    for one in (p, p_prime):
        for eta in one.a:
            for delta in common:
                if (eta in one.h[delta]) != (anchor[eta] in one.h[delta]):
                    return False
    return True


def g_well_defined(p: Condition, q: Condition) -> bool:
    """The three expressions for a shared point's merged neighbourhood set
    coincide: the union of both sets, and either set with the other side's
    private points joined by the foreign-point rule."""
    a, a2 = frozenset(p.a), frozenset(q.a)
    anchor = anchors(p, q)
    return all(
        p.h[xi] | q.h[xi] == _join_foreign(p.h[xi], a2 - a, anchor) == _join_foreign(q.h[xi], a - a2, anchor)
        for xi in a & a2
    )


@dataclass(frozen=True)
class InsertionLayout:
    """Layer data for the insertion construction.

    ``S``, ``E``, ``F`` partition the condition's domain in strictly
    increasing blocks, ``Q`` is a subset of ``S``, and ``gamma_pairs`` aligns
    two ``F``-points with each ``E``-point in ascending order.
    """

    S: frozenset[int]
    E: frozenset[int]
    F: frozenset[int]
    Q: frozenset[int]
    gamma_pairs: tuple[tuple[int, int], ...]

    @property
    def gammas(self) -> tuple[int, ...]:
        return tuple(sorted(self.E))

    def check(self, domain: Iterable[int]) -> list[str]:
        dom = frozenset(domain)
        out: list[str] = []
        if not self.Q <= self.S:
            out.append("Q is not a subset of S")
        blocks = (self.S, self.E, self.F)
        if self.S | self.E | self.F != dom or sum(map(len, blocks)) != len(dom):
            out.append("S, E, F do not partition the domain")
        if not self.E:
            out.append("E must be nonempty")
        if self.S and self.E and max(self.S) >= min(self.E):
            out.append("S is not strictly below E")
        if self.E and self.F and max(self.E) >= min(self.F):
            out.append("E is not strictly below F")
        if len(self.F) != 2 * len(self.E):
            out.append("F must have twice the size of E")
        flat = [g for gp in self.gamma_pairs for g in gp]
        if len(self.gamma_pairs) != len(self.E) or sorted(flat) != sorted(self.F):
            out.append("gamma_pairs must enumerate F in pairs aligned with E")
        return out


def insertion_construction(f: PairFunction, s: Condition, layout: InsertionLayout) -> Condition:
    """Rebuild ``s`` on ``S | E`` with the uncovered part of ``S`` injected.

    Hypotheses are verified eagerly:

    * layout invariants (see :meth:`InsertionLayout.check`),
    * (i) each aligned ``F``-pair's neighbourhood sets intersect exactly in
      the union of ``h`` over ``Q | E``,
    * (ii) the pair function cannot tell an ``E``-point from its two aligned
      ``F``-points when paired against any point of ``S``.

    The result keeps ``h`` except that every ``E``-point whose neighbourhood
    set contains the least ``E``-point absorbs ``C``, the part of ``S`` not
    covered from ``Q | E``; the covering index is kept on ``[Q|E]^2`` and on
    ``[S]^2`` and falls back to the pair function elsewhere.
    """
    problems = layout.check(s.a)
    if problems:
        raise HypothesisViolated("layout: " + "; ".join(problems))
    report = validate_condition(f, s)
    if not report.ok:
        raise HypothesisViolated(f"input condition invalid: {report.clauses()}")

    qe = layout.Q | layout.E
    hqe = h_union(s.h, qe)
    gammas = layout.gammas
    for idx, (g0, g1) in enumerate(layout.gamma_pairs):
        if s.h[g0] & s.h[g1] != hqe:
            raise HypothesisViolated(f"(i) fails at pair index {idx} ({g0},{g1})")
    for idx, (g0, g1) in enumerate(layout.gamma_pairs):
        gi = gammas[idx]
        for xi in layout.S:
            if not f.value(xi, gi) == f.value(xi, g0) == f.value(xi, g1):
                raise HypothesisViolated(f"(ii) fails at xi={xi}, pair index {idx}")

    c = layout.S - hqe
    new_dom = layout.S | layout.E
    gamma0 = gammas[0]
    h: dict[int, frozenset[int]] = {}
    for xi in new_dom:
        if xi in layout.E and gamma0 in s.h[xi]:
            h[xi] = s.h[xi] | c
        else:
            h[xi] = s.h[xi]
    i: dict[tuple[int, int], frozenset[int]] = {}
    for x, y in combinations(sorted(new_dom), 2):
        if (x in qe and y in qe) or (x in layout.S and y in layout.S):
            i[(x, y)] = s.i_value(x, y)
        else:
            v = f.value(x, y)
            i[(x, y)] = v if v <= new_dom else v & new_dom  # f's own object when it fits: no copy
    return Condition(new_dom, h, i)
