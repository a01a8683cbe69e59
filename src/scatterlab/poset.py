"""The poset of finite conditions.

A condition is a triple ``(a, h, i)``: a finite ascending domain ``a``, a
neighbourhood-set map ``h`` assigning each ``xi in a`` a subset of ``a`` with
maximum ``xi``, and a covering index ``i`` assigning each unordered domain
pair a subset of ``a`` drawn from the ambient pair function.  The binding
clause is (iv): ``h(xi) * h(eta)`` must be covered by the union of ``h`` over
``i{xi,eta}``, where ``*`` is the asymmetric combinator below.

Extensions (``extend_with_point``, ``extend_into_neighbourhood``) produce
strictly stronger conditions and witness the density facts the sampler in
:mod:`scatterlab.generic` relies on.

A trace (``restrict``) is a :class:`Condition` on a domain subset plus an
``is_condition`` flag; it compares equal to the :class:`Condition` with the
same triple, and the extension order on traces is ``leq`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from .errors import BadArgument, EqualSup
from .universe import PairFunction, pair

_EMPTY: frozenset[int] = frozenset()  # every new ``i`` value: CPython keeps no empty-frozenset singleton


def star(x: Iterable[int], y: Iterable[int]) -> frozenset[int]:
    """Asymmetric set combinator.

    Intersection when neither maximum belongs to the other set, otherwise the
    difference that removes the set containing the other's maximum.
    """
    xs, ys = frozenset(x), frozenset(y)
    if not xs or not ys:
        raise BadArgument("star needs nonempty operands")
    mx, my = max(xs), max(ys)
    if mx == my:
        raise EqualSup(f"star undefined for equal maxima ({mx})")
    if mx in ys:
        return xs - ys
    if my in xs:
        return ys - xs
    return xs & ys


class Condition:
    """Immutable condition triple.

    Construction only normalizes shapes (sorted domain, frozenset values,
    ordered pair keys); whether the triple actually satisfies clauses
    (i)-(iv) is decided by :func:`validate_condition`.
    """

    __slots__ = ("a", "h", "i")

    def __init__(
        self,
        a: Iterable[int] = (),
        h: Mapping[int, Iterable[int]] | None = None,
        i: Mapping[tuple[int, int], Iterable[int]] | None = None,
    ):
        self.a: tuple[int, ...] = tuple(sorted(set(a)))
        self.h: dict[int, frozenset[int]] = {
            int(xi): frozenset(v) for xi, v in (h or {}).items()
        }
        self.i: dict[tuple[int, int], frozenset[int]] = {
            pair(*k): frozenset(v) for k, v in (i or {}).items()
        }

    @classmethod
    def _from_parts(cls, a: tuple[int, ...], h: dict, i: dict) -> "Condition":
        """A condition from parts already in ``__init__``'s shape, without copies."""
        c = cls.__new__(cls)
        c.a, c.h, c.i = a, h, i
        return c

    @classmethod
    def empty(cls) -> "Condition":
        """The poset's top element: the condition with empty domain."""
        return cls()

    @classmethod
    def single(cls, alpha: int) -> "Condition":
        return cls((alpha,), {alpha: {alpha}}, {})

    def i_value(self, x: int, y: int) -> frozenset[int]:
        return self.i[pair(x, y)]

    def key(self):
        return (
            self.a,
            tuple(sorted((xi, tuple(sorted(v))) for xi, v in self.h.items())),
            tuple(sorted((k, tuple(sorted(v))) for k, v in self.i.items())),
        )

    def __eq__(self, other):
        if not isinstance(other, Condition):
            return NotImplemented
        return self.a == other.a and self.h == other.h and self.i == other.i

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Condition(a={list(self.a)})"


def h_union(h: Mapping[int, frozenset[int]], over: Iterable[int]) -> set[int]:
    """Union of the sets ``h[nu]`` for ``nu`` in ``over``: the cover that clause
    (iv) and its descendants test against.  ``h`` is a condition's ``h`` or a
    space's ``H``; an index where ``h`` is undefined adds nothing, which lets
    the validator measure covers of a condition whose ``h`` is partial."""
    out: set[int] = set()
    for nu in over:
        if nu in h:
            out |= h[nu]
    return out


@dataclass(frozen=True)
class Violation:
    clause: str
    at: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidityReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def clauses(self) -> list[str]:
        return sorted({v.clause for v in self.violations})


def validate_condition(f: PairFunction, p: Condition) -> ValidityReport:
    """Report every violated clause; an empty report certifies membership in
    the poset over ``f``.

    * (i)  ``h`` is total on ``a`` with values inside ``a``; ``i`` is total on
      the domain pairs with values inside ``a``.
    * (ii) ``max h(xi) = xi`` for every domain point.
    * (iii) ``i{xi,eta}`` is contained in ``f{xi,eta}`` (hence in its
      intersection with ``a``).
    * (iv) ``h(xi) * h(eta)`` is covered by the union of ``h`` over
      ``i{xi,eta}``.

    ``p.a`` is a sorted tuple of distinct ordinals (``Condition`` and
    ``restrict`` both make it so), so ``combinations(p.a, 2)`` yields the
    canonical pair keys of ``i`` and ``f``.  Clause (iv) computes on int masks
    local to this call; frozensets stay the representation of every
    condition, argument and report.
    """
    f.check_members(p.a, *p.h.values(), *p.i.values())
    dom = frozenset(p.a)
    out: list[Violation] = []

    for xi in p.a:
        if xi not in p.h:
            out.append(Violation("i", (xi,), f"h undefined at {xi}"))
        elif not p.h[xi] <= dom:
            out.append(Violation("i", (xi,), f"h({xi}) not inside the domain"))
    for xi in p.h:
        if xi not in dom:
            out.append(Violation("i", (xi,), f"h defined outside the domain at {xi}"))
    pairs = list(combinations(p.a, 2))
    expected_pairs = set(pairs)
    for k in p.i:
        if k not in expected_pairs:
            out.append(Violation("i", k, f"i defined at non-domain pair {k}"))
    for k in expected_pairs:
        if k not in p.i:
            out.append(Violation("i", k, f"i undefined at pair {k}"))
        elif not p.i[k] <= dom:
            out.append(Violation("i", k, f"i{k} not inside the domain"))

    # Points where clause (ii) holds; star is defined on their h-values.
    settled = {xi for xi, hv in p.h.items() if hv and max(hv) == xi}
    for xi in p.a:
        if xi in p.h and xi not in settled:
            out.append(Violation("ii", (xi,), f"max h({xi}) != {xi}"))

    for x, y in pairs:
        iv = p.i.get((x, y))
        if iv is not None and not iv <= f.values[(x, y)]:
            out.append(Violation("iii", (x, y), f"i{(x, y)} exceeds f{(x, y)}"))

    hm = {xi: sum(1 << v for v in hv) for xi, hv in p.h.items()}  # shifts >= 0: check_members ran
    for x, y in pairs:
        if not (x in settled and y in settled):
            continue  # already reported under (i) or (ii); star may be undefined
        # max h(x) = x < y = max h(y): star is h(x) - h(y) if x in h(y), else h(x) & h(y).
        left = hm[x] & ~hm[y] if hm[y] >> x & 1 else hm[x] & hm[y]
        for nu in p.i.get((x, y), ()):
            if not left:
                break
            left &= ~hm.get(nu, 0)
        if left:
            uncovered = [v for v in range(left.bit_length()) if left >> v & 1]
            out.append(Violation("iv", (x, y), f"star not covered at {(x, y)}: {uncovered}"))

    return ValidityReport(tuple(out))


def leq(p: Condition, q: Condition) -> bool:
    """Extension order: ``p`` is stronger than ``q``.

    Requires the larger domain, exact trace of ``h`` on the old domain, and
    agreement of ``i`` on the old pairs.  Both arguments are assumed valid
    over the same pair function.  ``q.a`` is a sorted tuple of distinct
    ordinals, so the tuples of ``combinations(q.a, 2)`` are already the
    canonical keys of ``i``.
    """
    qa = frozenset(q.a)
    if not qa.issubset(p.a):
        return False
    for xi in q.a:
        if p.h[xi] & qa != q.h[xi]:
            return False
    for k in combinations(q.a, 2):
        if p.i[k] != q.i[k]:
            return False
    return True


def basic_nbhd(p: Condition, alpha: int, b: Iterable[int]) -> frozenset[int]:
    """``h(alpha)`` minus the union of ``h`` over the avoidance set ``b``;
    ``b`` must be a subset of the domain below ``alpha``."""
    bs = frozenset(b)
    if alpha not in set(p.a):
        raise BadArgument(f"{alpha} not in domain {list(p.a)}")
    if not bs <= frozenset(x for x in p.a if x < alpha):
        raise BadArgument(f"b={sorted(bs)} is not a domain subset below {alpha}")
    return p.h[alpha] - h_union(p.h, bs)


class RestrictedCondition(Condition):
    """Trace of a condition on a domain subset: a :class:`Condition` whose
    domain ``a`` is the subset, plus the ``is_condition`` flag.

    ``h`` values are intersected with ``a``; ``i`` values are kept whole, so
    the trace is a genuine condition exactly when every kept ``i``-value lies
    inside ``a`` (the ``is_condition`` flag).  Equality and hashing are those
    of the triple, so a trace compares equal to a :class:`Condition` with the
    same ``(a, h, i)``.
    """

    __slots__ = ("is_condition",)

    def as_condition(self) -> Condition:
        if not self.is_condition:
            raise BadArgument(f"trace on {list(self.a)} keeps i-values outside the base")
        return Condition(self.a, self.h, self.i)


def restrict(p: Condition, b: Iterable[int]) -> RestrictedCondition:
    """The trace of ``p`` on ``b``.  Its ``a`` is sorted and free of repeats,
    like every condition's, so its pairs in ``combinations(a, 2)`` order are
    the canonical keys of ``i``."""
    bs = frozenset(b)
    if not bs.issubset(p.a):
        raise BadArgument(f"{sorted(bs)} is not a subset of the domain {list(p.a)}")
    a = tuple(sorted(bs))  # built from its parts: the hot path of the poset suite
    i = {k: v for k, v in p.i.items() if k[0] in bs and k[1] in bs}
    r = RestrictedCondition._from_parts(a, {xi: p.h[xi] & bs for xi in a}, i)
    r.is_condition = all(map(bs.issuperset, r.i.values()))
    return r


def leq_restricted(r1: Condition, r2: Condition) -> bool:
    """The extension order carried over to traces.  A trace's ``h``-values
    already lie inside its domain, so this is :func:`leq` on the triples;
    a condition is the trace of itself on its whole domain."""
    return leq(r1, r2)


def precedes(p: Condition, p_prime: Condition) -> bool:
    """Neighbourhood refinement on a fixed domain: every basic neighbourhood
    of ``p`` is contained in the matching one of ``p_prime``.  Tested
    pointwise, since the worst avoidance set for ``x in h(alpha)`` is
    ``{beta < alpha : x not in h(beta)}``: ``h(alpha) <= h'(alpha)``, and
    ``h(alpha) & h'(beta) <= h(beta)`` for every domain ``beta < alpha``."""
    if p.a != p_prime.a:
        raise BadArgument(f"domains differ: {list(p.a)} vs {list(p_prime.a)}")
    return all(
        p.h[alpha] <= p_prime.h[alpha] and all(p.h[alpha] & p_prime.h[beta] <= p.h[beta] for beta in p.a[:k])
        for k, alpha in enumerate(p.a)
    )


def _add_point(p: Condition, alpha: int, hosts: Iterable[int]) -> Condition:
    """``p`` plus the point ``alpha``: ``h(alpha) = {alpha}``, ``alpha`` joins
    ``h(nu)`` for each ``nu`` in ``hosts``, and every new ``i`` value is empty."""
    h = dict(p.h)
    for nu in hosts:
        h[nu] = h[nu] | {alpha}
    h[alpha] = frozenset((alpha,))
    i = dict(p.i)
    i.update((pair(alpha, xi), _EMPTY) for xi in p.a)
    return Condition._from_parts(tuple(sorted(p.a + (alpha,))), h, i)


def extend_with_point(p: Condition, alpha: int) -> Condition:
    """Add an isolated new point: ``h(alpha) = {alpha}``, empty new ``i``."""
    if alpha in set(p.a):
        raise BadArgument(f"{alpha} already in domain")
    return _add_point(p, alpha, ())


def extend_into_neighbourhood(p: Condition, beta: int, b: Iterable[int], alpha: int) -> Condition:
    """Add a new point ``alpha < beta`` that lands inside the basic
    neighbourhood of ``beta`` avoiding ``b``.

    The new point joins ``h(nu)`` exactly where ``beta`` already sits, which
    keeps clause (iv) intact and pins ``alpha`` into ``basic_nbhd(q, beta, b)``.
    """
    dom = set(p.a)
    bs = frozenset(b)
    if beta not in dom:
        raise BadArgument(f"beta={beta} not in domain")
    if not bs <= {x for x in dom if x < beta}:
        raise BadArgument(f"b={sorted(bs)} is not a domain subset below {beta}")
    if alpha in dom or not 0 <= alpha < beta:
        raise BadArgument(f"alpha={alpha} must be a fresh ordinal below {beta}")
    return _add_point(p, alpha, [nu for nu in p.a if beta in p.h[nu]])
