"""Ground combinatorics on a finite ordinal carrier.

The carrier is ``{0, ..., kappa-1}``.  A :class:`PairFunction` assigns to
every unordered pair ``{a, b}`` of distinct carrier ordinals a finite set
``f{a,b}`` of ordinals strictly below ``min(a, b)``.  On top of it live the
good-pair clauses (what they demand of ``f``, and which of them fail), the
closure operator ``pair_closure`` and the group-intersection search
``search_common_lower_bound``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from .errors import BadArgument

MAX_KAPPA = 64  # the largest carrier the commands and the suites accept


def check_kappa(kappa: int) -> int:
    """``kappa`` itself, if it is a carrier size between 1 and :data:`MAX_KAPPA`."""
    if not 1 <= kappa <= MAX_KAPPA:
        raise BadArgument(f"kappa must be between 1 and {MAX_KAPPA}, got {kappa}")
    return kappa


def check_density(density: float) -> None:
    """Refuse a ``density`` that is not a probability, NaN included."""
    if not 0.0 <= density <= 1.0:
        raise BadArgument(f"density must be between 0 and 1, got {density}")


def pair(x: int, y: int) -> tuple[int, int]:
    """Order a two-element pair as ``(lo, hi)``."""
    if x == y:
        raise BadArgument(f"pair needs distinct ordinals, got {x} twice")
    return (x, y) if x < y else (y, x)


def _checked_entry(kappa: int, key: tuple[int, int], val: Iterable[int]) -> tuple[tuple[int, int], frozenset[int]]:
    """Normalize one ``(pair, value)`` entry, rejecting a pair outside the
    carrier or a value not below the pair's minimum."""
    a, b = pair(*key)
    if a < 0 or b >= kappa:
        raise BadArgument(f"pair ({a},{b}) lies outside the carrier 0..{kappa - 1}")
    fs = frozenset(int(g) for g in val)
    if any(g < 0 or g >= a for g in fs):
        raise BadArgument(f"value of pair ({a},{b}) must lie below {a}, got {sorted(fs)}")
    return (a, b), fs


@dataclass(frozen=True, eq=True)
class PairFunction:
    """Total map from unordered carrier pairs to subsets below their minimum.

    ``values`` holds an entry for every pair ``(a, b)`` with ``a < b < kappa``;
    each value is a subset of ``{0, ..., a-1}``.  :meth:`build` validates every
    entry, :meth:`updated` only its overrides; :func:`random_pair_function`
    draws values valid by construction and validates none.
    """

    kappa: int
    values: Mapping[tuple[int, int], frozenset[int]]

    @staticmethod
    def build(kappa: int, entries: Mapping[tuple[int, int], Iterable[int]] | None = None) -> "PairFunction":
        """Normalize ``entries`` and fill every missing pair with the empty set."""
        check_kappa(kappa)
        values = {(a, b): frozenset() for a in range(kappa) for b in range(a + 1, kappa)}
        values.update(_checked_entry(kappa, key, val) for key, val in (entries or {}).items())
        return PairFunction(kappa, values)

    def value(self, x: int, y: int) -> frozenset[int]:
        return self.values[pair(x, y)]

    def updated(self, overrides: Mapping[tuple[int, int], Iterable[int]]) -> "PairFunction":
        """A copy with the given pairs replaced; unchanged values are shared."""
        values = dict(self.values)
        values.update(_checked_entry(self.kappa, key, val) for key, val in overrides.items())
        return PairFunction(self.kappa, values)

    def check_members(self, *sets: Iterable[int]) -> None:
        for s in sets:
            for x in s:
                if x < 0 or x >= self.kappa:
                    raise BadArgument(f"ordinal {x} outside carrier of size {self.kappa}")


def random_pair_function(kappa: int, density: float, seed: int) -> PairFunction:
    """Seed-deterministic pair function; each eligible ordinal enters with
    probability ``density``, independently."""
    check_kappa(kappa)
    check_density(density)
    rng = random.Random(seed)
    values: dict[tuple[int, int], frozenset[int]] = {}
    for a in range(kappa):
        for b in range(a + 1, kappa):
            values[(a, b)] = frozenset(g for g in range(a) if rng.random() < density)
    return PairFunction(kappa, values)


def good_pair_demands(
    f: PairFunction, x: Iterable[int], y: Iterable[int]
) -> list[tuple[int, int, frozenset[int], frozenset[int], frozenset[int]]]:
    """What the good-pair clauses ask of ``f`` on each pair of private points.

    For ``alpha`` in the overlap, ``beta`` only in ``x`` and ``gamma`` only in
    ``y``:

    * (a) ``alpha < beta`` and ``alpha < gamma`` force ``alpha in f{beta,gamma}``,
    * (b) ``alpha < beta`` forces ``f{alpha,gamma} <= f{beta,gamma}``,
    * (c) ``alpha < gamma`` forces ``f{alpha,beta} <= f{gamma,beta}``.

    One entry ``(beta, gamma, a, b, c)`` per pair, ``beta`` then ``gamma``
    ascending, names the sets each clause asks ``f{beta,gamma}`` to contain:
    (a) the shared points below ``min(beta, gamma)``, (b) the union of
    ``f{alpha,gamma}`` over shared ``alpha < beta`` and (c) that of
    ``f{alpha,beta}`` over shared ``alpha < gamma``, read from prefix unions
    built once per private point along the sorted overlap.  The domains form
    a good pair when ``f`` meets every demand.  The demands read only pairs
    with a shared end, so raising each ``f{beta,gamma}`` to ``a | b | c``
    leaves them as they are and makes the pair good.
    """
    xs, ys = frozenset(x), frozenset(y)
    f.check_members(xs, ys)
    shared = sorted(xs & ys)
    only_x, only_y = xs - ys, ys - xs
    if not (shared and only_x and only_y):
        return []
    fv = f.values
    below = {u: bisect_left(shared, u) for u in only_x | only_y}  # shared points under u
    prefix = {}  # u -> [union of f{alpha,u} over the first k shared alpha, for k = 0, 1, ...]
    for u in below:
        unions = prefix[u] = [frozenset()]
        for alpha in shared:
            unions.append(unions[-1] | fv[(alpha, u) if alpha < u else (u, alpha)])
    lower = [frozenset(shared[:k]) for k in range(len(shared) + 1)]  # the first k shared points
    out = []
    for beta in sorted(only_x):
        kb, from_beta = below[beta], prefix[beta]
        for gamma in sorted(only_y):
            kg = below[gamma]
            out.append((beta, gamma, lower[min(kb, kg)], prefix[gamma][kb], from_beta[kg]))
    return out


def good_pair_violations(f: PairFunction, x: Iterable[int], y: Iterable[int]) -> list[str]:
    """Clause-by-clause check of the good-pair predicate; empty means good.
    Each message names the clause and the pair of private points, in the
    order of :func:`good_pair_demands`."""
    out: list[str] = []
    for beta, gamma, a, b, c in good_pair_demands(f, x, y):
        v = f.values[(beta, gamma) if beta < gamma else (gamma, beta)]
        if not (a <= v and b <= v and c <= v):
            out.extend(f"({k}) at beta={beta}, gamma={gamma}" for k, need in zip("abc", (a, b, c)) if not need <= v)
    return out


@dataclass(frozen=True)
class ClosureResult:
    """Fixed point of the pair-value closure plus the number of growing rounds."""

    closure: frozenset[int]
    iterations: int


def pair_closure(f: PairFunction, base: Iterable[int], partners: Iterable[int]) -> ClosureResult:
    """Least set containing ``base`` that is closed under taking ``f``-values
    against itself and against ``partners``.

    Rounds scan ordinals in ascending order; a round that adds nothing stops
    the iteration.  Values of ``f`` sit below both arguments, so the maximum
    never grows.
    """
    cur = frozenset(base)
    side = frozenset(partners)
    f.check_members(cur, side)
    rounds = 0
    while True:
        added: set[int] = set()
        for xi in sorted(cur):
            for eta in sorted(cur | side):
                if xi != eta:
                    added.update(f.value(xi, eta) - cur)
        if not added:
            return ClosureResult(cur, rounds)
        cur |= added
        rounds += 1


def search_common_lower_bound(
    f: PairFunction,
    c_list: Sequence[Iterable[int]],
    bound: Iterable[int],
    n: int,
) -> Optional[list[int]]:
    """First (lexicographic) choice of ``n`` groups whose pairwise ``f``-values
    all contain ``bound``; ``None`` when the exhaustive scan finds no witness.
    """
    if n < 1:
        raise BadArgument(f"--n must be at least 1, got {n}")
    groups = [frozenset(c) for c in c_list]
    b = frozenset(bound)
    f.check_members(b, *groups)
    for (i, ci), (j, cj) in combinations(enumerate(groups), 2):
        if ci & cj:
            raise BadArgument(f"groups {i} and {j} overlap on {sorted(ci & cj)}")
    if b:
        top = max(b)
        for i, ci in enumerate(groups):
            if ci and min(ci) <= top:
                raise BadArgument(f"max(bound)={top} not below group {i} (min {min(ci)})")

    def covered(chosen: tuple[int, ...]) -> bool:
        for i, j in combinations(chosen, 2):
            for xi in groups[i]:
                for eta in groups[j]:
                    if not b <= f.value(xi, eta):
                        return False
        return True

    for chosen in combinations(range(len(groups)), n):
        if covered(chosen):
            return list(chosen)
    return None
