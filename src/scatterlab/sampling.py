"""Seeded generators: valid conditions, good-twin pairs, insertion
instances, spaces, and a canonical small-domain condition enumerator.

All generators take an explicit :class:`random.Random` (or seed) and are
deterministic given it.  They produce inputs that satisfy the relevant
preconditions by construction; the test suites then verify the constructed
objects against the independent validity checks.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import Iterator, Optional, Sequence

from .amalgam import InsertionLayout
from .errors import BadArgument
from .generic import (
    FilterSample,
    Goal,
    NbhdGoal,
    PointGoal,
    SpaceModel,
    assemble_space,
    sample_filter,
)
from .poset import Condition, extend_into_neighbourhood, extend_with_point, h_union, star
from .universe import PairFunction, good_pair_demands, pair, random_pair_function


def _subsets(pool: Sequence[int]) -> Iterator[tuple[int, ...]]:
    for r in range(len(pool) + 1):
        yield from combinations(pool, r)


def random_subset(rng: random.Random, pool: Sequence[int]) -> frozenset[int]:
    """Each member of ``pool`` enters with probability one half."""
    return frozenset(x for x in pool if rng.random() < 0.5)


def _extend_randomly(
    p: Condition, rng: random.Random, points: Sequence[int], chance: float, cap: Optional[int]
) -> Condition:
    """``p`` extended by each of ``points`` in turn: with probability ``chance``
    into the neighbourhood of a random larger ``beta``, avoiding at most ``cap``
    points below it (``None``: no cap), otherwise as an isolated point."""
    for alpha in points:
        larger = [b for b in p.a if b > alpha]
        if larger and rng.random() < chance:
            beta = rng.choice(larger)
            below = [x for x in p.a if x < beta]
            most = len(below) if cap is None else min(cap, len(below))
            b = frozenset(rng.sample(below, rng.randint(0, most)))
            p = extend_into_neighbourhood(p, beta, b, alpha)
        else:
            p = extend_with_point(p, alpha)
    return p


def random_condition(
    f: PairFunction,
    rng: random.Random,
    size: int,
    universe: Optional[Sequence[int]] = None,
) -> Condition:
    """Valid condition built by a random extension chain, then with the
    covering index enlarged inside the pair function's values.

    Point extensions keep neighbourhood sets flat; neighbourhood-hitting
    extensions (which need an already-present larger point) overlap them.
    Each pair with room left in its pair-function value then gains, with
    probability one half, a random part of that room.  Enlarging ``i`` only
    weakens clause (iv), so validity is preserved.
    """
    pool = list(universe if universe is not None else range(f.kappa))
    size = min(size, len(pool))
    chosen = rng.sample(pool, size)
    p = _extend_randomly(Condition.empty(), rng, chosen, 0.6, None)
    i = dict(p.i)
    for x, y in combinations(p.a, 2):
        room = (f.value(x, y) & frozenset(p.a)) - p.i_value(x, y)
        if room and rng.random() < 0.5:
            i[pair(x, y)] = p.i_value(x, y) | random_subset(rng, sorted(room))
    return Condition(p.a, p.h, i)


def iter_conditions(f: PairFunction, domain: Sequence[int]) -> Iterator[Condition]:
    """All valid conditions on ``domain``, in a canonical order.

    Neighbourhood maps run through every clause-(ii) choice; for each map
    and each pair the covering value runs through the least subset of the
    pair function's trace that covers the star (by size, then position) and,
    when different, the full trace.  Enlarging a covering value keeps
    validity, so the two ends bracket the per-pair choices.
    """
    dom = tuple(sorted(set(domain)))
    if not dom:
        yield Condition.empty()
        return
    per_point: list[list[frozenset[int]]] = []
    for xi in dom:
        below = [x for x in dom if x < xi]
        per_point.append([frozenset(sub) | {xi} for sub in _subsets(below)])
    pairs = list(combinations(dom, 2))
    for combo in product(*per_point):
        h = dict(zip(dom, combo))
        per_pair: list[list[frozenset[int]]] = []
        feasible = True
        for x, y in pairs:
            st = star(h[x], h[y])
            room = sorted(f.value(x, y) & frozenset(dom))
            choices: list[frozenset[int]] = []
            for sub in _subsets(room):
                if st <= h_union(h, sub):
                    choices.append(frozenset(sub))
                    break
            if not choices:
                feasible = False
                break
            full = frozenset(room)
            if full != choices[0]:
                choices.append(full)
            per_pair.append(choices)
        if not feasible:
            continue
        for ivals in product(*per_pair):
            yield Condition(dom, h, dict(zip(pairs, ivals)))


def good_twin_pair(
    f: PairFunction,
    rng: random.Random,
    size: int = 4,
) -> tuple[PairFunction, Condition, Condition]:
    """A good-twin pair over a repaired copy of ``f``.

    A base condition is sampled, its domain suffix is relabelled to fresh
    ordinals through the order isomorphism.  ``f`` is then enlarged where
    the relabelled condition's ``i`` leaves it, and after that by the
    :func:`~scatterlab.universe.good_pair_demands` of the two domains over
    the enlarged function.  Enlarging ``f`` never harms the base condition's
    validity, and the demands read no pair that their repair changes.
    """
    reserve = max(2, size)
    low_pool = list(range(max(1, f.kappa - reserve)))
    p = random_condition(f, rng, size, universe=low_pool)
    cut = rng.randint(0, len(p.a))
    common = p.a[:cut]
    upper = p.a[cut:]
    fresh_pool = sorted(set(range(f.kappa)) - set(p.a))
    fresh_pool = [x for x in fresh_pool if not common or x > max(common)]
    if len(fresh_pool) < len(upper):
        return f, p, p  # not enough room to relabel; identical twins
    targets = sorted(rng.sample(fresh_pool, len(upper)))
    e = dict(zip(common, common))
    e.update(zip(upper, targets))

    h2 = {e[xi]: frozenset(e[v] for v in p.h[xi]) for xi in p.a}
    i2 = {
        pair(e[x], e[y]): frozenset(e[v] for v in p.i_value(x, y))
        for x, y in combinations(p.a, 2)
    }
    q = Condition([e[x] for x in p.a], h2, i2)

    fv = f.values
    grown = {k: fv[k] | v for k, v in q.i.items() if not v <= fv[k]}
    f1 = f.updated(grown) if grown else f
    repairs = {}
    for beta, gamma, *needs in good_pair_demands(f1, p.a, q.a):
        have = f1.value(beta, gamma)
        need = have.union(*needs)
        if len(need) > len(have):
            repairs[pair(beta, gamma)] = need
    f2 = f1.updated(repairs) if repairs else f1
    return f2, p, q


def insertion_instance(
    rng: random.Random,
    kappa: int = 24,
    k: int = 1,
    q_size: int = 2,
    extra_points: int = 2,
    density: float = 0.4,
) -> tuple[PairFunction, Condition, InsertionLayout]:
    """A condition plus layout satisfying the insertion hypotheses.

    The pair function is repaired so that the ``F``-block is mutually tied
    over the base domain and cannot be told apart from its ``E``-point by
    any ordinal of the eventual ``S``-block.  The base condition on
    ``Q | E`` is extended with the ``F``-points (whose neighbourhood sets
    swallow the whole base domain) and then with fresh low points, some
    isolated (these end up in the uncovered block ``C``) and some inserted
    into neighbourhoods.  Hypothesis (i) is preserved by every extension:
    the new point joins both sets of an aligned pair exactly when its host
    sits in their intersection, which equals the union over ``Q | E``.
    """
    need = q_size + extra_points + k + 2 * k
    if kappa < need + 2:
        raise BadArgument(f"kappa={kappa} too small for the requested layout")
    ordinals = sorted(rng.sample(range(kappa), need))
    low, rest = ordinals[: q_size + extra_points], ordinals[q_size + extra_points:]
    q_part = sorted(rng.sample(low, q_size))
    s_extra = sorted(set(low) - set(q_part))
    e_part = rest[:k]
    f_part = rest[k:]
    gamma_pairs = tuple((f_part[2 * j], f_part[2 * j + 1]) for j in range(k))

    f = random_pair_function(kappa, density, rng.randint(0, 2**32))
    overrides: dict[tuple[int, int], frozenset[int]] = {}
    base_dom = frozenset(q_part) | frozenset(e_part)
    for x, y in combinations(sorted(f_part), 2):
        overrides[pair(x, y)] = f.value(x, y) | base_dom
    for j in range(k):
        gi = e_part[j]
        g0, g1 = gamma_pairs[j]
        for xi in low:
            v = f.value(xi, gi)
            overrides[pair(xi, g0)] = v
            overrides[pair(xi, g1)] = v
    f = f.updated(overrides)

    base = random_condition(f, rng, len(base_dom), universe=sorted(base_dom))

    h = dict(base.h)
    i = dict(base.i)
    dom = list(base.a)
    base_set = frozenset(base.a)
    for g in f_part:
        h[g] = frozenset((g,)) | base_set
        dom.append(g)
    for x, y in combinations(sorted(f_part), 2):
        i[pair(x, y)] = base_set
    for xi in base.a:
        for g in f_part:
            i[pair(xi, g)] = frozenset()
    s = _extend_randomly(Condition(dom, h, i), rng, s_extra, 0.4, 2)

    layout = InsertionLayout(
        S=frozenset(q_part) | frozenset(s_extra),
        E=frozenset(e_part),
        F=frozenset(f_part),
        Q=frozenset(q_part),
        gamma_pairs=gamma_pairs,
    )
    return f, s, layout


def space_schedule(
    f: PairFunction,
    rng: random.Random,
    kappa: int,
    nbhd_goals: int = 10,
) -> list[Goal]:
    """Full point schedule with neighbourhood goals spliced in.

    A prefix of points is added first.  Each neighbourhood goal targets a
    prefix point and reserves one not-yet-added ordinal below it for its
    hitting set, so the goal is insertable when it runs; once the reserve
    runs dry the goal carries its own target instead, which makes it met on
    arrival.  Extra hitting-set members come from the prefix only, so no
    goal can consume another goal's reserve.  The remaining points follow.
    """
    prefix_len = max(2, rng.randint(kappa // 2, kappa))
    order = list(range(kappa))
    rng.shuffle(order)
    prefix, suffix = order[:prefix_len], order[prefix_len:]
    goals: list[Goal] = [PointGoal(a) for a in prefix]
    added = set(prefix)
    reserve_pool = set(suffix)
    candidates = [beta for beta in prefix if beta > 0]
    for _ in range(nbhd_goals if candidates else 0):
        beta = rng.choice(candidates)
        below_dom = sorted(x for x in added if x < beta)
        b = frozenset(rng.sample(below_dom, rng.randint(0, min(2, len(below_dom)))))
        z: set[int] = set(rng.sample(sorted(added), min(len(added), rng.randint(0, 2))))
        reserved = sorted(m for m in reserve_pool if m < beta)
        if reserved:
            m = rng.choice(reserved)
            reserve_pool.discard(m)
            z.add(m)
        else:
            z.add(beta)  # beta always sits in its own neighbourhood
        goals.append(NbhdGoal(beta, b, frozenset(z)))
    goals.extend(PointGoal(a) for a in suffix)
    return goals


def random_space(
    f: PairFunction,
    seed: int,
    nbhd_goals: int = 10,
) -> tuple[SpaceModel, FilterSample, list[Goal]]:
    """Sampled space over the whole carrier of ``f`` via a generated schedule."""
    rng = random.Random(seed)
    goals = space_schedule(f, rng, f.kappa, nbhd_goals)
    sample = sample_filter(f, f.kappa, goals, seed=rng.randint(0, 2**32))
    return assemble_space(sample), sample, goals
