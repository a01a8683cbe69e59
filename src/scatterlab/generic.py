"""Filter sampling, space assembly, and the induced finite topology.

A genuine generic filter is replaced by a finite descending chain that hits
an explicit schedule of dense-set goals: point additions and
neighbourhood-hitting goals.  The assembled :class:`SpaceModel` carries the
family ``H`` (one right-separating neighbourhood set per carrier ordinal,
``max H(alpha) = alpha``) together with the covering index inherited from
the final condition.  The topology is the one generated by the sets ``H``
and their complements as a subbase; on a finite carrier every point has a
minimal open neighbourhood: the points in the same sets ``H``, that is with
the same signature (the bit mask of the sets ``H`` holding a point).  Closure,
free sequences and the isolated-point hierarchy are computed from signatures.

The convergence poset at a point ``alpha`` relative to a countable-stand-in
set ``A`` consists of pairs ``(s, C)``; stronger conditions grow both parts
while keeping new ``s``-points inside the basic neighbourhood of ``alpha``
that avoids ``C``.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import BadArgument, GoalUnsatisfiable, StuckNoFreshPoint
from .poset import Condition, basic_nbhd, extend_into_neighbourhood, extend_with_point, h_union, star
from .universe import PairFunction, pair


@dataclass(frozen=True)
class PointGoal:
    """Dense requirement: the point joins the domain."""

    alpha: int


@dataclass(frozen=True)
class NbhdGoal:
    """Dense requirement: the basic neighbourhood of ``beta`` avoiding ``b``
    meets ``Z``."""

    beta: int
    b: frozenset[int]
    Z: frozenset[int]

    def as_entry(self) -> dict:  # the goal's body as a schedule file writes it
        return {"beta": self.beta, "b": sorted(self.b), "Z": sorted(self.Z)}


Goal = Union[PointGoal, NbhdGoal]


@dataclass(frozen=True)
class GoalRecord:
    goal: Goal
    action: str  # "extended" or "already-met"
    chain_index: int
    chosen: Optional[int] = None


@dataclass(frozen=True)
class FilterSample:
    """Descending chain of conditions plus the log of goals it hit."""

    kappa: int
    chain: tuple[Condition, ...]
    schedule_log: tuple[GoalRecord, ...]

    @property
    def final(self) -> Condition:
        return self.chain[-1]


def sample_filter(
    f: PairFunction,
    kappa: int,
    goals: Sequence[Goal],
    seed: int,
) -> FilterSample:
    """Hit each goal in order, starting from the empty condition.

    Point goals already satisfied are recorded as met; neighbourhood goals
    are met by inserting a seed-chosen eligible ordinal of ``Z`` unless the
    neighbourhood already meets ``Z``.  Unsatisfiable goals raise
    :class:`GoalUnsatisfiable`, they are never skipped; a ``kappa`` or a goal
    outside ``f``'s carrier raises :class:`BadArgument`.
    """
    if not 1 <= kappa <= f.kappa:
        raise BadArgument(f"kappa={kappa} not within the pair function's carrier {f.kappa}")
    rng = random.Random(seed)
    chain: list[Condition] = [Condition.empty()]
    log: list[GoalRecord] = []
    for goal in goals:
        cur = chain[-1]
        dom = set(cur.a)
        if isinstance(goal, PointGoal):
            if not 0 <= goal.alpha < kappa:
                raise BadArgument(f"point goal {goal.alpha} outside carrier {kappa}")
            if goal.alpha in dom:
                log.append(GoalRecord(goal, "already-met", len(chain) - 1))
                continue
            chain.append(extend_with_point(cur, goal.alpha))
            log.append(GoalRecord(goal, "extended", len(chain) - 1, goal.alpha))
        elif isinstance(goal, NbhdGoal):
            if any(z < 0 or z >= kappa for z in (*goal.b, *goal.Z)) or not 0 <= goal.beta < kappa:
                entry = json.dumps(goal.as_entry())
                raise BadArgument(f"nbhd goal {entry} references ordinals outside carrier {kappa}")
            if goal.beta not in dom:
                raise GoalUnsatisfiable(f"beta={goal.beta} not yet in the domain")
            if not goal.b <= {x for x in dom if x < goal.beta}:
                raise GoalUnsatisfiable(
                    f"b={sorted(goal.b)} is not a domain subset below {goal.beta}"
                )
            if basic_nbhd(cur, goal.beta, goal.b) & goal.Z:
                log.append(GoalRecord(goal, "already-met", len(chain) - 1))
                continue
            eligible = sorted(z for z in goal.Z if z not in dom and z < goal.beta)
            if not eligible:
                raise GoalUnsatisfiable(
                    f"no insertable ordinal: Z={sorted(goal.Z)} exhausted below beta={goal.beta}"
                )
            alpha = rng.choice(eligible)
            chain.append(extend_into_neighbourhood(cur, goal.beta, goal.b, alpha))
            log.append(GoalRecord(goal, "extended", len(chain) - 1, alpha))
        else:
            raise GoalUnsatisfiable(f"unknown goal {goal!r}")
    return FilterSample(kappa, tuple(chain), tuple(log))


@dataclass(frozen=True)
class SpaceModel:
    """Finite carrier with the assembled family ``H`` and covering index."""

    kappa: int
    H: dict[int, frozenset[int]]
    i: dict[tuple[int, int], frozenset[int]]

    @property
    def carrier(self) -> range:
        return range(self.kappa)

    def nbhd(self, alpha: int, b: Iterable[int]) -> frozenset[int]:
        """``H(alpha)`` minus the union of ``H`` over ``b``."""
        return self.H[alpha] - h_union(self.H, b)


def assemble_space(sample: FilterSample) -> SpaceModel:
    """Union of the chain's ``h`` maps; points never added stay singletons."""
    H: dict[int, frozenset[int]] = {alpha: frozenset((alpha,)) for alpha in range(sample.kappa)}
    for p in sample.chain:
        for alpha in p.a:
            H[alpha] = H[alpha] | p.h[alpha]
    return SpaceModel(sample.kappa, H, dict(sample.final.i))


def max_invariant_violations(space: SpaceModel) -> list[int]:
    """Carrier points whose neighbourhood set is not right-separating."""
    return [
        alpha
        for alpha in space.carrier
        if not space.H[alpha] or max(space.H[alpha]) != alpha or min(space.H[alpha]) < 0
    ]


def check_star_containment(space: SpaceModel) -> tuple[bool, list[tuple[int, int]]]:
    """The star of two assembled neighbourhood sets stays covered by the
    union of ``H`` over their covering index.  A pair holding a point that
    :func:`max_invariant_violations` names is skipped: that report already
    flags it, and ``star`` may be undefined there."""
    unsettled = frozenset(max_invariant_violations(space))
    bad: list[tuple[int, int]] = []
    for (x, y), idx in sorted(space.i.items()):
        if x in unsettled or y in unsettled:
            continue
        if not star(space.H[x], space.H[y]) <= h_union(space.H, idx):
            bad.append((x, y))
    return (not bad, bad)


def _residue(space: SpaceModel, lo: int, hi: int) -> frozenset[int]:
    """What the pair ``lo < hi``'s covering index must cover: the surplus
    ``H(lo) - H(hi)`` when ``lo`` lies in ``H(hi)``, else ``H(lo) & H(hi)``."""
    return space.H[lo] - space.H[hi] if lo in space.H[hi] else space.H[lo] & space.H[hi]


def check_loc_comp_hypothesis(space: SpaceModel) -> bool:
    """For ``beta < alpha``: a member's surplus, or a non-member's overlap,
    is covered by the union of ``H`` over the pair's covering index."""
    return all(
        _residue(space, beta, alpha) <= h_union(space.H, idx) for (beta, alpha), idx in space.i.items()
    )


def subbase_witnesses(space: SpaceModel, alpha: int) -> list[tuple[int, int]]:
    """Failures of the inductive covering step for subbase covers at
    ``alpha``: for every larger ``gamma``, the part of ``H(alpha)`` outside
    (resp. inside) ``H(gamma)`` must be covered via the pair's index."""
    bad: list[tuple[int, int]] = []
    for gamma in range(alpha + 1, space.kappa):
        residue = _residue(space, alpha, gamma)
        if not residue:
            continue
        idx = space.i.get(pair(alpha, gamma))
        if idx is None or not residue <= h_union(space.H, idx):
            bad.append((alpha, gamma))
    return bad


def compactness_by_subbase(space: SpaceModel, alpha: int) -> bool:
    """Finite-carrier check of the subbase-cover compactness argument for
    ``H(alpha)``; covers by smaller sets are handled by the induction."""
    return not subbase_witnesses(space, alpha)


def is_coherent(space: SpaceModel) -> bool:
    """Membership forces containment of neighbourhood sets everywhere."""
    for alpha in space.carrier:
        for beta in space.H[alpha]:
            if not space.H[beta] <= space.H[alpha]:
                return False
    return True


def _signatures(space: SpaceModel) -> dict[int, int]:
    """Each carrier point, in carrier order, with its signature: the mask of
    the ``gamma`` whose ``H(gamma)`` holds it.  The minimal neighbourhood of
    ``x`` is cut from each ``H(gamma)`` holding ``x`` and each complement of
    one that does not, so it holds ``y`` exactly when ``y`` has ``x``'s
    signature: the minimal neighbourhoods are the classes of equal signature."""
    sig = dict.fromkeys(space.carrier, 0)
    for gamma in space.carrier:
        for y in space.H[gamma] & sig.keys():
            sig[y] |= 1 << gamma
    return sig


def minimal_nbhd(space: SpaceModel, x: int) -> frozenset[int]:
    """Intersection of the subbase elements (``H`` sets and complements) that
    hold ``x``: the carrier points with ``x``'s signature (:func:`_signatures`)."""
    mask = sum(1 << gamma for gamma in space.carrier if x in space.H[gamma])
    return frozenset(y for y, s in _signatures(space).items() if s == mask)


def closure(space: SpaceModel, Y: Iterable[int]) -> frozenset[int]:
    """Points whose minimal open neighbourhood meets ``Y``: those sharing a
    signature with a point of ``Y`` (:func:`_signatures`)."""
    ys = frozenset(Y)
    sig = _signatures(space)
    if any(y not in sig for y in ys):
        raise BadArgument(f"set {sorted(ys)} leaves the carrier {space.kappa}")
    wanted = {sig[y] for y in ys}
    return frozenset(x for x, s in sig.items() if s in wanted)


def is_free_sequence(space: SpaceModel, seq: Sequence[int]) -> bool:
    """Every cut separates the closures of initial segment and tail, which
    holds exactly when no two points of ``seq`` share a signature."""
    if len(set(seq)) != len(seq):
        raise BadArgument(f"sequence repeats points: {list(seq)}")
    sig = _signatures(space)
    if any(y not in sig for y in seq):
        raise BadArgument(f"set {sorted(seq)} leaves the carrier {space.kappa}")
    return len({sig[y] for y in seq}) == len(seq)


def cantor_bendixson(space: SpaceModel) -> dict[int, int]:
    """Rank of each point in the iterated isolated-point hierarchy; the points
    of a perfect kernel, where the derivative stabilizes, get no rank.

    On a finite carrier the hierarchy stops after stage 0, which removes the
    singleton classes of equal signature (:func:`_signatures`): every point
    left shares its minimal neighbourhood with another that remains, so none
    is isolated and the derivative is stable.
    """
    sig = _signatures(space)
    count = Counter(sig.values())
    return {x: 0 for x, s in sig.items() if count[s] == 1}


@dataclass(frozen=True)
class FUCondition:
    """Pair of finite sets: acquired points and avoided index set."""

    s: frozenset[int]
    C: frozenset[int]

    @staticmethod
    def make(s: Iterable[int] = (), C: Iterable[int] = ()) -> "FUCondition":
        return FUCondition(frozenset(s), frozenset(C))


def _check_ambient(space: SpaceModel, alpha: int, *conds: FUCondition) -> None:
    if alpha not in space.carrier:
        raise BadArgument(f"alpha={alpha} outside carrier {space.kappa}")
    for q in conds:
        if q.C and (min(q.C) < 0 or max(q.C) >= alpha):
            raise BadArgument(f"C={sorted(q.C)} not below alpha={alpha}")
        if q.s and (min(q.s) < 0 or max(q.s) >= space.kappa):
            raise BadArgument(f"s={sorted(q.s)} leaves the carrier")


def fu_leq(q1: FUCondition, q2: FUCondition, space: SpaceModel, alpha: int) -> bool:
    """Convergence order: both parts grow and the new points sit inside the
    basic neighbourhood avoiding the weaker condition's index set."""
    _check_ambient(space, alpha, q1, q2)
    return (
        q1.s >= q2.s
        and q1.C >= q2.C
        and q1.s - q2.s <= space.nbhd(alpha, q2.C)
    )


def fu_meet(q1: FUCondition, q2: FUCondition, space: SpaceModel, alpha: int) -> Optional[FUCondition]:
    """Componentwise union when compatible (then it is the greatest lower
    bound); ``None`` when no common lower bound exists."""
    _check_ambient(space, alpha, q1, q2)
    s = q1.s | q2.s
    if all(s - q.s <= space.nbhd(alpha, q.C) for q in (q1, q2)):
        return FUCondition(s, q1.C | q2.C)
    return None


@dataclass(frozen=True)
class FUSimStep:
    C: frozenset[int]
    acquired: Optional[int]


@dataclass(frozen=True)
class FUSimResult:
    """Points in acquisition order plus the per-block log."""

    points: tuple[int, ...]
    steps: tuple[FUSimStep, ...]
    final: FUCondition


def fu_simulate(
    space: SpaceModel,
    A: Iterable[int],
    alpha: int,
    C_schedule: Sequence[Iterable[int]],
    seed: int,
) -> FUSimResult:
    """Descending chain in the convergence poset.

    Each scheduled block joins the avoided index set; then a seed-chosen
    fresh point of ``A`` inside the current basic neighbourhood is acquired.
    A block whose neighbourhood retains no point of ``A`` at all raises; one
    whose usable points were already acquired is recorded without
    acquisition.  A space that :func:`max_invariant_violations` flags is not
    right-separated and raises :class:`BadArgument`.
    """
    unsettled = max_invariant_violations(space)
    if unsettled:
        raise BadArgument(f"space breaks max H(a) = a at points {unsettled}")
    pool = frozenset(A)
    _check_ambient(space, alpha)
    if any(x not in space.carrier for x in pool):
        raise BadArgument(f"A={sorted(pool)} leaves the carrier")
    rng = random.Random(seed)
    acquired: list[int] = []
    cur = FUCondition.make()
    steps: list[FUSimStep] = []
    for block in C_schedule:
        blk = frozenset(block)
        if any(c >= alpha or c < 0 for c in blk):
            raise BadArgument(f"scheduled block {sorted(blk)} not below alpha={alpha}")
        new_c = cur.C | blk
        usable = space.nbhd(alpha, new_c) & pool
        if not usable:
            raise StuckNoFreshPoint(f"no point of A left in the neighbourhood avoiding {sorted(new_c)}")
        fresh = sorted(usable - cur.s)
        if fresh:
            x = rng.choice(fresh)
            acquired.append(x)
            cur = FUCondition(cur.s | {x}, new_c)
            steps.append(FUSimStep(blk, x))
        else:
            cur = FUCondition(cur.s, new_c)
            steps.append(FUSimStep(blk, None))
    return FUSimResult(tuple(acquired), tuple(steps), cur)


def suffix_convergence(space: SpaceModel, alpha: int, steps: Sequence[FUSimStep]) -> bool:
    """Every point acquired at or after a step lies in the basic
    neighbourhood of ``alpha`` that avoids that step's block."""
    for t, step in enumerate(steps):
        u = space.nbhd(alpha, step.C)
        if not all(s.acquired in u for s in steps[t:] if s.acquired is not None):
            return False
    return True
