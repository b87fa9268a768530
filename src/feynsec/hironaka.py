"""The polyhedra game on point sets in N^n and a certified winning strategy.

State and rules
---------------
A position is a finite set M of points with nonnegative integer coordinates.
Player A picks a nonempty subset S of the coordinates, player B picks one
index l in S, and every point m is replaced by m' with

    m'_j = m_j            for j != l,
    m'_l = sum_{j in S} m_j - 1,

the offset being fixed to one.  A move is legal only if no coordinate becomes
negative, i.e. every point must satisfy sum_{j in S} m_j >= 1.  Player A has
won once domination pruning leaves a single generator, equivalently once the
positive hull is spanned by one point.

Termination measure
-------------------
For two generators u != v of the pruned set let a = u - v and define the
pair character

    chi(u, v) = (L, C),  L = max_k a_k - min_k a_k,
                         C = #argmax_k a_k + #argmin_k a_k.

Generators of a pruned set are incomparable, so a always has a positive
maximum and a negative minimum, giving L >= 2 and C >= 2.  The documented
measure of a position is the tuple

    mu(M) = (r, sum of L over pairs, sorted tuple of L values,
             sum of C over pairs, sorted tuple of (L, C) pairs),

compared lexicographically (sorted tuples ascending; (L, C) pairs ordered
lexicographically).  Well-foundedness: the first, second and fourth entries
are nonnegative integers; the third and fifth are fixed-length tuples of
nonnegative integers whenever the first entries agree (r determines the pair
count), and tuple comparison is the usual well-founded lexicographic order,
so mu takes values in a lexicographic product of well-ordered sets.  r never
increases: the move maps the point set onto at most r points and the map
preserves domination (if w <= z componentwise then the images again satisfy
w' <= z'), so pruned generators cannot resurface.

Strategy ("pairdiff")
---------------------
Player A plays the first legal subset S, in order of size and then
lexicographically, for which EVERY reply l in S strictly decreases mu.  A
blow-up over S makes |S| child sectors, so the smallest certified subset
branches least.  One-element subsets are never tried: they translate every
point and leave mu unchanged.  The certification is part of the strategy's
definition, so each executed move decreases the measure by construction,
independent of player B.  What is not proved is that a certified subset
exists in every reachable position; this is enforced at runtime
(StrategyError otherwise) and exercised by seeded random games.  Of 96 000
games (32 000 positions with n <= 4, <= 6 points, coordinates <= 5, each
against the three B policies) none raised StrategyError.  Of 9 000 games at
n = 6 with <= 6 points and coordinates <= 12, 14 did: 3 in a starting
position with no certified subset, 11 later in the game.  That scale is
outside the supported desk scale.  ``sectors.pipeline`` accepts this
strategy under the name "pairdiff".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import DomainError, IllegalMoveError, StrategyError

B_POLICIES = ("random", "max-coordinate", "min-coordinate")

MOVE_CAP = 10 ** 6


class PointSet:
    """Finite subset of N^n; duplicates removed, order canonical."""

    __slots__ = ("points", "dim")

    def __init__(self, points: Iterable[Sequence[int]]):
        pts = {tuple(int(c) for c in p) for p in points}
        if not pts:
            raise ValueError("point set must be nonempty")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise ValueError("points of mixed dimension")
        if any(c < 0 for p in pts for c in p):
            raise ValueError("points must have nonnegative coordinates")
        self.points = tuple(sorted(pts))
        self.dim = dims.pop()

    def __eq__(self, other):
        return isinstance(other, PointSet) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"PointSet({list(self.points)})"

    def pruned(self) -> "PointSet":
        """Drop points lying in another point's translated positive quadrant."""
        keep = []
        for p in self.points:
            dominated = any(q != p and all(qc <= pc for qc, pc in zip(q, p)) for q in self.points)
            if not dominated:
                keep.append(p)
        return PointSet(keep)


@dataclass(frozen=True)
class Move:
    """Player A's subset and player B's chosen index (offset fixed to 1)."""

    subset: frozenset
    index: int

    def __post_init__(self):
        if self.index not in self.subset:
            raise ValueError("chosen index must belong to the subset")


def apply_move(m: PointSet, move: Move) -> PointSet:
    """Replace coordinate ``move.index`` of every point by its S-sum minus one."""
    s = sorted(move.subset)
    bad = [p for p in m.points if sum(p[j] for j in s) < 1]
    if bad:
        raise IllegalMoveError(f"move S={s}, i={move.index} would send {bad[0]} negative")
    out = []
    for p in m.points:
        q = list(p)
        q[move.index] = sum(p[j] for j in s) - 1
        out.append(tuple(q))
    return PointSet(out)


def is_won(m: PointSet) -> bool:
    """True when a single generator remains after pruning."""
    return len(m.pruned().points) == 1


def game_measure(m: PointSet):
    """The documented termination measure; see the module docstring."""
    pts = m.pruned().points
    chis = []
    for x in range(len(pts)):
        for y in range(x + 1, len(pts)):
            a = tuple(pa - pb for pa, pb in zip(pts[x], pts[y]))
            mx, mn = max(a), min(a)
            chis.append((mx - mn, sum(1 for c in a if c == mx) + sum(1 for c in a if c == mn)))
    chis.sort()
    return (len(pts), sum(c[0] for c in chis), tuple(c[0] for c in chis),
            sum(c[1] for c in chis), tuple(chis))


# ---------------------------------------------------------------------------
# strategies for player A
# ---------------------------------------------------------------------------

def _all_legal_subsets(pts: tuple):
    n = len(pts[0])
    for size in range(2, n + 1):
        for combo in combinations(range(n), size):
            if all(sum(p[k] for k in combo) >= 1 for p in pts):
                yield frozenset(combo)


def choose_subset(m: PointSet) -> frozenset:
    """Player A's subset for the current position (position must not be won)."""
    pts = m.pruned().points
    if len(pts) == 1:
        raise DomainError("position already won; no move to choose")
    mu = game_measure(m)
    for s in _all_legal_subsets(pts):
        if all(game_measure(apply_move(m, Move(s, l))) < mu for l in sorted(s)):
            return s
    raise StrategyError(f"no measure-certified move on {list(pts)}")


# ---------------------------------------------------------------------------
# adversary policies for player B
# ---------------------------------------------------------------------------

def b_policy_fn(name: str, seed: int = 0):
    if name == "random":
        rng = random.Random(seed)

        def pick_random(m: PointSet, subset: frozenset) -> int:
            return rng.choice(sorted(subset))

        return pick_random
    if name == "max-coordinate":

        def pick_max(m: PointSet, subset: frozenset) -> int:
            pts = m.pruned().points
            return min(sorted(subset), key=lambda l: (-max(p[l] for p in pts), l))

        return pick_max
    if name == "min-coordinate":

        def pick_min(m: PointSet, subset: frozenset) -> int:
            pts = m.pruned().points
            return min(sorted(subset), key=lambda l: (min(p[l] for p in pts), l))

        return pick_min
    raise DomainError(f"unknown B policy {name!r}; expected one of {B_POLICIES}")


def play(m: PointSet, b_policy: str = "random", seed: int = 0):
    """Run a full game; returns (move count, transcript).

    Transcript entries record the played subset, B's index, the surviving
    point count and the measure after the move.  The measure gate is always
    on: any move that fails to decrease the measure strictly raises
    StrategyError (cannot happen unless certification is broken).
    """
    picker = b_policy_fn(b_policy, seed)
    transcript = []
    state = m
    measure = game_measure(state)
    moves = 0
    while not is_won(state):
        if moves >= MOVE_CAP:
            raise StrategyError(
                f"strategy exceeded {MOVE_CAP} moves; position {list(state.points)}")
        subset = choose_subset(state)
        index = picker(state, subset)
        state = apply_move(state, Move(subset, index))
        new_measure = game_measure(state)
        if not new_measure < measure:
            raise StrategyError(
                f"measure failed to decrease: {measure} -> {new_measure} "
                f"after S={sorted(subset)}, i={index} on {list(state.points)}")
        transcript.append({
            "subset": sorted(subset),
            "index": index,
            "points": len(state.points),
            "measure": list(new_measure[:2]),
        })
        measure = new_measure
        moves += 1
    return moves, transcript


# ---------------------------------------------------------------------------
# bridge to sector decomposition
# ---------------------------------------------------------------------------

def newton_points(poly) -> PointSet:
    """Exponent vectors of a polynomial's support as a game position."""
    return PointSet(poly.support())


def strategy_for_polynomial(poly) -> frozenset:
    """Variable subset to blow up next, read off the Newton polyhedron.

    The polynomial must not already be of monomial-times-constant-plus-rest
    form; equivalently its pruned Newton point set must have two or more
    generators (DomainError otherwise).
    """
    return choose_subset(newton_points(poly))
