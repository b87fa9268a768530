"""Polyhedra-game suite: move mechanics, strategies, termination measure."""

import random

import pytest

from feynsec.errors import DomainError, IllegalMoveError, StrategyError
from feynsec.hironaka import (B_POLICIES, Move, PointSet, apply_move, b_policy_fn,
                              choose_subset, game_measure, is_won, newton_points,
                              play, strategy_for_polynomial)
from feynsec.poly import Poly


def test_apply_move_examples():
    m = apply_move(PointSet([(2, 0), (0, 2)]), Move(frozenset({0, 1}), 0))
    assert set(m.points) == {(1, 0), (1, 2)}
    m = apply_move(PointSet([(1, 1)]), Move(frozenset({1}), 1))
    assert set(m.points) == {(1, 0)}
    m = apply_move(PointSet([(3, 0), (0, 3)]), Move(frozenset({0, 1}), 1))
    assert set(m.points) == {(3, 2), (0, 2)}


def test_apply_move_negativity_rejected():
    with pytest.raises(IllegalMoveError):
        apply_move(PointSet([(0, 0, 2), (1, 0, 0)]), Move(frozenset({0, 1}), 0))


def test_is_won_examples():
    assert is_won(PointSet([(1, 0)]))
    assert is_won(PointSet([(1, 0), (1, 2)]))  # second point dominated
    assert not is_won(PointSet([(2, 0), (0, 2)]))


def test_pruning_drops_dominated_only():
    ps = PointSet([(0, 1), (1, 0), (2, 2)])
    assert set(ps.pruned().points) == {(0, 1), (1, 0)}


def test_choose_subset_examples():
    assert choose_subset(PointSet([(2, 0), (0, 2)])) == frozenset({0, 1})
    assert choose_subset(PointSet([(0, 1), (1, 0), (2, 2)])) == frozenset({0, 1})
    with pytest.raises(DomainError):
        choose_subset(PointSet([(1, 0)]))


def test_play_won_in_one_move():
    for policy in B_POLICIES:
        moves, transcript = play(PointSet([(2, 0), (0, 2)]), b_policy=policy, seed=3)
        assert moves == 1
        assert len(transcript) == 1


def test_play_zero_moves():
    moves, transcript = play(PointSet([(1, 0)]))
    assert moves == 0 and transcript == []


def test_play_2d_hand_replay():
    """Replay the update rule by hand on a 2D position and compare the
    transcript."""
    start = PointSet([(3, 0), (0, 2)])
    picker = b_policy_fn("max-coordinate", 0)
    state = start
    expected = []
    while not is_won(state):
        subset = choose_subset(state)
        l = picker(state, subset)
        nxt = []
        for p in state.points:
            q = list(p)
            q[l] = sum(p[j] for j in subset) - 1
            nxt.append(tuple(q))
        state = PointSet(nxt)
        expected.append((sorted(subset), l))
    moves, transcript = play(start, "max-coordinate", seed=0)
    assert moves == len(expected)
    assert [(t["subset"], t["index"]) for t in transcript] == expected


def test_strategy_for_polynomial_examples():
    p = Poly(2, {(2, 0): 1, (0, 2): 1})  # x0^2 + x1^2
    assert strategy_for_polynomial(p) == frozenset({0, 1})
    q = Poly(2, {(0, 0): 1, (1, 1): 1})  # already monomialised
    with pytest.raises(DomainError):
        strategy_for_polynomial(q)
    r = Poly(2, {(1, 1): 1, (3, 0): 1, (0, 3): 1})
    assert newton_points(r).pruned() == PointSet([(1, 1), (3, 0), (0, 3)])
    assert strategy_for_polynomial(r) == frozenset({0, 1})


def _random_instance(rng):
    n = rng.randint(2, 4)
    npts = rng.randint(2, 6)
    return PointSet([tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(npts)])


def test_termination_500_seeded_games_all_policies():
    """Acceptance-4 core: 500 instances x 3 adversarial policies terminate,
    measure strictly decreasing at every move (play() raises otherwise)."""
    rng = random.Random(2024)
    for trial in range(500):
        m = _random_instance(rng)
        for policy in B_POLICIES:
            moves, transcript = play(m, policy, seed=trial)
            assert moves < 10_000


def test_measure_strictly_decreases_recorded():
    rng = random.Random(5)
    for trial in range(50):
        m = _random_instance(rng)
        start = game_measure(m)
        moves, transcript = play(m, "random", seed=trial)
        previous = start
        for step in transcript:
            assert tuple(step["measure"]) <= previous[:2]
            previous = tuple(step["measure"]) + previous[2:]


def test_pruning_invariance_of_transcripts():
    """Playing on raw or pre-pruned states gives identical transcripts."""
    rng = random.Random(77)
    for trial in range(60):
        m = _random_instance(rng)
        for policy in B_POLICIES:
            a = play(m, policy, seed=trial, prune_each_move=False)
            b = play(m, policy, seed=trial, prune_each_move=True)
            strip = lambda tr: [(t["subset"], t["index"]) for t in tr]
            assert a[0] == b[0]
            assert strip(a[1]) == strip(b[1])


def test_move_cap_raises():
    with pytest.raises(StrategyError):
        play(PointSet([(2, 0, 0), (0, 2, 0), (0, 0, 2)]), "random", seed=0, move_cap=0)


def test_game_to_decomposition_soundness():
    """Newton points of the substituted polynomial, shifted down one unit in
    the pivot coordinate, equal the game move applied to the parent points,
    on every blow-up of the decomposition."""
    from feynsec.sectors import SectorIntegrand, decompose_step
    from feynsec.epsilon import EpsExponent

    polys = [
        Poly(2, {(2, 0): 1, (0, 2): 1}),
        Poly(2, {(1, 1): 1, (3, 0): 1, (0, 3): 1}),
        Poly(3, {(1, 1, 0): 1, (0, 0, 3): 1, (2, 0, 1): 2}),
    ]
    for p in polys:
        stack = [SectorIntegrand(
            monomials=tuple(EpsExponent(0, 0) for _ in range(p.nvars)),
            factors=((p, EpsExponent(-1, 1)),),
        )]
        final = []
        while stack:
            sector = stack.pop()
            k = sector.first_open_factor()
            if k is None:
                final.append(sector)
                continue
            poly = sector.factors[k][0]
            subset = strategy_for_polynomial(poly)
            parent_points = PointSet(poly.support())
            for l in sorted(subset):
                moved = apply_move(parent_points, Move(frozenset(subset), l))
                shifted = []
                for e in poly.rescale_subset(sorted(subset), l).support():
                    e = list(e)
                    e[l] -= 1
                    assert e[l] >= 0, "game legality violated by substitution"
                    shifted.append(tuple(e))
                assert set(shifted) == set(moved.points), (
                    "blow-up does not track the polyhedra-game move")
                stack.append(decompose_step(sector, subset, l))
        assert final
        for s in final:
            assert s.is_monomialised()
