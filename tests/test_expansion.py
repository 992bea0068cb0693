import hashlib
import itertools
import random

import pytest

import mistkernel.expansion
from mistkernel import ExpansionPair, Graph, PreconditionError, find_expansion_2
from mistkernel.expansion import _augment
from bruteforce import brute_max_matching_size, verify_expansion


def bip(nx, ny, pairs):
    """The graph on X = 0..nx-1 and Y = nx..nx+ny-1 with the given X-Y edges,
    with its two sides."""
    return Graph(nx + ny, pairs), range(nx), range(nx, nx + ny)


class TestVerifyExpansion:
    def test_k24_passes_c2(self):
        g, x, y = bip(2, 4, [(x, y) for x in (0, 1) for y in (2, 3, 4, 5)])
        assert verify_expansion(g, x, y, {0, 1}, {2, 3, 4, 5}, 2)

    def test_k24_fails_c3(self):
        g, x, y = bip(2, 4, [(x, y) for x in (0, 1) for y in (2, 3, 4, 5)])
        assert not verify_expansion(g, x, y, {0, 1}, {2, 3, 4, 5}, 3)

    def test_outside_neighbor_fails(self):
        # y=4 also sees x=1, which is outside X'
        g, x, y = bip(2, 3, [(0, 2), (0, 3), (0, 4), (1, 4)])
        assert not verify_expansion(g, x, y, {0}, {2, 3, 4}, 2)


class TestExpansionPair:
    def test_sides_must_be_nonempty(self):
        for x, y in (([], [1, 2]), ([0], [])):
            with pytest.raises(
                PreconditionError, match="^expansion pair sides must be nonempty$"
            ):
                ExpansionPair(x, y, {})

    def test_repr(self):
        p = ExpansionPair([0], [2, 1], {0: (1, 2)})
        assert repr(p) == "ExpansionPair(X'=[0], Y'=[1, 2])"


class TestFindExpansion2:
    def test_single_x(self):
        g, x, y = bip(1, 2, [(0, 1), (0, 2)])
        p = find_expansion_2(g, x, y)
        assert p.x_prime == frozenset({0})
        assert p.y_prime == frozenset({1, 2})
        assert p.mates == {0: (1, 2)}

    def test_complete_k24(self):
        g, x, y = bip(2, 4, [(x, y) for x in (0, 1) for y in range(2, 6)])
        p = find_expansion_2(g, x, y)
        assert p.x_prime == frozenset({0, 1})
        assert p.y_prime == frozenset(range(2, 6))

    def test_unbalanced_split(self):
        # y2..y4 see only x0; y5 sees only x1: ({x0, x1}, Y) is invalid
        g, x, y = bip(2, 4, [(0, 2), (0, 3), (0, 4), (1, 5)])
        p = find_expansion_2(g, x, y)
        assert verify_expansion(g, x, y, p.x_prime, p.y_prime, 2)
        assert p.x_prime == frozenset({0})
        assert p.y_prime <= frozenset({2, 3, 4})

    def test_precondition_errors(self):
        with pytest.raises(PreconditionError):
            find_expansion_2(*bip(2, 3, [(0, 2), (1, 3), (1, 4)]))
        with pytest.raises(PreconditionError):
            find_expansion_2(*bip(1, 2, [(0, 1)]))  # isolated y

    def test_input_checks(self):
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        for x, y in (
            ({0, 1}, {1, 2, 3, 4, 5}),  # the sides overlap
            ({0, 1}, {2, 3, 4, 6}),  # 6 is not a vertex of g
            ({-1, 0}, {2, 3, 4, 5}),  # nor is -1
            ({0}, {2, 3, 5}),  # 5 sees only 1, outside X
            ({0, 1}, {2, 3, 4}),  # |Y| < 2|X|
            (set(), {2, 3}),  # X is empty
        ):
            with pytest.raises(PreconditionError):
                find_expansion_2(g, x, y)

    def test_reads_only_cross_edges(self):
        # K7 with X = {0, 1}, Y = {2, 3, 4, 5} and 6 outside both sides: the
        # X-X, Y-Y and outside edges must not count.
        g = Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
        p = find_expansion_2(g, {0, 1}, {2, 3, 4, 5})
        assert p.x_prime == frozenset({0, 1})
        assert p.y_prime == frozenset({2, 3, 4, 5})
        assert sorted(w for pair in p.mates.values() for w in pair) == [2, 3, 4, 5]


class TestRandomInstances:
    @staticmethod
    def sparse_instance(rng):
        # one X-neighbour per Y-vertex and few more: Hall violators are common
        nx = rng.randrange(1, 8)
        ny = rng.randrange(2 * nx, 2 * nx + 4)
        pairs = set()
        for y in range(nx, nx + ny):
            pairs.add((rng.randrange(nx), y))
            for x in range(nx):
                if rng.random() < 0.1:
                    pairs.add((x, y))
        return bip(nx, ny, pairs)

    @staticmethod
    def random_valid_instance(rng):
        nx = rng.randrange(1, 7)
        ny = rng.randrange(2 * nx, 13)
        pairs = set()
        for y in range(nx, nx + ny):
            # at least one neighbor each
            pairs.add((rng.randrange(nx), y))
            for x in range(nx):
                if rng.random() < 0.3:
                    pairs.add((x, y))
        return bip(nx, ny, pairs)

    def test_outputs_always_verify(self):
        rng = random.Random(97)
        for _ in range(150):
            g, x, y = self.random_valid_instance(rng)
            p = find_expansion_2(g, x, y)
            assert p.x_prime <= set(x) and p.y_prime <= set(y)
            assert verify_expansion(g, x, y, p.x_prime, p.y_prime, 2)

    def test_pair_is_self_contained(self):
        rng = random.Random(101)
        for _ in range(60):
            g, x, y = self.random_valid_instance(rng)
            p = find_expansion_2(g, x, y)
            inside = p.x_prime | p.y_prime
            restricted = Graph(
                g.n, [(u, v) for u, v in g.edges if u in inside and v in inside]
            )
            assert verify_expansion(restricted, x, y, p.x_prime, p.y_prime, 2)

    @staticmethod
    def assert_mates_certify(g, p):
        assert set(p.mates) == p.x_prime
        for v, (a, b) in p.mates.items():
            assert a < b
            assert {a, b} <= p.y_prime
            assert g.has_edge(v, a) and g.has_edge(v, b)
        flat = [w for pair in p.mates.values() for w in pair]
        assert len(set(flat)) == len(flat) == 2 * len(p.x_prime)

    def test_mates_certify_the_pair(self):
        rng = random.Random(107)
        for _ in range(150):
            g, x, y = self.random_valid_instance(rng)
            self.assert_mates_certify(g, find_expansion_2(g, x, y))

    def test_exhaustive_on_tiny_instances(self):
        # every valid (X', Y') the solver returns is among the brute-force valid pairs
        rng = random.Random(103)
        for _ in range(40):
            nx = rng.randrange(1, 4)
            ny = rng.randrange(2 * nx, 2 * nx + 3)
            pairs = set()
            for y in range(nx, nx + ny):
                pairs.add((rng.randrange(nx), y))
                for x in range(nx):
                    if rng.random() < 0.4:
                        pairs.add((x, y))
            g, xs, ys = bip(nx, ny, pairs)
            p = find_expansion_2(g, xs, ys)
            valid = []
            for rx in range(1, nx + 1):
                for combo_x in itertools.combinations(xs, rx):
                    for ry in range(1, ny + 1):
                        for combo_y in itertools.combinations(ys, ry):
                            if verify_expansion(g, xs, ys, combo_x, combo_y, 2):
                                valid.append(
                                    (frozenset(combo_x), frozenset(combo_y))
                                )
            assert (p.x_prime, p.y_prime) in valid

    def test_pairs_are_pinned(self):
        # sha256 over (X', Y') of 300 sparse instances, 127 of them with a
        # Hall violator, as found by matching again after removing it; the
        # one matching must give the same pairs, and its mates must certify
        rng = random.Random(109)
        h = hashlib.sha256()
        for _ in range(300):
            g, x, y = self.sparse_instance(rng)
            p = find_expansion_2(g, x, y)
            h.update(repr((sorted(p.x_prime), sorted(p.y_prime))).encode())
            self.assert_mates_certify(g, p)
        assert h.hexdigest() == (
            "0e188926ecb8526ca0fb2c9d47c812c1aff109726c7690db03d92e363a33bd54"
        )

    def test_one_matching_per_call(self, monkeypatch):
        calls = []
        augment = mistkernel.expansion._augment

        def counting(adj, left_order):
            calls.append(left_order)
            return augment(adj, left_order)

        monkeypatch.setattr(mistkernel.expansion, "_augment", counting)
        rng = random.Random(113)
        violators = 0
        for _ in range(100):
            g, x, y = self.sparse_instance(rng)
            calls.clear()
            p = find_expansion_2(g, x, y)
            violators += p.x_prime != set(x)
            assert len(calls) == 1
        assert violators >= 30


class TestMatching:
    def test_k22(self):
        assert len(_augment({0: (2, 3), 1: (2, 3)}, [0, 1])) == 2

    def test_empty(self):
        assert len(_augment({0: ()}, [0])) == 0

    def test_path_three(self):
        assert len(_augment({1: (0, 2)}, [1])) == 1

    def test_against_enumeration(self):
        rng = random.Random(5)
        for _ in range(60):
            nx, ny = rng.randrange(1, 6), rng.randrange(1, 7)
            pairs = {
                (x, nx + y)
                for x in range(nx)
                for y in range(ny)
                if rng.random() < 0.4
            }
            adj = {x: tuple(sorted(y for a, y in pairs if a == x)) for x in range(nx)}
            matching = _augment(adj, range(nx))
            assert set(matching.items()) <= pairs
            assert len(set(matching.values())) == len(matching)
            assert len(matching) == brute_max_matching_size(pairs)

    def test_long_augmenting_path(self):
        # x_i ~ {y_i, y_{i+1}} matches x_i to y_i; the last left vertex sees
        # only y_0, so its one augmenting path runs through the whole chain.
        m = 3000
        ys = range(m + 1, 2 * m + 2)
        adj = {i: (ys[i], ys[i + 1]) for i in range(m)}
        adj[m] = (ys[0],)
        matching = _augment(adj, range(m + 1))
        assert len(matching) == m + 1
        assert len(set(matching.values())) == m + 1
        assert all(y in adj[x] for x, y in matching.items())


class TestSaturatingMatching:
    def test_k23_small_side(self):
        adj = {x: (2, 3, 4) for x in (0, 1)}
        assert len(_augment(adj, [0, 1])) == 2

    def test_one_x_two_y(self):
        # matching the two-vertex side {1, 2} into {0} cannot saturate it
        assert len(_augment({1: (0,), 2: (0,)}, [1, 2])) == 1

    def test_perfect(self):
        assert len(_augment({0: (2,), 1: (3,)}, [0, 1])) == 2
        assert len(_augment({2: (0,), 3: (1,)}, [2, 3])) == 2
