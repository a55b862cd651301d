import math
import random

import pytest

from cmt.features import SparseVector, fingerprint
from cmt.learners import PAIR_BIAS, RouterModel, ScorerModel
from cmt.snapshot import snapshot_save
from cmt.tree import (
    LEFT,
    RIGHT,
    Deviation,
    DuplicateKeyError,
    Internal,
    Leaf,
    LeafExplore,
    Memory,
    Tree,
    UnknownKeyError,
    balance_bound,
    path,
    reward_difference_estimate,
)


def sv(mapping):
    return SparseVector.from_pairs(mapping.items())


def euclidean_tree(**kwargs) -> Tree:
    kwargs.setdefault("scorer", ScorerModel(mode="euclidean"))
    kwargs.setdefault("d", 0)
    return Tree(**kwargs)


def wire(tree: Tree, root) -> Tree:
    """Adopt a hand-built node structure, registering every memory."""
    tree._adopt(root)
    return tree


def internal(weights, left, right) -> Internal:
    node = Internal(None, RouterModel())
    node.g.weights.update(weights)
    node.left, node.right = left, right
    left.parent = right.parent = node
    node.n = (len(left.mem) if left.is_leaf else left.n) + (
        len(right.mem) if right.is_leaf else right.n
    )
    return node


def leaf_of(*memories) -> Leaf:
    leaf = Leaf()
    leaf.mem.extend(memories)
    return leaf


class ScriptedRng:
    """random()-only stub so exploration choices can be enumerated exactly."""

    def __init__(self, values):
        self.values = list(values)

    def random(self) -> float:
        return self.values.pop(0)


def random_memories(n, seed=0, dim=6):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x = sv({j: rng.uniform(-2.0, 2.0) for j in range(dim)})
        out.append(Memory(x, i))
    return out


# -- path ----------------------------------------------------------------------

def test_path_on_root_leaf():
    t = euclidean_tree()
    record = path(sv({1: 1.0}), t.root)
    assert record.steps == ()
    assert record.leaf is t.root


def test_path_tie_goes_left():
    z = Memory(sv({5: 1.0}), 0)
    root = internal({}, leaf_of(z), leaf_of())
    t = wire(euclidean_tree(), root)
    record = path(sv({1: 1.0}), t.root)
    assert len(record.steps) == 1
    assert record.steps[0].action == LEFT
    assert record.leaf is root.left


def test_path_descends_right_on_positive_scores():
    x = sv({1: 1.0})
    z1, z2 = Memory(sv({7: 1.0}), 0), Memory(sv({8: 1.0}), 1)
    lower = internal({1: 2.0}, leaf_of(z1), leaf_of(z2))
    root = internal({1: 1.0}, leaf_of(Memory(sv({9: 1.0}), 2)), lower)
    t = wire(euclidean_tree(), root)
    record = path(x, t.root)
    assert [s.action for s in record.steps] == [RIGHT, RIGHT]
    assert record.leaf is lower.right


# -- query ---------------------------------------------------------------------

def test_query_empty_tree():
    t = euclidean_tree()
    result = t.query(sv({1: 1.0}), 3, 1.0)
    assert result.key is None
    assert result.memories == ()


def test_query_epsilon_zero_returns_top_of_deterministic_leaf():
    memories = random_memories(30, seed=1)
    t = euclidean_tree(c=1.0, seed=4)
    for z in memories:
        t.insert(z)
        # right after its own insert the memory is still where routing says
        result = t.query(z.x, 1, 0.0)
        assert result.key is None
        assert result.memories[0].key_fingerprint == z.key_fingerprint
    for z in memories[:5]:
        leaf = path(z.x, t.root).leaf
        result = t.query(z.x, 2, 0.0)
        assert result.key is None
        assert set(m.key_fingerprint for m in result.memories) <= {
            m.key_fingerprint for m in leaf.mem
        }


def test_query_epsilon_one_single_leaf_always_explores_at_leaf():
    t = euclidean_tree(seed=11)
    z = Memory(sv({1: 1.0}), 0)
    t.insert(z)
    for _ in range(20):
        result = t.query(sv({1: 0.5}), 1, 1.0)
        assert result.key == LeafExplore(t.root)
        assert result.memories == (z,)


def test_query_epsilon_one_depth_one_enumerated():
    zl, zr = Memory(sv({1: -1.0}), 0), Memory(sv({2: 1.0}), 1)
    root = internal({1: 1.0}, leaf_of(zl), leaf_of(zr))
    t = wire(euclidean_tree(), root)
    x = sv({1: 1.0})  # routes right deterministically

    # explore-draw, node-pick < 1/2, action-pick < 1/2: deviation to the right
    t.rng = ScriptedRng([0.0, 0.49, 0.49])
    result = t.query(x, 1, 1.0)
    assert result.key == Deviation(root, RIGHT, 0.5)
    assert result.memories == (zr,)

    # action-pick >= 1/2 flips to the left child
    t.rng = ScriptedRng([0.0, 0.49, 0.5])
    result = t.query(x, 1, 1.0)
    assert result.key == Deviation(root, LEFT, 0.5)
    assert result.memories == (zl,)

    # node-pick >= 1/2 selects the leaf itself (one draw spent inside rand_k)
    t.rng = ScriptedRng([0.0, 0.5, 0.0])
    result = t.query(x, 1, 1.0)
    assert result.key == LeafExplore(root.right)
    assert result.memories == (zr,)


def test_query_for_the_whole_leaf(monkeypatch):
    left = [Memory(sv({1: -v}), f"l{v}") for v in (3.0, 1.0, 2.0)]
    right = [Memory(sv({1: v}), f"r{v}") for v in (3.0, 1.0, 2.0)]
    root = internal({1: 1.0}, leaf_of(*left), leaf_of(*right))
    t = wire(euclidean_tree(), root)
    x = sv({1: 1.0})  # routes right deterministically

    # an exploit read takes the leaf in stored order: no draw, no scoring
    t.rng = ScriptedRng([0.5])
    with monkeypatch.context() as m:
        m.setattr(ScorerModel, "predict", None)
        assert t.query(x, None, 0.0) == (None, tuple(right))
        assert t.query(x, None, 0.4) == (None, tuple(right))
    assert t.rng.values == []

    # a flip to the left leaf puts its best-scored memory first
    t.rng = ScriptedRng([0.0, 0.49, 0.5])
    result = t.query(x, None, 1.0)
    assert result.key == Deviation(root, LEFT, 0.5)
    assert result.memories == (left[1], left[0], left[2])

    # a leaf sample puts the memory it drew first
    t.rng = ScriptedRng([0.0, 0.5, 0.7])
    result = t.query(x, None, 1.0)
    assert result.key == LeafExplore(root.right)
    assert result.memories == (right[2], right[0], right[1])


def test_query_validates_arguments():
    t = euclidean_tree()
    with pytest.raises(ValueError):
        t.query(sv({1: 1.0}), 0, 0.0)
    with pytest.raises(ValueError):
        t.query(sv({1: 1.0}), None, -0.1)
    with pytest.raises(ValueError):
        t.query(sv({1: 1.0}), 1, 1.5)


# -- top_k / rand_k --------------------------------------------------------------

def test_top_k_empty_leaf():
    t = euclidean_tree()
    assert t.top_k(t.root, sv({1: 1.0}), 3) == []


def test_top_k_exact_match_first():
    x = sv({1: 1.0, 2: 2.0})
    exact = Memory(x, "hit")
    others = [Memory(sv({1: 1.0 + i}), i) for i in range(1, 4)]
    leaf = leaf_of(*others, exact)
    t = wire(euclidean_tree(), leaf)
    assert t.top_k(leaf, x, 1)[0] is exact


def test_top_k_larger_k_returns_whole_leaf_sorted():
    x = sv({1: 0.0 + 1.0})
    memories = [Memory(sv({1: float(v)}), v) for v in (4, 2, 8)]
    leaf = leaf_of(*memories)
    t = wire(euclidean_tree(), leaf)
    got = t.top_k(leaf, x, 10)
    assert len(got) == 3
    distances = [abs(z.x.values[0] - 1.0) for z in got]
    assert distances == sorted(distances)


def tie_shares(memories, queries) -> dict:
    """Share of reads each memory wins in one leaf of equidistant memories."""
    leaf = leaf_of(*memories)
    t = wire(euclidean_tree(seed=3), leaf)
    firsts = [t.top_k(leaf, x, 1)[0].value for x in queries]
    assert [t.top_k(leaf, x, len(memories))[0].value for x in queries] == firsts
    return {z.value: firsts.count(z.value) / len(firsts) for z in memories}


def test_top_k_breaks_ties_uniformly():
    # a and b are equidistant from every query, none of which is stored
    a, b = Memory(sv({2: 1.0}), "a"), Memory(sv({3: 1.0}), "b")
    queries = [sv({1: 1.0 + i / 1000}) for i in range(2000)]
    assert 0.45 <= tie_shares([a, b], queries)["a"] <= 0.55
    leaf = leaf_of(a, b)
    t = wire(euclidean_tree(seed=3), leaf)
    state = t.rng.getstate()
    first = t.top_k(leaf, queries[0], 1)
    assert t.top_k(leaf, queries[0], 1) == first
    assert t.query(queries[0], 1, 0.0).memories == tuple(first)
    assert t.rng.getstate() == state


def test_top_k_breaks_three_way_ties_uniformly():
    memories = [Memory(sv({j: 1.0}), j) for j in (2, 3, 4)]
    queries = [sv({1: 1.0 + i / 1000}) for i in range(2000)]
    for share in tie_shares(memories, queries).values():
        assert 0.28 <= share <= 0.39


def test_clamped_ties_do_not_favour_the_key_read():
    # a large bias weight clamps every learned score to 1: all 200 memories
    # tie, and a stored key read back should win its tie no more than others
    memories = random_memories(200, seed=4)
    leaf = leaf_of(*memories)
    t = wire(Tree(d=0, seed=5), leaf)
    t.f.weights[PAIR_BIAS] = 10.0
    assert {t.f.predict(memories[0].x, z.x) for z in memories} == {1.0}
    self_wins = sum(t.query(z.x, 1, 0.0).memories[0] is z for z in memories)
    assert self_wins < 20


@pytest.mark.parametrize("mode", ["learned", "euclidean"])
def test_top_k_prepares_once_and_predicts_once_per_memory(monkeypatch, mode):
    # the benchmark times leaf scoring through ScorerModel.predict by name,
    # so a read must keep calling it once per memory
    calls = {"prepare": [], "predict": []}
    for name in calls:
        original = getattr(ScorerModel, name)

        def counted(self, x, *rest, _original=original, _log=calls[name]):
            _log.append(x)
            return _original(self, x, *rest)

        monkeypatch.setattr(ScorerModel, name, counted)
    memories = random_memories(7, seed=2)
    leaf = leaf_of(*memories)
    t = wire(Tree(scorer=ScorerModel(mode=mode), d=0), leaf)
    x = random_memories(1, seed=9)[0].x
    t.top_k(leaf, x, 3)
    assert calls["prepare"] == [x]
    assert calls["predict"] == [x] * len(memories)


def test_rand_k_empty_and_overlarge():
    t = euclidean_tree()
    assert t.rand_k(t.root, sv({1: 1.0}), 4) == []
    memories = random_memories(3, seed=5)
    leaf = leaf_of(*memories)
    wire(t, leaf)
    got = t.rand_k(leaf, sv({1: 1.0}), 10)
    assert sorted(z.value for z in got) == [0, 1, 2]


def test_rand_k_uniform_frequencies():
    memories = random_memories(3, seed=6)
    leaf = leaf_of(*memories)
    t = wire(euclidean_tree(seed=7), leaf)
    counts = {0: 0, 1: 0, 2: 0}
    trials = 10_000
    for _ in range(trials):
        counts[t.rand_k(leaf, sv({1: 1.0}), 1)[0].value] += 1
    for value in counts.values():
        assert abs(value / trials - 1 / 3) <= 0.05


# -- update ----------------------------------------------------------------------

def test_reward_difference_estimate_matches_importance_weighting():
    assert reward_difference_estimate(1.0, RIGHT, 0.5) == 2.0
    assert reward_difference_estimate(1.0, LEFT, 0.5) == -2.0
    assert reward_difference_estimate(0.25, RIGHT, 0.25) == 1.0


def test_update_deviation_trains_router_with_importance_y():
    # balanced children kill the balance term, so y = (1 - alpha) * r / p
    x = sv({1: 1.0, 3: -1.0})
    zl, zr = random_memories(2, seed=8)
    root = internal({}, leaf_of(zl), leaf_of(zr))
    t = wire(euclidean_tree(alpha=0.5), root)
    t.update(x, zr, 1.0, Deviation(root, RIGHT, 0.5))

    expected = RouterModel()
    expected.update(x, 1, (1.0 - 0.5) * 2.0)
    assert root.g.weights == expected.weights
    assert root.g.grad_sq == expected.grad_sq


def test_update_deviation_zero_signal_skips_router():
    x = sv({1: 1.0})
    zl, zr = random_memories(2, seed=9)
    root = internal({}, leaf_of(zl), leaf_of(zr))
    t = wire(euclidean_tree(alpha=0.9), root)
    t.update(x, zl, 0.0, Deviation(root, LEFT, 0.5))
    assert root.g.weights == {}
    assert root.g.update_count == 0


def test_update_leaf_explore_touches_only_scorer():
    x = sv({1: 1.0})
    zl, zr = random_memories(2, seed=10)
    root = internal({}, leaf_of(zl), leaf_of(zr))
    t = wire(Tree(d=0, scorer=ScorerModel(mode="learned")), root)
    t.update(x, zl, 0.75, LeafExplore(root.left))
    assert t.f.update_count == 1
    assert root.g.update_count == 0


def test_update_rejects_bad_reward():
    t = euclidean_tree()
    with pytest.raises(ValueError):
        t.update(sv({1: 1.0}), Memory(sv({1: 1.0}), 0), 1.5, None)


def test_update_stale_key_skips_learners_but_still_reroutes():
    class CountingTree(Tree):
        rerouted = 0

        def reroute(self):
            self.rerouted += 1
            super().reroute()

    zl, zr = random_memories(2, seed=12)
    stale_leaf = leaf_of(zl)
    stale = internal({}, stale_leaf, leaf_of(zr))  # never attached to the tree
    t = CountingTree(d=0, scorer=ScorerModel(mode="learned"))
    t.insert(Memory(sv({5: 1.0}), 0))
    t.d = 3
    t.update(sv({1: 1.0}), zl, 1.0, Deviation(stale, RIGHT, 0.5))
    assert stale.g.update_count == 0
    assert t.rerouted == 3
    t.update(sv({1: 1.0}), zl, 1.0, LeafExplore(stale_leaf))
    assert t.f.update_count == 0
    assert t.rerouted == 6


def test_update_none_key_only_reroutes():
    class CountingTree(Tree):
        rerouted = 0

        def reroute(self):
            self.rerouted += 1
            super().reroute()

    t = CountingTree(d=2, scorer=ScorerModel(mode="euclidean"))
    t.update(sv({1: 1.0}), Memory(sv({1: 1.0}), 0), 1.0, None)
    assert t.rerouted == 2


# -- insert ----------------------------------------------------------------------

def test_insert_into_empty_tree():
    t = euclidean_tree()
    z = Memory(sv({1: 1.0}), 0)
    t.insert(z)
    assert len(t) == 1
    assert t.root.mem == [z]
    assert t.check_invariants() == []


def test_insert_alpha_one_follows_balance_only():
    # left heavier: the balance term is positive, so the router learns +1
    # and the new memory goes right
    heavy = random_memories(2, seed=13)
    light = random_memories(1, seed=14)
    root = internal({}, leaf_of(*heavy), leaf_of(*light))
    t = wire(euclidean_tree(alpha=1.0), root)
    z = Memory(sv({21: 1.0}), "new")
    t.insert(z)
    assert root.g.raw(z.x) > 0.0
    assert z in root.right.mem

    # balanced children: sign(0) routes left
    even_l, even_r = random_memories(2, seed=15)
    root2 = internal({}, leaf_of(even_l), leaf_of(even_r))
    t2 = wire(euclidean_tree(alpha=1.0), root2)
    z2 = Memory(sv({22: 1.0}), "new2")
    t2.insert(z2)
    assert root2.g.raw(z2.x) < 0.0
    assert z2 in root2.left.mem


def test_insert_overflow_splits_leaf():
    t = euclidean_tree(c=1.0, seed=16)
    memories = random_memories(2, seed=16)
    t.insert(memories[0])
    assert t.root.is_leaf
    t.insert(memories[1])  # capacity at 2 stored is 1, so the leaf splits
    assert not t.root.is_leaf
    assert t.root.n == 2
    assert len(t.root.left.mem) + len(t.root.right.mem) == 2
    assert t.check_invariants() == []


def test_insert_duplicate_raises():
    t = euclidean_tree()
    x = sv({1: 1.0})
    t.insert(Memory(x, "old"))
    with pytest.raises(DuplicateKeyError):
        t.insert(Memory(x, "new"))


def test_insert_leaf_below_capacity_never_splits():
    t = euclidean_tree(c=4.0)
    for z in random_memories(4, seed=17):  # capacity is at least ceil(c) = 4
        t.insert_leaf(t.root, z)
    assert t.root.is_leaf
    assert len(t.root.mem) == 4


def test_forced_split_fallback_keeps_both_children_nonempty():
    # two strongly aligned keys make the fresh router send everything left;
    # the fallback then moves half across, and the memory that triggered the
    # split keeps a routing-consistent position
    t = euclidean_tree(c=1.0, alpha=0.9, seed=18)
    z1 = Memory(sv({1: 100.0, 901: 0.001}), 1)
    z2 = Memory(sv({1: 100.0, 902: 0.001}), 2)
    t.insert(z1)
    t.insert(z2)
    assert not t.root.is_leaf
    assert len(t.root.left.mem) == 1 and len(t.root.right.mem) == 1
    assert t.check_invariants() == []
    got = t.query(z2.x, 1, 0.0)
    assert got.memories[0].key_fingerprint == z2.key_fingerprint


def test_insert_scores_each_router_once_per_update(monkeypatch):
    # one score serves the target and the logistic margin; the step itself
    # returns the post-update score that counts mistakes and picks the child
    calls = {"raw": 0, "update": 0}
    raw, update = RouterModel.raw, RouterModel.update

    def counting_raw(self, x):
        calls["raw"] += 1
        return raw(self, x)

    def counting_update(self, x, y, importance, score=None):
        calls["update"] += 1
        return update(self, x, y, importance, score)

    monkeypatch.setattr(RouterModel, "raw", counting_raw)
    monkeypatch.setattr(RouterModel, "update", counting_update)
    t = euclidean_tree(c=1.0, seed=19)
    for z in random_memories(40, seed=19):
        t.insert(z)
    assert t.max_depth() >= 3  # several splits redistributed their leaves
    assert calls["update"] > 0
    assert calls["raw"] <= calls["update"]


# -- remove ----------------------------------------------------------------------

def test_remove_last_memory_leaves_empty_root_leaf():
    t = euclidean_tree()
    z = Memory(sv({1: 1.0}), 0)
    t.insert(z)
    removed = t.remove(z.x)
    assert removed is z
    assert len(t) == 0
    assert t.root.is_leaf and t.root.mem == []
    assert t.check_invariants() == []


def test_remove_splices_out_empty_leaf():
    zl, zr = random_memories(2, seed=19)
    root = internal({}, leaf_of(zl), leaf_of(zr))
    t = wire(euclidean_tree(), root)
    t.remove(zl.x)
    assert t.root.is_leaf
    assert t.root.mem == [zr]
    assert t.root.parent is None
    assert t.check_invariants() == []


def test_remove_unknown_key_errors_and_leaves_tree_alone():
    t = euclidean_tree()
    t.insert(Memory(sv({1: 1.0}), 0))
    with pytest.raises(UnknownKeyError):
        t.remove(sv({2: 1.0}))
    assert len(t) == 1
    assert t.check_invariants() == []


def test_remove_decrements_counts_up_the_path():
    t = euclidean_tree(c=1.0, seed=20)
    memories = random_memories(12, seed=20)
    for z in memories:
        t.insert(z)
    before = t.root.n
    t.remove(memories[5].x)
    assert t.root.n == before - 1
    assert t.check_invariants() == []


def test_shrinking_store_restores_capacity_invariant():
    t = euclidean_tree(c=1.0, seed=21)
    memories = random_memories(300, seed=21)
    for z in memories:
        t.insert(z)
    rng = random.Random(2)
    order = memories[:]
    rng.shuffle(order)
    for z in order[:290]:
        t.remove(z.x)
        assert t.check_invariants() == []


def test_remove_and_contains_take_an_equal_but_distinct_vector():
    t = euclidean_tree(c=1.0, seed=26)
    memories = random_memories(20, seed=26)
    for z in memories:
        t.insert(z)
    z = memories[7]
    twin = SparseVector(z.x.indices, z.x.values)
    assert twin is not z.x and twin == z.x
    assert t.contains(twin)
    assert t.remove(twin) is z
    assert not t.contains(SparseVector(z.x.indices, z.x.values))
    assert t.check_invariants() == []


class LeafWalkTree(Tree):
    """Reference remove: on a capacity drop, walk every leaf and split the
    ones over the new capacity, in walk order."""

    def remove(self, x):
        cap_before = self.capacity()
        z = self._remove_fp(fingerprint(x))
        cap = self.capacity()
        if cap < cap_before:
            for leaf in [leaf for leaf in self.leaves() if len(leaf.mem) > cap]:
                self._split(leaf, protected=None)
        return z


@pytest.mark.parametrize("c", [4.0, 40.0])
def test_churn_across_capacity_steps_matches_the_leaf_walk(tmp_path, c):
    # hover at a capacity step, shrink to a handful, hover again: removes
    # cross steps downward, splitting the leaves that inserts filled, and
    # with c=40 one remove at small n drops the capacity by several steps
    def capacity(n):
        return max(math.ceil(c), math.ceil(c * math.log(max(n, 2))))

    step = next(n for n in range(250, 1000) if capacity(n) > capacity(n - 1))
    trees = [Tree(c=c, d=1, scorer=ScorerModel(mode="euclidean"), seed=27),
             LeafWalkTree(c=c, d=1, scorer=ScorerModel(mode="euclidean"), seed=27)]
    t = trees[0]
    rng = random.Random(27)
    fresh = iter(random_memories(2000, seed=27))
    stored: list[Memory] = []
    drops: list[int] = []
    splitting_removes = 0
    for target, steps in ((step, 600), (3, 600), (step, 600)):
        for _ in range(steps):
            toward = rng.random() < 0.75
            if not stored or (len(stored) < target) == toward:
                z = next(fresh)
                stored.append(z)
                for tree in trees:
                    tree.insert(z)
            else:
                z = stored.pop(int(rng.random() * len(stored)))
                cap, leaves = t.capacity(), sum(1 for _ in t.leaves())
                for tree in trees:
                    assert tree.remove(z.x) is z
                drops.append(cap - t.capacity())
                splitting_removes += sum(1 for _ in t.leaves()) > leaves
            assert t.check_invariants() == []
        snaps = []
        for i, tree in enumerate(trees):
            snapshot_save(tree, str(tmp_path / f"{i}.snap"))
            snaps.append((tmp_path / f"{i}.snap").read_bytes())
        assert snaps[0] == snaps[1]
    # at c=4 removes split the leaves that inserts filled; at c=40 the few
    # leaves are never full when the capacity drops, but it drops in leaps
    assert splitting_removes > 0 if c == 4.0 else max(drops) >= 2


# -- reroute ----------------------------------------------------------------------

def test_reroute_on_empty_tree_is_noop():
    t = euclidean_tree()
    t.reroute()
    assert len(t) == 0
    assert t.check_invariants() == []


def test_reroute_preserves_single_memory():
    t = euclidean_tree()
    z = Memory(sv({1: 1.0}), 0)
    t.insert(z)
    t.reroute()
    assert len(t) == 1
    assert t.query(z.x, 1, 0.0).memories[0] is z


def test_many_reroutes_keep_invariants():
    t = euclidean_tree(c=2.0, seed=22)
    for z in random_memories(100, seed=22):
        t.insert(z)
    for _ in range(1000):
        t.reroute()
        assert t.check_invariants() == []
    assert len(t) == 100


# -- diagnostics -------------------------------------------------------------------

def test_check_invariants_fresh_tree():
    t = euclidean_tree(seed=23)
    for z in random_memories(1000, seed=23):
        t.insert(z)
    assert t.check_invariants() == []


def test_check_invariants_empty_tree():
    assert euclidean_tree().check_invariants() == []


def test_check_invariants_detects_corrupt_count():
    t = euclidean_tree(c=1.0, seed=24)
    for z in random_memories(10, seed=24):
        t.insert(z)
    assert not t.root.is_leaf
    t.root.n += 1
    problems = t.check_invariants()
    assert len(problems) == 1
    assert "subtree count" in problems[0]


def test_check_invariants_detects_corrupt_size_index():
    t = euclidean_tree(c=1.0, seed=28)
    for z in random_memories(10, seed=28):
        t.insert(z)
    leaf = next(leaf for leaf in t.leaves() if leaf.mem)
    size, n_filled = len(leaf.mem), sum(1 for leaf in t.leaves() if leaf.mem)
    missing = f"leaf of {size} memories missing from the size index"
    t._leaves_by_size[size].remove(leaf)
    t._leaves_by_size[size + 1].add(leaf)
    assert t.check_invariants() == [missing]
    t._leaves_by_size[size + 1].remove(leaf)
    assert t.check_invariants() == [
        missing, f"size index holds {n_filled - 1} leaves, the tree {n_filled} filled ones"]
    t._leaves_by_size[size].add(leaf)
    t._leaves_by_size[size].add(Leaf())
    assert t.check_invariants() == [
        f"size index holds {n_filled + 1} leaves, the tree {n_filled} filled ones"]


def test_check_invariants_detects_empty_leaf_below_root():
    (z,) = random_memories(1, seed=25)
    t = wire(euclidean_tree(), internal({}, leaf_of(z), leaf_of()))
    assert t.check_invariants() == ["empty leaf below the root"]


def test_self_consistency_single_memory():
    t = euclidean_tree()
    t.insert(Memory(sv({1: 1.0}), 0))
    assert t.measure_self_consistency(t.memories()) == 0.0


def test_self_consistency_counts_mismatches():
    zl, zr = Memory(sv({1: -1.0}), 0), Memory(sv({2: 1.0}), 1)
    root = internal({1: 1.0}, leaf_of(zl), leaf_of(zr))
    t = wire(euclidean_tree(), root)
    # zl's key scores positive through the router, so its query lands right
    assert t.measure_self_consistency([zl, zr]) == 0.5


# -- balance bound -----------------------------------------------------------------

def test_balance_bound_perfect_router():
    assert balance_bound(0.0, 1.0, math.inf) == 2.0


def test_balance_bound_random_router():
    k = balance_bound(0.5, 0.9, math.inf)
    assert 4.2 <= k <= 4.3


def test_balance_bound_vacuous_regime():
    with pytest.raises(ValueError):
        balance_bound(0.99, 0.9, 100)


def test_balance_bound_domain():
    with pytest.raises(ValueError):
        balance_bound(1.0, 0.9)
    with pytest.raises(ValueError):
        balance_bound(0.1, 0.0)


# -- conservation across mixed operations -------------------------------------------

def test_interleaved_operations_conserve_memories():
    rng = random.Random(30)
    t = euclidean_tree(c=2.0, d=1, seed=30)
    alive: dict[int, Memory] = {}
    pool = random_memories(400, seed=30)
    it = iter(pool)
    for step in range(600):
        op = rng.random()
        if op < 0.5 or not alive:
            z = next(it, None)
            if z is None:
                continue
            t.insert(z)
            alive[z.key_fingerprint] = z
        elif op < 0.7:
            fp = rng.choice(list(alive))
            t.remove(alive.pop(fp).x)
        elif op < 0.85:
            t.reroute()
        else:
            probe = rng.choice(list(alive.values()))
            result = t.query(probe.x, 2, 0.5)
            if result.key is not None and result.memories:
                t.update(probe.x, result.memories[0], rng.random(), result.key)
        assert len(t) == len(alive)
    assert t.check_invariants() == []
    assert {z.key_fingerprint for z in t.memories()} == set(alive)


def test_determinism_under_seed():
    def build():
        t = euclidean_tree(c=2.0, d=2, seed=42)
        for z in random_memories(120, seed=42):
            t.insert(z)
        return t

    a, b = build(), build()
    probes = random_memories(40, seed=43)
    for probe in probes:
        ra = a.query(probe.x, 3, 0.0)
        rb = b.query(probe.x, 3, 0.0)
        assert [z.key_fingerprint for z in ra.memories] == [
            z.key_fingerprint for z in rb.memories
        ]
    assert a.max_depth() == b.max_depth()


def test_fingerprint_is_pure_function_of_key():
    x = sv({1: 1.0, 9: -2.5})
    assert Memory(x, "a").key_fingerprint == fingerprint(x)
