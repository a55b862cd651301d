import math
import os
import random
import sys
import tempfile
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmt.features import SparseVector, fingerprint
from cmt.learners import (
    PAIR_BIAS,
    PAIR_COSINE,
    PAIR_DISTANCE,
    PAIR_PRODUCT_OFFSET,
    RouterModel,
    ScorerModel,
)
from cmt.snapshot import snapshot_load_full, snapshot_save
from cmt.synth import random_keys
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
from helpers import set_weight


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
    for i, w in weights.items():
        set_weight(node.g, i, w)
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


class CountingTree(Tree):
    """A tree that counts its reroute passes and splices."""

    rerouted = spliced = 0

    def reroute(self):
        self.rerouted += 1
        super().reroute()

    def _splice(self, leaf):
        self.spliced += 1
        super()._splice(leaf)


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
    assert path(sv({1: 1.0}), t.root) is t.root


def test_path_tie_goes_left():
    z = Memory(sv({5: 1.0}), 0)
    root = internal({}, leaf_of(z), leaf_of())
    t = wire(euclidean_tree(), root)
    assert path(sv({1: 1.0}), t.root) is root.left


def test_path_descends_right_on_positive_scores():
    x = sv({1: 1.0})
    z1, z2 = Memory(sv({7: 1.0}), 0), Memory(sv({8: 1.0}), 1)
    lower = internal({1: 2.0}, leaf_of(z1), leaf_of(z2))
    root = internal({1: 1.0}, leaf_of(Memory(sv({9: 1.0}), 2)), lower)
    t = wire(euclidean_tree(), root)
    assert path(x, t.root) is lower.right


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
        leaf = path(z.x, t.root)
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


def test_a_rejected_read_leaves_the_generator_alone():
    t = Tree(d=0, seed=4)
    for z in random_memories(30, seed=4):
        t.insert(z)
    x = random_memories(1, seed=5)[0].x
    state = t.rng.getstate()
    for k, epsilon, error in [(2.5, 1.0, TypeError), ("1", 1.0, TypeError),
                              (True, 1.0, TypeError), (0, 1.0, ValueError),
                              (-1, 1.0, ValueError), (1, 1.5, ValueError)]:
        with pytest.raises(error):
            t.query(x, k, epsilon)
        assert t.rng.getstate() == state, (k, epsilon)


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
    set_weight(t.f, PAIR_BIAS, 10.0)
    assert set(t.f.predict(memories[0].x, [z.x for z in memories])) == {1.0}
    self_wins = sum(t.query(z.x, 1, 0.0).memories[0] is z for z in memories)
    assert self_wins < 20


@pytest.mark.parametrize("mode", ["learned", "euclidean"])
def test_top_k_predicts_once_per_read_with_the_leaf_keys(monkeypatch, mode):
    # the benchmark times leaf scoring through ScorerModel.predict by name,
    # so a read must keep calling it: once, with the leaf's keys in stored
    # order and the leaf itself, which keeps the block the call builds
    calls = []
    original = ScorerModel.predict

    def counted(self, x, keys, leaf=None):
        calls.append((x, list(keys), leaf))
        return original(self, x, keys, leaf)

    monkeypatch.setattr(ScorerModel, "predict", counted)
    memories = random_memories(7, seed=2)
    leaf = leaf_of(*memories)
    t = wire(Tree(scorer=ScorerModel(mode=mode), d=0), leaf)
    x = random_memories(1, seed=9)[0].x
    for k in (3, 1):
        calls.clear()
        t.top_k(leaf, x, k)
        assert len(calls) == 1
        assert calls[0][0] is x
        assert calls[0][1] == [z.x for z in leaf.mem]
        assert all(a is z.x for a, z in zip(calls[0][1], leaf.mem))
        assert calls[0][2] is leaf


SHARED_INDICES = tuple(range(12))


def shared_key(rng, indices=SHARED_INDICES) -> SparseVector:
    """A key on one index set shared by the whole store, so every leaf is
    scored in one block and every read can fill or hit its leaf's block."""
    return SparseVector.trusted(indices, tuple(rng.uniform(-2.0, 2.0) or 1.0 for _ in indices))


@settings(max_examples=16, deadline=None)
@given(st.sampled_from(["learned", "euclidean"]), st.integers(0, 2**32 - 1))
def test_a_leaf_never_serves_a_stale_scoring_block(mode, seed):
    # only a remove (and so a reroute) clears a leaf's block: the key-list
    # check alone must keep every read equal to an uncached one, through
    # inserts, splits, capacity drops, updates and a snapshot round trip
    rng = random.Random(seed)
    t = Tree(c=2.0, d=1, scorer=ScorerModel(mode=mode), seed=seed % 1000)
    probes = [shared_key(rng) for _ in range(3)] + [shared_key(rng, tuple(range(1, 13)))]
    stored: dict[int, Memory] = {}
    removed: list[SparseVector] = []
    seen = {"split": False, "cap": 0}

    def read_after(op):
        assert t.check_invariants() == [], op
        queries = probes + [z.x for z in list(stored.values())[:3]]
        for x in queries:
            t.query(x, 2, 0.0)  # fills, or hits, the block of the leaf it reads
            leaf = path(x, t.root)
            keys = [z.x for z in leaf.mem]
            assert t.f.predict(x, keys, leaf) == t.f.predict(x, keys), op
        for leaf in t.leaves():  # blocks left behind by earlier reads, too
            keys = [z.x for z in leaf.mem]
            for x in probes[:1] + keys[:1]:
                assert t.f.predict(x, keys, leaf) == t.f.predict(x, keys), op
        seen["split"] |= not t.root.is_leaf
        seen["cap"] = max(seen["cap"], t.capacity())

    def insert(x):
        z = Memory(x, len(stored))
        t.insert(z)
        stored[z.key_fingerprint] = z

    def remove():
        z = stored.pop(rng.choice(sorted(stored)))
        t.remove(z.x)
        removed.append(z.x)

    for _ in range(24):
        insert(shared_key(rng))
        read_after("insert")
    for step in range(30):
        op = rng.choice(["insert", "reinsert", "remove", "reroute", "update", "snapshot"])
        if op == "insert":
            insert(shared_key(rng))
        elif op == "reinsert" and removed:  # an equal key, as a new object
            x = removed.pop()
            insert(SparseVector.trusted(x.indices, tuple(x.values)))
        elif op == "remove" and stored:
            remove()
        elif op == "reroute":
            t.reroute()
        elif op == "update":
            x = rng.choice(probes[:3])
            res = t.query(x, 1, 1.0)
            if res.memories:
                t.update(x, res.memories[0], rng.random(), res.key)
        elif op == "snapshot":
            with tempfile.TemporaryDirectory() as tmp:
                snap, again = os.path.join(tmp, "a.snap"), os.path.join(tmp, "b.snap")
                snapshot_save(t, snap)
                for x in probes:
                    t.query(x, 1, 0.0)
                snapshot_save(t, again)
                with open(snap, "rb") as a, open(again, "rb") as b:
                    assert a.read() == b.read()
                t = snapshot_load_full(snap)[0]
        read_after(op)
    while len(stored) > 4:
        remove()
        read_after("remove")
    assert seen["split"] and t.capacity() < seen["cap"]


def test_a_remove_frees_the_removed_key_from_every_leaf_block():
    keys = random_keys(2000, seed=23)
    t = Tree(scorer=ScorerModel(mode="euclidean"), seed=23)
    for i, x in enumerate(keys):
        t.insert(Memory(x, i))
    for leaf in t.leaves():  # a read's leaf scoring, which fills the leaf's block
        t.top_k(leaf, leaf.mem[0].x, 1)
        assert leaf.block is not None
    removed = keys[::2]
    for x in removed:
        t.remove(x)
    gone = {id(x) for x in removed}  # each still alive in `removed`, so no id is reused
    held = [k for leaf in t.leaves() if leaf.block is not None for k in leaf.block[0]]
    assert not [k for k in held if id(k) in gone]
    assert t.check_invariants() == []


def test_concurrent_reads_filling_leaf_blocks_return_the_sequential_answers():
    # epsilon=0 reads may run concurrently: each stores its leaf's block, and
    # the scorer's weight record, whole in one attribute write, so however the
    # threads interleave no read sees half of one; a fifth thread keeps
    # dropping both so reads refill them
    rng = random.Random(61)
    t = Tree(c=2.0, d=1, seed=61)
    for i in range(80):
        t.insert(Memory(shared_key(rng), i))
    # weights on every pair feature, so that each score depends on the block
    t.f.set_entries([(PAIR_COSINE, 0.3, 0.0), (PAIR_DISTANCE, -0.2, 0.0), (PAIR_BIAS, 0.5, 0.0)]
                    + [(i + PAIR_PRODUCT_OFFSET, 0.01 * math.sin(i), 0.0) for i in SHARED_INDICES])
    probes = [shared_key(rng) for _ in range(40)]
    expected = [[z.value for z in t.query(x, 3, 0.0).memories] for x in probes]
    leaves = list(t.leaves())
    failures: list = []
    stop = threading.Event()

    def reader(offset):
        try:
            for _ in range(15):
                for j in range(len(probes)):
                    i = (j + offset) % len(probes)
                    got = [z.value for z in t.query(probes[i], 3, 0.0).memories]
                    if got != expected[i]:
                        failures.append((i, got))
        except Exception as exc:  # a thread's exception would otherwise pass unseen
            failures.append(exc)

    def dropper():
        while not stop.is_set():
            t.f._kept = None  # as a weight write drops it
            for leaf in leaves:
                leaf.block = None  # as if never read

    threads = [threading.Thread(target=reader, args=(10 * k,)) for k in range(4)]
    drop = threading.Thread(target=dropper)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads + [drop]:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        stop.set()
        drop.join(timeout=120)
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads + [drop])
    assert failures == []


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
    assert root.g.entries() == expected.entries()


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


def test_update_keys_detached_by_a_split_or_a_splice_go_stale():
    t = CountingTree(c=1.0, d=0, scorer=ScorerModel(mode="learned"), seed=31)
    memories = random_memories(40, seed=31)
    x = sv({1: 1.0, 2: -1.0})
    t.insert(memories[0])
    split_key = t.query(x, 1, 1.0).key  # a lone leaf: every exploration samples it
    assert split_key == LeafExplore(t.root)
    for z in memories[1:]:  # capacity 1 at two memories: the root leaf splits
        t.insert(z)
    assert t.root is not split_key.leaf

    # a router flip and a leaf sample at the leaf x lands in
    leaf = path(x, t.root)
    router, node, n = leaf.parent, leaf, 0
    while node.parent is not None:  # n: the routers x passes
        node, n = node.parent, n + 1
    t.rng = ScriptedRng([0.0, (n - 0.5) / (n + 1), 0.25])  # the last router passed
    flip = t.query(x, 1, 1.0).key
    assert flip == Deviation(router, RIGHT, 0.5)
    t.rng = ScriptedRng([0.0, (n + 0.5) / (n + 1), 0.0])
    sample = t.query(x, 1, 1.0).key
    assert sample == LeafExplore(leaf)
    t.rng = random.Random(31)
    for z in list(leaf.mem):  # the emptied leaf and its router are spliced out
        t.remove(z.x)
    assert t.spliced
    assert t.check_invariants() == []

    t.d = 3
    for key in (split_key, flip, sample):
        counts = (router.g.update_count, t.f.update_count)
        rerouted = t.rerouted
        t.update(x, memories[0], 1.0, key)
        assert (router.g.update_count, t.f.update_count) == counts, key
        assert t.rerouted == rerouted + 3
    # a key still in the tree does train its learner
    t.update(x, memories[0], 1.0, LeafExplore(path(x, t.root)))
    assert t.f.update_count == counts[1] + 1


def build_by_inserts(tmp_path) -> Tree:
    t = CountingTree(c=1.0, d=1, scorer=ScorerModel(mode="euclidean"), seed=41)
    for z in random_memories(60, seed=41):
        t.insert(z)
    return t


def churn_by_removes(tmp_path) -> Tree:
    t = CountingTree(c=1.0, d=1, scorer=ScorerModel(mode="euclidean"), seed=42)
    memories = random_memories(90, seed=42)
    for z in memories:
        t.insert(z)
    spliced = t.spliced
    for z in random.Random(42).sample(memories, 45):
        t.remove(z.x)
    assert t.spliced > spliced
    return t


def load_from_a_snapshot(tmp_path) -> Tree:
    snap = str(tmp_path / "churned.snap")
    snapshot_save(churn_by_removes(tmp_path), snap)
    return snapshot_load_full(snap)[0]


@pytest.mark.parametrize("build", [build_by_inserts, churn_by_removes, load_from_a_snapshot])
def test_exploration_flips_exactly_the_routers_the_read_passed(build, tmp_path):
    t = build(tmp_path)
    assert t.check_invariants() == []
    depths = []
    for probe in random_memories(10, seed=43):
        x = probe.x
        passed, v = [], t.root  # the reference descent: right iff w . x > 0
        while not v.is_leaf:
            passed.append(v)
            score = sum(v.g.weights.get(i, 0.0) * value for i, value in zip(x.indices, x.values))
            v = v.right if score > 0.0 else v.left
        n = len(passed)
        depths.append(n)
        for i, node in enumerate(passed):  # root first
            for action, u in ((RIGHT, 0.25), (LEFT, 0.75)):
                t.rng = ScriptedRng([0.0, (i + 0.5) / (n + 1), u])
                assert t.query(x, 1, 1.0).key == Deviation(node, action, 0.5)
                assert t.rng.values == []
        t.rng = ScriptedRng([0.0, (n + 0.5) / (n + 1), 0.0])
        assert t.query(x, 1, 1.0).key == LeafExplore(v)
    assert min(depths) >= 2


def test_update_none_key_only_reroutes():
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


def test_every_router_step_of_an_insert_scores_once_and_updates_once(monkeypatch):
    # a profiler's per-layer map counts RouterModel.raw and RouterModel.update
    # by name, so a router step keeps both calls, one each
    calls = []
    raw, update, route_step = RouterModel.raw, RouterModel.update, Tree._route_step

    def counting_raw(self, x):
        calls.append("raw")
        return raw(self, x)

    def counting_update(self, x, y, importance, score=None):
        calls.append("update")
        return update(self, x, y, importance, score)

    steps = []

    def counted_step(self, v, x):
        start = len(calls)
        child = route_step(self, v, x)
        steps.append(calls[start:])
        return child

    monkeypatch.setattr(RouterModel, "raw", counting_raw)
    monkeypatch.setattr(RouterModel, "update", counting_update)
    monkeypatch.setattr(Tree, "_route_step", counted_step)
    t = Tree(seed=23)  # the library default: learned scorer, d=5
    for z in random_memories(150, seed=23):
        t.insert(z)
    assert t.max_depth() >= 4 and len(steps) > 1000
    assert all(step == ["raw", "update"] for step in steps)
    assert calls.count("update") == len(steps)


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


def left_to_right(node) -> list[Memory]:
    if node.is_leaf:
        return list(node.mem)
    return left_to_right(node.left) + left_to_right(node.right)


@pytest.mark.parametrize("c", [2.0, 40.0], ids=["internal-root", "root-leaf"])
def test_reroute_draw_i_picks_the_ith_memory_left_to_right(monkeypatch, c):
    t = euclidean_tree(c=c, seed=27)
    memories = random_memories(30, seed=27)
    for z in memories:
        t.insert(z)
    for z in memories[1::4]:
        t.remove(z.x)
    assert t.root.is_leaf == (c == 40.0)
    picked = []
    remove_fp = t._remove_fp
    monkeypatch.setattr(t, "_remove_fp", lambda fp: picked.append(fp) or remove_fp(fp))
    n = len(t)
    for i in [*range(n), 0, n - 1]:
        order = [z.key_fingerprint for z in left_to_right(t.root)]
        assert [z.key_fingerprint for z in t.memories()] == order
        monkeypatch.setattr(t.rng, "random", lambda: (i + 0.5) / n)
        t.reroute()
        assert picked == [order[i]]
        picked.clear()
    assert t.check_invariants() == []


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


def test_tree_rejects_non_integer_d_and_seed():
    for kwargs in ({"d": 2.5}, {"d": "2"}, {"seed": "x"}, {"seed": 1.0}, {"seed": None}):
        with pytest.raises(TypeError):
            Tree(**kwargs)


def corruptible_tree():
    """A healthy hand-wired tree of depth 2 (capacity 2) and its nodes."""
    a, b, c, d, e = random_memories(5, seed=29)
    n = SimpleNamespace(ab=leaf_of(a, b), c=leaf_of(c), de=leaf_of(d, e))
    n.inner = internal({}, n.ab, n.c)
    t = wire(euclidean_tree(c=1.0), internal({}, n.inner, n.de))
    assert t.check_invariants() == []
    return t, n


STRAY = fingerprint(sv({99: 1.0}))

# name, corruption of (tree, nodes), the problem the audit must report, where
# {a} and {d} are the fingerprints of the first memories of leaves ab and de
CORRUPTIONS = [
    ("duplicate_in_leaf", lambda t, n: n.ab.mem.append(n.ab.mem[0]),
     "fingerprint {a:#x} stored twice"),
    ("duplicate_across_leaves", lambda t, n: n.de.mem.append(n.ab.mem[0]),
     "fingerprint {a:#x} stored twice"),
    ("stale_map_entry", lambda t, n: t.M.__setitem__(STRAY, n.ab),
     f"map entry {STRAY:#x} is unreachable from the root"),
    ("map_entry_to_wrong_leaf", lambda t, n: t.M.__setitem__(n.de.mem[0].key_fingerprint, n.ab),
     "map entry for {d:#x} does not point at its leaf"),
    ("wrong_non_root_count", lambda t, n: setattr(n.inner, "n", 4),
     "subtree count 4 != stored 3"),
    ("broken_parent_link", lambda t, n: setattr(n.c, "parent", None),
     "child's parent link does not point back"),
    ("root_with_parent", lambda t, n: setattr(t.root, "parent", n.inner),
     "root has a parent"),
    ("leaf_over_capacity", lambda t, n: setattr(t, "c", 0.5),
     "leaf holds 2 memories, capacity 1"),
    ("missing_child", lambda t, n: setattr(n.inner, "right", None),
     "internal node with a missing child"),
    ("leaf_missing_from_size_bucket", lambda t, n: t._leaves_by_size[2].remove(n.de),
     "leaf of 2 memories missing from the size index"),
]


@pytest.mark.parametrize("corrupt,message", [c[1:] for c in CORRUPTIONS],
                         ids=[c[0] for c in CORRUPTIONS])
def test_check_invariants_reports_each_kind_of_corruption(corrupt, message):
    t, n = corruptible_tree()
    fps = {"a": n.ab.mem[0].key_fingerprint, "d": n.de.mem[0].key_fingerprint}
    corrupt(t, n)
    assert message.format(**fps) in t.check_invariants()


def test_tree_of_any_depth_audits_saves_and_loads(tmp_path):
    # a chain twice the recursion limit deep: each internal node keeps one
    # memory in its right leaf and the next node on its left
    depth = 2 * sys.getrecursionlimit()
    memories = random_memories(depth + 1, seed=31)
    node = leaf_of(memories[0])
    for z in memories[1:]:
        node = internal({}, node, leaf_of(z))
    t = wire(euclidean_tree(), node)
    assert t.check_invariants() == []
    assert t.max_depth() == depth
    first, second = tmp_path / "first.snap", tmp_path / "second.snap"
    snapshot_save(t, str(first))
    snapshot_save(snapshot_load_full(str(first))[0], str(second))
    assert first.read_bytes() == second.read_bytes()


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


@pytest.mark.parametrize("T", [0.0, -5.0, math.nan])
def test_balance_bound_rejects_a_horizon_that_is_not_positive(T):
    with pytest.raises(ValueError):
        balance_bound(0.1, 0.9, T)


@settings(max_examples=300)
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_min=True),
       st.floats(0.0, 1e12, exclude_min=True))
def test_balance_bound_at_a_finite_horizon_is_never_below_the_limit(p, alpha, T):
    try:
        limit = balance_bound(p, alpha, math.inf)
    except ValueError:  # too large for a float: so is every finite-horizon bound
        with pytest.raises(ValueError):
            balance_bound(p, alpha, T)
        return
    try:
        finite = balance_bound(p, alpha, T)
    except ValueError:  # vacuous at this horizon
        return
    assert finite >= limit


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
