import random

import pytest

from cmt.features import MODE_MULTICLASS, MODE_MULTILABEL, MODE_RETRIEVAL, SparseVector, l2_distance
from cmt.learners import SCORER_LEARNED, RouterModel, ScorerModel
from cmt.runner import RunConfig, fit, make_task
from cmt.snapshot import snapshot_save
from cmt.tasks import (
    MulticlassExample,
    MultilabelExample,
    OASModel,
    RetrievalPair,
    entropy_reduction,
    f1_reward,
    hamming_loss,
    mc_progressive_run,
    mc_step,
    nn_linear_scan,
    oas_step,
    retrieval_step,
)
from cmt.tree import Memory, Tree
from cmt.synth import multiclass_clusters, multilabel_topics, retrieval_corpus


def sv(mapping):
    return SparseVector.from_pairs(mapping.items())


def euclidean_tree(**kwargs) -> Tree:
    kwargs.setdefault("scorer", ScorerModel(mode="euclidean"))
    kwargs.setdefault("d", 0)
    return Tree(**kwargs)


# -- multiclass ------------------------------------------------------------------

def test_mc_step_on_empty_tree_misses_then_stores():
    t = euclidean_tree()
    predicted, correct = mc_step(t, MulticlassExample(sv({1: 1.0}), 3), 0.0)
    assert predicted is None
    assert not correct
    assert len(t) == 1


def test_mc_step_rejects_an_unknown_mode():
    with pytest.raises(ValueError):
        mc_step(euclidean_tree(), MulticlassExample(sv({1: 1.0}), 3), 0.0, "insert_only")


def test_mc_step_exact_hit():
    t = euclidean_tree()
    x = sv({1: 1.0})
    t.insert(Memory(x, 7))
    predicted, correct = mc_step(t, MulticlassExample(x, 7), 0.0)
    assert predicted == 7
    assert correct
    assert len(t) == 1  # duplicate keys are not re-inserted


def test_mc_step_reward_is_binary(monkeypatch):
    t = euclidean_tree(d=0)
    t.insert(Memory(sv({1: 1.0}), 0))
    seen = []
    original = Tree.update

    def spy(self, x, z, r, key):
        seen.append(r)
        return original(self, x, z, r, key)

    monkeypatch.setattr(Tree, "update", spy)
    rng = random.Random(0)
    for i in range(200):
        x = sv({1: rng.uniform(-2, 2), 2: rng.uniform(-2, 2)})
        mc_step(t, MulticlassExample(x, i % 5), 0.7)
    assert seen and all(r in (0.0, 1.0) for r in seen)


def test_mc_progressive_run_single_example():
    t = euclidean_tree()
    accuracy, trace = mc_progressive_run(t, [MulticlassExample(sv({1: 1.0}), 0)], 0.0)
    assert accuracy == 0.0
    assert trace[-1][0] == 1


def test_mc_progressive_repeats_eventually_hit():
    t = euclidean_tree()
    ex = MulticlassExample(sv({1: 1.0}), 4)
    hits = 0
    for i in range(10):
        _, correct = mc_step(t, ex, 0.0)
        hits += correct
    assert hits >= 9  # everything after the first insert is an exact hit


def test_mc_progressive_run_deterministic_under_seed():
    train, _ = multiclass_clusters(classes=10, shots=3, seed=5)

    def run():
        t = Tree(seed=9, d=1)
        return mc_progressive_run(t, train, 0.2)

    (acc_a, trace_a), (acc_b, trace_b) = run(), run()
    assert acc_a == acc_b
    assert trace_a == trace_b


# -- metrics ----------------------------------------------------------------------

def test_entropy_reduction_values():
    assert entropy_reduction(0.5, 0.25) == 1.0
    assert entropy_reduction(0.3, 0.3) == 0.0
    assert entropy_reduction(0.25, 0.5) == -1.0


def test_entropy_reduction_antisymmetric():
    rng = random.Random(1)
    for _ in range(50):
        a, b = rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)
        assert entropy_reduction(a, b) == pytest.approx(-entropy_reduction(b, a))


def test_entropy_reduction_rejects_nonpositive():
    with pytest.raises(ValueError):
        entropy_reduction(0.0, 0.5)
    with pytest.raises(ValueError):
        entropy_reduction(0.5, 0.0)


def test_f1_reward_cases():
    assert f1_reward({1, 2}, {1, 2}) == 1.0
    assert f1_reward({1}, {2}) == 0.0
    assert f1_reward({1, 2}, {2, 3}) == 0.5
    assert f1_reward(set(), set()) == 0.0
    assert f1_reward({1}, set()) == 0.0


def test_hamming_loss_cases():
    assert hamming_loss({1, 2}, {1, 2}) == 0
    assert hamming_loss({1}, {1, 2}) == 1
    assert hamming_loss(set(), {1, 2, 3}) == 3


# -- multilabel / OAS ---------------------------------------------------------------

def test_oas_step_empty_tree_predicts_nothing():
    t = euclidean_tree()
    oas = OASModel()
    predicted, candidates = oas_step(t, oas, MultilabelExample(sv({1: 1.0}), frozenset({1})), train=False)
    assert predicted == set()
    assert candidates == set()


def test_oas_fresh_scorers_score_zero_not_positive():
    oas = OASModel()
    assert oas.predict({1, 2, 3}, sv({1: 1.0})) == set()


def test_oas_candidates_bounded_by_leaf_content():
    train, _ = multilabel_topics(examples=150, labels=30, seed=3)
    t = Tree(seed=3, d=1)
    oas = OASModel()
    max_labels = max(len(ex.labels) for ex in train)
    for ex in train:
        _, candidates = oas_step(t, oas, ex, train=True, epsilon=0.1)
        assert len(candidates) <= t.capacity() * max_labels


def test_oas_step_scores_each_label_once(monkeypatch):
    train, _ = multilabel_topics(examples=120, labels=12, seed=6)
    t = Tree(seed=6, d=1)
    oas = OASModel()
    for ex in train[:60]:
        oas_step(t, oas, ex, train=True, epsilon=0.1)
    scored = []
    raw = RouterModel.raw

    def counting_raw(self, x):
        if self in oas.scorers.values():
            scored.append(self)
        return raw(self, x)

    monkeypatch.setattr(RouterModel, "raw", counting_raw)
    for ex in train[60:]:
        before = len(scored)
        _, candidates = oas_step(t, oas, ex, train=True, epsilon=0.1)
        assert len(scored) - before <= len(candidates)
    assert scored


def test_oas_learns_topic_blocks():
    train, test = multilabel_topics(examples=400, labels=12, test_examples=50, seed=4)
    t = Tree(seed=4, d=1)
    oas = OASModel()
    for _ in range(2):
        for ex in train:
            oas_step(t, oas, ex, train=True, epsilon=0.1)
    losses = [hamming_loss(oas_step(t, oas, ex, train=False)[0], ex.labels) for ex in test]
    empty_loss = sum(len(ex.labels) for ex in test) / len(test)
    assert sum(losses) / len(losses) < empty_loss


def sparse_examples(examples, seed: int) -> list[MultilabelExample]:
    """The examples with each key entry dropped with probability 1/2, so keys
    differ in support where synth keys all share one index set."""
    rng = random.Random(seed)
    out = []
    for ex in examples:
        kept = [(i, v) for i, v in ex.x.items() if rng.random() < 0.5]
        x = SparseVector(*zip(*kept)) if kept else SparseVector()
        out.append(MultilabelExample(x, ex.labels))
    return out


def ranked_oas_read(t: Tree, oas: OASModel, x: SparseVector):
    """A test read through an epsilon=0 query for capacity memories."""
    candidates: set[int] = set()
    for z in t.query(x, t.capacity(), 0.0).memories:
        candidates |= z.value
    return oas.predict(candidates, x), candidates


@pytest.mark.parametrize("sparse", [False, True], ids=["synth", "sparse"])
@pytest.mark.parametrize("seed", range(5))
def test_oas_test_read_matches_the_ranked_capacity_query(seed, sparse):
    train, test = multilabel_topics(examples=200, labels=24, test_examples=60, seed=seed)
    if sparse:
        train, test = sparse_examples(train, seed), sparse_examples(test, seed + 100)
    t = Tree(seed=seed, d=1)
    oas = OASModel()
    for ex in test[:3]:  # the empty tree
        assert oas_step(t, oas, ex, train=False) == ranked_oas_read(t, oas, ex.x) == (set(), set())
    for ex in train:
        oas_step(t, oas, ex, train=True, epsilon=0.1)
    for ex in test:
        assert oas_step(t, oas, ex, train=False) == ranked_oas_read(t, oas, ex.x)


READ_PASS_DATA = {
    MODE_MULTICLASS: lambda: multiclass_clusters(classes=20, shots=3, test_per_class=3, seed=2),
    MODE_MULTILABEL: lambda: multilabel_topics(examples=200, labels=24, test_examples=60, seed=2),
    MODE_RETRIEVAL: lambda: retrieval_corpus(pairs=150, test_pairs=60, seed=2),
}


def eval_pass(task, tree, test):
    for ex in test:
        task.eval_step(tree, ex)


def self_consistency_pass(task, tree, test):
    tree.measure_self_consistency(tree.memories())


@pytest.mark.parametrize(
    "mode, read",
    [(MODE_MULTICLASS, eval_pass), (MODE_MULTILABEL, eval_pass), (MODE_RETRIEVAL, eval_pass),
     (MODE_MULTICLASS, self_consistency_pass)],
    ids=["multiclass", "multilabel", "retrieval", "self_consistency"],
)
def test_read_pass_is_read_only(tmp_path, mode, read):
    # the learned scorer clamps at 0 and 1, so these reads meet exact ties
    train, test = READ_PASS_DATA[mode]()
    task = make_task(RunConfig(mode=mode, d=1, seed=2))
    tree, _ = fit(task.config, task, train)
    assert tree.f.mode == SCORER_LEARNED

    def saved(name: str) -> bytes:
        snapshot_save(tree, str(tmp_path / name), label_scorers=task.label_scorers)
        return (tmp_path / name).read_bytes()

    state, before = tree.rng.getstate(), saved("before.snap")
    read(task, tree, test)
    assert tree.rng.getstate() == state
    assert saved("after.snap") == before


# -- retrieval -----------------------------------------------------------------------

def test_retrieval_step_exact_pair_scores_one():
    t = euclidean_tree()
    pair = RetrievalPair(sv({1: 1.0}), sv({2: 3.0}))
    t.insert(Memory(pair.x, pair.value))
    returned, reward = retrieval_step(t, pair, train=False)
    assert returned == pair.value
    assert reward == pytest.approx(1.0)


def test_retrieval_step_empty_tree_reports_zero():
    t = euclidean_tree()
    returned, reward = retrieval_step(t, RetrievalPair(sv({1: 1.0}), sv({2: 1.0})), train=False)
    assert returned is None
    assert reward == 0.0


def test_retrieval_step_rejects_zero_value_vector():
    t = euclidean_tree()
    with pytest.raises(ValueError):
        retrieval_step(t, RetrievalPair(sv({1: 1.0}), sv({})), train=False)


def test_retrieval_training_improves_over_noise():
    train, test = retrieval_corpus(pairs=200, test_pairs=40, seed=5)
    t = Tree(seed=5, d=1)
    for pair in train:
        retrieval_step(t, pair, train=True, epsilon=0.1)
    rewards = [retrieval_step(t, pair, train=False)[1] for pair in test]
    assert sum(rewards) / len(rewards) > 0.0


# -- exact nearest neighbor baseline ---------------------------------------------------

def test_nn_linear_scan_finds_exact_match_first():
    store = [Memory(sv({1: float(i)}), i) for i in range(1, 8)]
    x = sv({1: 4.0})
    assert nn_linear_scan(store, x, 1)[0].value == 4


def test_nn_linear_scan_empty_store():
    assert nn_linear_scan([], sv({1: 1.0}), 3) == []


def test_nn_linear_scan_agrees_with_bruteforce_resort():
    rng = random.Random(6)
    store = [
        Memory(sv({j: rng.uniform(-3, 3) for j in range(4)}), i) for i in range(60)
    ]
    for _ in range(200):
        x = sv({j: rng.uniform(-3, 3) for j in range(4)})
        got = nn_linear_scan(store, x, 5)
        expected = sorted(store, key=lambda z: (l2_distance(x, z.x), z.key_fingerprint))[:5]
        assert [z.value for z in got] == [z.value for z in expected]


def test_nn_oracle_dominates_tree_on_distance():
    train, _ = multiclass_clusters(classes=30, shots=4, seed=7)
    t = euclidean_tree(seed=7, d=2)
    store = []
    for ex in train:
        z = Memory(ex.x, ex.label)
        t.insert(z)
        store.append(z)
    rng = random.Random(8)
    for _ in range(100):
        probe = sv({j: rng.uniform(-2, 2) for j in range(6)})
        exact = nn_linear_scan(store, probe, 1)[0]
        got = t.query(probe, 1, 0.0).memories[0]
        assert l2_distance(probe, exact.x) <= l2_distance(probe, got.x) + 1e-12
