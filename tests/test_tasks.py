import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmt.features import MODE_MULTICLASS, MODE_MULTILABEL, MODE_RETRIEVAL, SparseVector, l2_distance
from cmt.learners import SCORER_LEARNED, ScorerModel
from cmt.runner import RunConfig, fit, make_task
from cmt.snapshot import _pack_model, snapshot_load_full, snapshot_save
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
    _Label,
    _index,
    oas_step,
    retrieval_step,
)
from cmt.tree import Memory, Tree
from cmt.synth import multiclass_clusters, multilabel_topics, retrieval_corpus
from helpers import PerLabelOAS


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
    assert oas.predict(oas.scores({1, 2, 3}, sv({1: 1.0}))) == set()


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
    scored, indexed = [], []
    scores, update = OASModel.scores, OASModel.update

    def counting_scores(self, candidates, x):
        scored.extend(label for label in candidates if label in self.scorers)
        return scores(self, candidates, x)

    def counting_update(self, x, truth, candidates):  # scores every candidate, then steps it
        scored.extend(candidates)
        return update(self, x, truth, candidates)

    def counting_index(cells, n):
        indexed.append(n)
        return _index(cells, n)

    monkeypatch.setattr(OASModel, "scores", counting_scores)
    monkeypatch.setattr(OASModel, "update", counting_update)
    monkeypatch.setattr("cmt.tasks._index", counting_index)
    for ex in train[60:]:
        before, index_calls = len(scored), len(indexed)
        _, candidates = oas_step(t, oas, ex, train=True, epsilon=0.1)
        assert len(scored) - before <= len(candidates)
        assert len(indexed) - index_calls == (1 if candidates else 0)  # one gather a step
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
    return oas.predict(oas.scores(candidates, x)), candidates


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


FEATURE_VALUES = st.floats(-8.0, 8.0, allow_nan=False).filter(bool)


@st.composite
def oas_rounds(draw, support: str):
    """Rounds of (x, candidate labels, true labels, whether to train). The
    keys share one index tuple, drop each entry of it with p = 1/2 (as
    `sparse_examples` does), or are empty."""
    size = 0 if support == "empty" else draw(st.integers(1, 12), label="features")
    indices = tuple(sorted(draw(st.sets(st.integers(0, 2**20), min_size=size, max_size=size))))
    rng = draw(st.randoms(use_true_random=False))
    rounds = []
    for _ in range(draw(st.integers(1, 20), label="rounds")):
        kept = tuple(i for i in indices if rng.random() < 0.5) if support == "mixed" else indices
        x = SparseVector(kept, [draw(FEATURE_VALUES) for _ in kept])
        candidates = draw(st.sets(st.integers(0, 9), min_size=1, max_size=6))
        truth = draw(st.frozensets(st.integers(0, 9), max_size=4))
        rounds.append((x, candidates, truth, draw(st.booleans())))
    return rounds


@pytest.mark.parametrize("support", ["shared", "mixed", "empty"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pooled_oas_equals_the_per_label_reference(support, data):
    oas, reference = OASModel(), PerLabelOAS()
    for x, candidates, truth, train in data.draw(oas_rounds(support)):
        scores, expected = oas.scores(candidates, x), reference.scores(candidates, x)
        assert scores == expected  # only the sign of a zero may differ
        assert oas.predict(scores) == reference.predict(expected)
        if train:
            assert oas.update(x, truth, candidates) == expected  # the scores before the step
            reference.update(x, truth, expected)
        assert oas.scorers.keys() == reference.scorers.keys()
        for label, model in reference.scorers.items():  # weights, sums and counts, bit for bit
            assert _pack_model(oas.scorers[label]) == _pack_model(model)


@pytest.mark.parametrize("sparse", [False, True], ids=["synth", "sparse"])
def test_assigned_scorers_adopt_a_loaded_snapshot(tmp_path, sparse):
    train, test = multilabel_topics(examples=200, labels=24, test_examples=60, seed=7)
    if sparse:
        train, test = sparse_examples(train, 7), sparse_examples(test, 107)
    t = Tree(seed=7, d=1)
    oas = OASModel()
    for ex in train:
        oas_step(t, oas, ex, train=True, epsilon=0.1)
    saved = tmp_path / "trained.snap"
    snapshot_save(t, str(saved), label_scorers=oas.scorers)
    served, _, scorers = snapshot_load_full(str(saved))
    served_oas = OASModel()
    served_oas.scorers = dict(scorers)
    resaved = tmp_path / "served.snap"
    snapshot_save(served, str(resaved), label_scorers=served_oas.scorers)
    assert resaved.read_bytes() == saved.read_bytes()
    for ex in test:
        assert oas_step(served, served_oas, ex, train=False) == oas_step(t, oas, ex, train=False)


def test_oas_scorers_are_a_read_only_view(tmp_path):
    train, _ = multilabel_topics(examples=100, labels=12, seed=5)
    t = Tree(seed=5, d=1)
    oas = OASModel()
    for ex in train:
        oas_step(t, oas, ex, train=True, epsilon=0.1)
    view = oas.scorers
    label = next(iter(view))
    with pytest.raises(TypeError):
        view[label] = view[label]
    with pytest.raises(TypeError):
        del view[label]
    snapshot_save(t, str(tmp_path / "view.snap"), label_scorers=view)
    snapshot_save(t, str(tmp_path / "dict.snap"), label_scorers=dict(view))
    assert (tmp_path / "view.snap").read_bytes() == (tmp_path / "dict.snap").read_bytes()


CACHE_OPS = ("train", "insert", "remove", "assign", "read")


@pytest.mark.parametrize("support", ["shared", "mixed", "empty"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cached_oas_reads_equal_the_uncached_read(support, data):
    # two models take turns on one tree, between weight writes, scorer
    # assignments, inserts and removes; every test read, served from a leaf's
    # label slot or not, must equal the union plus predict(scores(...))
    d = data.draw(st.integers(0, 1), label="reroutes")
    t = euclidean_tree(c=1.0, d=d, seed=data.draw(st.integers(0, 3), label="seed"))
    models = (OASModel(), OASModel())
    keys = []
    for x, _, truth, _ in data.draw(oas_rounds(support)):
        keys.append(x)
        key = data.draw(st.sampled_from(keys), label="key")  # an earlier key leaves its leaf as read
        oas, other = models if data.draw(st.booleans(), label="first model") else models[::-1]
        op = data.draw(st.sampled_from(CACHE_OPS), label="op")
        if op == "train":
            oas_step(t, oas, MultilabelExample(key, truth), train=True, epsilon=0.1)
        elif op == "insert" and not t.contains(key):
            t.insert(Memory(key, truth))
        elif op == "remove" and len(t):
            t.remove(data.draw(st.sampled_from(list(t.memories())), label="removed").x)
        elif op == "assign":
            oas.scorers = dict(data.draw(st.sampled_from((oas, other)), label="assigned").scorers)
        copy = SparseVector(list(key.indices), key.values)  # an equal index tuple, another object
        part = SparseVector(key.indices[::2], list(key.values)[::2])  # another index tuple
        for read in (key, key, copy, part, x, key):
            expected = ranked_oas_read(t, oas, read)
            assert oas_step(t, oas, MultilabelExample(read, truth), train=False) == expected


@pytest.mark.parametrize("sparse", [False, True], ids=["synth", "sparse"])
def test_a_repeat_test_read_of_an_unchanged_leaf_gathers_nothing(monkeypatch, sparse):
    train, test = multilabel_topics(examples=200, labels=24, test_examples=60, seed=8)
    if sparse:
        train, test = sparse_examples(train, 8), sparse_examples(test, 108)
    t = Tree(seed=8, d=1)
    oas = OASModel()
    for ex in train:
        oas_step(t, oas, ex, train=True, epsilon=0.1)
    calls = []
    read_cells = _Label.read_cells

    def counting_read_cells(self, indices, fmt):
        calls.append("read_cells")
        return read_cells(self, indices, fmt)

    def counting_index(cells, n):
        calls.append("_index")
        return _index(cells, n)

    monkeypatch.setattr(_Label, "read_cells", counting_read_cells)
    monkeypatch.setattr("cmt.tasks._index", counting_index)
    for ex in test:
        answer = oas_step(t, oas, ex, train=False)
        before = len(calls)
        assert oas_step(t, oas, ex, train=False) == answer
        assert len(calls) == before
    assert "read_cells" in calls and "_index" in calls  # the first reads gathered


def test_a_remove_clears_its_leafs_label_slot():
    train, test = multilabel_topics(examples=200, labels=24, test_examples=60, seed=9)
    t = Tree(seed=9, d=1)
    oas = OASModel()
    for ex in train:
        oas_step(t, oas, ex, train=True, epsilon=0.1)
    for ex in test:
        oas_step(t, oas, ex, train=False)
    leaf = next(leaf for leaf in t.leaves() if leaf.labels is not None and len(leaf.mem) > 1)
    t.remove(leaf.mem[-1].x)
    assert leaf.labels is None


READ_PASS_DATA = {
    MODE_MULTICLASS: lambda: multiclass_clusters(classes=20, shots=3, test_per_class=3, seed=2),
    MODE_MULTILABEL: lambda: multilabel_topics(examples=200, labels=24, test_examples=60, seed=2),
    MODE_RETRIEVAL: lambda: retrieval_corpus(pairs=150, test_pairs=60, seed=2),
}


def eval_pass(task, tree, test):
    for ex in test:
        for _ in range(2):  # the second read of an unchanged leaf is served from its caches
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
