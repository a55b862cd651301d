"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a `[criterion NN] PASS/FAIL` line (visible with -s or on
failure) in addition to the usual pytest verdict. Run the whole gate with:

    pytest tests/test_acceptance.py -v
"""

import math
import random

import pytest

from cmt.features import SparseVector
from cmt.learners import BASE_RATE, ScorerModel, pair_features
from cmt.runner import MulticlassTask, RunConfig, cmd_bench, cmd_train, evaluate
from cmt.snapshot import snapshot_load_full, snapshot_save
from cmt.synth import multiclass_clusters, multilabel_topics, random_keys
from cmt.tasks import (
    MulticlassExample,
    OASModel,
    entropy_reduction,
    hamming_loss,
    mc_progressive_run,
    nn_linear_scan,
    oas_step,
)
from cmt.tree import (
    LEFT,
    RIGHT,
    Deviation,
    LeafExplore,
    Memory,
    Tree,
    balance_bound,
    path,
    reward_difference_estimate,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, f"criterion {num:02d} {name}: {detail}"


class ScriptedRng:
    def __init__(self, values):
        self.values = list(values)

    def random(self) -> float:
        return self.values.pop(0)


def test_c01_closed_form_balance_bound():
    exact = balance_bound(0.0, 1.0, math.inf)
    random_router = balance_bound(0.5, 0.9, math.inf)
    with pytest.raises(ValueError):
        balance_bound(0.99, 0.9, 100)
    ok = exact == 2.0 and 4.2 <= random_router <= 4.3
    _report(1, "closed-form partition bounds", ok,
            f"K(0,1,inf)={exact} K(0.5,0.9,inf)={random_router:.6f}")


def test_c02_immediate_self_consistency():
    keys = random_keys(10_000, dim=16, seed=202)
    assert len({k.indices for k in keys}) == len(keys) or True  # keys are continuous draws
    t = Tree(alpha=0.9, c=4.0, d=0, scorer=ScorerModel(mode="euclidean"), seed=202)
    failures = 0
    for i, x in enumerate(keys):
        z = Memory(x, i)
        t.insert(z)
        got = t.query(x, 1, 0.0).memories
        if not got or got[0].key_fingerprint != z.key_fingerprint:
            failures += 1
    _report(2, "query returns each memory immediately after its insert",
            failures == 0, f"failures={failures}/10000")


def test_c03_reroute_effect_monotone():
    d_values = (0, 1, 5, 10)
    means = []
    for d in d_values:
        errors = []
        for seed in range(5):
            t = Tree(alpha=0.9, c=4.0, d=d,
                     scorer=ScorerModel(mode="euclidean"), seed=seed)
            for i, x in enumerate(random_keys(2000, seed=300 + seed)):
                t.insert(Memory(x, i))
            errors.append(t.measure_self_consistency(t.memories()))
        means.append(sum(errors) / len(errors))
    inversions = [
        (means[i + 1] - means[i]) for i in range(len(means) - 1) if means[i + 1] > means[i]
    ]
    ok = len(inversions) <= 1 and all(gap <= 0.01 for gap in inversions)
    _report(3, "self-consistency error non-increasing in reroutes", ok,
            "mean error by d: " + ", ".join(f"d={d}:{m:.4f}" for d, m in zip(d_values, means)))


def test_c04_unbiased_reward_difference():
    rng = random.Random(77)
    t = Tree(alpha=0.9, c=1.0, d=0, scorer=ScorerModel(mode="euclidean"), seed=77)
    memories = []
    for i in range(15):
        x = SparseVector.from_pairs((j, rng.uniform(-2, 2)) for j in range(5))
        z = Memory(x, i)
        t.insert(z)
        memories.append(z)
    assert not t.root.is_leaf
    rewards = {z.key_fingerprint: rng.random() for z in memories}
    probe = SparseVector.from_pairs((j, rng.uniform(-2, 2)) for j in range(5))
    record = path(probe, t.root)
    n_steps = len(record.steps)
    assert n_steps >= 2

    worst = 0.0
    for i, step in enumerate(record.steps):
        node = step.node
        reached: dict[str, float] = {}
        for action, child in ((LEFT, node.left), (RIGHT, node.right)):
            leaf = path(probe, child).leaf
            top = t.top_k(leaf, probe, 1)[0]
            reached[action] = rewards[top.key_fingerprint]
            # the real query must emit exactly this deviation for the draws
            # that enumerate (node i, action): u_node in [i/(N+1), (i+1)/(N+1)),
            # u_action < 1/2 for right
            t.rng = ScriptedRng(
                [0.0, (i + 0.5) / (n_steps + 1), 0.25 if action == RIGHT else 0.75]
            )
            result = t.query(probe, 1, 1.0)
            assert result.key == Deviation(node, action, 0.5)
            assert result.memories[0].key_fingerprint == top.key_fingerprint
        estimate = 0.5 * reward_difference_estimate(reached[RIGHT], RIGHT, 0.5) + \
            0.5 * reward_difference_estimate(reached[LEFT], LEFT, 0.5)
        truth = reached[RIGHT] - reached[LEFT]
        worst = max(worst, abs(estimate - truth))

    # the remaining exploration branch lands on the path leaf itself
    t.rng = ScriptedRng([0.0, (n_steps + 0.5) / (n_steps + 1), 0.3])
    assert isinstance(t.query(probe, 1, 1.0).key, LeafExplore)
    _report(4, "enumerated exploration gives E[r_hat] = r_right - r_left",
            worst < 1e-12, f"worst deviation={worst:.2e} over {n_steps} internal nodes")


def test_c05_structural_invariants_under_fuzz():
    total_ops = 0
    for seed in range(20):
        rng = random.Random(seed)
        t = Tree(alpha=0.9, c=2.0, d=2,
                 scorer=ScorerModel(mode="euclidean"), seed=seed)
        alive: dict[int, Memory] = {}
        counter = 0
        for _ in range(5000):
            roll = rng.random()
            if roll < 0.40 or not alive:
                x = SparseVector.from_pairs((j, rng.uniform(-2, 2)) for j in range(6))
                z = Memory(x, counter)
                counter += 1
                if z.key_fingerprint not in t.M:
                    t.insert(z)
                    alive[z.key_fingerprint] = z
            elif roll < 0.60:
                fp = rng.choice(list(alive))
                t.remove(alive.pop(fp).x)
            elif roll < 0.75:
                t.reroute()
            elif roll < 0.90:
                probe = rng.choice(list(alive.values()))
                result = t.query(probe.x, 3, 0.5)
                if result.key is not None and result.memories:
                    t.update(probe.x, result.memories[0], rng.random(), result.key)
            else:
                x = SparseVector.from_pairs((j, rng.uniform(-2, 2)) for j in range(6))
                t.query(x, 1, 0.0)
            total_ops += 1
            problems = t.check_invariants()
            assert problems == [], f"seed {seed}: {problems[:3]}"
            assert len(t) == len(alive), f"seed {seed}: conservation broke"
    _report(5, "invariants hold after every fuzzed operation", total_ops == 100_000,
            f"ops={total_ops} across 20 seeds")


def test_c06_logarithmic_scaling():
    sizes = [1_000, 10_000, 100_000]
    config = RunConfig(seed=606)
    rows = cmd_bench(config, sizes)
    details = []
    depth_ok = True
    for row in rows:
        n = row["n"]
        cap = max(math.ceil(config.c), math.ceil(config.c * math.log(n)))
        assert row["max_leaf"] <= cap
        if math.isfinite(row["K_bound"]):
            bound = row["K_bound"] * math.log(n) + math.ceil(math.log2(cap))
            depth_ok = depth_ok and row["max_depth"] <= bound
            details.append(f"n={n}: depth {row['max_depth']} <= {bound:.1f}")
    ratio = rows[-1]["query_ms"] / rows[0]["query_ms"]
    ok = depth_ok and ratio < 10.0
    _report(6, "depth bounded and query latency grows sublinearly", ok,
            f"latency ratio={ratio:.2f}; " + "; ".join(details))


def test_c07_few_shot_classification():
    cmt_accs, nn_accs = [], []
    for seed in range(5):
        train, test = multiclass_clusters(
            classes=100, shots=3, test_per_class=2, noise=0.1, seed=700 + seed
        )
        t = Tree(alpha=0.9, c=4.0, d=5, scorer=ScorerModel(mode="learned"), seed=seed)
        for ex in train:
            z = Memory(ex.x, ex.label)
            if z.key_fingerprint not in t.M:
                t.insert(z)
        for _ in range(2):
            mc_progressive_run(t, train, 0.1, update_on_exploit=True)
        metrics, _ = evaluate(MulticlassTask(RunConfig()), t, test)
        cmt_accs.append(metrics["accuracy"])
        store = [Memory(ex.x, ex.label) for ex in train]
        nn_accs.append(
            sum(1 for ex in test if nn_linear_scan(store, ex.x, 1)[0].value == ex.label)
            / len(test)
        )
    cmt_mean = sum(cmt_accs) / len(cmt_accs)
    nn_mean = sum(nn_accs) / len(nn_accs)
    constant = 1.0 / 100.0
    bits = entropy_reduction(cmt_mean, constant)
    ok = cmt_mean >= 10 * constant and cmt_mean >= nn_mean - 0.05 and bits > 3.0
    _report(7, "few-shot accuracy near the exact-NN oracle", ok,
            f"cmt={cmt_mean:.3f} nn={nn_mean:.3f} entropy_gain={bits:.2f} bits")


def test_c08_scorer_gradient_check():
    # With fresh AdaGrad state one ScorerModel.update moves weight i by
    # -BASE_RATE * g / sqrt(g^2 + 1); the g solved from that move must be the
    # gradient of 0.5 * (raw(phi) - r)^2, taken here by finite differences.
    rng = random.Random(808)
    worst = 0.0
    for _ in range(100):
        f = ScorerModel()
        x = SparseVector.from_pairs(
            (rng.randrange(60), rng.uniform(-2, 2)) for _ in range(rng.randrange(1, 7))
        )
        key = SparseVector.from_pairs(
            (rng.randrange(60), rng.uniform(-2, 2)) for _ in range(rng.randrange(1, 7))
        )
        r = rng.random()
        phi = pair_features(x, key)
        for i in phi.indices:
            f.weights[i] = rng.uniform(-1, 1)
        start = dict(f.weights)

        def loss() -> float:
            e = f.raw(phi) - r
            return 0.5 * e * e

        numeric = {}
        for i in phi.indices:
            eps = 1e-5
            f.weights[i] = start[i] + eps
            up = loss()
            f.weights[i] = start[i] - eps
            down = loss()
            f.weights[i] = start[i]
            numeric[i] = (up - down) / (2 * eps)
        f.update(x, key, r)
        for i in phi.indices:
            u = (start[i] - f.weights[i]) / BASE_RATE
            g = u / math.sqrt(1.0 - u * u)
            scale = max(abs(numeric[i]), 1e-9)
            worst = max(worst, abs(g - numeric[i]) / scale)
    _report(8, "the scorer's update steps along the finite-difference gradient",
            worst < 1e-4, f"worst relative error={worst:.2e}")


def test_c09_multilabel_candidate_bound_and_loss():
    train, test = multilabel_topics(
        examples=1000, labels=200, labels_per_topic=3, test_examples=200,
        noise=0.1, seed=909,
    )
    t = Tree(alpha=0.9, c=4.0, d=3, seed=909)
    oas = OASModel()
    max_labels = max(len(ex.labels) for ex in train)
    bound_ok = True
    for ex in train:
        _, candidates = oas_step(t, oas, ex, train=True, epsilon=0.1)
        if len(candidates) > t.capacity() * max_labels:
            bound_ok = False
    losses = [hamming_loss(oas_step(t, oas, ex, train=False)[0], ex.labels) for ex in test]
    mean_loss = sum(losses) / len(losses)
    empty_loss = sum(len(ex.labels) for ex in test) / len(test)
    ok = bound_ok and mean_loss < empty_loss
    _report(9, "candidate sets stay leaf-bounded and the pipeline beats empty",
            ok, f"mean hamming={mean_loss:.3f} vs empty={empty_loss:.3f}")


def test_c10_determinism_and_persistence(tmp_path):
    # byte-identical metrics for identical seed + config
    rng = random.Random(10)
    lines = []
    for y in range(10):
        center = [rng.gauss(0, 1) for _ in range(5)]
        for _ in range(3):
            feats = " ".join(
                f"f{j}:{center[j] + 0.1 * rng.gauss(0, 1):.6f}" for j in range(5)
            )
            lines.append(f"{y} | {feats}")
    data = tmp_path / "train.vw"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    digests = []
    for name in ("a", "b"):
        cmd_train(RunConfig(data=str(data), metrics=str(tmp_path / f"{name}.tsv"),
                            seed=10, d=3))
        digests.append((tmp_path / f"{name}.tsv").read_bytes())
    metrics_identical = digests[0] == digests[1]

    # snapshot round trip preserves every epsilon=0 answer on 1000 probes
    t = Tree(alpha=0.9, c=4.0, d=1, scorer=ScorerModel(mode="euclidean"), seed=1010)
    for i, x in enumerate(random_keys(500, seed=1010)):
        t.insert(Memory(x, i))
    snap = tmp_path / "t.snap"
    snapshot_save(t, str(snap))
    probes = random_keys(1000, seed=1011)
    expected = [
        tuple(z.key_fingerprint for z in t.query(x, 3, 0.0).memories) for x in probes
    ]
    loaded = snapshot_load_full(str(snap))[0]
    got = [
        tuple(z.key_fingerprint for z in loaded.query(x, 3, 0.0).memories) for x in probes
    ]
    queries_preserved = got == expected
    _report(10, "seeded runs are byte-identical and snapshots preserve answers",
            metrics_identical and queries_preserved,
            f"metrics_identical={metrics_identical} probes_preserved={queries_preserved}")
