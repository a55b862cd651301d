"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Each workload completes a small round with no failed operation and no
failed check, the traced round reports its layers and leaves cmt as it
found it, and every correctness check reports a failure when it is handed a
wrong answer.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import vkey  # noqa: E402
from cmt import learners, snapshot, synth, tasks  # noqa: E402
from cmt import tree as cmt_tree  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import OP_KINDS, TIMED_KINDS, Context, Recorder  # noqa: E402

SMALL = {
    "kv-churn": workloads.KVChurn(n0=300, hover=20),
    "online-classify": workloads.OnlineClassify(classes=40, shots=3, test_per_class=2, probes=20),
    "multilabel-oas": workloads.MultilabelOAS(examples=300, labels=90, test_examples=100,
                                              probes=20),
}


def _round(wl, tmp_path, seed=7, quality=None, tracer=None) -> Recorder:
    rec = Recorder(SpeedProbe(), tracer)
    wl.round(wl.generate(seed), Context(rec, str(tmp_path), seed, quality, tracer))
    return rec


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_round_has_no_failures(name, tmp_path):
    rec = _round(SMALL[name], tmp_path)
    assert rec.failed == 0, rec.op_errors[:5]
    assert rec.problems == []
    assert all(rec.raw[kind] for kind in OP_KINDS)
    assert rec.attempted == sum(len(v) for v in rec.raw.values())


def test_traced_round_reports_layers_and_restores_cmt(tmp_path):
    before = {
        "insert": cmt_tree.Tree.insert, "path": cmt_tree.path,
        "raw": learners.RouterModel.raw, "oas": tasks.oas_step,
        "save": snapshot.snapshot_save, "gen": synth.generate,
    }
    tracer = Tracer()
    quality: dict = {}
    tracer.install()
    try:
        rec = _round(SMALL["multilabel-oas"], tmp_path, quality=quality, tracer=tracer)
    finally:
        tracer.uninstall()
    assert rec.failed == 0 and rec.problems == []
    for name in ("learners.router_raw", "learners.router_update", "learners.pair_features",
                 "learners.scorer_predict", "tree.insert", "tree.reroute", "tree.query",
                 "tree.top_k", "tasks.oas_step", "snapshot.save",
                 "snapshot.load", "features.fingerprint"):
        calls, total, own = tracer.stats[name]
        assert calls > 0, name
        assert 0.0 <= own <= total + 1e-9, name
    assert tracer.calls("tasks.mc_step") == 0
    assert tracer.calls("tree.remove") == 0
    assert tracer.counts["snapshot.bytes"] == os.path.getsize(tmp_path / "store.snap")
    assert set(quality) == {"max_depth", "max_leaf", "max_progressive_error",
                            "self_consistency_error", "test_hamming_loss"}
    assert "raw" not in learners.RouterModel.__dict__
    after = {
        "insert": cmt_tree.Tree.insert, "path": cmt_tree.path,
        "raw": learners.RouterModel.raw, "oas": tasks.oas_step,
        "save": snapshot.snapshot_save, "gen": synth.generate,
    }
    assert after == before


def test_traced_round_does_the_same_work(tmp_path):
    wl = SMALL["kv-churn"]
    plain = _round(wl, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _round(wl, tmp_path, quality={}, tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced.attempted == plain.attempted
    assert tracer.calls("tree.insert") == len(plain.raw["insert"])
    # the quality sample's reads run untraced: only the timed reads count
    assert tracer.calls("tree.query") == len(plain.raw["query"])


def test_self_time_subtracts_child_spans():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    w_inner = tracer.wrap("inner", inner)

    def outer():
        return w_inner() + w_inner()

    tracer.wrap("outer", outer)()  # the first root operation's spans are kept
    calls, total, own = tracer.stats["outer"]
    i_calls, i_total, _ = tracer.stats["inner"]
    assert calls == 1 and i_calls == 2
    assert own == pytest.approx(total - i_total, abs=1e-12)
    names = {sid: name for sid, _, _, name, _, _ in tracer.spans}
    for sid, parent, root, name, t0, t1 in tracer.spans:
        assert t0 <= t1
        if name == "inner":
            assert names[parent] == "outer" and names[root] == "outer"


# -- checks hand a failure back for a wrong answer ---------------------------

def _euclidean_tree(n=200, seed=3):
    keys = synth.random_keys(n, seed=seed)
    t = cmt_tree.Tree(scorer=learners.ScorerModel(mode=learners.SCORER_EUCLIDEAN), seed=seed)
    for i, x in enumerate(keys):
        t.insert(cmt_tree.Memory(x, i))
    return t, keys


def test_read_checks_flag_a_swapped_memory():
    t, keys = _euclidean_tree()
    x = keys[5]
    got = t.query(x, 1, 0.0).memories
    assert checks.read_nearest(t.root, x, got) == []
    assert checks.read_in_leaf(t.root, x, got, 1) == []
    leaf = checks.descend(t.root, x)
    other = next(m for m in leaf.mem if m is not got[0])
    assert checks.read_nearest(t.root, x, (other,))
    far = next(m for m in t.memories() if not any(m is z for z in leaf.mem))
    assert checks.read_nearest(t.root, x, (far,))
    assert checks.read_in_leaf(t.root, x, (far,), 1)
    assert checks.read_in_leaf(t.root, x, (), 1)


def test_audit_flags_broken_structure():
    t, keys = _euclidean_tree()
    expected = {vkey(x): i for i, x in enumerate(keys)}
    assert checks.audit(t, expected) == []
    t.root.n += 1
    assert any("subtree count" in p for p in checks.audit(t, expected))
    t.root.n -= 1
    wrong = dict(expected)
    wrong[vkey(keys[0])] = -1
    assert any("holds" in p for p in checks.audit(t, wrong))
    missing = dict(expected)
    del missing[vkey(keys[1])]
    problems = checks.audit(t, missing, absent=[vkey(keys[1])])
    assert any("removed key" in p for p in problems)
    assert checks.audit(t, expected, c=1.0)  # a tighter leaf bound is exceeded


def test_remove_check_flags_wrong_memory():
    t, keys = _euclidean_tree(50)
    z = t.remove(keys[3])
    assert checks.removed(keys[3], 3, z) == []
    assert checks.removed(keys[4], 4, z)
    assert checks.removed(keys[3], 4, z)


def test_snapshot_checks_flag_a_corrupted_byte(tmp_path):
    t, keys = _euclidean_tree(50)
    path = str(tmp_path / "a.snap")
    snapshot.snapshot_save(t, path)
    saved = open(path, "rb").read()
    bad = bytearray(saved)
    bad[-16] ^= 0x01  # low byte of the last memory's integer value
    open(path, "wb").write(bytes(bad))
    loaded, _, scorers = snapshot.snapshot_load_full(path)
    snapshot.snapshot_save(loaded, str(tmp_path / "b.snap"), label_scorers=scorers)
    resaved = open(tmp_path / "b.snap", "rb").read()
    assert checks.same_bytes(saved, saved) == []
    assert checks.same_bytes(saved, resaved)
    assert checks.same_answers([(1,), (2,)], [(1,), (2,)]) == []
    assert checks.same_answers([(1,), (2,)], [(1,), (3,)])


def test_nn_accuracy_matches_linear_scan():
    train, test = synth.multiclass_clusters(classes=20, shots=2, test_per_class=2, seed=5)
    store = [cmt_tree.Memory(ex.x, ex.label) for ex in train]
    scan = sum(tasks.nn_linear_scan(store, ex.x, 1)[0].value == ex.label for ex in test)
    nn = checks.nn_accuracy([ex.x for ex in train], [ex.label for ex in train],
                            [ex.x for ex in test], [ex.label for ex in test])
    assert nn == scan / len(test)


def test_task_checks_flag_wrong_answers():
    assert checks.beats_constant(0.10, 100) == []
    assert checks.beats_constant(0.09, 100)
    assert checks.near_exact_nn(0.95, 1.0) == []
    assert checks.near_exact_nn(0.949, 1.0)
    assert checks.oas_answer({1}, {1, 2}, 2, 3) == []
    assert checks.oas_answer({1, 9}, {1, 2}, 2, 3)
    assert checks.oas_answer(set(), set(range(7)), 2, 3)
    assert checks.beats_empty(1.0, 3.0) == []
    assert checks.beats_empty(3.0, 3.0)


def test_capacity_step_matches_tree():
    step = checks.capacity_step(10_000, 4.0)
    t = cmt_tree.Tree()
    for n in (10_000, step - 1, step):
        t.M = dict.fromkeys(range(n))
        assert t.capacity() == checks.capacity(n, 4.0)
    assert checks.capacity(step, 4.0) > checks.capacity(step - 1, 4.0)


# -- the command line ----------------------------------------------------------

def test_run_fails_without_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kv-churn",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_run_rejects_unknown_workload():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "nope",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    import run

    class FakeTracer:
        stats: dict = {}
        counts: dict = {}
        span_total = 0

        def calls(self, name):
            return 0

        def self_ms(self, name):
            return 0.0

    timings = {k: [1e-3] * run.TAIL_MIN_SAMPLES for k in TIMED_KINDS}
    e2e = run.end_to_end(timings, [1.0])
    assert set(e2e) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        assert e2e[m["name"]][1] == m["unit"]
    layer = run.per_layer(FakeTracer(), {}, 0.0)
    assert set(layer) == {m["name"] for m in bench["per_layer"]}
    for m in bench["per_layer"]:
        assert layer[m["name"]][1] == m["unit"]
