import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cmt
from cmt.cli import main
from cmt.features import MODES, SparseVector
from cmt.learners import RouterModel, ScorerModel
from cmt.runner import RunConfig, cmd_ablate, cmd_bench, cmd_test, cmd_train, load_dataset
from cmt.snapshot import _TRIPLE as TRIPLE
from cmt.snapshot import MAGIC, SnapshotError, snapshot_load_full, snapshot_save
from cmt.synth import random_keys
from cmt.tree import Memory, Tree


def write_multiclass_file(path, classes=8, shots=3, dim=5, seed=0, noise=0.05):
    rng = random.Random(seed)
    centers = {y: [rng.gauss(0, 1) for _ in range(dim)] for y in range(classes)}
    lines = []
    for y in range(classes):
        for _ in range(shots):
            feats = " ".join(
                f"f{j}:{centers[y][j] + noise * rng.gauss(0, 1):.6f}" for j in range(dim)
            )
            lines.append(f"{y} | {feats}")
    rng.shuffle(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# -- snapshots -------------------------------------------------------------------

def build_tree(n=60, seed=3, **kwargs) -> Tree:
    kwargs.setdefault("scorer", ScorerModel(mode="euclidean"))
    t = Tree(seed=seed, d=1, **kwargs)
    for i, x in enumerate(random_keys(n, seed=seed)):
        t.insert(Memory(x, i))
    return t


def test_snapshot_round_trip_preserves_queries(tmp_path):
    t = build_tree(80)
    snap = tmp_path / "t.snap"
    snapshot_save(t, str(snap))
    probes = random_keys(200, seed=99)
    expected = [
        [z.key_fingerprint for z in t.query(x, 3, 0.0).memories] for x in probes
    ]
    loaded = snapshot_load_full(str(snap))[0]
    assert loaded.check_invariants() == []
    got = [
        [z.key_fingerprint for z in loaded.query(x, 3, 0.0).memories] for x in probes
    ]
    assert got == expected


def test_snapshot_empty_tree_round_trips(tmp_path):
    t = Tree()
    snap = tmp_path / "empty.snap"
    snapshot_save(t, str(snap))
    loaded = snapshot_load_full(str(snap))[0]
    assert len(loaded) == 0
    assert loaded.check_invariants() == []


def test_snapshot_preserves_value_payloads(tmp_path):
    t = Tree(d=0)
    keys = random_keys(3, seed=5)
    t.insert(Memory(keys[0], 42))
    t.insert(Memory(keys[1], frozenset({1, 5})))
    t.insert(Memory(keys[2], keys[0]))
    snap = tmp_path / "vals.snap"
    snapshot_save(t, str(snap))
    loaded = snapshot_load_full(str(snap))[0]
    values = {z.key_fingerprint: z.value for z in loaded.memories()}
    assert values[Memory(keys[0], 0).key_fingerprint] == 42
    assert values[Memory(keys[1], 0).key_fingerprint] == frozenset({1, 5})
    assert values[Memory(keys[2], 0).key_fingerprint] == keys[0]


def test_snapshot_truncated_file_errors(tmp_path):
    t = build_tree(40)
    snap = tmp_path / "t.snap"
    snapshot_save(t, str(snap))
    data = snap.read_bytes()
    for cut in (0, 4, len(data) // 2, len(data) - 1):
        (tmp_path / "cut.snap").write_bytes(data[:cut])
        with pytest.raises(SnapshotError):
            snapshot_load_full(str(tmp_path / "cut.snap"))


def test_snapshot_bad_magic_errors(tmp_path):
    bad = tmp_path / "bad.snap"
    bad.write_bytes(b"NOTASNAP" + b"\x00" * 64)
    with pytest.raises(SnapshotError):
        snapshot_load_full(str(bad))


def test_snapshot_missing_file_errors(tmp_path):
    with pytest.raises(SnapshotError):
        snapshot_load_full(str(tmp_path / "absent.snap"))


def test_snapshot_with_a_repeated_key_errors(tmp_path, monkeypatch):
    t = build_tree(40)
    first, second = list(t.leaves())[:2]
    second.mem.append(Memory(first.mem[0].x, -1))
    node = second.parent
    while node is not None:
        node.n += 1
        node = node.parent
    monkeypatch.setattr(t, "check_invariants", lambda: [])  # let the save through
    snap = tmp_path / "dup.snap"
    snapshot_save(t, str(snap))
    with pytest.raises(SnapshotError):
        snapshot_load_full(str(snap))


def patched_snapshot(tmp_path, tree, old: bytes, new: bytes, label_scorers=None):
    """A snapshot of `tree` with its one run of `old` bytes replaced by `new`."""
    snap = tmp_path / "patched.snap"
    snapshot_save(tree, str(snap), label_scorers=label_scorers)
    data = snap.read_bytes()
    assert data.count(old) == 1
    snap.write_bytes(data.replace(old, new))
    return snap


def assert_refused(snap, match):
    with pytest.raises(SnapshotError, match=match):
        snapshot_load_full(str(snap))
    assert main(["test", "--data", SYNTH_URIS["multiclass"], "--snapshot", str(snap)]) == 4


@pytest.mark.parametrize("fault", ["repeated", "swapped"])
def test_snapshot_refuses_model_indices_not_strictly_increasing(tmp_path, fault):
    t = build_tree(50, seed=8)
    (i0, w0, s0), (i1, w1, s1) = t.root.g.entries()[:2]
    first, second = TRIPLE.pack(i0, w0, s0), TRIPLE.pack(i1, w1, s1)
    if fault == "repeated":  # it would load as a model of 15 features, and resave shorter
        old, new = second, TRIPLE.pack(i0, w1, s1)
    else:
        old, new = first + second, second + first
    assert_refused(patched_snapshot(tmp_path, t, old, new), "indices not strictly increasing")


def test_snapshot_refuses_a_negative_squared_gradient_sum_but_keeps_nan(tmp_path):
    t = build_tree(50, seed=8)
    i, w, g2 = t.root.g.entries()[0]
    old = TRIPLE.pack(i, w, g2)
    assert_refused(patched_snapshot(tmp_path, t, old, TRIPLE.pack(i, w, -5.0)),
                   "squared-gradient sum below 0")
    loaded = snapshot_load_full(str(patched_snapshot(tmp_path, t, old, TRIPLE.pack(i, w, math.nan))))
    assert math.isnan(loaded[0].root.g.entries()[0][2])


@pytest.mark.parametrize("fault", ["repeated", "swapped"])
def test_snapshot_refuses_a_label_set_not_strictly_increasing(tmp_path, fault):
    t = build_tree(20, seed=8)
    x = random_keys(1, seed=99)[0]
    t.insert(Memory(x, frozenset({123456789, 987654321})))
    old = struct.pack("<BI2q", 1, 2, 123456789, 987654321)
    new = struct.pack("<BI2q", 1, 2, *((123456789,) * 2 if fault == "repeated"
                                       else (987654321, 123456789)))
    assert_refused(patched_snapshot(tmp_path, t, old, new), "labels not strictly increasing")


def test_snapshot_refuses_label_scorers_out_of_label_order(tmp_path):
    t = build_tree(20, seed=8)
    scorers = {123456789: RouterModel(), 987654321: RouterModel()}
    old = struct.pack("<q", 987654321)
    assert_refused(patched_snapshot(tmp_path, t, old, struct.pack("<q", 123456789), scorers),
                   "label scorers: labels not strictly increasing")


def test_snapshot_refuses_a_router_with_more_mistakes_than_updates(tmp_path):
    t = build_tree(50, seed=8)
    g = t.root.g
    head = struct.pack("<BQ", 1, t.root.n)
    old = head + struct.pack("<QQI", g.update_count, g.mistake_count, len(g.entries()))
    new = head + struct.pack("<QQI", g.update_count, g.update_count + 1, len(g.entries()))
    assert_refused(patched_snapshot(tmp_path, t, old, new), "more mistakes than updates")


def test_snapshot_refuses_a_label_scorer_with_more_mistakes_than_updates(tmp_path):
    t = build_tree(20, seed=8)
    scorer = RouterModel()
    scorer.update_count, scorer.mistake_count = 3, 1
    old = struct.pack("<qQQI", 123456789, 3, 1, 0)
    new = struct.pack("<qQQI", 123456789, 3, 4, 0)
    assert_refused(patched_snapshot(tmp_path, t, old, new, {123456789: scorer}),
                   "more mistakes than updates")


def header_span(data: bytes) -> tuple[int, int]:
    """Start and end offsets of a snapshot's JSON header."""
    start = len(MAGIC) + 8
    return start, start + struct.unpack_from("<I", data, start - 4)[0]


def read_header(data: bytes) -> dict:
    start, end = header_span(data)
    return json.loads(data[start:end])


def with_header(data: bytes, header: dict) -> bytes:
    """The snapshot `data` with its JSON header replaced by `header`."""
    start, end = header_span(data)
    blob = json.dumps(header).encode("utf-8")
    return data[:start - 4] + struct.pack("<I", len(blob)) + blob + data[end:]


def test_snapshot_round_trip_is_byte_stable(tmp_path):
    t = build_tree(50, seed=8)
    a, b = tmp_path / "a.snap", tmp_path / "b.snap"
    snapshot_save(t, str(a))
    loaded = snapshot_load_full(str(a))[0]
    snapshot_save(loaded, str(b))
    assert a.read_bytes() == b.read_bytes()
    assert "base_rate" not in read_header(a.read_bytes())


def test_a_load_shares_one_indices_tuple_per_index_set(tmp_path):
    t = Tree(seed=6, d=1)
    keys = random_keys(120, seed=6)
    sparse = [SparseVector.trusted(x.indices[::2], x.values[::2]) for x in keys[:20]]
    for i, x in enumerate(keys + sparse):
        t.insert(Memory(x, x if i % 3 == 0 else i))  # some values are vectors too
    a, b = tmp_path / "a.snap", tmp_path / "b.snap"
    snapshot_save(t, str(a))
    loaded = snapshot_load_full(str(a))[0]
    vectors = [z.x for z in loaded.memories()]
    vectors += [z.value for z in loaded.memories() if isinstance(z.value, SparseVector)]
    by_set: dict = {}
    for v in vectors:
        by_set.setdefault(v.indices, set()).add(id(v.indices))
    assert len(by_set) == 2  # the full support and the thinned one
    assert all(len(ids) == 1 for ids in by_set.values())
    snapshot_save(loaded, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_epsilon_zero_reads_leave_the_snapshot_bytes_alone(tmp_path):
    # a read may refresh a model's cached slot list, which is no model state
    t = Tree(seed=9)
    for i, x in enumerate(random_keys(150, seed=9)):
        t.insert(Memory(x, i))
    a, b = tmp_path / "a.snap", tmp_path / "b.snap"
    snapshot_save(t, str(a))
    probes = random_keys(40, seed=10)
    probes = [SparseVector.trusted(tuple(list(x.indices)), x.values) for x in probes[:20]] + [
        SparseVector.trusted(x.indices[1::3], x.values[1::3]) for x in probes[20:]]
    for x in probes:
        t.query(x, 3, 0.0)
    assert t.root.g._memo[0] is probes[20].indices  # the reads reached the cache
    snapshot_save(t, str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("mode", ["euclidean", "learned"])
def test_loaded_snapshot_carries_on_as_the_saved_tree(tmp_path, mode):
    t = build_tree(60, seed=4, scorer=ScorerModel(mode=mode))
    snapshot_save(t, str(tmp_path / "saved.snap"))
    loaded = snapshot_load_full(str(tmp_path / "saved.snap"))[0]
    stored, fresh = random_keys(60, seed=4), random_keys(100, seed=5)
    snaps = []
    for side, tree in enumerate((t, loaded)):
        for i, x in enumerate(fresh[:50]):
            tree.insert(Memory(x, 100 + i))
        for x in stored[::3] + fresh[:50:4]:
            tree.remove(x)
        for i, x in enumerate(fresh[50:]):
            result = tree.query(x, 2, 0.5)
            for z in result.memories:
                tree.update(x, z, 1.0 if z.value % 2 == i % 2 else 0.0, result.key)
        snapshot_save(tree, str(tmp_path / f"{side}.snap"))
        snaps.append((tmp_path / f"{side}.snap").read_bytes())
    assert snaps[0] == snaps[1]


def test_snapshot_header_stores_each_setting_once(tmp_path):
    snap = tmp_path / "m.snap"
    cmd_train(RunConfig(data="synth:multiclass?classes=4&shots=2", snapshot=str(snap),
                        metrics=str(tmp_path / "m.tsv")))
    header = read_header(snap.read_bytes())
    assert set(header) == {"alpha", "c", "d", "seed", "scorer_mode", "rng_state", "config"}
    assert header["config"] == {"mode": "multiclass", "hash_bits": 20}


def test_train_snapshot_bytes_do_not_depend_on_output_paths(tmp_path):
    snaps = []
    for name in ("a", "bb"):
        snap = tmp_path / f"{name}.snap"
        cmd_train(RunConfig(data=SYNTH_URIS["multilabel"], mode="multilabel", seed=3,
                            snapshot=str(snap), metrics=str(tmp_path / f"{name}.tsv")))
        snaps.append(snap.read_bytes())
    assert snaps[0] == snaps[1]


def test_failed_save_leaves_the_earlier_snapshot_intact(tmp_path):
    snap = tmp_path / "m.snap"
    t = build_tree(20)
    snapshot_save(t, str(snap))
    good = snap.read_bytes()
    t.insert(Memory(random_keys(1, seed=77)[0], 2**63))  # beyond the i64 value field
    with pytest.raises(SnapshotError, match="cannot write snapshot"):
        snapshot_save(t, str(snap))
    assert snap.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["m.snap"]  # no temporary file left
    # a target that cannot be replaced is refused the same way
    with pytest.raises(SnapshotError, match="cannot write snapshot"):
        snapshot_save(build_tree(5), str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == ["m.snap"]


# -- train / test ----------------------------------------------------------------

def test_train_then_test_on_file(tmp_path):
    data = write_multiclass_file(tmp_path / "train.vw")
    config = RunConfig(
        data=str(data),
        snapshot=str(tmp_path / "m.snap"),
        metrics=str(tmp_path / "m.tsv"),
        seed=1,
        d=2,
        passes_sup=1,
    )
    summary = cmd_train(config)
    assert summary["stored"] == 24
    metrics = (tmp_path / "m.tsv").read_text().splitlines()
    assert metrics[0] == "run_id\tphase\tstep\tmetric\tvalue"
    assert any("progressive_accuracy" in line for line in metrics)

    test_config = RunConfig(
        data=str(data),
        snapshot=str(tmp_path / "m.snap"),
        metrics=str(tmp_path / "test.tsv"),
        seed=1,
    )
    result = cmd_test(test_config)
    assert result["examples"] == 24
    assert 0.0 <= result["accuracy"] <= 1.0
    assert "latency_ms_mean" in result and "latency_ms_p99" in result


SYNTH_URIS = {
    "multiclass": "synth:multiclass?classes=10&shots=3&test_per_class=1",
    "multilabel": "synth:multilabel?examples=60&labels=20&test_examples=20",
    "retrieval": "synth:retrieval?pairs=40&test_pairs=10",
}


@pytest.fixture(scope="module")
def multilabel_snapshot(tmp_path_factory) -> bytes:
    snap = tmp_path_factory.mktemp("multilabel") / "m.snap"
    cmd_train(RunConfig(data=SYNTH_URIS["multilabel"], mode="multilabel", seed=5,
                        snapshot=str(snap)))
    assert snapshot_load_full(str(snap))[2]  # it carries label scorers
    return snap.read_bytes()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupt_snapshot_raises_snapshot_error_or_loads_healthy(tmp_path, multilabel_snapshot,
                                                                 data):
    raw = multilabel_snapshot
    if data.draw(st.booleans(), label="truncate"):
        blob = raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")]
    else:
        flips = data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=3),
                          label="bits")
        blob = bytearray(raw)
        for bit in flips:
            blob[bit // 8] ^= 1 << (bit % 8)
    snap = tmp_path / "corrupt.snap"
    snap.write_bytes(blob)
    try:
        tree = snapshot_load_full(str(snap))[0]
    except SnapshotError:
        return
    assert tree.check_invariants() == []


@pytest.mark.parametrize("source", ["file", *SYNTH_URIS])
def test_train_determinism_byte_identical_metrics(tmp_path, source):
    if source == "file":
        mode, data = "multiclass", str(write_multiclass_file(tmp_path / "train.vw"))
    else:
        mode, data = source, SYNTH_URIS[source]
    outputs = []
    for name in ("a", "b"):
        config = RunConfig(
            mode=mode,
            data=data,
            metrics=str(tmp_path / f"{name}.tsv"),
            seed=7,
            d=3,
        )
        cmd_train(config)
        outputs.append((tmp_path / f"{name}.tsv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("mode,metric", [
    ("multilabel", "mean_hamming_loss"),
    ("retrieval", "mean_cosine"),
])
def test_train_then_test_synth_round_trip(tmp_path, mode, metric):
    common = ["--mode", mode, "--data", SYNTH_URIS[mode], "--seed", "2",
              "--snapshot", str(tmp_path / "m.snap")]
    assert main(["train", *common, "--reroutes", "1",
                 "--metrics", str(tmp_path / "train.tsv")]) == 0
    assert main(["test", *common, "--metrics", str(tmp_path / "test.tsv")]) == 0
    rows = [line.split("\t") for line in (tmp_path / "test.tsv").read_text().splitlines()[1:]]
    assert [row[3] for row in rows] == [metric]


def test_empty_data_file_trains_to_empty_snapshot(tmp_path):
    data = tmp_path / "empty.vw"
    data.write_text("", encoding="utf-8")
    config = RunConfig(
        data=str(data),
        snapshot=str(tmp_path / "empty.snap"),
        metrics=str(tmp_path / "empty.tsv"),
    )
    summary = cmd_train(config)
    assert summary["stored"] == 0
    assert snapshot_load_full(str(tmp_path / "empty.snap"))[0].check_invariants() == []
    assert (tmp_path / "empty.tsv").read_text().startswith("run_id")


def test_unsupervised_euclidean_test_error_equals_self_consistency(tmp_path):
    # one memory per label makes label mismatch the same event as key mismatch
    data = write_multiclass_file(tmp_path / "train.vw", classes=40, shots=1, seed=2)
    config = RunConfig(
        data=str(data),
        snapshot=str(tmp_path / "u.snap"),
        scorer_mode="euclidean",
        passes_sup=0,
        d=3,
        seed=2,
    )
    cmd_train(config)
    tree = snapshot_load_full(str(tmp_path / "u.snap"))[0]
    sc_error = tree.measure_self_consistency(list(tree.memories()))

    result = cmd_test(RunConfig(data=str(data), snapshot=str(tmp_path / "u.snap"), seed=2))
    assert result["error_percent"] == pytest.approx(100.0 * sc_error, abs=1e-9)


def test_test_mode_mismatch_errors(tmp_path):
    data = write_multiclass_file(tmp_path / "train.vw")
    config = RunConfig(data=str(data), snapshot=str(tmp_path / "m.snap"))
    cmd_train(config)
    with pytest.raises(SnapshotError):
        cmd_test(RunConfig(mode="retrieval", data=str(data), snapshot=str(tmp_path / "m.snap")))


def test_synth_uri_loads_both_splits():
    config = RunConfig(data="synth:multiclass?classes=5&shots=2&test_per_class=1", seed=3)
    train, test = load_dataset(config)
    assert len(train) == 10
    assert len(test) == 5


def test_retrieval_file_hashes_each_block_once(tmp_path, monkeypatch):
    import cmt.features as features

    data = tmp_path / "pairs.vw"
    data.write_text("q1:1 q2:0.5 | v1:1\nq3 | v2:2 v3\n", encoding="utf-8")
    calls = []
    hash_features = features.hash_features
    monkeypatch.setattr(features, "hash_features",
                        lambda pairs, bits: calls.append(bits) or hash_features(pairs, bits))
    train, _ = load_dataset(RunConfig(mode="retrieval", data=str(data), hash_bits=12))
    assert calls == [12] * 4  # the left and the right block of each line
    assert train[1].x == hash_features([("q3", 1.0)], 12)
    assert train[1].value == hash_features([("v2", 2.0), ("v3", 1.0)], 12)


# -- ablate / bench ----------------------------------------------------------------

def test_ablate_d_sweep_rows(tmp_path):
    config = RunConfig(
        data="synth:multiclass?classes=20&shots=2&test_per_class=1",
        scorer_mode="euclidean",
        passes_sup=0,
        seed=4,
        metrics=str(tmp_path / "ablate.tsv"),
    )
    rows = cmd_ablate(config, "d", [0, 1, 5, 10])
    assert len(rows) == 4
    assert all("self_consistency_error" in row for row in rows)
    header = (tmp_path / "ablate.tsv").read_text().splitlines()[0]
    assert "self_consistency_error" in header.split("\t")


def test_ablate_single_value_equals_one_run():
    config = RunConfig(
        data="synth:multiclass?classes=10&shots=2&test_per_class=1",
        seed=5,
        passes_sup=1,
    )
    rows = cmd_ablate(config, "c", [4.0])
    assert len(rows) == 1
    assert rows[0]["value"] == 4.0


@pytest.mark.parametrize("update_on_exploit", [False, True])
def test_ablate_trains_the_model_train_saves(tmp_path, update_on_exploit):
    settings = dict(data="synth:multiclass?classes=30&shots=3&test_per_class=1", d=2, seed=1,
                    update_on_exploit=update_on_exploit)
    (row,) = cmd_ablate(RunConfig(**settings), "c", [4.0])
    cmd_train(RunConfig(snapshot=str(tmp_path / "m.snap"), **settings))
    tree = snapshot_load_full(str(tmp_path / "m.snap"))[0]
    assert row["self_consistency_error"] == tree.measure_self_consistency(tree.memories())


def test_ablate_rejects_empty_values():
    with pytest.raises(ValueError):
        cmd_ablate(RunConfig(data="synth:multiclass?classes=2&shots=1"), "d", [])


def test_ablate_shots_requires_synth(tmp_path):
    data = write_multiclass_file(tmp_path / "t.vw")
    from cmt.runner import DataError

    with pytest.raises(DataError):
        cmd_ablate(RunConfig(data=str(data)), "shots", [1, 2])


def test_bench_reports_expected_columns():
    config = RunConfig(seed=6, d=1, scorer_mode="euclidean")
    rows = cmd_bench(config, [200, 400])
    assert [row["n"] for row in rows] == [200, 400]
    for row in rows:
        assert set(row) == {
            "n", "insert_ms", "query_ms", "max_depth", "max_leaf",
            "progressive_error", "K_bound",
        }
        assert row["max_leaf"] <= 40  # capacity at these sizes


def test_cli_bench_reports_a_bound_too_large_for_a_float_as_inf(capsys):
    # at alpha 0.001, exp((1 - alpha) / alpha) overflows: the bound is no
    # number, as a vacuous one is, and the command still succeeds
    assert main(["bench", "--alpha", "0.001", "--sizes", "20"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert dict(zip(header.split("\t"), row.split("\t")))["K_bound"] == "inf"


# -- CLI ------------------------------------------------------------------------------

def test_cli_train_test_flow(tmp_path):
    data = write_multiclass_file(tmp_path / "train.vw")
    code = main([
        "train", "--mode", "multiclass", "--data", str(data),
        "--snapshot", str(tmp_path / "m.snap"),
        "--metrics", str(tmp_path / "m.tsv"),
        "--seed", "3", "--reroutes", "2",
    ])
    assert code == 0
    code = main([
        "test", "--mode", "multiclass", "--data", str(data),
        "--snapshot", str(tmp_path / "m.snap"),
    ])
    assert code == 0


def test_cli_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.vw"
    bad.write_text("not a valid line\n", encoding="utf-8")
    assert main(["train", "--data", str(bad)]) == 3
    assert main(["train", "--data", str(tmp_path / "missing.vw")]) == 3
    # synth data whose kind is not the requested mode
    assert main(["train", "--data", "synth:multilabel?examples=20&labels=5&test_examples=5"]) == 3
    # repeated tokens whose values sum past the float range
    overflow = tmp_path / "overflow.vw"
    overflow.write_text("1 | f:1e308 f:1e308\n", encoding="utf-8")
    assert main(["train", "--data", str(overflow)]) == 3
    overflow.write_text("q:1e308 q:1e308 | v:1\n", encoding="utf-8")
    assert main(["train", "--mode", "retrieval", "--data", str(overflow)]) == 3
    # synth parameters that yield non-finite or impossible rows
    for param in ("noise=inf", "noise=nan", "dim=-1"):
        assert main(["train", "--data", f"synth:multiclass?classes=3&shots=2&{param}"]) == 3
    # negative counts, topics of zero labels, and fewer labels than one topic holds
    assert main(["train", "--data", "synth:multiclass?classes=3&shots=-1"]) == 3
    for uri in ("synth:multilabel?examples=-1&labels=5",
                "synth:multilabel?examples=5&labels=5&labels_per_topic=0",
                "synth:multilabel?examples=5&labels=2"):
        assert main(["train", "--mode", "multilabel", "--data", uri]) == 3
    assert main(["train", "--mode", "retrieval", "--data", "synth:retrieval?pairs=-2&dim=3"]) == 3
    # a data file that is not UTF-8
    undecodable = tmp_path / "latin.vw"
    undecodable.write_bytes(b"1 | a:1\n\xff\xfe | b\n")
    assert main(["train", "--data", str(undecodable)]) == 3
    # a metrics path that cannot be written: a directory, or one inside a missing one
    synth = "synth:multiclass?classes=2&shots=1"
    for metrics in (tmp_path, tmp_path / "missing" / "m.tsv"):
        assert main(["train", "--data", synth, "--metrics", str(metrics)]) == 3, metrics
        assert main(["bench", "--sizes", "3", "--metrics", str(metrics)]) == 3, metrics


# grammar fragments, so that some files parse and train as well
DATA_TOKENS = [b"1 | a:0.5\n", b"2,3 | a\n", b"a | b:1\n", b"q:0 | v:0\n", b"1", b"2,3", b" ",
               b"|", b":", b"a", b"0.5", b"-", b"e9", b"nan", b"\n", b"\xff"]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    mode=st.sampled_from(MODES),
    blob=st.binary(max_size=32) | st.lists(st.sampled_from(DATA_TOKENS), max_size=16).map(b"".join),
)
def test_cli_train_on_arbitrary_bytes_exits_0_or_3(tmp_path, mode, blob):
    data = tmp_path / "fuzz.vw"
    data.write_bytes(blob)
    assert main(["train", "--mode", mode, "--data", str(data)]) in (0, 3)


def test_cli_trains_on_zero_dimensional_synth_data(tmp_path):
    assert main([
        "train", "--data", "synth:multiclass?classes=3&shots=2&test_per_class=1&dim=0",
        "--snapshot", str(tmp_path / "m.snap"), "--metrics", str(tmp_path / "m.tsv"),
    ]) == 0


def test_cli_parse_error_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.vw"
    bad.write_text("0 | f1:1\nbroken\n", encoding="utf-8")
    assert main(["train", "--data", str(bad)]) == 3
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "test"])
@pytest.mark.parametrize("value", ["v:0", "v:1 v:-1"], ids=["zero", "cancelling"])
def test_cli_zero_retrieval_value_is_a_data_error(tmp_path, capsys, command, value):
    good = tmp_path / "good.vw"
    good.write_text("q:1 | v:1\nq:2 | w:1\n", encoding="utf-8")
    snap = str(tmp_path / "r.snap")
    assert main(["train", "--mode", "retrieval", "--data", str(good), "--snapshot", snap]) == 0
    bad = tmp_path / "bad.vw"
    bad.write_text(f"q:1 | v:1\nq:2 | w:1\nq:3 | {value}\n", encoding="utf-8")
    snap_arg = ["--snapshot", snap] if command == "test" else []
    capsys.readouterr()
    assert main([command, "--mode", "retrieval", "--data", str(bad), *snap_arg]) == 3
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("mode,label", [
    ("multiclass", "\u00b2"),                  # a digit to str.isdigit, not to int()
    ("multiclass", "9223372036854775808"),     # 2**63, past a snapshot's i64
    ("multiclass", "99999999999999999999"),
    ("multilabel", "1,\u00b2"),
    ("multilabel", "1,9223372036854775808"),
])
def test_cli_label_outside_the_stored_range_is_a_data_error(tmp_path, capsys, mode, label):
    data = tmp_path / "labels.vw"
    data.write_text(f"0 | a:1\n{label} | a:2\n", encoding="utf-8")
    snap = tmp_path / "m.snap"
    assert main(["train", "--mode", mode, "--data", str(data), "--snapshot", str(snap)]) == 3
    assert "line 2" in capsys.readouterr().err
    assert not snap.exists()


def test_cli_largest_stored_label_round_trips(tmp_path):
    data = tmp_path / "labels.vw"
    data.write_text("9223372036854775807 | a:1\n0 | b:1\n", encoding="utf-8")
    snap = tmp_path / "m.snap"
    assert main(["train", "--data", str(data), "--snapshot", str(snap)]) == 0
    assert {z.value for z in snapshot_load_full(str(snap))[0].memories()} == {2**63 - 1, 0}


def test_cli_snapshot_error_exit_code(tmp_path):
    data = write_multiclass_file(tmp_path / "t.vw")
    assert main([
        "test", "--data", str(data), "--snapshot", str(tmp_path / "no.snap"),
    ]) == 4

    good = tmp_path / "good.snap"
    snapshot_save(Tree(), str(good))
    raw = good.read_bytes()
    header = read_header(raw)
    empty_model = struct.pack("<QQI", 0, 0, 0)

    def nested(depth):  # internal nodes down the left, an empty leaf on every side
        return (
            raw[:header_span(raw)[1]]
            + empty_model  # the scorer
            + (b"\x01" + struct.pack("<Q", 0) + empty_model) * depth
            + (b"\x00" + struct.pack("<I", 0)) * (depth + 1)
            + struct.pack("<I", 0) + b"ENDS"
        )
    one = tmp_path / "one.snap"
    stored = Tree(d=0)
    stored.insert(Memory(random_keys(1)[0], 0))
    snapshot_save(stored, str(one))
    one_raw = one.read_bytes()
    vector_len = header_span(one_raw)[1] + len(empty_model) + 5  # past the scorer and leaf head
    bad = {
        "huge_vector": one_raw[:vector_len] + struct.pack("<I", 0xFFFFFFFF)
        + one_raw[vector_len + 4:],
        "no_alpha": with_header(raw, {k: v for k, v in header.items() if k != "alpha"}),
        "alpha_5": with_header(raw, {**header, "alpha": 5.0}),
        "rng_int": with_header(raw, {**header, "rng_state": 3}),
        "c_inf": with_header(raw, {**header, "c": float("inf")}),
        "c_huge": with_header(raw, {**header, "c": 1e308}),  # c * ln(n) overflows
        "seed_str": with_header(raw, {**header, "seed": "x"}),
        "d_float": with_header(raw, {**header, "d": 2.5}),
        "nested": nested(2000),
        "empty_leaves": nested(50),
        "version_1": MAGIC + struct.pack("<I", 1),
        "version_2": MAGIC + struct.pack("<I", 2) + raw[len(MAGIC) + 4:],
        "config_list": with_header(raw, {**header, "config": [1]}),
        "hash_bits_str": with_header(raw, {**header, "config": {"hash_bits": "x"}}),
        "hash_bits_40": with_header(raw, {**header, "config": {"hash_bits": 40}}),
        "mode_bogus": with_header(raw, {**header, "config": {"mode": "bogus"}}),
    }
    for name, blob in bad.items():
        snap = tmp_path / f"{name}.snap"
        snap.write_bytes(blob)
        assert main(["test", "--data", str(data), "--snapshot", str(snap)]) == 4, name
        if name.startswith(("config", "hash_bits", "mode")):
            with pytest.raises(SnapshotError, match="bad header"):
                snapshot_load_full(str(snap))


def test_cli_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--alpha"])  # missing argument
    assert exc.value.code == 2
    # a flag the command would not read
    for argv in (["test", "--alpha", "0.5"], ["bench", "--sizes", "3", "--data", "x"],
                 ["bench", "--sizes", "3", "--snapshot", "x"],
                 ["ablate", "--param", "d", "--values", "1", "--snapshot", "x"],
                 ["train", "--replace-duplicates"], ["test", "--replace-duplicates"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    # empty ablate values are a usage error too
    assert main([
        "ablate", "--param", "d", "--values", "",
        "--data", "synth:multiclass?classes=2&shots=1",
    ]) == 2
    # an out-of-range hash width, whatever the data source
    data = write_multiclass_file(tmp_path / "t.vw", classes=2, shots=1)
    assert main(["train", "--hash-bits", "40", "--data", str(data)]) == 2
    assert main([
        "train", "--hash-bits", "40", "--data", "synth:multiclass?classes=2&shots=1",
    ]) == 2
    # store sizes below 1
    for sizes in ("0", "-5", "3,0"):
        assert main(["bench", "--sizes", sizes]) == 2, sizes
    # an infinite leaf multiplier, or one whose capacity c * ln(n) overflows, wherever it is given
    synth = "synth:multiclass?classes=2&shots=1"
    for c in ("inf", "1e308"):
        assert main(["train", "--leaf-mult", c, "--data", synth]) == 2, c
        assert main(["bench", "--sizes", "3", "--leaf-mult", c]) == 2, c
        assert main(["ablate", "--param", "c", "--values", c, "--data", synth]) == 2, c
    # negative pass counts, refused before the (missing) data file is read
    missing = str(tmp_path / "missing.vw")
    assert main(["train", "--passes-sup", "-3", "--data", missing]) == 2
    assert main(["train", "--passes-unsup", "-1", "--data", missing]) == 2
    assert main(["ablate", "--param", "passes", "--values", "1,-1", "--data", missing]) == 2
    # and so is any tree setting out of range
    assert main(["train", "--leaf-mult", "inf", "--data", missing]) == 2
    assert main(["ablate", "--param", "d", "--values", "1,-1", "--data", missing]) == 2
    # an exploration probability outside [0, 1], or NaN
    for epsilon in ("nan", "2", "-0.1"):
        assert main(["train", "--epsilon", epsilon, "--data", missing]) == 2, epsilon
        assert main(["ablate", "--param", "d", "--values", "1",
                     "--epsilon", epsilon, "--data", missing]) == 2, epsilon
    # --update-on-exploit outside multiclass, the only mode that reads it
    for mode in ("multilabel", "retrieval"):
        assert main(["train", "--mode", mode, "--update-on-exploit", "--data", missing]) == 2
        assert main(["ablate", "--mode", mode, "--update-on-exploit", "--param", "d",
                     "--values", "1", "--data", missing]) == 2, mode


# values that reach Tree: valid ones, and the edges a float flag can carry
flag_float = st.sampled_from([0.5, 1.0, 4.0, 1e308, math.inf, math.nan, 5e-324, 0.0]) | st.floats()


@settings(max_examples=200, deadline=None)
@example(c=1e308, alpha=0.9, d=1, bits=20, seed=0)  # a capacity c * ln(n) that overflows
@given(c=flag_float, alpha=flag_float, d=st.integers(-1, 3), bits=st.integers(0, 32),
       seed=st.integers(-1, 1000))
def test_cli_bench_numeric_flags_exit_0_or_2(c, alpha, d, bits, seed):
    argv = ["bench", "--sizes", "8", f"--leaf-mult={c!r}", f"--alpha={alpha!r}",
            f"--reroutes={d}", f"--hash-bits={bits}", f"--seed={seed}"]
    assert main(argv) in (0, 2)


def test_cli_test_hash_bits_must_match_the_stored_width(tmp_path, capsys):
    data = write_multiclass_file(tmp_path / "t.vw", classes=3, shots=2)
    snap, bare = str(tmp_path / "m.snap"), str(tmp_path / "bare.snap")
    assert main(["train", "--data", str(data), "--snapshot", snap, "--hash-bits", "12"]) == 0
    snapshot_save(snapshot_load_full(snap)[0], bare)  # no stored config, so no stored width

    def run_test(path, *flags):
        metrics = tmp_path / "test.tsv"
        argv = ["test", "--data", str(data), "--snapshot", path, "--metrics", str(metrics)]
        assert main([*argv, *flags]) == 0
        return metrics.read_bytes()

    # left out or equal, the stored width is used, as is a given width when
    # none is stored; run_id records the width
    stored = run_test(snap)
    assert run_test(snap, "--hash-bits", "12") == stored == run_test(bare, "--hash-bits", "12")
    assert run_test(bare) != stored
    capsys.readouterr()
    # a width that differs from the stored one is a usage error naming both
    assert main(["test", "--data", str(data), "--snapshot", snap, "--hash-bits", "20"]) == 2
    err = capsys.readouterr().err
    assert "--hash-bits 20" in err and "stored width 12" in err
    # with none stored, the given width is checked as train checks it
    assert main(["test", "--data", str(data), "--snapshot", bare, "--hash-bits", "40"]) == 2


def test_public_surface_resolves():
    namespace: dict = {}
    exec("from cmt import *", namespace)
    for name in cmt.__all__:
        assert hasattr(cmt, name), name
        assert namespace[name] is getattr(cmt, name), name


def test_import_cmt_leaves_numpy_unloaded():
    # numpy loads on first use (synth inputs, a leaf's block scoring), so a
    # fresh `import cmt`, which the benchmark's setup_s times, stays cheap
    src = str(Path(cmt.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cmt; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_module_entry_point(tmp_path):
    data = write_multiclass_file(tmp_path / "t.vw", classes=3, shots=1)
    # the child imports the same cmt as this process, also when pytest's
    # `pythonpath` setting rather than PYTHONPATH put it on sys.path
    src = str(Path(cmt.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "cmt", "train", "--data", str(data),
         "--metrics", str(tmp_path / "m.tsv"), "--reroutes", "0"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "m.tsv").exists()


def test_snapshot_then_test_metrics_identical(tmp_path):
    data = write_multiclass_file(tmp_path / "train.vw", seed=9)
    cmd_train(RunConfig(data=str(data), snapshot=str(tmp_path / "m.snap"), seed=9))
    for name in ("x", "y"):
        cmd_test(RunConfig(
            data=str(data), snapshot=str(tmp_path / "m.snap"),
            metrics=str(tmp_path / f"{name}.tsv"), seed=9,
        ))
    assert (tmp_path / "x.tsv").read_bytes() == (tmp_path / "y.tsv").read_bytes()
