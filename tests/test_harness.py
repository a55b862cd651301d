import json
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import cmt
from cmt.cli import main
from cmt.learners import ScorerModel
from cmt.runner import RunConfig, cmd_ablate, cmd_bench, cmd_test, cmd_train, load_dataset
from cmt.snapshot import MAGIC, SnapshotError, snapshot_load, snapshot_load_full, snapshot_save
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
    loaded = snapshot_load(str(snap))
    assert loaded.check_invariants() == []
    got = [
        [z.key_fingerprint for z in loaded.query(x, 3, 0.0).memories] for x in probes
    ]
    assert got == expected


def test_snapshot_empty_tree_round_trips(tmp_path):
    t = Tree()
    snap = tmp_path / "empty.snap"
    snapshot_save(t, str(snap))
    loaded = snapshot_load(str(snap))
    assert len(loaded) == 0
    assert loaded.check_invariants() == []


def test_snapshot_preserves_value_payloads(tmp_path):
    t = Tree(d=0)
    keys = random_keys(3, seed=5)
    t.insert(Memory(keys[0], 42), 0)
    t.insert(Memory(keys[1], frozenset({1, 5})), 0)
    t.insert(Memory(keys[2], keys[0]), 0)
    snap = tmp_path / "vals.snap"
    snapshot_save(t, str(snap))
    loaded = snapshot_load(str(snap))
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
            snapshot_load(str(tmp_path / "cut.snap"))


def test_snapshot_bad_magic_errors(tmp_path):
    bad = tmp_path / "bad.snap"
    bad.write_bytes(b"NOTASNAP" + b"\x00" * 64)
    with pytest.raises(SnapshotError):
        snapshot_load(str(bad))


def test_snapshot_missing_file_errors(tmp_path):
    with pytest.raises(SnapshotError):
        snapshot_load(str(tmp_path / "absent.snap"))


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
        snapshot_load(str(snap))


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
    loaded = snapshot_load(str(a))
    snapshot_save(loaded, str(b))
    assert a.read_bytes() == b.read_bytes()
    assert "base_rate" not in read_header(a.read_bytes())


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
    common = ["--mode", mode, "--data", SYNTH_URIS[mode], "--seed", "2", "--reroutes", "1",
              "--snapshot", str(tmp_path / "m.snap")]
    assert main(["train", *common, "--metrics", str(tmp_path / "train.tsv")]) == 0
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
    assert snapshot_load(str(tmp_path / "empty.snap")).check_invariants() == []
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
    tree = snapshot_load(str(tmp_path / "u.snap"))
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
    tree = snapshot_load(str(tmp_path / "m.snap"))
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
    # negative counts, and topics of zero labels
    assert main(["train", "--data", "synth:multiclass?classes=3&shots=-1"]) == 3
    for uri in ("synth:multilabel?examples=-1&labels=5",
                "synth:multilabel?examples=5&labels=5&labels_per_topic=0"):
        assert main(["train", "--mode", "multilabel", "--data", uri]) == 3
    assert main(["train", "--mode", "retrieval", "--data", "synth:retrieval?pairs=-2&dim=3"]) == 3


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
        "nested": nested(2000),
        "empty_leaves": nested(50),
        "version_1": MAGIC + struct.pack("<I", 1),
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
    # an infinite leaf multiplier, wherever it is given
    synth = "synth:multiclass?classes=2&shots=1"
    assert main(["train", "--leaf-mult", "inf", "--data", synth]) == 2
    assert main(["bench", "--sizes", "3", "--leaf-mult", "inf"]) == 2
    assert main(["ablate", "--param", "c", "--values", "inf", "--data", synth]) == 2
    # negative pass counts, refused before the (missing) data file is read
    missing = str(tmp_path / "missing.vw")
    assert main(["train", "--passes-sup", "-3", "--data", missing]) == 2
    assert main(["train", "--passes-unsup", "-1", "--data", missing]) == 2
    assert main(["ablate", "--param", "passes", "--values", "1,-1", "--data", missing]) == 2
    # and so is any tree setting out of range
    assert main(["train", "--leaf-mult", "inf", "--data", missing]) == 2
    assert main(["ablate", "--param", "d", "--values", "1,-1", "--data", missing]) == 2


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
