"""Golden digests of seeded outputs.

Every output below is a deterministic function of its seed: metrics TSVs,
snapshots and query answers. A change that only reorganizes or speeds up
the code must leave each digest as it is; a change that alters behaviour on
purpose records the new digests and says why.
"""

import random
import struct
from hashlib import blake2b
from pathlib import Path

from cmt.features import SparseVector
from cmt.learners import ScorerModel
from cmt.runner import RunConfig, cmd_ablate, cmd_test, cmd_train
from cmt.snapshot import snapshot_load_full, snapshot_save
from cmt.synth import random_keys
from cmt.tree import Memory, Tree

RUNS = {
    "multiclass": ("synth:multiclass?classes=60&shots=3&test_per_class=2", True),
    "multilabel": ("synth:multilabel?examples=240&labels=30&test_examples=40", False),
    "retrieval": ("synth:retrieval?pairs=200&test_pairs=40", False),
}

GOLDEN = {
    "euclidean.snap": "9bdaccb666d1e78fc864ca89f1e9f164",
    "euclidean.reads": "81f992f34a880d62a3ea40780c9cb2db",
    "learned.snap": "f9be1900b2035b9962dd090aab00b099",
    "learned.reads": "64292e2e3e10d4241d7556598f41e175",
    "multiclass.snap": "cb759d21275a3f5ba02a1f5276b334d8",
    "multiclass.train.tsv": "63f520f8c83b300ab942497e53250738",
    "multiclass.test.tsv": "84a2600b0c49452064e0c6a4ff368561",
    "multilabel.snap": "b8b60d4588e439060a005fe7d8665881",
    "multilabel.train.tsv": "ca079050d4fd7fe699977057139da1eb",
    "multilabel.test.tsv": "917fc400d40d17081d491061fbf6f952",
    "retrieval.snap": "c1cb079bd8f2ec96a2969f849b0f40b2",
    "retrieval.train.tsv": "ea0ae8de31b4046f066d2921f1db4060",
    "retrieval.test.tsv": "087cdce3f918d41f3660a1d662849c35",
    "multiclass.rerouted.snap": "52a8175fa8c42f9ca18195e3b9332442",
    "ablate_d.tsv": "31d9e5d5e3dcd7c7a7b216c07cb7eb24",
}


def digest(data: bytes) -> str:
    return blake2b(data, digest_size=16).hexdigest()


def euclidean_churn() -> dict[str, bytes]:
    """A euclidean store through splits, reroutes and removes, plus its reads."""
    t = Tree(scorer=ScorerModel(mode="euclidean"), d=2, seed=7)
    keys = random_keys(450, seed=7)
    for i, x in enumerate(keys[:400]):
        t.insert(Memory(x, i))
    rng = random.Random(7)
    for x in rng.sample(keys[:400], 150):
        t.remove(x)
    for i, x in enumerate(keys[400:], start=400):
        t.insert(Memory(x, i))
    snapshot_save(t, "euclidean.snap")
    answers = b"".join(
        struct.pack("<Q", z.key_fingerprint)
        for x in random_keys(50, seed=8)
        for z in t.query(x, 3, 0.0).memories
    )
    return {"euclidean.snap": Path("euclidean.snap").read_bytes(), "euclidean.reads": answers}


def sparse_keys(n: int, seed: int) -> list[SparseVector]:
    """Keys whose supports differ: every synth vector shares one index set."""
    rng = random.Random(seed)
    out = []
    for x in random_keys(n, seed=seed):
        kept = [(i, v) for i, v in x.items() if rng.random() < 0.5]
        out.append(SparseVector(*zip(*kept)) if kept else SparseVector())
    return out


def learned_sparse() -> dict[str, bytes]:
    """A learned-scorer store trained on rewards over keys of differing supports."""
    t = Tree(d=2, seed=9)
    keys = sparse_keys(300, seed=9)
    for i, x in enumerate(keys):
        if not t.contains(x):
            t.insert(Memory(x, i))
    for i, x in enumerate(sparse_keys(200, seed=10)):
        result = t.query(x, 3, 0.5)
        for z in result.memories:
            t.update(x, z, 1.0 if z.value % 2 == i % 2 else 0.0, result.key)
    snapshot_save(t, "learned.snap")
    answers = b"".join(
        struct.pack("<Q", z.key_fingerprint)
        for x in sparse_keys(50, seed=11)
        for z in t.query(x, 3, 0.0).memories
    )
    return {"learned.snap": Path("learned.snap").read_bytes(), "learned.reads": answers}


def rerouted_reload(path: str) -> dict[str, bytes]:
    """A loaded snapshot saved again after 100 reroutes.

    Reroute samples from the order in which loading registered the keys, so
    this pins that order as well as the codec.
    """
    tree, config, label_scorers = snapshot_load_full(path)
    for _ in range(100):
        tree.reroute()
    snapshot_save(tree, "rerouted.snap", config=config, label_scorers=label_scorers)
    return {"multiclass.rerouted.snap": Path("rerouted.snap").read_bytes()}


def ablate_d_table() -> dict[str, bytes]:
    """The reroute sweep's table without its timing column.

    Self-consistency is measured over the memories in tree-walk order, so
    this pins that order as well as the table format.
    """
    cmd_ablate(RunConfig(data=RUNS["multiclass"][0], seed=1, metrics="ablate.tsv"), "d", [0, 1, 5])
    rows = [line.split("\t") for line in Path("ablate.tsv").read_text().splitlines()]
    timing = rows[0].index("inference_ms")
    kept = ["\t".join(cell for i, cell in enumerate(row) if i != timing) for row in rows]
    return {"ablate_d.tsv": "\n".join(kept).encode()}


def test_seeded_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths keep the saved run config path-free
    outputs = {**euclidean_churn(), **learned_sparse()}
    for mode, (uri, update_on_exploit) in RUNS.items():
        common = dict(mode=mode, data=uri, seed=1, snapshot=f"{mode}.snap")
        cmd_train(RunConfig(**common, update_on_exploit=update_on_exploit,
                            metrics=f"{mode}.train.tsv"))
        cmd_test(RunConfig(**common, metrics=f"{mode}.test.tsv"))
        for name in (f"{mode}.snap", f"{mode}.train.tsv", f"{mode}.test.tsv"):
            outputs[name] = (tmp_path / name).read_bytes()
    outputs.update(rerouted_reload("multiclass.snap"))
    outputs.update(ablate_d_table())
    got = {name: digest(data) for name, data in outputs.items()}
    assert got == GOLDEN
