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
    "euclidean.snap": "7238da5f06014028981e418c6e458f5f",
    "euclidean.reads": "81f992f34a880d62a3ea40780c9cb2db",
    "learned.snap": "d4bb45a8a1476adcb744156a3ed2c20d",
    "learned.reads": "4c8801ca534d0676c0e9688d63ec8161",
    "multiclass.snap": "96a9df959c3950ebca869c9198aa2bf1",
    "multiclass.train.tsv": "31d22114e31e78d87a827113216295b4",
    "multiclass.test.tsv": "0b1ca9f80d8ad357ba4e91954b058a14",
    "multilabel.snap": "f93b21a91b5e55cfb7d0c015813bb4db",
    "multilabel.train.tsv": "18f4e53a7afb965bf0ea3f084fd716c7",
    "multilabel.test.tsv": "8cae580c745d2738cf5b9a647cd2eaef",
    "retrieval.snap": "b5e927c1598aa74417c0df7aeb240998",
    "retrieval.train.tsv": "4e90a528f221ef8ccac5c49fbb77dfbc",
    "retrieval.test.tsv": "cc18da82c58b8421ecdab41593e67ac9",
    "multiclass.rerouted.snap": "ee020fd694a8708f88c7eb660919f119",
    "ablate_d.tsv": "5ecbc792ff4148039cbac1ef1bc950e0",
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
    monkeypatch.chdir(tmp_path)  # the helpers write their outputs to relative paths
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
