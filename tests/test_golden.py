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
    "euclidean.snap": "3a25b9362874e768676d145c80d88d43",
    "euclidean.reads": "96e62d2c22a3ad3a9d19fcafbe2a4918",
    "learned.snap": "fa5f4d7f6aaf1178817c858626e62131",
    "learned.reads": "64f7c40032abc0526bd28960fa81df19",
    "multiclass.snap": "4f6871cbefeafb49045d5b3e2d8ba4df",
    "multiclass.train.tsv": "d6f6961a4cc8fd2823baf8fd0c7934a7",
    "multiclass.test.tsv": "070aa0a850712b763a25ee58e7820d8b",
    "multilabel.snap": "8c4bca7b2a5b753419285dafbc1cd5ed",
    "multilabel.train.tsv": "e755d513551c7aced5f165a3a6beaa38",
    "multilabel.test.tsv": "85f12bed661c22ddbc181121372ecc88",
    "retrieval.snap": "a3d93e0949a266b8274561c908591bd3",
    "retrieval.train.tsv": "cd271f1e37e351158b547693a4836ff2",
    "retrieval.test.tsv": "edf09551c93775f008e3311540fced00",
    "multiclass.rerouted.snap": "9dce02a13650cedfee22f0e3ba99031c",
    "ablate_d.tsv": "347b9a26f44b5193537b4c16002319a7",
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

    Reroute picks its memory by descending the loaded subtree counts, so this
    pins that pick as well as the codec.
    """
    tree, config, label_scorers = snapshot_load_full(path)
    for _ in range(100):
        tree.reroute()
    snapshot_save(tree, "rerouted.snap", config=config, label_scorers=label_scorers)
    return {"multiclass.rerouted.snap": Path("rerouted.snap").read_bytes()}


def ablate_d_table() -> dict[str, bytes]:
    """The reroute sweep's table without its timing column."""
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
