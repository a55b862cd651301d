"""Seeded synthetic datasets for benchmarks and acceptance runs.

Each generator draws Gaussian cluster centers over a shared token
vocabulary and hashes the resulting rows into sparse vectors, so every
dataset is reproducible from (parameters, seed) alone. Row j's column names
are `f0`..`f{dim-1}` (`q`/`v` for retrieval queries and values); they are
hashed once per split, and every vector of a split shares one index set,
less the entries of a row that are exactly zero. Generators are also
reachable from the CLI through `synth:` data URIs, e.g.
`synth:multiclass?classes=100&shots=3&noise=0.1`. A generator returns the
same example types a parsed dataset line becomes (see `features`), and this
module builds on `features` alone.
"""

from __future__ import annotations

from urllib.parse import parse_qsl, urlparse

import numpy as np

from .features import (
    DEFAULT_BITS,
    MulticlassExample,
    MultilabelExample,
    RetrievalPair,
    SparseVector,
    Values,
    feature_indices,
    values_from_bytes,
)


def _hash_rows(prefix: str, rows: np.ndarray, bits: int) -> list[SparseVector]:
    """Hash each row of an (n, dim) array into a sparse vector.

    Column j is the token named f"{prefix}{j}". Each column name is hashed
    once; colliding columns are summed in column order from 0.0, the same
    float additions `hash_features` makes for one row, and exact zeros are
    dropped. Rows without zeros share one indices tuple, and their values
    are read from the row's float64 bytes. A non-finite sum raises
    ValueError.
    """
    buckets = feature_indices([f"{prefix}{j}" for j in range(rows.shape[1])], bits)
    indices = tuple(sorted(set(buckets)))
    slot = {index: k for k, index in enumerate(indices)}
    acc = np.zeros((rows.shape[0], len(indices)))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, index in enumerate(buckets):
            acc[:, slot[index]] += rows[:, j]
    if not np.isfinite(acc).all():
        raise ValueError("values must be finite")
    data = acc.astype("<f8", copy=False).tobytes()
    width = 8 * len(indices)
    out = []
    for r, has_zero in enumerate((acc == 0.0).any(axis=1).tolist()):
        if has_zero:
            values = acc[r].tolist()
            vec = SparseVector.trusted(tuple(i for i, v in zip(indices, values) if v != 0.0),
                                       Values([v for v in values if v != 0.0]))
        else:
            vec = SparseVector.trusted(indices, values_from_bytes(data[r * width:(r + 1) * width]))
        out.append(vec)
    return out


def random_keys(n: int, dim: int = 16, bits: int = DEFAULT_BITS, seed: int = 0):
    """n independent Gaussian key vectors (unique with probability ~1)."""
    rng = np.random.default_rng(seed)
    return _hash_rows("f", rng.normal(0.0, 1.0, (n, dim)), bits)


def multiclass_clusters(
    classes: int,
    shots: int,
    test_per_class: int = 0,
    dim: int = 16,
    noise: float = 0.1,
    bits: int = DEFAULT_BITS,
    seed: int = 0,
):
    """Gaussian cluster per class; `shots` training and `test_per_class`
    test examples drawn around each center. Returns (train, test) with the
    training stream shuffled across classes."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, (classes, dim))

    def draw(per_class: int) -> list[MulticlassExample]:
        labels = [y for y in range(classes) for _ in range(per_class)]
        rows = [centers[y] + noise * rng.normal(0.0, 1.0, dim) for y in labels]
        xs = _hash_rows("f", np.reshape(rows, (len(rows), dim)), bits)
        return [MulticlassExample(x, y) for x, y in zip(xs, labels)]

    train = draw(shots)
    test = draw(test_per_class)
    order = rng.permutation(len(train))
    return [train[i] for i in order], test


def multilabel_topics(
    examples: int,
    labels: int,
    labels_per_topic: int = 3,
    test_examples: int = 0,
    dim: int = 16,
    noise: float = 0.1,
    bits: int = DEFAULT_BITS,
    seed: int = 0,
):
    """Topic-structured multilabel stream: each topic owns a disjoint block
    of `labels_per_topic` labels and a Gaussian center; an example carries
    its topic's full label block."""
    if labels_per_topic < 1:
        raise ValueError("labels_per_topic must be >= 1")
    if labels < labels_per_topic:  # no topic's label block would fit in [0, labels)
        raise ValueError("labels must be >= labels_per_topic")
    topics = labels // labels_per_topic
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, (topics, dim))
    blocks = [
        frozenset(range(t * labels_per_topic, (t + 1) * labels_per_topic))
        for t in range(topics)
    ]

    def draw(n: int) -> list[MultilabelExample]:
        topic, rows = [], []
        for _ in range(n):
            t = int(rng.integers(topics))
            topic.append(t)
            rows.append(centers[t] + noise * rng.normal(0.0, 1.0, dim))
        xs = _hash_rows("f", np.reshape(rows, (len(rows), dim)), bits)
        return [MultilabelExample(x, blocks[t]) for x, t in zip(xs, topic)]

    return draw(examples), draw(test_examples)


def retrieval_corpus(
    pairs: int,
    test_pairs: int = 0,
    dim: int = 16,
    noise: float = 0.1,
    bits: int = DEFAULT_BITS,
    seed: int = 0,
):
    """Caption/value pairs sharing a latent vector: the query is a noisy
    view of the value on a separate token namespace, so near queries have
    near (high-cosine) values."""
    rng = np.random.default_rng(seed)

    def draw(n: int) -> list[RetrievalPair]:
        latents, queries = [], []
        for _ in range(n):
            latent = rng.normal(0.0, 1.0, dim)
            latents.append(latent)
            queries.append(latent + noise * rng.normal(0.0, 1.0, dim))
        shape = (len(latents), dim)
        qs = _hash_rows("q", np.reshape(queries, shape), bits)
        vs = _hash_rows("v", np.reshape(latents, shape), bits)
        return [RetrievalPair(q, v) for q, v in zip(qs, vs)]

    return draw(pairs), draw(test_pairs)


# sizes of the generated data: none may be negative
_COUNT_PARAMS = {
    "classes", "shots", "test_per_class", "dim", "examples", "labels",
    "labels_per_topic", "test_examples", "pairs", "test_pairs",
}
_INT_PARAMS = _COUNT_PARAMS | {"seed"}
_FLOAT_PARAMS = {"noise"}


def is_synth_uri(uri: str) -> bool:
    return uri.startswith("synth:")


def generate(uri: str, bits: int = DEFAULT_BITS, seed: int = 0):
    """Materialize a `synth:KIND?param=value&...` URI into (train, test).

    KIND is multiclass, multilabel, or retrieval. The run seed is used
    unless the URI carries its own `seed` parameter. A negative count or
    an unknown parameter raises ValueError.
    """
    parsed = urlparse(uri)
    if parsed.scheme != "synth":
        raise ValueError(f"not a synth URI: {uri!r}")
    kind = parsed.path
    params: dict = {"bits": bits, "seed": seed}
    for key, value in parse_qsl(parsed.query):
        if key in _INT_PARAMS:
            params[key] = int(value)
            if key in _COUNT_PARAMS and params[key] < 0:
                raise ValueError(f"synth parameter {key!r} must be >= 0")
        elif key in _FLOAT_PARAMS:
            params[key] = float(value)
        else:
            raise ValueError(f"unknown synth parameter {key!r}")
    if kind == "multiclass":
        return multiclass_clusters(**params)
    if kind == "multilabel":
        return multilabel_topics(**params)
    if kind == "retrieval":
        return retrieval_corpus(**params)
    raise ValueError(f"unknown synth dataset kind {kind!r}")
