import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmt import synth
from cmt.features import hash_features


def hash_rows_reference(prefix, rows, bits):
    """Row-by-row hashing: one hash_features call per row."""
    return [
        hash_features([(f"{prefix}{j}", float(v)) for j, v in enumerate(row)], bits)
        for row in rows
    ]


entry = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def row_arrays(draw):
    n = draw(st.integers(0, 5))
    dim = draw(st.integers(0, 8))
    rows = [draw(st.lists(entry, min_size=dim, max_size=dim)) for _ in range(n)]
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [0.0] * dim
    return np.reshape(np.array(rows, dtype=float), (n, dim))


@settings(max_examples=300)
@given(row_arrays(), st.sampled_from([1, 2, 3, 20]), st.sampled_from(["f", "q"]))
def test_hash_rows_equals_row_by_row_hashing(rows, bits, prefix):
    try:
        want = hash_rows_reference(prefix, rows, bits)
    except ValueError:  # colliding entries summed past the float range
        with pytest.raises(ValueError):
            synth._hash_rows(prefix, rows, bits)
        return
    got = synth._hash_rows(prefix, rows, bits)
    assert [(v.indices, v.values) for v in got] == [(v.indices, v.values) for v in want]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_hash_rows_rejects_a_non_finite_value(bad):
    rows = np.array([[1.0, 2.0], [3.0, bad]])
    with pytest.raises(ValueError):
        synth._hash_rows("f", rows, 20)
    with pytest.raises(ValueError):
        hash_rows_reference("f", rows, 20)


def test_hash_rows_drops_zeros_and_shares_the_index_tuple():
    rows = np.array([[1.0, 2.0, 3.0], [0.0, -0.0, 4.0], [5.0, 6.0, 7.0], [0.0, 0.0, 0.0]])
    a, b, c, empty = synth._hash_rows("f", rows, 20)
    assert a.indices is c.indices
    assert len(b) == 1 and tuple(b.values) == (4.0,)
    assert len(empty) == 0


GENERATORS = {
    "random_keys": lambda seed, bits: synth.random_keys(50, bits=bits, seed=seed),
    "multiclass": lambda seed, bits: synth.multiclass_clusters(
        6, 3, test_per_class=2, bits=bits, seed=seed),
    "multilabel": lambda seed, bits: synth.multilabel_topics(
        40, 9, test_examples=10, bits=bits, seed=seed),
    "retrieval": lambda seed, bits: synth.retrieval_corpus(
        30, test_pairs=10, bits=bits, seed=seed),
}


@pytest.mark.parametrize("bits", [2, 20])
@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_equal_row_by_row_hashing(monkeypatch, name, seed, bits):
    batched = GENERATORS[name](seed, bits)
    monkeypatch.setattr(synth, "_hash_rows", hash_rows_reference)
    reference = GENERATORS[name](seed, bits)
    assert batched == reference


URI_COUNTS = {
    "multiclass": ("classes", "shots", "test_per_class", "dim"),
    "multilabel": ("examples", "labels", "labels_per_topic", "test_examples", "dim"),
    "retrieval": ("pairs", "test_pairs", "dim"),
}


@pytest.mark.parametrize("kind,param", [(k, p) for k, ps in URI_COUNTS.items() for p in ps])
def test_generate_rejects_a_negative_count(kind, param):
    with pytest.raises(ValueError, match=param):
        synth.generate(f"synth:{kind}?{param}=-1")


def test_generate_accepts_zero_counts_but_not_empty_topics():
    assert synth.generate("synth:multiclass?classes=0&shots=0") == ([], [])
    assert synth.generate("synth:retrieval?pairs=0&dim=0") == ([], [])
    for params in ("labels=5&labels_per_topic=0", "labels=2", "labels=0"):
        with pytest.raises(ValueError, match="labels_per_topic"):
            synth.generate(f"synth:multilabel?examples=5&{params}")
