import math
import os
import struct
import tempfile
from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmt.features import (
    LabeledLine,
    ParseError,
    SparseVector,
    cosine,
    dot,
    fingerprint,
    fnv1a64,
    hash_features,
    l2_distance,
    parse_line,
    render_line,
)
from cmt.learners import ScorerModel, pair_features
from cmt.snapshot import snapshot_load, snapshot_save
from cmt.synth import generate as synth_generate, random_keys
from cmt.tree import Memory, Tree


def sv(mapping):
    return SparseVector.from_pairs(mapping.items())


# reference FNV-1a, written independently of the library implementation
def _fnv_ref(data: bytes) -> int:
    h = 14695981039346656037
    for byte in data:
        h = ((h ^ byte) * 1099511628211) % 2**64
    return h


def test_fnv1a64_matches_reference():
    for s in (b"", b"a", b"b", b"hello world", bytes(range(256))):
        assert fnv1a64(s) == _fnv_ref(s)


def test_fnv1a64_known_value():
    # frozen from the reference implementation
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


# -- dot ---------------------------------------------------------------------

def test_dot_single_shared_index():
    assert dot(sv({1: 2.0}), sv({1: 3.0})) == 6.0


def test_dot_disjoint_supports():
    assert dot(sv({1: 1.0}), sv({2: 1.0})) == 0.0


def test_dot_partial_overlap():
    assert dot(sv({1: 1.0, 2: 2.0}), sv({2: 0.5, 3: 4.0})) == 1.0


# -- l2 ----------------------------------------------------------------------

def test_l2_identity():
    v = sv({1: 3.0, 5: -2.0})
    assert l2_distance(v, v) == 0.0


def test_l2_against_absent_entry():
    assert l2_distance(sv({1: 3.0}), sv({})) == 3.0


def test_l2_three_four_five():
    assert l2_distance(sv({1: 3.0, 2: 4.0}), sv({})) == 5.0


# -- cosine ------------------------------------------------------------------

def test_cosine_self():
    v = sv({1: 1.0, 2: 2.0})
    assert cosine(v, v) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine(sv({1: 1.0}), sv({2: 1.0})) == 0.0


def test_cosine_antiparallel():
    assert cosine(sv({1: 1.0}), sv({1: -2.0})) == pytest.approx(-1.0)


def test_cosine_zero_vector_errors():
    with pytest.raises(ValueError):
        cosine(sv({}), sv({1: 1.0}))


# -- hashing -----------------------------------------------------------------

def test_hash_features_empty():
    assert len(hash_features([], 20)) == 0


def test_hash_features_sums_repeated_names():
    v = hash_features([("a", 1.0), ("a", 2.0)], 20)
    assert v.indices == (fnv1a64(b"a") & (2**20 - 1),)
    assert v.values == (3.0,)


def test_hash_features_additive_collision():
    # "a" and "c" land on the same bucket at bits=1 (both digests are even)
    assert fnv1a64(b"a") % 2 == fnv1a64(b"c") % 2 == 0
    v = hash_features([("a", 1.0), ("c", 1.0)], 1)
    assert v.indices == (0,)
    assert v.values == (2.0,)


def test_hash_features_bits_range():
    with pytest.raises(ValueError):
        hash_features([("a", 1.0)], 0)
    with pytest.raises(ValueError):
        hash_features([("a", 1.0)], 32)


def test_hash_features_drops_cancelled_entries():
    assert len(hash_features([("a", 1.0), ("a", -1.0)], 20)) == 0


# -- SparseVector invariants ---------------------------------------------------

def test_vector_rejects_unsorted_indices():
    with pytest.raises(ValueError):
        SparseVector((2, 1), (1.0, 1.0))


def test_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        SparseVector((1,), (math.inf,))


def test_from_pairs_merges_and_sorts():
    v = SparseVector.from_pairs([(5, 1.0), (1, 2.0), (5, 0.5)])
    assert v.indices == (1, 5)
    assert v.values == (2.0, 1.5)


# dyadic values keep squares and sums exactly representable in float64
vector_strategy = st.builds(
    lambda pairs: SparseVector.from_pairs(pairs),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**20 - 1),
            st.integers(min_value=-800, max_value=800).map(lambda n: n / 8),
        ),
        max_size=12,
    ),
)


@given(vector_strategy, vector_strategy)
def test_dot_commutes(a, b):
    assert dot(a, b) == dot(b, a)


@given(vector_strategy, vector_strategy)
def test_l2_symmetric_and_nonnegative(a, b):
    d = l2_distance(a, b)
    assert d >= 0.0
    assert d == l2_distance(b, a)
    assert (d == 0.0) == (a == b)


token_name = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters=" |:", exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp")
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200)
@given(st.lists(st.tuples(token_name, st.floats(-10, 10, allow_nan=False)), max_size=8))
def test_hash_features_is_pure(tokens):
    assert hash_features(tokens, 16) == hash_features(tokens, 16)


@given(vector_strategy)
def test_fingerprint_is_pure(v):
    assert fingerprint(v) == fingerprint(v)
    copy = SparseVector(v.indices, v.values) if len(v) else SparseVector()
    assert fingerprint(copy) == fingerprint(v)


def _digest_ref(v: SparseVector) -> int:
    """The uncached digest: blake2b-64 of packed indices then packed values."""
    n = len(v)
    packed = struct.pack(f"<{n}q{n}d", *v.indices, *v.values)
    return int.from_bytes(blake2b(packed, digest_size=8).digest(), "little")


@settings(max_examples=50, deadline=None)
@given(vector_strategy, vector_strategy, st.integers(0, 2**16))
def test_fingerprint_equals_uncached_digest_on_every_call(a, b, seed):
    # one vector from each way one is built, digested here for the first time
    built = {
        "init": SparseVector(a.indices, a.values),
        "from_pairs": SparseVector.from_pairs(zip(b.indices, b.values)),
        "pair_features": pair_features(a, b),
        "random_keys": random_keys(1, dim=4, bits=3, seed=seed)[0],
        "generate": synth_generate(f"synth:multiclass?classes=2&shots=1&dim=3&seed={seed}",
                                   bits=4)[0][0].x,
    }
    for name, v in built.items():
        want = _digest_ref(v)
        assert fingerprint(v) == want, name
        assert fingerprint(v) == want, name
    t = Tree(scorer=ScorerModel(mode="euclidean"), d=0, replace_duplicates=True)
    for i, v in enumerate(built.values()):
        t.insert(Memory(v, i))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.snap")
        snapshot_save(t, path)
        reloaded = [z.x for z in snapshot_load(path).memories()]
    assert reloaded
    for v in reloaded:
        assert fingerprint(v) == _digest_ref(v)
        assert fingerprint(v) == _digest_ref(v)


# -- line parsing --------------------------------------------------------------

def test_parse_multiclass_line():
    line = parse_line("3 | f1:2 f2", "multiclass")
    assert line.label == 3
    h = hash_features([("f1", 2.0), ("f2", 1.0)], 20)
    assert line.right_block == h


def test_parse_multilabel_line():
    line = parse_line("1,4 | a:1", "multilabel")
    assert line.labels == frozenset({1, 4})


def test_parse_retrieval_line():
    line = parse_line("q1:1 | v1:1", "retrieval")
    assert line.left_block(20) == hash_features([("q1", 1.0)], 20)
    assert line.right_block == hash_features([("v1", 1.0)], 20)


@pytest.mark.parametrize(
    "text",
    [
        "3 f1:2",             # no separator
        "3 | f1 | f2",        # two separators
        "3| f1",              # missing space before
        "3 |f1",              # missing space after
        "x | f1",             # non-decimal label
        "1, 2 | f1",          # space inside label list
        "3 | ",               # empty feature block
        "3 | f1:abc",         # unparseable value
        "3 | :2",             # empty feature name
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_line(text, "multiclass", lineno=7)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError, match="line 41"):
        parse_line("bogus", "multiclass", lineno=41)


def test_default_feature_value_is_one():
    line = parse_line("0 | f1", "multiclass")
    assert line.right_block == hash_features([("f1", 1.0)], 20)


label_list = st.lists(st.integers(0, 9999), min_size=1, max_size=4, unique=True)
feature_tokens = st.lists(
    st.tuples(st.sampled_from("abcdefgh"), st.floats(-5, 5, allow_nan=False).filter(lambda v: v != 0)),
    min_size=1,
    max_size=5,
    unique_by=lambda t: t[0],
)


@settings(max_examples=200)
@given(label_list, feature_tokens)
def test_parse_render_round_trip(labels, tokens):
    left = tuple(str(v) for v in labels)
    right = tuple(f"{name}:{value!r}" for name, value in tokens)
    line = LabeledLine("multilabel", left, right, hash_features(tokens, 20))
    assert parse_line(render_line(line), "multilabel") == line
