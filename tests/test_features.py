import ast
import math
import os
import struct
import sys
import tempfile
from hashlib import blake2b
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmt
from cmt.features import (
    MultilabelExample,
    ParseError,
    SparseVector,
    Values,
    cosine,
    dot,
    fingerprint,
    fnv1a64,
    hash_features,
    l2_distance,
    parse_line,
    values_from_bytes,
)
from cmt.learners import ScorerModel, pair_features
from cmt.snapshot import snapshot_load_full, snapshot_save
from cmt.synth import _hash_rows, generate as synth_generate, random_keys
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
    assert tuple(v.values) == (3.0,)


def test_hash_features_additive_collision():
    # "a" and "c" land on the same bucket at bits=1 (both digests are even)
    assert fnv1a64(b"a") % 2 == fnv1a64(b"c") % 2 == 0
    v = hash_features([("a", 1.0), ("c", 1.0)], 1)
    assert v.indices == (0,)
    assert tuple(v.values) == (2.0,)


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
    assert tuple(v.values) == (2.0, 1.5)


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


def merged_l2(a, b):
    """l2_distance written out over the union of both supports, in index order."""
    da, db = dict(a.items()), dict(b.items())
    total = 0.0
    for i in sorted(da.keys() | db.keys()):
        d = da.get(i, 0.0) - db.get(i, 0.0)
        total += d * d
    return math.sqrt(total)


@given(vector_strategy, vector_strategy,
       st.lists(st.integers(1, 800).map(lambda n: n / 7), min_size=12, max_size=12))
def test_l2_symmetric_and_nonnegative(a, b, values):
    d = l2_distance(a, b)
    assert d >= 0.0
    assert d == l2_distance(b, a)
    assert (d == 0.0) == (a == b)
    # keys on a's index set (its own indices tuple, an equal copy) take the
    # zip pass, every other pair the merge; differences of tiny values
    # square to 0.0
    n = len(a)
    shared = SparseVector.trusted(a.indices, tuple(values[:n]))
    copied = SparseVector.trusted(tuple(list(a.indices)), tuple(values[::-1][:n]))
    tiny = SparseVector.trusted(a.indices, tuple(v * 1e-200 for v in values[:n]))
    tinier = SparseVector.trusted(tuple(list(a.indices)), tuple(v * 3e-200 for v in values[:n]))
    for x, k in ((a, b), (a, shared), (a, copied), (a, tiny), (tiny, tinier), (a, SparseVector())):
        assert l2_distance(x, k) == l2_distance(k, x) == merged_l2(x, k)


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
    t = Tree(scorer=ScorerModel(mode="euclidean"), d=0)
    for i, v in enumerate(built.values()):
        if not t.contains(v):
            t.insert(Memory(v, i))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.snap")
        snapshot_save(t, path)
        reloaded = [z.x for z in snapshot_load_full(path)[0].memories()]
    assert reloaded
    for v in reloaded:
        assert fingerprint(v) == _digest_ref(v)
        assert fingerprint(v) == _digest_ref(v)


@settings(max_examples=100, deadline=None)
@given(vector_strategy, vector_strategy)
def test_norm_equals_the_uncached_sum_on_every_call(a, b):
    built = [SparseVector(a.indices, a.values), SparseVector.from_pairs(zip(b.indices, b.values)),
             pair_features(a, b), SparseVector()]
    for v in built:
        total = 0.0
        for x in v.values:
            total += x * x
        assert v.norm() == math.sqrt(total)
        assert v.norm() == math.sqrt(total)


# -- the value store -------------------------------------------------------------

@given(vector_strategy)
def test_to_bytes_packs_indices_then_values_little_endian(v):
    n = len(v)
    assert v.to_bytes() == struct.pack(f"<{n}q{n}d", *v.indices, *v.values)
    assert values_from_bytes(v.to_bytes()[8 * n:]) == v.values


def built_every_way(a: SparseVector, b: SparseVector) -> dict[str, SparseVector]:
    """One vector from each constructor, the snapshot loader's copy of each
    stored one included."""
    import numpy as np

    rows = np.array([list(a.values) + [0.0], [1.5] * (len(a) + 1)])
    built = {
        "init": SparseVector(a.indices, list(a.values)),
        "init_tuple": SparseVector(a.indices, tuple(a.values)),
        "trusted": SparseVector.trusted(a.indices, tuple(a.values)),
        "from_pairs": SparseVector.from_pairs(zip(b.indices, b.values)),
        "hash_features": hash_features([("f", 2.0), ("g", -0.5)], 20),
        "pair_features": pair_features(a, b),
        "hash_rows_zero": _hash_rows("f", rows, 20)[0],
        "hash_rows": _hash_rows("f", rows, 20)[1],
        "random_keys": random_keys(1, dim=16, seed=3)[0],
        "empty": SparseVector(),
    }
    t = Tree(scorer=ScorerModel(mode="euclidean"), d=0)
    stored = []
    for v in built.values():
        if v and not t.contains(v):
            t.insert(Memory(v, 0))
            stored.append(v)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.snap")
        snapshot_save(t, path)
        loaded = {fingerprint(z.x): z.x for z in snapshot_load_full(path)[0].memories()}
    for i, v in enumerate(stored):
        built[f"loaded_{i}"] = loaded[fingerprint(v)]
    return built


@settings(max_examples=40, deadline=None)
@given(vector_strategy, vector_strategy)
def test_every_constructor_holds_values_that_hash_and_compare_as_a_tuple(a, b):
    for name, v in built_every_way(a, b).items():
        assert type(v.values) is Values, name
        plain = tuple(v.values)
        assert v == SparseVector.trusted(v.indices, plain), name
        assert hash(v) == hash((v.indices, plain)), name
        assert hash(v.values) == hash(plain), name
        # a vector's (indices, values) pair is a dict key an equal copy finds
        assert {(v.indices, v.values): name}[(v.indices, Values(plain))] == name


def test_sixteen_values_take_eight_bytes_each_and_no_spare_room():
    a = random_keys(1, dim=16, seed=5)[0]
    assert len(a) == 16
    # getsizeof adds the garbage collector's header (16 bytes on CPython
    # 3.11) to __sizeof__; the exact size is what an empty Values takes plus
    # eight bytes a value, with no room left over to grow
    empty = sys.getsizeof(Values())
    sixteen = {name: v for name, v in built_every_way(a, a).items() if len(v) == 16}
    assert {"init", "trusted", "from_pairs", "random_keys", "loaded_0"} <= set(sixteen)
    for name, v in sixteen.items():
        assert v.values.__sizeof__() <= 64 + 8 * 16, name
        assert sys.getsizeof(v.values) == empty + 8 * 16, name


# -- line parsing --------------------------------------------------------------

def test_parse_multiclass_line():
    ex = parse_line("3 | f1:2 f2", "multiclass")
    assert ex.label == 3
    h = hash_features([("f1", 2.0), ("f2", 1.0)], 20)
    assert ex.x == h


def test_parse_multilabel_line():
    ex = parse_line("1,4 | a:1", "multilabel")
    assert ex.labels == frozenset({1, 4})


def test_parse_retrieval_line():
    ex = parse_line("q1:1 | v1:1", "retrieval")
    assert ex.x == hash_features([("q1", 1.0)], 20)
    assert ex.value == hash_features([("v1", 1.0)], 20)
    # a value block that hashes to the zero vector is refused
    with pytest.raises(ParseError, match="line 3: retrieval value vector must be nonzero"):
        parse_line("q1:1 | v1:1 v1:-1", "retrieval", lineno=3)


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
    ex = parse_line("0 | f1", "multiclass")
    assert ex.x == hash_features([("f1", 1.0)], 20)


label_list = st.lists(st.integers(0, 9999), min_size=1, max_size=4, unique=True)
feature_tokens = st.lists(
    st.tuples(st.sampled_from("abcdefgh"), st.floats(-5, 5, allow_nan=False).filter(lambda v: v != 0)),
    min_size=1,
    max_size=5,
    unique_by=lambda t: t[0],
)


@settings(max_examples=200)
@given(label_list, feature_tokens)
def test_parse_multilabel_line_from_its_labels_and_tokens(labels, tokens):
    text = ",".join(map(str, labels)) + " | " + " ".join(f"{name}:{value!r}" for name, value in tokens)
    assert parse_line(text, "multilabel") == MultilabelExample(hash_features(tokens, 20), frozenset(labels))


def package_imports(module: str) -> set[str]:
    """The cmt modules that src/cmt/<module>.py imports, relatively or by name."""
    source = Path(cmt.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = f"cmt.{node.module or ''}".rstrip(".") if node.level else node.module
            names |= {f"{base}.{a.name}" for a in node.names} if base == "cmt" else {base}
    return {name.split(".")[1] for name in names if name.startswith("cmt.")}


@pytest.mark.parametrize("module", ["features", "synth"])
def test_data_layer_imports_no_upper_layer(module):
    # parsing and generating examples must not pull in the tree, its learners or the tasks
    assert not package_imports(module) & {"tasks", "tree", "learners", "snapshot", "runner"}


@pytest.mark.parametrize("module", ["tree", "learners"])
def test_memory_layer_imports_no_upper_layer(module):
    # the label layer fills a leaf's `labels` slot; the tree must not import it
    assert not package_imports(module) & {"tasks", "snapshot", "runner", "cli"}
