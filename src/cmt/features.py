"""Sparse feature vectors, feature hashing, and dataset-line parsing.

Everything here is a pure function: the rest of the package builds on these
primitives and relies on them being deterministic across runs and platforms.
A vector holds its values once, as eight-byte floats in a `Values` array.
A dataset line parses straight into the example type of its mode, defined
here beside the parser: the tasks consume these examples, and the synthetic
generators produce them.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from dataclasses import dataclass
from hashlib import blake2b

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

DEFAULT_BITS = 20

MODE_MULTICLASS = "multiclass"
MODE_MULTILABEL = "multilabel"
MODE_RETRIEVAL = "retrieval"
MODES = (MODE_MULTICLASS, MODE_MULTILABEL, MODE_RETRIEVAL)


class ParseError(ValueError):
    """Malformed dataset line. Carries a 1-based line number when known."""

    def __init__(self, message: str, lineno: int = 0):
        self.lineno = lineno
        if lineno:
            message = f"line {lineno}: {message}"
        super().__init__(message)


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a digest of a byte string."""
    h = FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & _MASK64
    return h


_BIG_ENDIAN = sys.byteorder == "big"
_new_array = array.__new__


class Values(array):
    """A vector's values, each held once as an eight-byte float.

    An `array('d')` that hashes as the tuple of its floats, so a vector and
    its `(indices, values)` pair hash and compare as they would with a
    tuple. A leaf's scoring block is read straight from these buffers. Like
    the vector that holds it, a Values is never changed once built.
    """

    __slots__ = ()

    def __new__(cls, values=()):
        return _new_array(cls, "d", values)

    def __hash__(self) -> int:
        return hash(tuple(self))


def values_from_bytes(data: bytes) -> Values:
    """The Values packed little-endian in `data`, as `to_bytes` packs them.

    No value passes through a Python float, and the result holds exactly
    its values: reading bytes leaves room to grow, the copy does not.
    """
    values = _new_array(Values, "d", data)
    if _BIG_ENDIAN:
        values.byteswap()
    return _new_array(Values, "d", values)


class SparseVector:
    """Immutable sparse vector: an `indices` tuple and a parallel `Values`.

    Indices are strictly increasing, values are finite and nonzero. Use
    :meth:`from_pairs` for arbitrary input; the constructor trusts its
    arguments apart from cheap validation, and :meth:`trusted` skips even
    that. Every constructor stores the values as a `Values`.

    A vector caches its `fingerprint` and its `norm` the first time each is
    asked for; its values are held once, eight bytes each, in `values`. The
    caches are only sound because a vector never changes after it is built:
    code that rebinds or mutates `indices` or `values` of a built vector
    breaks them.
    """

    __slots__ = ("indices", "values", "_fingerprint", "_norm")

    def __init__(self, indices: tuple[int, ...] = (), values=()):
        values = values if type(values) is Values else Values(values)
        if len(indices) != len(values):
            raise ValueError("indices and values must have equal length")
        prev = -1
        for i in indices:
            if i <= prev:
                raise ValueError("indices must be strictly increasing")
            prev = i
        for v in values:
            if v == 0.0 or not math.isfinite(v):
                raise ValueError("values must be finite and nonzero")
        self.indices = tuple(indices)
        self.values = values
        self._fingerprint = None
        self._norm = None

    @classmethod
    def trusted(cls, indices: tuple[int, ...], values) -> "SparseVector":
        """Wrap an index tuple and values already in canonical form, without
        checking them; values that are not yet a `Values` become one."""
        vec = cls.__new__(cls)
        vec.indices = indices
        vec.values = values if type(values) is Values else Values(values)
        vec._fingerprint = None
        vec._norm = None
        return vec

    @classmethod
    def from_pairs(cls, pairs) -> "SparseVector":
        """Build from (index, value) pairs, summing duplicates, dropping zeros."""
        acc: dict[int, float] = {}
        for i, v in pairs:
            acc[i] = acc.get(i, 0.0) + float(v)
        keys = sorted(i for i, v in acc.items() if v != 0.0)
        vec = cls.trusted(tuple(keys), Values([acc[i] for i in keys]))
        if not all(map(math.isfinite, vec.values)):
            raise ValueError("values must be finite")
        return vec

    def __len__(self) -> int:
        return len(self.indices)

    def __bool__(self) -> bool:
        return bool(self.indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self.indices == other.indices and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.indices, self.values))

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {v}" for i, v in zip(self.indices, self.values))
        return f"SparseVector({{{inner}}})"

    def items(self):
        return zip(self.indices, self.values)

    def norm(self) -> float:
        """Euclidean length, computed on the first call and cached."""
        # a plain left-to-right sum: Python 3.12's sum() compensates; the
        # learned scorer takes both ||x|| and ||key|| from here
        n = self._norm
        if n is None:
            total = 0.0
            for v in self.values:
                total += v * v
            n = self._norm = math.sqrt(total)
        return n

    def to_bytes(self) -> bytes:
        """Canonical byte serialization: packed indices then packed values,
        both little-endian."""
        values = self.values
        if _BIG_ENDIAN:
            values = Values(values)
            values.byteswap()
        return struct.pack(f"<{len(self.indices)}q", *self.indices) + values.tobytes()


def fingerprint(v: SparseVector) -> int:
    """64-bit content digest of a vector's canonical serialization.

    The first call on a vector computes the digest and caches it on the
    vector; later calls return the cached value.
    """
    fp = v._fingerprint
    if fp is None:
        fp = v._fingerprint = int.from_bytes(blake2b(v.to_bytes(), digest_size=8).digest(), "little")
    return fp


def dot(a: SparseVector, b: SparseVector) -> float:
    """Inner product over the shared indices of two sparse vectors."""
    ai, av = a.indices, a.values.tolist()
    bi, bv = b.indices, b.values.tolist()
    i = j = 0
    na, nb = len(ai), len(bi)
    total = 0.0
    while i < na and j < nb:
        x, y = ai[i], bi[j]
        if x == y:
            total += av[i] * bv[j]
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return total


def l2_distance(a: SparseVector, b: SparseVector) -> float:
    """Euclidean norm of a - b.

    One merge pass over both supports adds each square in index order, left
    to right, as `learners._pair_map` and the scorer's block pass sum the
    distance. The values are indexed as lists: one `tolist` is cheaper than
    a float made at every index of an array.
    """
    ai, av = a.indices, a.values.tolist()
    bi, bv = b.indices, b.values.tolist()
    total = 0.0
    i = j = 0
    na, nb = len(ai), len(bi)
    while i < na and j < nb:
        x, y = ai[i], bi[j]
        if x == y:
            d = av[i] - bv[j]
            total += d * d
            i += 1
            j += 1
        elif x < y:
            total += av[i] * av[i]
            i += 1
        else:
            total += bv[j] * bv[j]
            j += 1
    while i < na:
        total += av[i] * av[i]
        i += 1
    while j < nb:
        total += bv[j] * bv[j]
        j += 1
    return math.sqrt(total)


def cosine(a: SparseVector, b: SparseVector) -> float:
    """Cosine similarity. Raises ValueError on a zero-norm input."""
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for zero-norm vector")
    c = dot(a, b) / (na * nb)
    # guard float drift out of [-1, 1]
    return max(-1.0, min(1.0, c))


def check_bits(bits: int) -> None:
    """Raise ValueError unless `bits` is a supported hash width."""
    if not 1 <= bits <= 31:
        raise ValueError("bits must be in [1, 31]")


def feature_indices(names, bits: int = DEFAULT_BITS) -> list[int]:
    """The hashed index of each feature name, in order.

    A name is digested with 64-bit FNV-1a and masked to the low `bits` bits,
    so its index depends on the name alone.
    """
    check_bits(bits)
    mask = (1 << bits) - 1
    return [fnv1a64(name.encode("utf-8")) & mask for name in names]


def hash_features(tokens, bits: int = DEFAULT_BITS) -> SparseVector:
    """Hash (name, value) tokens into a 2**bits feature space.

    Each name goes to its `feature_indices` index; colliding names have
    their values summed, and a sum that overflows raises ValueError.
    """
    pairs = list(tokens)
    indices = feature_indices([name for name, _ in pairs], bits)
    return SparseVector.from_pairs(zip(indices, [value for _, value in pairs]))


@dataclass(frozen=True)
class MulticlassExample:
    x: SparseVector
    label: int


@dataclass(frozen=True)
class MultilabelExample:
    x: SparseVector
    labels: frozenset[int]


@dataclass(frozen=True)
class RetrievalPair:
    x: SparseVector
    value: SparseVector


def _split_token(token: str, lineno: int) -> tuple[str, float]:
    name, sep, raw = token.partition(":")
    if not name:
        raise ParseError(f"feature token {token!r} has an empty name", lineno)
    if not sep:
        return name, 1.0
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"feature token {token!r} has a bad value", lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"feature token {token!r} is not finite", lineno)
    return name, value


def _hash_pairs(pairs: list[tuple[str, float]], bits: int, lineno: int) -> SparseVector:
    check_bits(bits)  # a bad width is the caller's error, not the line's
    try:
        return hash_features(pairs, bits)
    except ValueError as exc:
        raise ParseError(f"colliding feature values overflow: {exc}", lineno) from None


def _parse_features(block: str, lineno: int) -> list[tuple[str, float]]:
    """The validated (name, value) pairs of a feature block."""
    tokens = block.split(" ")
    if not block or any(not t for t in tokens):
        raise ParseError("empty feature token (check spacing)", lineno)
    return [_split_token(t, lineno) for t in tokens]


def parse_line(
    text: str, mode: str, bits: int = DEFAULT_BITS, lineno: int = 0
) -> MulticlassExample | MultilabelExample | RetrievalPair:
    """Parse one dataset line into its mode's example: a `MulticlassExample`,
    `MultilabelExample` or `RetrievalPair`. The grammar is
    `LEFT ' ' '|' ' ' FEATURES`; the features are the example's `x`, but a
    retrieval line's left block is its query `x` and FEATURES its value."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if text.count("|") != 1:
        raise ParseError("expected exactly one '|' separator", lineno)
    left, _, right = text.partition("|")
    if not left.endswith(" ") or not right.startswith(" "):
        raise ParseError("separator must be surrounded by single spaces", lineno)
    left, right = left[:-1], right[1:]

    right_pairs = _parse_features(right, lineno)

    if mode == MODE_MULTICLASS:
        if not _is_label(left):
            raise ParseError(f"bad multiclass label {left!r}", lineno)
        return MulticlassExample(_hash_pairs(right_pairs, bits, lineno), int(left))
    if mode == MODE_MULTILABEL:
        labels = left.split(",")
        if not all(_is_label(t) for t in labels):
            raise ParseError(f"bad multilabel block {left!r}", lineno)
        return MultilabelExample(_hash_pairs(right_pairs, bits, lineno),
                                 frozenset(int(t) for t in labels))
    query = _hash_pairs(_parse_features(left, lineno), bits, lineno)
    value = _hash_pairs(right_pairs, bits, lineno)
    if not value:
        raise ParseError("retrieval value vector must be nonzero", lineno)
    return RetrievalPair(query, value)


def _is_label(s: str) -> bool:
    """At most 19 ASCII digits naming an integer below 2**63, a snapshot's i64."""
    return s.isascii() and s.isdigit() and len(s) <= 19 and int(s) < 2**63
