"""Sparse feature vectors, feature hashing, and dataset-line parsing.

Everything here is a pure function: the rest of the package builds on these
primitives and relies on them being deterministic across runs and platforms.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
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


class SparseVector:
    """Immutable sparse vector stored as parallel (indices, values) tuples.

    Indices are strictly increasing, values are finite and nonzero. Use
    :meth:`from_pairs` for arbitrary input; the constructor trusts its
    arguments apart from cheap validation, and :meth:`trusted` skips even
    that.

    A vector caches its `fingerprint` the first time one is asked for. The
    cache is only sound because a vector never changes after it is built:
    code that rebinds `indices` or `values` of a built vector breaks it.
    """

    __slots__ = ("indices", "values", "_fingerprint")

    def __init__(self, indices: tuple[int, ...] = (), values: tuple[float, ...] = ()):
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
        self.values = tuple(float(v) for v in values)
        self._fingerprint = None

    @classmethod
    def trusted(cls, indices: tuple[int, ...], values: tuple[float, ...]) -> "SparseVector":
        """Wrap tuples already in canonical form, without checking them."""
        vec = cls.__new__(cls)
        vec.indices = indices
        vec.values = values
        vec._fingerprint = None
        return vec

    @classmethod
    def from_pairs(cls, pairs) -> "SparseVector":
        """Build from (index, value) pairs, summing duplicates, dropping zeros."""
        acc: dict[int, float] = {}
        for i, v in pairs:
            acc[i] = acc.get(i, 0.0) + float(v)
        keys = sorted(i for i, v in acc.items() if v != 0.0)
        vec = cls.trusted(tuple(keys), tuple([acc[i] for i in keys]))
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
        # a plain left-to-right sum: Python 3.12's sum() compensates; the
        # learned scorer takes ||x|| from here, and learners._pair_map sums
        # ||key||^2 in the same order
        total = 0.0
        for v in self.values:
            total += v * v
        return math.sqrt(total)

    def to_bytes(self) -> bytes:
        """Canonical byte serialization: packed indices then packed values."""
        n = len(self.indices)
        return struct.pack(f"<{n}q", *self.indices) + struct.pack(f"<{n}d", *self.values)


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
    ai, av = a.indices, a.values
    bi, bv = b.indices, b.values
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
    """Euclidean norm of a - b."""
    ai, av = a.indices, a.values
    bi, bv = b.indices, b.values
    i = j = 0
    na, nb = len(ai), len(bi)
    total = 0.0
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
class LabeledLine:
    """One parsed dataset line.

    `left_tokens` keeps the raw token strings of the left block (labels for
    the classification modes, feature tokens for retrieval); `right_tokens`
    the raw feature tokens of the right block. `right_block` is the hashed
    form of the right block.
    """

    mode: str
    left_tokens: tuple[str, ...]
    right_tokens: tuple[str, ...]
    right_block: SparseVector = field(compare=False)

    @property
    def label(self) -> int:
        if self.mode != MODE_MULTICLASS:
            raise ValueError("label is only defined for multiclass lines")
        return int(self.left_tokens[0])

    @property
    def labels(self) -> frozenset[int]:
        if self.mode == MODE_RETRIEVAL:
            raise ValueError("labels are not defined for retrieval lines")
        return frozenset(int(t) for t in self.left_tokens)

    def left_block(self, bits: int = DEFAULT_BITS) -> SparseVector:
        if self.mode != MODE_RETRIEVAL:
            raise ValueError("left feature block is only defined for retrieval lines")
        return _hash_pairs([_split_token(t, 0) for t in self.left_tokens], bits, 0)


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


def _parse_features(block: str, lineno: int) -> tuple[tuple[str, ...], list[tuple[str, float]]]:
    """The raw tokens of a feature block and their validated (name, value) pairs."""
    tokens = tuple(block.split(" "))
    if not block or any(not t for t in tokens):
        raise ParseError("empty feature token (check spacing)", lineno)
    return tokens, [_split_token(t, lineno) for t in tokens]


def parse_line(text: str, mode: str, bits: int = DEFAULT_BITS, lineno: int = 0) -> LabeledLine:
    """Parse one dataset line. The grammar is `LEFT ' ' '|' ' ' FEATURES`."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if text.count("|") != 1:
        raise ParseError("expected exactly one '|' separator", lineno)
    left, _, right = text.partition("|")
    if not left.endswith(" ") or not right.startswith(" "):
        raise ParseError("separator must be surrounded by single spaces", lineno)
    left, right = left[:-1], right[1:]

    right_tokens, right_pairs = _parse_features(right, lineno)

    if mode == MODE_MULTICLASS:
        if not _is_decimal(left):
            raise ParseError(f"bad multiclass label {left!r}", lineno)
        left_tokens = (left,)
    elif mode == MODE_MULTILABEL:
        left_tokens = tuple(left.split(","))
        if not all(_is_decimal(t) for t in left_tokens):
            raise ParseError(f"bad multilabel block {left!r}", lineno)
    else:
        left_tokens, left_pairs = _parse_features(left, lineno)
        _hash_pairs(left_pairs, bits, lineno)  # its tokens may overflow too

    return LabeledLine(mode, left_tokens, right_tokens, _hash_pairs(right_pairs, bits, lineno))


def render_line(line: LabeledLine) -> str:
    """Inverse of parse_line over the raw tokens."""
    return f"{' '.join(line.left_tokens) if line.mode == MODE_RETRIEVAL else ','.join(line.left_tokens)} | {' '.join(line.right_tokens)}"


def _is_decimal(s: str) -> bool:
    return s.isdigit()
