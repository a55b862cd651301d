"""Length-prefixed binary persistence for trees.

Layout: an 8-byte magic, a u32 format version, a length-prefixed UTF-8
JSON header (tree parameters, generator state, and the mode and hash width
a test run reads back), the shared scorer record, one record per node in
`Tree.walk` order at any depth, then the label scorers and an end marker.
Linear models are stored as their two counters and sorted (index, weight,
grad_sq) triples so a snapshot is a canonical byte encoding of its tree. A
save writes a temporary file beside the target and moves it over the target
only once it is complete. Loading a truncated, foreign or other-version
file raises SnapshotError before any tree is returned, and so does a record
no save writes: a model with more mistakes than updates, a model's
indices or a label set not strictly increasing, label scorers not in
increasing label order, or a squared-gradient sum below 0.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from typing import Optional

from .features import MODES, SparseVector, check_bits, values_from_bytes
from .learners import LinearModel, RouterModel, ScorerModel
from .tree import Internal, Leaf, Memory, Node, Tree

MAGIC = b"CMTSNAP\x00"
VERSION = 3

_NODE_LEAF = 0
_NODE_INTERNAL = 1

_VALUE_INT = 0
_VALUE_LABEL_SET = 1
_VALUE_VECTOR = 2

_END = b"ENDS"

# a linear model's (index, weight, grad_sq) entry
_TRIPLE = struct.Struct("<qdd")


class SnapshotError(RuntimeError):
    """Unreadable, truncated, or incompatible snapshot file."""


class _Cursor:
    """A read position in the bytes of a loaded snapshot.

    `unpack` reads little-endian fields at the position with
    `struct.unpack_from` and moves past them; an `{n}s` field is n raw
    bytes. Data that runs short raises SnapshotError before anything is
    allocated for it, so a corrupt length cannot ask for gigabytes.
    `index_sets` maps each index tuple read so far to its first copy, so
    the vectors of one load share one tuple per distinct index set.
    """

    __slots__ = ("data", "pos", "index_sets")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.index_sets: dict[tuple[int, ...], tuple[int, ...]] = {}

    def unpack(self, fmt: str) -> tuple:
        try:
            values = struct.unpack_from(fmt, self.data, self.pos)
        except struct.error:
            raise SnapshotError("truncated snapshot") from None
        self.pos += struct.calcsize(fmt)
        return values


def _pack_model(model: LinearModel) -> bytes:
    entries = model.entries()
    head = struct.pack("<QQI", model.update_count, model.mistake_count, len(entries))
    return head + b"".join(_TRIPLE.pack(*e) for e in entries)


def _increasing(values) -> bool:
    """Whether each value is above the one before it."""
    return all(a < b for a, b in zip(values, values[1:]))


def _read_model(cur: _Cursor, model: LinearModel) -> LinearModel:
    """Read a model record; raise SnapshotError unless it is one `_pack_model`
    writes: no more mistakes than updates, indices strictly increasing and
    no squared-gradient sum below 0. A NaN sum is kept, since overflowing
    steps reach it."""
    model.update_count, model.mistake_count, n = cur.unpack("<QQI")
    if model.mistake_count > model.update_count:
        raise SnapshotError("corrupt model record: more mistakes than updates")
    (triples,) = cur.unpack(f"<{_TRIPLE.size * n}s")
    entries = list(_TRIPLE.iter_unpack(triples))
    if not _increasing([i for i, _, _ in entries]):
        raise SnapshotError("corrupt model record: indices not strictly increasing")
    if any(g2 < 0.0 for _, _, g2 in entries):
        raise SnapshotError("corrupt model record: a squared-gradient sum below 0")
    model.set_entries(entries)
    return model


def _pack_vector(v: SparseVector) -> bytes:
    return struct.pack("<I", len(v)) + v.to_bytes()


def _read_vector(cur: _Cursor) -> SparseVector:
    (n,) = cur.unpack("<I")
    indices = cur.unpack(f"<{n}q")  # inverse of to_bytes()
    indices = cur.index_sets.setdefault(indices, indices)
    (values,) = cur.unpack(f"<{8 * n}s")
    try:
        return SparseVector(indices, values_from_bytes(values))
    except ValueError as exc:
        raise SnapshotError(f"corrupt vector record: {exc}") from exc


def _pack_memory(z: Memory) -> bytes:
    value = z.value
    if isinstance(value, bool):
        raise SnapshotError("boolean memory values are not supported")
    if isinstance(value, int):
        tail = struct.pack("<Bq", _VALUE_INT, value)
    elif isinstance(value, (set, frozenset)):
        labels = sorted(value)
        tail = struct.pack(f"<BI{len(labels)}q", _VALUE_LABEL_SET, len(labels), *labels)
    elif isinstance(value, SparseVector):
        tail = struct.pack("<B", _VALUE_VECTOR) + _pack_vector(value)
    else:
        raise SnapshotError(f"unsupported memory value type {type(value).__name__}")
    return _pack_vector(z.x) + tail


def _read_memory(cur: _Cursor) -> Memory:
    x = _read_vector(cur)
    (tag,) = cur.unpack("<B")
    if tag == _VALUE_INT:
        (value,) = cur.unpack("<q")
    elif tag == _VALUE_LABEL_SET:
        (n,) = cur.unpack("<I")
        labels = cur.unpack(f"<{n}q")
        if not _increasing(labels):
            raise SnapshotError("corrupt label set: labels not strictly increasing")
        value = frozenset(labels)
    elif tag == _VALUE_VECTOR:
        value = _read_vector(cur)
    else:
        raise SnapshotError(f"unknown memory value tag {tag}")
    return Memory(x, value)


def _read_tree(cur: _Cursor) -> Node:
    """Rebuild the node records that `snapshot_save` wrote in `Tree.walk` order."""
    top = Internal(None, None)  # holds the root as its left child; `_adopt` unlinks it
    pending = [top]  # the parent of each record still to read
    while pending:
        parent = pending.pop()
        (tag,) = cur.unpack("<B")
        if tag == _NODE_LEAF:
            node = Leaf(parent)
            node.mem = [_read_memory(cur) for _ in range(cur.unpack("<I")[0])]
        elif tag == _NODE_INTERNAL:
            node = Internal(parent, RouterModel())
            (node.n,) = cur.unpack("<Q")
            _read_model(cur, node.g)
            pending += (node, node)
        else:
            raise SnapshotError(f"unknown node tag {tag}")
        if parent.left is None:
            parent.left = node
        else:
            parent.right = node
    return top.left


def snapshot_save(
    tree: Tree,
    path: str,
    config: Optional[dict] = None,
    label_scorers: Optional[dict] = None,
) -> None:
    """Persist a healthy tree (check_invariants must be clean).

    `config` holds the run settings a later test command reads back (its
    mode and hash width). `label_scorers` carries the one-against-some
    inference models of a multilabel run so that command can reuse them:
    label -> any model with `entries()`, `update_count` and
    `mistake_count`, as `OASModel.scorers` holds.
    A save that fails leaves any earlier file at `path` as it was.
    """
    problems = tree.check_invariants()
    if problems:
        raise SnapshotError(f"refusing to save an unhealthy tree: {problems[0]}")
    header = {
        "alpha": tree.alpha,
        "c": tree.c,
        "d": tree.d,
        "seed": tree.seed,
        "scorer_mode": tree.f.mode,
        "rng_state": _encode_rng_state(tree.rng.getstate()),
        "config": config or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        raise SnapshotError(f"cannot write snapshot {path!r}: {exc}") from exc
    try:
        with fh:
            fh.write(MAGIC + struct.pack("<II", VERSION, len(blob)) + blob)
            fh.write(_pack_model(tree.f))
            for node, _ in tree.walk():
                if node.is_leaf:
                    fh.write(struct.pack("<BI", _NODE_LEAF, len(node.mem)))
                    fh.writelines(map(_pack_memory, node.mem))
                else:
                    fh.write(struct.pack("<BQ", _NODE_INTERNAL, node.n) + _pack_model(node.g))
            scorers = sorted((label_scorers or {}).items())
            fh.write(struct.pack("<I", len(scorers)))
            for label, model in scorers:
                fh.write(struct.pack("<q", label) + _pack_model(model))
            fh.write(_END)
        os.replace(tmp, path)
    except (OSError, struct.error) as exc:  # struct.error: an int outside its field
        raise SnapshotError(f"cannot write snapshot {path!r}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)  # already gone once it has replaced path


def snapshot_load_full(path: str) -> tuple[Tree, dict, dict[int, RouterModel]]:
    """Rebuild a tree; also return the stored run config and label scorers."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    cur = _Cursor(data)
    if cur.unpack(f"<{len(MAGIC)}s")[0] != MAGIC:
        raise SnapshotError("bad magic: not a snapshot file")
    (version,) = cur.unpack("<I")
    if version != VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {version} (this build reads version {VERSION})"
        )
    (size,) = cur.unpack("<I")
    (blob,) = cur.unpack(f"<{size}s")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"corrupt header: {exc}") from exc
    try:
        tree = Tree(
            alpha=header["alpha"],
            c=header["c"],
            d=header["d"],
            scorer=ScorerModel(mode=header["scorer_mode"]),
            seed=header["seed"],
        )
        tree.rng.setstate(_decode_rng_state(header["rng_state"]))
        config = header.get("config", {})
        _check_config(config)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise SnapshotError(f"bad header: {exc!r}") from exc

    _read_model(cur, tree.f)
    tree._adopt(_read_tree(cur))
    label_scorers: dict[int, RouterModel] = {}
    (count,) = cur.unpack("<I")
    labels = []
    for _ in range(count):
        (label,) = cur.unpack("<q")
        labels.append(label)
        label_scorers[label] = _read_model(cur, RouterModel())
    if not _increasing(labels):
        raise SnapshotError("corrupt label scorers: labels not strictly increasing")
    if cur.unpack(f"<{len(_END)}s")[0] != _END or cur.pos != len(data):
        raise SnapshotError("trailing or missing data after the tree")
    problems = tree.check_invariants()
    if problems:
        raise SnapshotError(f"snapshot failed validation: {problems[0]}")
    return tree, config, label_scorers


def _check_config(config) -> None:
    """Raise TypeError or ValueError unless a stored run config can steer a test run."""
    if not isinstance(config, dict):
        raise TypeError("config must be a JSON object")
    if "mode" in config and config["mode"] not in MODES:
        raise ValueError(f"unknown mode {config['mode']!r}")
    if "hash_bits" in config:
        if type(config["hash_bits"]) is not int:
            raise TypeError("hash_bits must be an integer")
        check_bits(config["hash_bits"])


def _encode_rng_state(state) -> list:
    version, internal, gauss = state
    return [version, list(internal), gauss]


def _decode_rng_state(encoded) -> tuple:
    version, internal, gauss = encoded
    return (version, tuple(internal), gauss)
