"""Length-prefixed binary persistence for trees.

Layout: an 8-byte magic, a u32 format version, a length-prefixed UTF-8
JSON header (tree parameters, generator state, optional run config), the
shared scorer record, then the node tree in preorder, then the label
scorers and an end marker. Linear models are stored as their two counters
and sorted (index, weight, grad_sq) triples so a snapshot is a canonical
byte encoding of its tree. Loading a truncated, foreign or other-version
file raises SnapshotError before any tree is returned.
"""

from __future__ import annotations

import io
import json
import struct
from typing import Any, BinaryIO, Optional

from .features import MODES, SparseVector, check_bits
from .learners import LinearModel, RouterModel, ScorerModel
from .tree import Internal, Leaf, Memory, Node, Tree

MAGIC = b"CMTSNAP\x00"
VERSION = 2

_NODE_LEAF = 0
_NODE_INTERNAL = 1

_VALUE_INT = 0
_VALUE_LABEL_SET = 1
_VALUE_VECTOR = 2

_END = b"ENDS"


class SnapshotError(RuntimeError):
    """Unreadable, truncated, or incompatible snapshot file."""


def _read(fh: BinaryIO, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise SnapshotError("truncated snapshot")
    return data


def _write_u8(fh, v): fh.write(struct.pack("<B", v))
def _write_u32(fh, v): fh.write(struct.pack("<I", v))
def _write_u64(fh, v): fh.write(struct.pack("<Q", v))
def _write_i64(fh, v): fh.write(struct.pack("<q", v))
def _write_f64(fh, v): fh.write(struct.pack("<d", v))


def _read_u8(fh) -> int: return struct.unpack("<B", _read(fh, 1))[0]
def _read_u32(fh) -> int: return struct.unpack("<I", _read(fh, 4))[0]
def _read_u64(fh) -> int: return struct.unpack("<Q", _read(fh, 8))[0]
def _read_i64(fh) -> int: return struct.unpack("<q", _read(fh, 8))[0]
def _read_f64(fh) -> float: return struct.unpack("<d", _read(fh, 8))[0]


def _write_model(fh, model: LinearModel) -> None:
    _write_u64(fh, model.update_count)
    _write_u64(fh, model.mistake_count)
    items = sorted(model.weights.items())
    _write_u32(fh, len(items))
    for idx, w in items:
        _write_i64(fh, idx)
        _write_f64(fh, w)
        _write_f64(fh, model.grad_sq.get(idx, 0.0))


def _read_model(fh, model: LinearModel) -> LinearModel:
    model.update_count = _read_u64(fh)
    model.mistake_count = _read_u64(fh)
    for _ in range(_read_u32(fh)):
        idx = _read_i64(fh)
        model.weights[idx] = _read_f64(fh)
        model.grad_sq[idx] = _read_f64(fh)
    return model


def _write_vector(fh, v: SparseVector) -> None:
    _write_u32(fh, len(v))
    fh.write(v.to_bytes())


def _read_vector(fh) -> SparseVector:
    n = _read_u32(fh)
    packed = struct.unpack(f"<{n}q{n}d", _read(fh, 16 * n))  # inverse of to_bytes()
    try:
        return SparseVector(packed[:n], packed[n:])
    except ValueError as exc:
        raise SnapshotError(f"corrupt vector record: {exc}") from exc


def _write_memory(fh, z: Memory) -> None:
    _write_vector(fh, z.x)
    value = z.value
    if isinstance(value, bool):
        raise SnapshotError("boolean memory values are not supported")
    if isinstance(value, int):
        _write_u8(fh, _VALUE_INT)
        _write_i64(fh, value)
    elif isinstance(value, (set, frozenset)):
        _write_u8(fh, _VALUE_LABEL_SET)
        labels = sorted(value)
        _write_u32(fh, len(labels))
        for label in labels:
            _write_i64(fh, label)
    elif isinstance(value, SparseVector):
        _write_u8(fh, _VALUE_VECTOR)
        _write_vector(fh, value)
    else:
        raise SnapshotError(f"unsupported memory value type {type(value).__name__}")


def _read_memory(fh) -> Memory:
    x = _read_vector(fh)
    tag = _read_u8(fh)
    if tag == _VALUE_INT:
        value: Any = _read_i64(fh)
    elif tag == _VALUE_LABEL_SET:
        value = frozenset(_read_i64(fh) for _ in range(_read_u32(fh)))
    elif tag == _VALUE_VECTOR:
        value = _read_vector(fh)
    else:
        raise SnapshotError(f"unknown memory value tag {tag}")
    return Memory(x, value)


def _write_node(fh, node: Node) -> None:
    if node.is_leaf:
        _write_u8(fh, _NODE_LEAF)
        _write_u32(fh, len(node.mem))
        for z in node.mem:
            _write_memory(fh, z)
    else:
        _write_u8(fh, _NODE_INTERNAL)
        _write_u64(fh, node.n)
        _write_model(fh, node.g)
        _write_node(fh, node.left)
        _write_node(fh, node.right)


def _read_node(fh, tree: Tree, parent: Optional[Internal]) -> Node:
    tag = _read_u8(fh)
    if tag == _NODE_LEAF:
        leaf = Leaf(parent)
        for _ in range(_read_u32(fh)):
            z = _read_memory(fh)
            leaf.mem.append(z)
            tree._register(z, leaf)
        tree._resize(leaf, 0)
        return leaf
    if tag != _NODE_INTERNAL:
        raise SnapshotError(f"unknown node tag {tag}")
    node = Internal(parent, RouterModel())
    node.n = _read_u64(fh)
    _read_model(fh, node.g)
    node.left = _read_node(fh, tree, node)
    node.right = _read_node(fh, tree, node)
    return node


def snapshot_save(
    tree: Tree,
    path: str,
    config: Optional[dict] = None,
    label_scorers: Optional[dict[int, LinearModel]] = None,
) -> None:
    """Persist a healthy tree (check_invariants must be clean).

    `label_scorers` carries the one-against-some inference models of a
    multilabel run so a later test command can reuse them.
    """
    problems = tree.check_invariants()
    if problems:
        raise SnapshotError(f"refusing to save an unhealthy tree: {problems[0]}")
    header = {
        "alpha": tree.alpha,
        "c": tree.c,
        "d": tree.d,
        "seed": tree.seed,
        "replace_duplicates": tree.replace_duplicates,
        "scorer_mode": tree.f.mode,
        "rng_state": _encode_rng_state(tree.rng.getstate()),
        "config": config or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    try:
        fh = open(path, "wb")
    except OSError as exc:
        raise SnapshotError(f"cannot write snapshot {path!r}: {exc}") from exc
    with fh:
        fh.write(MAGIC)
        _write_u32(fh, VERSION)
        _write_u32(fh, len(blob))
        fh.write(blob)
        _write_model(fh, tree.f)
        _write_node(fh, tree.root)
        scorers = sorted((label_scorers or {}).items())
        _write_u32(fh, len(scorers))
        for label, model in scorers:
            _write_i64(fh, label)
            _write_model(fh, model)
        fh.write(_END)


def snapshot_load(path: str) -> Tree:
    tree, _, _ = snapshot_load_full(path)
    return tree


def snapshot_load_full(path: str) -> tuple[Tree, dict, dict[int, RouterModel]]:
    """Rebuild a tree; also return the stored run config and label scorers."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    # an in-memory reader: a corrupt length reads short instead of allocating it
    with io.BytesIO(data) as fh:
        if _read(fh, len(MAGIC)) != MAGIC:
            raise SnapshotError("bad magic: not a snapshot file")
        version = _read_u32(fh)
        if version != VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {version} (this build reads version {VERSION})"
            )
        blob = _read(fh, _read_u32(fh))
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
                replace_duplicates=header["replace_duplicates"],
            )
            tree.rng.setstate(_decode_rng_state(header["rng_state"]))
            config = header.get("config", {})
            _check_config(config)
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise SnapshotError(f"bad header: {exc!r}") from exc

        _read_model(fh, tree.f)
        try:
            tree.root = _read_node(fh, tree, None)
        except RecursionError:
            raise SnapshotError("node records nest too deeply") from None
        label_scorers: dict[int, RouterModel] = {}
        for _ in range(_read_u32(fh)):
            label = _read_i64(fh)
            label_scorers[label] = _read_model(fh, RouterModel())
        if _read(fh, len(_END)) != _END or fh.read(1) != b"":
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
