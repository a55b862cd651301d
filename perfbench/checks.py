"""Correctness checks that the benchmark applies to the program's outputs.

Every check is computed apart from the code it checks: routing is redone
from the routers' public weights, distances and nearest neighbours come from
numpy, and the structural audit walks the public node fields with the
benchmark's own record of what should be stored. No check calls
`Tree.check_invariants`. Each function returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np


def vkey(x) -> tuple:
    """Hashable identity of a sparse vector, independent of `fingerprint`."""
    return (x.indices, x.values)


def capacity(n: int, c: float) -> int:
    """The method's leaf bound max(ceil(c), ceil(c ln n)), with n floored at 2."""
    return max(math.ceil(c), math.ceil(c * math.log(max(n, 2))))


def capacity_step(n: int, c: float) -> int:
    """Smallest store size above n at which the leaf bound grows."""
    cap = capacity(n, c)
    m = n + 1
    while capacity(m, c) <= cap:
        m += 1
    return m


def balance_k(p: float, alpha: float, t: float) -> float:
    """Closed-form partition skew K for progressive error p; inf where vacuous."""
    numer = 1.0 + math.exp((1.0 - alpha) / alpha)
    denom = (1.0 - p) - numer / t
    return numer / denom if denom > 0.0 else math.inf


def descend(root, x):
    """Leaf an epsilon=0 read of x must reach: right iff w . x > 0 at each router.

    The sum runs over x's entries in index order, as the method defines the
    score, so a score at exactly zero goes left here as it must in the tree.
    """
    node = root
    idx, val = x.indices, x.values
    while not node.is_leaf:
        w = node.g.weights
        s = 0.0
        for i, v in zip(idx, val):
            wi = w.get(i)
            if wi is not None:
                s += wi * v
        node = node.right if s > 0.0 else node.left
    return node


def dense(vectors, extra=()) -> tuple[np.ndarray, list]:
    """Stack sparse vectors into a dense matrix over the union of their indices.

    Returns the matrix for `vectors` and the column order, so `extra` vectors
    (queries) can be laid out the same way with `dense_row`.
    """
    cols = sorted({i for v in (*vectors, *extra) for i in v.indices})
    pos = {i: j for j, i in enumerate(cols)}
    mat = np.zeros((len(vectors), len(cols)))
    for r, v in enumerate(vectors):
        for i, value in zip(v.indices, v.values):
            mat[r, pos[i]] = value
    return mat, cols


def dense_row(x, cols) -> np.ndarray:
    pos = {i: j for j, i in enumerate(cols)}
    row = np.zeros(len(cols))
    for i, value in zip(x.indices, x.values):
        row[pos[i]] = value
    return row


def read_nearest(root, x, returned) -> list[str]:
    """An epsilon=0 k=1 read under the euclidean scorer.

    The answer must lie in the leaf the routers send x to and be the memory
    of that leaf nearest to x.
    """
    if not returned:
        return ["read returned nothing from a non-empty store"]
    z = returned[0]
    leaf = descend(root, x)
    if not any(m is z for m in leaf.mem):
        return ["read answered from outside the leaf its routers select"]
    mat, cols = dense([m.x for m in leaf.mem], (x,))
    dist = np.sqrt(((mat - dense_row(x, cols)) ** 2).sum(axis=1))
    got = float(np.linalg.norm(dense_row(z.x, cols) - dense_row(x, cols)))
    best = float(dist.min())
    if got > best + 1e-9 * (1.0 + best):
        return [f"read returned a memory at distance {got!r}; nearest in its leaf is {best!r}"]
    return []


def read_in_leaf(root, x, returned, k: int) -> list[str]:
    """An epsilon=0 read: min(k, |leaf|) distinct memories, all from x's leaf."""
    leaf = descend(root, x)
    ids = {id(m) for m in leaf.mem}
    want = min(k, len(leaf.mem))
    if len(returned) != want:
        return [f"read returned {len(returned)} memories, expected {want}"]
    if len({id(m) for m in returned}) != len(returned):
        return ["read returned a memory twice"]
    if any(id(m) not in ids for m in returned):
        return ["read answered from outside the leaf its routers select"]
    return []


def removed(x, value, z) -> list[str]:
    """remove(x) hands back x's memory with its value."""
    if z is None or vkey(z.x) != vkey(x):
        return ["remove returned a memory under another key"]
    if z.value != value:
        return [f"remove returned value {z.value!r}, stored {value!r}"]
    return []


def audit(tree, expected: dict, absent=(), c: float = 4.0, alpha: float = 0.9) -> list[str]:
    """Walk the public node structure and compare it with the expected store.

    Covers parent links, subtree counts, the leaf bound, every stored key
    present with its value, the given removed keys absent, and depth within
    K ln n + ceil(log2 cap) whenever the closed-form K is finite.
    """
    problems: list[str] = []
    n = len(expected)
    cap = capacity(n, c)
    if len(tree) != n:
        problems.append(f"store reports {len(tree)} memories, {n} stored")
    root = tree.root
    if root.parent is not None:
        problems.append("root has a parent")
    order = []  # preorder (node, depth)
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        order.append((node, depth))
        if not node.is_leaf:
            for child in (node.left, node.right):
                if child is None:
                    problems.append("internal node with a missing child")
                    return problems
                if child.parent is not node:
                    problems.append("child's parent link does not point back")
                stack.append((child, depth + 1))
    found: dict = {}
    counts: dict[int, int] = {}
    max_depth = 0
    worst_p = 0.0
    for node, depth in reversed(order):
        if node.is_leaf:
            max_depth = max(max_depth, depth)
            if len(node.mem) > cap:
                problems.append(f"leaf holds {len(node.mem)} memories, bound {cap}")
            if not node.mem and node is not root:
                problems.append("empty leaf below the root")
            for m in node.mem:
                key = vkey(m.x)
                if key in found:
                    problems.append("a key is stored twice")
                found[key] = m.value
            counts[id(node)] = len(node.mem)
        else:
            total = counts[id(node.left)] + counts[id(node.right)]
            if node.n != total:
                problems.append(f"subtree count {node.n} != {total} memories below")
            counts[id(node)] = total
            g = node.g
            if g.update_count:
                worst_p = max(worst_p, g.mistake_count / g.update_count)
    for key, value in expected.items():
        if key not in found:
            problems.append("a stored key is missing from the tree")
        elif found[key] != value:
            problems.append(f"a stored key holds {found[key]!r}, inserted {value!r}")
    extra = len(found.keys() - expected.keys())
    if extra:
        problems.append(f"{extra} keys in the tree were never stored or were removed")
    for key in absent:
        if key in found:
            problems.append("a removed key is still in the tree")
    if n >= 2 and worst_p < 1.0:
        k = balance_k(worst_p, alpha, n)
        if math.isfinite(k):
            bound = k * math.log(n) + math.ceil(math.log2(cap))
            if max_depth > bound:
                problems.append(f"depth {max_depth} exceeds K ln n + ceil(log2 cap) = {bound:.2f}")
    return problems


def nn_accuracy(train_x, train_y, test_x, test_y) -> float:
    """Exact 1-nearest-neighbour accuracy over the training keys, in numpy."""
    mat, cols = dense(train_x, test_x)
    queries = np.stack([dense_row(x, cols) for x in test_x])
    labels = np.asarray(train_y)
    sq = (mat * mat).sum(axis=1)
    hits = 0
    for start in range(0, len(queries), 256):
        q = queries[start:start + 256]
        d2 = sq[None, :] - 2.0 * q @ mat.T
        nearest = labels[d2.argmin(axis=1)]
        hits += int((nearest == np.asarray(test_y[start:start + 256])).sum())
    return hits / len(test_x)


def beats_constant(accuracy: float, classes: int) -> list[str]:
    """Test accuracy at least 10x that of the constant predictor (balanced classes)."""
    if accuracy < 10.0 / classes:
        return [f"accuracy {accuracy:.4f} is below 10x the constant predictor's {1.0 / classes:.4f}"]
    return []


def near_exact_nn(accuracy: float, nn: float, margin: float = 0.05) -> list[str]:
    """Test accuracy no more than `margin` below exact nearest neighbour's (c07)."""
    if accuracy < nn - margin:
        return [f"accuracy {accuracy:.4f} is more than {margin} below exact NN's {nn:.4f}"]
    return []


def oas_answer(predicted, candidates, cap: int, max_labels: int) -> list[str]:
    """One-against-some output: a leaf-bounded candidate set holding the prediction."""
    problems = []
    if len(candidates) > cap * max_labels:
        problems.append(f"{len(candidates)} candidates exceed capacity {cap} x {max_labels} labels")
    if not set(predicted) <= set(candidates):
        problems.append("prediction holds a label outside the candidate set")
    return problems


def beats_empty(mean_loss: float, empty_loss: float) -> list[str]:
    if not mean_loss < empty_loss:
        return [f"mean Hamming loss {mean_loss:.4f} is not below the empty predictor's {empty_loss:.4f}"]
    return []


def same_bytes(saved: bytes, resaved: bytes) -> list[str]:
    """Saving a loaded snapshot must reproduce the file byte for byte."""
    if saved != resaved:
        at = next((i for i, (a, b) in enumerate(zip(saved, resaved)) if a != b),
                  min(len(saved), len(resaved)))
        return [f"re-saved snapshot differs from the saved one at byte {at}"]
    return []


def same_answers(before: list, after: list) -> list[str]:
    """The loaded tree answers each probe read with the memories the saved tree returned."""
    diff = sum(1 for a, b in zip(before, after) if a != b) + abs(len(before) - len(after))
    if diff:
        return [f"loaded tree answered {diff} of {len(before)} probe reads differently"]
    return []
