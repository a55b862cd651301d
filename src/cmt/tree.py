"""The memory tree: a self-organizing key-value store with learned routing.

Memories live in leaves. Every internal node carries a binary router that
sends queries left or right; a single shared scorer ranks the memories of
the leaf a query lands in. Inserts descend while training routers against a
mix of predicted direction and a balance term, leaves split once they exceed
a capacity that grows logarithmically with the store, and an amortized
reroute operation (remove a random memory, re-insert it) repairs the
placement of old memories after routers drift.

Mutating operations (insert / remove / reroute / update) must be externally
serialized. A read draws from the tree's generator only to explore, so
epsilon=0 queries are read-only: exact score ties are ordered by a keyed
hash of the query and the memory, not by random draws. A read records
nothing on its way down: exploration draws uniformly among the landing
leaf's routers, found from its parent links, and the leaf itself.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from hashlib import blake2b
from itertools import groupby
from operator import itemgetter
from random import Random
from typing import Any, Iterator, NamedTuple, Optional, Union

from .features import SparseVector, fingerprint
from .learners import RouterModel, ScorerModel

LEFT = "left"
RIGHT = "right"


class DuplicateKeyError(ValueError):
    """Inserting a key whose fingerprint is already stored."""


class UnknownKeyError(KeyError):
    """Removing or looking up a key that is not stored."""


class Memory:
    """A stored (key, value) pair. The value payload is task-defined."""

    __slots__ = ("x", "value", "key_fingerprint")

    def __init__(self, x: SparseVector, value: Any):
        self.x = x
        self.value = value
        self.key_fingerprint = fingerprint(x)

    def __repr__(self) -> str:
        return f"Memory(fp={self.key_fingerprint:#x}, value={self.value!r})"


class Leaf:
    """Memories in stored order. `block` is the scorer's cache of the value
    block its last block-scored read built; `ScorerModel.predict` checks it
    against the leaf's keys, so a change to `mem` never serves a stale one.
    `labels` is the label layer's cache of its last test read of the leaf
    (`cmt.tasks.OASModel`), checked against the memories that read returned
    in the same way. A remove clears both anyway, so neither keeps the
    removed memory alive."""

    __slots__ = ("parent", "mem", "block", "labels")

    def __init__(self, parent: Optional["Internal"] = None):
        self.parent = parent
        self.mem: list[Memory] = []
        self.block: Optional[tuple] = None
        self.labels: Optional[tuple] = None

    is_leaf = True


class Internal:
    __slots__ = ("parent", "left", "right", "g", "n")

    def __init__(self, parent: Optional["Internal"], g: RouterModel):
        self.parent = parent
        self.left: Node = None  # wired by the caller
        self.right: Node = None
        self.g = g
        self.n = 0

    is_leaf = False


Node = Union[Leaf, Internal]


def node_count(node: Node) -> int:
    """Memories stored at or below a node."""
    return len(node.mem) if node.is_leaf else node.n


@dataclass(frozen=True)
class Deviation:
    """Query explored by flipping the decision at `node` to `action`."""

    node: Internal
    action: str
    prob: float


@dataclass(frozen=True)
class LeafExplore:
    """Query explored by sampling random memories at `leaf`."""

    leaf: Leaf


UpdateKey = Union[None, Deviation, LeafExplore]


class QueryResult(NamedTuple):
    key: UpdateKey
    memories: tuple[Memory, ...]


def reward_difference_estimate(r: float, action: str, prob: float) -> float:
    """Importance-weighted estimate of (reward right) - (reward left).

    Given the reward observed after deviating to `action` with probability
    `prob`, this is unbiased over the uniform action choice.
    """
    scaled = r / prob
    return scaled if action == RIGHT else -scaled


def balance_bound(p: float, alpha: float, T: float = math.inf) -> float:
    """Worst-case partition skew K for a router with progressive error p.

    Each side of the split is guaranteed at least a 1/K fraction of the
    memories. Raises ValueError where the bound is vacuous, and where it is
    too large for a float (alpha below about 0.0014).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if not T > 0.0:
        raise ValueError("T must be positive")
    try:
        numer = 1.0 + math.exp((1.0 - alpha) / alpha)
    except OverflowError:
        numer = math.inf
    denom = (1.0 - p) - (0.0 if math.isinf(T) else numer / T)
    if denom <= 0.0:
        raise ValueError("bound vacuous: (1 - p) must exceed the finite-T correction")
    bound = numer / denom
    if math.isinf(bound):
        raise ValueError("bound overflows the float range")
    return bound


def path(x: SparseVector, v: Node) -> Leaf:
    """The leaf a descent from v reaches: right iff the router score is positive."""
    while not v.is_leaf:
        v = v.right if v.g.raw(x) > 0.0 else v.left
    return v


class Tree:
    """Shared state: root node, scorer, key map, and the balance knobs.

    alpha in (0, 1] weights balance against predicted reward when training
    routers, c > 0 scales the leaf capacity c * ln(stored) and must keep it
    finite at every store size, and d is the number of reroute passes run
    after every insert or update.

    Besides the key map, the tree keeps its non-empty leaves indexed by
    memory count. A remove that shrinks the capacity finds the leaves now
    over it in that index instead of walking every leaf.
    """

    def __init__(
        self,
        alpha: float = 0.9,
        c: float = 4.0,
        d: int = 5,
        scorer: Optional[ScorerModel] = None,
        seed: int = 0,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        # c * ln(n) must stay finite for every store size n, or capacity() overflows
        if not (c > 0.0 and math.isfinite(c * math.log(sys.maxsize))):
            raise ValueError("c must be positive and small enough for a finite leaf capacity")
        if type(d) is not int or type(seed) is not int:
            raise TypeError("d and seed must be integers")
        if d < 0:
            raise ValueError("d must be >= 0")
        self.alpha = alpha
        self.c = c
        self.d = d
        self.f = scorer if scorer is not None else ScorerModel()
        self.seed = seed
        self.rng = Random(seed)
        self._adopt(Leaf())

    def _adopt(self, root: Node) -> None:
        """Make `root` the root; rebuild the key map and size index from its leaves.

        A duplicate key maps to one of its leaves; `check_invariants` reports it.
        """
        root.parent = None
        self.root: Node = root
        leaves = list(self.leaves())
        self.M: dict[int, Leaf] = {z.key_fingerprint: leaf for leaf in leaves for z in leaf.mem}
        # memory count -> the non-empty leaves holding exactly that many
        self._leaves_by_size: defaultdict[int, set[Leaf]] = defaultdict(set)
        for leaf in leaves:
            self._resize(leaf, 0)

    # -- sizing ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.M)

    def contains(self, x: SparseVector) -> bool:
        return fingerprint(x) in self.M

    def capacity(self) -> int:
        """Maximum memories per leaf at the current store size."""
        n = max(len(self.M), 2)
        return max(math.ceil(self.c), math.ceil(self.c * math.log(n)))

    def walk(self) -> Iterator[tuple[Node, int]]:
        """Every node with its depth, in preorder with the left subtree first:
        the order of `memories()`, of reroute's draws and of snapshot nodes."""
        stack: list[tuple[Node, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            if not node.is_leaf:
                stack.append((node.right, depth + 1))
                stack.append((node.left, depth + 1))

    def leaves(self) -> Iterator[Leaf]:
        return (node for node, _ in self.walk() if node.is_leaf)

    def memories(self) -> Iterator[Memory]:
        for leaf in self.leaves():
            yield from leaf.mem

    def max_depth(self) -> int:
        return max(depth for _, depth in self.walk())

    def max_progressive_error(self) -> float:
        """Largest progressive training error over all internal routers."""
        return max(
            (node.g.progressive_error() for node, _ in self.walk()
             if not node.is_leaf and node.g.update_count),
            default=0.0,
        )

    # -- query -------------------------------------------------------------

    def query(self, x: SparseVector, k: Optional[int] = 1, epsilon: float = 0.0) -> QueryResult:
        """Return up to k memories and, when exploration fired, an update key.

        Only exploration, taken with probability epsilon, draws from `rng`:
        uniformly among the landing leaf's routers (root first, found from
        its parent links) and the leaf itself, then a fair side for a router
        flip or a random sample of the leaf. k=None returns the whole leaf:
        in stored order and unscored on an exploit read, and with its pick
        first on an exploration read (the best-scored memory after a router
        flip, a random one after a leaf sample). A k that is not an int of at
        least 1, or an epsilon outside [0, 1], raises TypeError or ValueError
        before anything is drawn.
        """
        if k is not None:
            if type(k) is not int:
                raise TypeError("k must be an integer or None")
            if k < 1:
                raise ValueError("k must be >= 1 or None")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if not self.M:
            return QueryResult(None, ())
        leaf = path(x, self.root)
        key, pick = None, self.top_k
        if epsilon > 0.0 and self.rng.random() < epsilon:
            routers = self._routers_above(leaf)
            i = int(self.rng.random() * (len(routers) + 1))  # uniform on 0..len(routers)
            if i < len(routers):
                node = routers[i]
                flipped = RIGHT if self.rng.random() < 0.5 else LEFT
                leaf = path(x, node.right if flipped == RIGHT else node.left)
                key = Deviation(node, flipped, 0.5)
            else:
                key, pick = LeafExplore(leaf), self.rand_k
        if k is not None:
            return QueryResult(key, tuple(pick(leaf, x, k)))
        if key is None:
            return QueryResult(None, tuple(leaf.mem))
        first = pick(leaf, x, 1)[0]
        return QueryResult(key, (first, *(z for z in leaf.mem if z is not first)))

    def top_k(self, leaf: Leaf, x: SparseVector, k: int) -> list[Memory]:
        """Best-scored min(k, |mem|) memories; exact ties go by `_tie_order`.

        One `predict` call scores the whole leaf, its keys in stored order:
        the leaf-scoring layer perfbench times. The leaf goes along, so a
        read of a leaf whose keys have not changed since its last read reuses
        the value block (and key norms) that read built.
        """
        mem = leaf.mem
        scores = self.f.predict(x, [z.x for z in mem], leaf)
        if k == 1:
            best, tied = -math.inf, []
            for z, s in zip(mem, scores):
                if s > best:
                    best, tied = s, [z]
                elif s == best:
                    tied.append(z)
            return tied if len(tied) < 2 else [min(tied, key=self._tie_order(x))]
        scored = sorted((-s, idx) for idx, s in enumerate(scores))
        ranked: list[Memory] = []
        order = None
        for _, run in groupby(scored, key=itemgetter(0)):
            run = [mem[idx] for _, idx in run]
            if len(run) > 1:
                order = order or self._tie_order(x)
                run.sort(key=order)
            ranked.extend(run)
            if len(ranked) >= k:
                break
        return ranked[:k]

    def _tie_order(self, x: SparseVector):
        """Sort key for memories tied in a read of x: blake2b over (seed, x's
        fingerprint, the memory's). Hashing the pair, not e.g. their XOR, keeps
        a stored key read back from winning every tie it enters."""
        prefix = b"%d %d " % (self.seed, fingerprint(x))
        return lambda z: blake2b(prefix + b"%d" % z.key_fingerprint, digest_size=8).digest()

    def rand_k(self, leaf: Leaf, x: SparseVector, k: int) -> list[Memory]:
        """Uniform subset of min(k, |mem|) memories, without replacement."""
        pool = list(leaf.mem)
        take = min(k, len(pool))
        rng = self.rng
        for i in range(take):
            j = i + int(rng.random() * (len(pool) - i))
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:take]

    # -- learning update ---------------------------------------------------

    def update(self, x: SparseVector, z: Memory, r: float, key: UpdateKey) -> None:
        """Credit the randomized decision identified by `key` with reward r.

        A key whose node has since left the tree (possible after reroutes)
        skips the learner update; the amortized reroutes still run.
        """
        if not 0.0 <= r <= 1.0:
            raise ValueError("reward must lie in [0, 1]")
        if isinstance(key, LeafExplore):
            if self._routers_above(key.leaf) is not None:
                self.f.update(x, z.x, r)
        elif isinstance(key, Deviation):
            v = key.node
            if self._routers_above(v) is not None:
                r_hat = reward_difference_estimate(r, key.action, key.prob)
                y = self._router_target(v, r_hat)
                if y != 0.0:
                    v.g.update(x, 1 if y > 0.0 else -1, abs(y))
        elif key is not None:
            raise TypeError(f"bad update key {key!r}")
        for _ in range(self.d):
            self.reroute()

    def _routers_above(self, node: Node) -> Optional[list[Internal]]:
        """The internal nodes from the root down to node's parent, read up its
        parent links; None once a split or a splice has detached node."""
        routers: list[Internal] = []
        while node.parent is not None:
            parent = node.parent
            if parent.left is not node and parent.right is not node:
                return None
            routers.append(parent)
            node = parent
        return routers[::-1] if node is self.root else None

    # -- insert ------------------------------------------------------------

    def insert(self, z: Memory) -> None:
        """Route z to a leaf (training routers on the way) and store it; a key
        already stored raises DuplicateKeyError."""
        if z.key_fingerprint in self.M:
            raise DuplicateKeyError(f"key {z.key_fingerprint:#x} already stored")
        self._insert_from(self.root, z)
        for _ in range(self.d):
            self.reroute()

    def _router_target(self, v: Internal, signal: float) -> float:
        """Router training target: signal blended with the balance term by alpha."""
        balance = math.log(node_count(v.left) + 1) - math.log(node_count(v.right) + 1)
        return (1.0 - self.alpha) * signal + self.alpha * balance

    def _route_step(self, v: Internal, x: SparseVector) -> Node:
        """Count x at v, train v's router toward its target, return x's next node."""
        v.n += 1
        score = v.g.raw(x)
        target = self._router_target(v, score)
        score = v.g.update(x, 1 if target > 0.0 else -1, 1.0, score)
        return v.right if score > 0.0 else v.left

    def _insert_from(self, v: Node, z: Memory) -> None:
        while not v.is_leaf:
            v = self._route_step(v, z.x)
        self.insert_leaf(v, z)

    def insert_leaf(self, leaf: Leaf, z: Memory) -> None:
        """Append z, whose key is not stored, to a leaf; split it if over capacity."""
        leaf.mem.append(z)
        self._resize(leaf, len(leaf.mem) - 1)
        self.M[z.key_fingerprint] = leaf
        if len(leaf.mem) > self.capacity():
            self._split(leaf, protected=z)

    def _resize(self, leaf: Leaf, old: int) -> None:
        """Move a leaf from size bucket `old` to its current size (0: no bucket)."""
        if old:
            self._leaves_by_size[old].remove(leaf)
        if leaf.mem:
            self._leaves_by_size[len(leaf.mem)].add(leaf)

    def _split(self, leaf: Leaf, protected: Optional[Memory]) -> None:
        """Promote a leaf to an internal node and redistribute its memories.

        The redistribution takes the same router step as insert descent
        but never splits the fresh children mid-loop; afterwards, if one
        child ends up empty, the lower-scored half of the other child moves
        over (the memory whose insert triggered the split stays put so its
        own routing stays consistent).
        """
        self._leaves_by_size[len(leaf.mem)].remove(leaf)
        parent = leaf.parent
        node = Internal(parent, RouterModel())
        left, right = Leaf(node), Leaf(node)
        node.left, node.right = left, right
        if parent is None:
            self.root = node
        elif parent.left is leaf:
            parent.left = node
        else:
            parent.right = node

        for m in leaf.mem:
            child = self._route_step(node, m.x)
            child.mem.append(m)
            self.M[m.key_fingerprint] = child

        if not left.mem or not right.mem:
            self._rebalance_empty_child(node, protected)
        cap = self.capacity()
        for child in (left, right):
            self._resize(child, 0)
            if len(child.mem) > cap:
                keep = protected if protected is not None and protected in child.mem else None
                self._split(child, keep)

    def _rebalance_empty_child(self, node: Internal, protected: Optional[Memory]) -> None:
        full, empty = (node.left, node.right) if node.left.mem else (node.right, node.left)
        g = node.g
        candidates = sorted(
            (m for m in full.mem if m is not protected),
            key=lambda m: (g.raw(m.x), m.key_fingerprint),
        )
        move = candidates[: max(1, len(candidates) // 2)]
        moved = {id(m) for m in move}
        full.mem = [m for m in full.mem if id(m) not in moved]
        empty.mem = move
        for m in move:
            self.M[m.key_fingerprint] = empty

    # -- remove ------------------------------------------------------------

    def remove(self, x: SparseVector) -> Memory:
        """Delete the memory stored under x's fingerprint.

        When the smaller store lowers the capacity, the leaves now over it
        are exactly those in the size buckets between the new capacity and
        the old, and only those split. Each split touches its own subtree
        and draws nothing from `rng`, so their order does not matter.
        """
        cap_before = self.capacity()
        z = self._remove_fp(fingerprint(x))
        cap = self.capacity()
        for size in range(cap + 1, cap_before + 1):
            for leaf in list(self._leaves_by_size.get(size, ())):
                self._split(leaf, protected=None)
        return z

    def _remove_fp(self, fp: int) -> Memory:
        leaf = self.M.get(fp)
        if leaf is None:
            raise UnknownKeyError(f"key {fp:#x} is not stored")
        del self.M[fp]
        for idx, m in enumerate(leaf.mem):
            if m.key_fingerprint == fp:
                z = leaf.mem.pop(idx)
                leaf.block = leaf.labels = None
                break
        else:
            raise AssertionError("key map points at a leaf that lacks the memory")
        self._resize(leaf, len(leaf.mem) + 1)
        node = leaf.parent
        while node is not None:
            node.n -= 1
            node = node.parent
        if not leaf.mem and leaf.parent is not None:
            self._splice(leaf)
        return z

    def _splice(self, leaf: Leaf) -> None:
        # counts above were already decremented and the empty leaf already
        # left the size index; the parent simply vanishes
        parent = leaf.parent
        sibling = parent.right if parent.left is leaf else parent.left
        grand = parent.parent
        sibling.parent = grand
        if grand is None:
            self.root = sibling
        elif grand.left is parent:
            grand.left = sibling
        else:
            grand.right = sibling

    # -- reroute -----------------------------------------------------------

    def reroute(self) -> None:
        """Extract one uniformly sampled memory and re-insert it from the root.

        Draw i picks the i-th memory of `memories()`, found by descending the
        subtree counts, so the pick depends only on the tree's structure and
        generator: O(depth) and no index of its own.
        """
        if not self.M:
            return
        i = int(self.rng.random() * len(self.M))
        v = self.root
        while not v.is_leaf:
            left = node_count(v.left)
            if i < left:
                v = v.left
            else:
                i -= left
                v = v.right
        z = self._remove_fp(v.mem[i].key_fingerprint)
        self._insert_from(self.root, z)

    # -- diagnostics -------------------------------------------------------

    def check_invariants(self) -> list[str]:
        """Structural audit; returns human-readable violations (empty = healthy)."""
        problems: list[str] = []
        cap, M, by_size = self.capacity(), self.M, self._leaves_by_size
        seen: set[int] = set()
        stored = filled = 0
        if self.root.parent is not None:
            problems.append("root has a parent")
        for node, _ in self.walk():
            if not node.is_leaf:
                left, right = node.left, node.right
                if left is None or right is None:  # the walk cannot go on
                    problems.append("internal node with a missing child")
                    return problems
                for child in (left, right):
                    if child.parent is not node:
                        problems.append("child's parent link does not point back")
                total = (len(left.mem) if left.is_leaf else left.n) + (
                    len(right.mem) if right.is_leaf else right.n)
                if node.n != total:
                    problems.append(f"subtree count {node.n} != stored {total}")
                continue
            size = len(node.mem)
            stored += size
            if size:
                filled += 1
                if node not in by_size.get(size, ()):
                    problems.append(f"leaf of {size} memories missing from the size index")
            elif node is not self.root:
                problems.append("empty leaf below the root")  # _remove_fp splices these
            if size > cap:
                problems.append(f"leaf holds {size} memories, capacity {cap}")
            for m in node.mem:
                fp = m.key_fingerprint
                if fp in seen:
                    problems.append(f"fingerprint {fp:#x} stored twice")
                seen.add(fp)
                if M.get(fp) is not node:
                    problems.append(f"map entry for {fp:#x} does not point at its leaf")
        if stored != len(M):
            problems.append(f"map size {len(M)} != stored memories {stored}")
        for fp in M:
            if fp not in seen:
                problems.append(f"map entry {fp:#x} is unreachable from the root")
        indexed = sum(map(len, by_size.values()))
        if indexed != filled:  # each filled leaf was found in its bucket: a surplus is stale
            problems.append(f"size index holds {indexed} leaves, the tree {filled} filled ones")
        return problems

    def measure_self_consistency(self, sample) -> float:
        """Fraction of sampled memories that a k=1, epsilon=0 query fails to return."""
        sample = list(sample)
        if not sample:
            return 0.0
        misses = 0
        for z in sample:
            got = self.query(z.x, 1, 0.0).memories
            if not got or got[0].key_fingerprint != z.key_fingerprint:
                misses += 1
        return misses / len(sample)
