"""Task harnesses that drive the tree as a classifier or retriever.

The multiclass loop predicts each example before learning from it. That is
progressive validation only if no insert pass stored the key first: after
one (the runner's default), a read may return the query's own memory. The
multilabel loop pairs the tree with a one-against-some inference layer that
only scores labels seen in the returned memories. Its label scorers keep
their weights in one shared pool, so one numpy pass scores every candidate
label of a test read, and a training read scores and steps them all from
one gather, with the results of a `RouterModel` per label bit for bit. The
retrieval loop stores (query, value) vector pairs and scores returns by
cosine similarity. An exact linear-scan nearest-neighbor baseline serves as
the reference point.
Each loop takes the examples that `features.parse_line` and the synthetic
generators build.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from itertools import count
from struct import pack
from types import MappingProxyType

from .features import (
    MulticlassExample,
    MultilabelExample,
    RetrievalPair,
    SparseVector,
    cosine,
    l2_distance,
)
from .learners import BASE_RATE, _column_sums, sigmoid
from .tree import Leaf, LeafExplore, Memory, Tree

MODE_ONLINE = "online"

# examples per windowed-accuracy row of mc_progressive_run
ACCURACY_WINDOW = 100


def entropy_reduction(p_a: float, p_b: float) -> float:
    """Accuracy gain of predictor A over predictor B, in bits."""
    if p_a <= 0.0 or p_b <= 0.0:
        raise ValueError("accuracies must be positive")
    return math.log2(p_a) - math.log2(p_b)


def f1_reward(truth: frozenset[int] | set[int], returned: frozenset[int] | set[int]) -> float:
    """F1 overlap between a true label set and a returned one; 0 if either is empty."""
    if not truth or not returned:
        return 0.0
    overlap = len(truth & returned)
    return 2.0 * overlap / (len(truth) + len(returned))


def hamming_loss(pred: frozenset[int] | set[int], truth: frozenset[int] | set[int]) -> int:
    """Size of the symmetric difference between prediction and truth."""
    return len(pred ^ truth)


def mc_step(
    t: Tree,
    ex: MulticlassExample,
    epsilon: float,
    mode: str = MODE_ONLINE,
    update_on_exploit: bool = False,
):
    """Query, score with the 0/1 label-match reward, update, then insert.

    Returns (predicted label or None, correct). The example is stored
    unless its key is already held. `mode` must be MODE_ONLINE, the only
    mode; it stays a parameter for callers that pass it positionally.
    """
    if mode != MODE_ONLINE:
        raise ValueError(f"unknown mc_step mode {mode!r}")
    result = t.query(ex.x, 1, epsilon)
    if result.memories:
        top = result.memories[0]
        predicted = top.value
        correct = predicted == ex.label
        reward = 1.0 if correct else 0.0
        if result.key is not None:
            t.update(ex.x, top, reward, result.key)
        elif update_on_exploit:  # extra scorer credit for an exploit read
            t.update(ex.x, top, reward, LeafExplore(t.M[top.key_fingerprint]))
    else:
        predicted = None
        correct = False
    if not t.contains(ex.x):
        t.insert(Memory(ex.x, ex.label))
    return predicted, correct


def mc_progressive_run(t: Tree, stream, epsilon: float, **step_kwargs):
    """Fold mc_step over a stream, querying each example ahead of learning
    from it: progressive validation only if no insert pass stored its keys.

    Returns (cumulative accuracy, trace); the trace holds one (step, windowed
    accuracy, cumulative accuracy) row per ACCURACY_WINDOW examples.
    """
    hits = 0
    total = 0
    window_hits = 0
    trace: list[tuple[int, float, float]] = []
    for ex in stream:
        _, correct = mc_step(t, ex, epsilon, **step_kwargs)
        total += 1
        hits += correct
        window_hits += correct
        if total % ACCURACY_WINDOW == 0:
            trace.append((total, window_hits / ACCURACY_WINDOW, hits / total))
            window_hits = 0
    if total % ACCURACY_WINDOW:
        span = total % ACCURACY_WINDOW
        trace.append((total, window_hits / span, hits / total))
    return (hits / total if total else 0.0), trace


class _Pool:
    """The weights and squared-gradient sums of every label of an `OASModel`.

    Two flat float64 arrays, `w` and `g2`, addressed by cell. Cells
    [1, size) belong to labels; cell 0 holds (0.0, 0.0) and is never
    written, so a label reads it for a feature it does not hold. Both arrays
    double when a claim outgrows them.
    """

    __slots__ = ("w", "g2", "size")

    def __init__(self):
        import numpy as np

        self.w = np.zeros(256)
        self.g2 = np.zeros(256)
        self.size = 1

    def claim(self, n: int) -> int:
        """The first of n new consecutive cells, each holding (0.0, 0.0)."""
        start = self.size
        self.size = end = start + n
        capacity = len(self.w)
        if end > capacity:
            while capacity < end:
                capacity *= 2
            import numpy as np

            self.w = np.concatenate([self.w, np.zeros(capacity - len(self.w))])
            self.g2 = np.concatenate([self.g2, np.zeros(capacity - len(self.g2))])
        return start


class _Label:
    """One label's linear scorer, held in its model's `_Pool`.

    `cells` maps a feature to its cell, made at (0.0, 0.0) by the label's
    first step on it. `memo` is the (index tuple, cells) pair of the last
    index tuple whose features all have cells, the cells packed as 8-byte
    ints, stored whole in one attribute. `entries`, `update_count`
    and `mistake_count` are what a snapshot saves of a `RouterModel`.
    """

    __slots__ = ("pool", "cells", "memo", "update_count", "mistake_count")

    def __init__(self, pool: _Pool):
        self.pool = pool
        self.cells: dict[int, int] = {}
        self.memo: tuple[tuple[int, ...], bytes] = ((), b"")
        self.update_count = 0
        self.mistake_count = 0

    def entries(self) -> list[tuple[int, float, float]]:
        """(index, weight, squared-gradient sum) of every feature, by index."""
        held = sorted(self.cells.items())
        cells = [c for _, c in held]
        w, g2 = self.pool.w[cells].tolist(), self.pool.g2[cells].tolist()
        return [(i, wi, gi) for (i, _), wi, gi in zip(held, w, g2)]

    def read_cells(self, indices: tuple[int, ...], fmt: str) -> bytes:
        """The cell of each index, 0 for one the label does not hold, packed by `fmt`."""
        memo = self.memo
        if memo[0] is indices or memo[0] == indices:
            return memo[1]
        get = self.cells.get
        cells = [get(i, 0) for i in indices]
        packed = pack(fmt, *cells)
        if 0 not in cells:
            self.memo = (indices, packed)
        return packed

    def step_cells(self, indices: tuple[int, ...], fmt: str) -> bytes:
        """The cell of each index, packed by `fmt`, claiming cells for the
        ones not held yet."""
        memo = self.memo
        if memo[0] is indices or memo[0] == indices:
            return memo[1]
        cells = self.cells
        new = [i for i in indices if i not in cells]
        if new:
            cells.update(zip(new, count(self.pool.claim(len(new)))))
        packed = pack(fmt, *map(cells.__getitem__, indices))
        self.memo = (indices, packed)
        return packed


def _weigh(block, x: SparseVector) -> list[float]:
    """Each label's score: its column of a (features x labels) weight block
    on x's index tuple times x's values, summed in x's order."""
    import numpy as np

    return _column_sums(block * np.frombuffer(x.values)[:, None]).tolist()


def _index(cells: list[bytes], n: int):
    """The labels' cells for n features as a C-ordered (features x labels) index."""
    import numpy as np

    return np.frombuffer(b"".join(cells), dtype=np.int64).reshape(len(cells), n).T.copy()


class OASModel:
    """One-against-some inference over a lazily created scorer per label.

    Each label is a logistic `RouterModel` step for step, but every label's
    weights and squared-gradient sums live in one shared `_Pool`, so a read
    scores all candidate labels in one numpy pass over a C-ordered
    (features x labels) block, and `update`, a training read's one pass,
    scores and steps them all from one gather of that block. Each column is
    summed in x's order by `_column_sums`, and each step is the router's
    AdaGrad step in the router's order, so scores, predictions and stored
    weights equal a per-label `RouterModel`'s bit for bit; only the sign of a
    zero score can differ, and no prediction or step reads it.

    `scorers` is a live, read-only view of label to its `_Label` record,
    whose `entries`, `update_count` and `mistake_count` a snapshot saves.
    Assigning a mapping of label to model (the `RouterModel`s a snapshot
    load returns) copies those models into a new pool.

    A test read of a leaf keeps what depends only on the leaf's memories and
    the weights in the leaf's `labels` slot (see `_leaf_labels`), tagged
    with the model's token: a fresh object that every weight write, `update`
    or assigning `scorers`, replaces. So a slot written before a write, or
    by another model, is never served.
    """

    def __init__(self):
        self._pool = _Pool()
        self._labels: dict[int, _Label] = {}
        self._token = object()

    @property
    def scorers(self) -> Mapping[int, _Label]:
        return MappingProxyType(self._labels)

    @scorers.setter
    def scorers(self, models) -> None:
        pool, labels = _Pool(), {}
        for label, model in models.items():
            entries = model.entries()
            record = labels[label] = _Label(pool)
            start = pool.claim(len(entries))
            record.cells = {i: start + k for k, (i, _, _) in enumerate(entries)}
            pool.w[start:pool.size] = [w for _, w, _ in entries]
            pool.g2[start:pool.size] = [g2 for _, _, g2 in entries]
            record.update_count = model.update_count
            record.mistake_count = model.mistake_count
        self._pool, self._labels, self._token = pool, labels, object()

    def scores(self, candidates, x: SparseVector) -> dict[int, float]:
        """Each candidate label's raw score for x; a label without a scorer scores 0.0.

        A label's score is the sum of w_i * x_i over x's indices in x's
        order, a feature it does not hold reading cell 0's weight 0.0.
        """
        scores = dict.fromkeys(candidates, 0.0)
        labels = self._labels
        held = [label for label in scores if label in labels]
        if held:
            scores.update(zip(held, _weigh(self._gather(held, x.indices), x)))
        return scores

    def _gather(self, held: Sequence[int], idx: tuple[int, ...]):
        """The C-ordered (features x labels) weights of the held labels on idx."""
        fmt = f"{len(idx)}q"
        labels = self._labels
        return self._pool.w[_index([labels[label].read_cells(idx, fmt) for label in held], len(idx))]

    def _leaf_labels(self, leaf: Leaf, memories: tuple[Memory, ...], idx: tuple[int, ...]):
        """(candidates, held labels, their read-only `_gather`ed block) of a
        test read of `leaf` that returned `memories` for a key on index tuple
        idx: from `leaf.labels` while it holds this model's token, idx and
        `memories`, else built and stored there whole in one attribute write."""
        entry = leaf.labels
        if (entry is not None and entry[0] is self._token
                and (entry[1] is idx or entry[1] == idx) and entry[2] == memories):
            return entry[3:]
        candidates: set[int] = set()
        for z in memories:
            candidates |= z.value
        labels = self._labels
        held = tuple(label for label in candidates if label in labels)
        block = None
        if held:
            block = self._gather(held, idx)
            block.flags.writeable = False
        leaf.labels = entry = (self._token, idx, memories, frozenset(candidates), held, block)
        return entry[3:]

    def predict(self, scores: dict[int, float]) -> set[int]:
        """The labels of `scores`, from `self.scores` or `self.update`, that score above 0."""
        return {label for label, score in scores.items() if score > 0.0}

    def update(self, x: SparseVector, truth: frozenset[int], candidates) -> dict[int, float]:
        """One logistic step per candidate label toward its membership in
        `truth`; returns each candidate's score from before the step.

        Labels and features met for the first time get cells first, each
        holding weight 0.0, so the returned scores equal
        `self.scores(candidates, x)` (a label without weights may score -0.0
        where `scores` gives 0.0). Each label has its own weights, so one
        label's step leaves the others' scores as they were: every label
        takes `RouterModel.update`'s step at importance 1 at once, from one
        gather of its weights and sums, and its mistake count compares the
        score after the step with its membership.
        """
        import numpy as np

        labels, pool = self._labels, self._pool
        self._token = object()
        idx = x.indices
        fmt = f"{len(idx)}q"
        order = dict.fromkeys(candidates)
        records, ys, cells = [], [], []
        for label in order:
            record = labels.get(label)
            if record is None:
                record = labels[label] = _Label(pool)
            records.append(record)
            ys.append(1 if label in truth else -1)
            cells.append(record.step_cells(idx, fmt))
        index = _index(cells, len(idx))
        column = np.frombuffer(x.values)[:, None]
        w = pool.w[index]
        before = _column_sums(w * column).tolist()
        grads = [-1.0 * y * sigmoid(-y * score) for y, score in zip(ys, before)]
        g = np.multiply(grads, column)
        acc = pool.g2[index] + g * g
        w -= BASE_RATE / np.sqrt(acc + 1.0) * g
        pool.g2[index] = acc
        pool.w[index] = w
        for record, y, score in zip(records, ys, _column_sums(w * column).tolist()):
            record.update_count += 1
            if (score > 0.0) != (y > 0):
                record.mistake_count += 1
        return dict(zip(order, before))


def oas_step(
    t: Tree,
    oas: OASModel,
    ex: MultilabelExample,
    train: bool,
    epsilon: float = 0.1,
):
    """One multilabel round: read a leaf, OAS inference over its labels,
    then (in training) OAS + tree updates and an insert.

    The read asks `Tree.query` for its landing leaf whole (k=None), since
    the answer is the set of the leaf's labels, and only a training read
    explores. An exploit read scores no memory and draws nothing from
    `t.rng`; an exploration read puts the memory it picked first, and
    `Tree.update` credits that memory.

    A test read of a leaf whose memories, index tuple and label weights are
    those of its last test read takes the candidates, the held labels and
    their weight block from the leaf's `labels` slot, so it only weighs x's
    values and predicts; the answer is `oas.predict(oas.scores(candidates,
    x))` bit for bit. A training read neither reads nor writes the slot:
    `oas.update` scores its candidates and steps them in one pass, and the
    prediction is made from the scores before the step, as
    `oas.predict(oas.scores(candidates, x))` would make it.

    Returns (predicted label set, candidate label set).
    """
    result = t.query(ex.x, None, epsilon if train else 0.0)
    memories = result.memories
    if not train:
        if not memories:
            return set(), set()
        candidates, held, block = oas._leaf_labels(
            t.M[memories[0].key_fingerprint], memories, ex.x.indices)
        return oas.predict(dict(zip(held, _weigh(block, ex.x))) if held else {}), candidates
    candidates = set()
    for z in memories:
        candidates |= z.value
    predicted = oas.predict(oas.update(ex.x, ex.labels, candidates) if candidates else {})
    if result.key is not None:
        top = memories[0]
        t.update(ex.x, top, f1_reward(ex.labels, top.value), result.key)
    if not t.contains(ex.x):
        t.insert(Memory(ex.x, ex.labels))
    return predicted, candidates


def retrieval_step(t: Tree, pair: RetrievalPair, train: bool, epsilon: float = 0.1):
    """One retrieval round. Returns (returned value or None, raw cosine reward).

    The raw cosine is what gets reported; the scorer is trained on its
    (1 + cos) / 2 rescaling so targets stay within [0, 1].
    """
    if not pair.value:
        raise ValueError("retrieval value vector must be nonzero")
    result = t.query(pair.x, 1, epsilon if train else 0.0)
    returned = None
    raw_reward = 0.0
    if result.memories:
        top = result.memories[0]
        returned = top.value
        raw_reward = cosine(returned, pair.value)
        if train and result.key is not None:
            t.update(pair.x, top, (1.0 + raw_reward) / 2.0, result.key)
    if train and not t.contains(pair.x):
        t.insert(Memory(pair.x, pair.value))
    return returned, raw_reward


def nn_linear_scan(store, x: SparseVector, k: int) -> list[Memory]:
    """Exact k-nearest memories by Euclidean key distance, ties by fingerprint."""
    ranked = sorted(store, key=lambda z: (l2_distance(x, z.x), z.key_fingerprint))
    return ranked[:k]
