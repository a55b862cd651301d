"""Task harnesses that drive the tree as a classifier or retriever.

The multiclass loop predicts each example before learning from it. That is
progressive validation only if no insert pass stored the key first: after
one (the runner's default), a read may return the query's own memory. The
multilabel loop pairs the tree with a one-against-some inference layer that
only scores labels seen in the returned memories. The retrieval loop stores
(query, value) vector pairs and scores returns by cosine similarity. An
exact linear-scan nearest-neighbor baseline serves as the reference point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .features import SparseVector, cosine, l2_distance
from .learners import RouterModel
from .tree import LeafExplore, Memory, Tree

MODE_ONLINE = "online"

# examples per windowed-accuracy row of mc_progressive_run
ACCURACY_WINDOW = 100


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


class OASModel:
    """One-against-some inference over a lazily created scorer per label."""

    def __init__(self):
        self.scorers: dict[int, RouterModel] = {}

    def scores(self, candidates, x: SparseVector) -> dict[int, float]:
        """Each candidate label's raw score for x; a label without a scorer scores 0.0."""
        scorers = self.scorers
        return {
            label: scorers[label].raw(x) if label in scorers else 0.0 for label in candidates
        }

    def predict(self, scores: dict[int, float]) -> set[int]:
        """The labels of `scores`, from `self.scores`, that score above 0."""
        return {label for label, score in scores.items() if score > 0.0}

    def update(self, x: SparseVector, truth: frozenset[int], scores: dict[int, float]) -> None:
        """One logistic step per label of `scores` toward its membership in `truth`.

        `scores` is `self.scores(candidates, x)` before the step: each label
        has its own scorer, so one label's step leaves the others' scores as
        they were.
        """
        for label in sorted(scores):
            scorer = self.scorers.get(label)
            if scorer is None:
                scorer = self.scorers[label] = RouterModel()
            scorer.update(x, 1 if label in truth else -1, 1.0, scores[label])


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

    Returns (predicted label set, candidate label set).
    """
    result = t.query(ex.x, None, epsilon if train else 0.0)
    candidates: set[int] = set()
    for z in result.memories:
        candidates |= z.value
    scores = oas.scores(candidates, ex.x)
    predicted = oas.predict(scores)
    if train:
        if candidates:
            oas.update(ex.x, ex.labels, scores)
        if result.key is not None:
            top = result.memories[0]
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
