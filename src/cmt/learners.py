"""Online linear learners: binary routers and the reward scorer.

Both are sparse linear models trained one example at a time with per-feature
adaptive step sizes (accumulated squared gradients). Routers minimize
importance-weighted logistic loss; the scorer regresses rewards in [0, 1]
with squared loss over a pairwise feature map.
"""

from __future__ import annotations

import math
from typing import Optional

from .features import SparseVector, l2_distance

# One global AdaGrad step size: per-feature adaptive steps let every router,
# label scorer and the leaf scorer share it.
BASE_RATE = 0.1

SCORER_LEARNED = "learned"
SCORER_EUCLIDEAN = "euclidean"

# pair_features namespace: scalar features sit below the offset, the
# elementwise-product block is shifted above it.
PAIR_COSINE = 0
PAIR_DISTANCE = 1
PAIR_BIAS = 2
PAIR_PRODUCT_OFFSET = 4


def sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


class LinearModel:
    """Sparse weights plus accumulated squared gradients."""

    __slots__ = ("weights", "grad_sq", "update_count", "mistake_count")

    def __init__(self):
        self.weights: dict[int, float] = {}
        self.grad_sq: dict[int, float] = {}
        self.update_count = 0
        self.mistake_count = 0

    def raw(self, x: SparseVector) -> float:
        return _weighted_sum(self.weights, x.indices, x.values)

    def _step(self, x: SparseVector, dloss_dscore: float) -> float:
        """One AdaGrad step; returns raw(x) at the new weights.

        dloss_dscore is the derivative of the loss wrt the linear score; the
        per-feature gradient is dloss_dscore * x_i. Every index of x holds a
        weight after its own step, so summing w_i * x_i in x's order here
        gives raw(x) bit for bit.
        """
        w, g2, rate = self.weights, self.grad_sq, BASE_RATE
        total = 0.0
        for i, v in zip(x.indices, x.values):
            g = dloss_dscore * v
            acc = g2.get(i, 0.0) + g * g
            g2[i] = acc
            wi = w.get(i, 0.0) - rate / math.sqrt(acc + 1.0) * g
            w[i] = wi
            total += wi * v
        return total


class RouterModel(LinearModel):
    """Importance-weighted online logistic classifier used at internal nodes."""

    def predict(self, x: SparseVector) -> int:
        """Hard decision in {-1, +1}; a tied score of 0 predicts -1 (left)."""
        return 1 if self.raw(x) > 0.0 else -1

    def update(
        self, x: SparseVector, y: int, importance: float, score: Optional[float] = None
    ) -> float:
        """One importance-weighted logistic step toward y; returns the new raw(x).

        `score` is raw(x) before the step when the caller already has it.
        A zero importance leaves all state untouched except the update count.
        The mistake counter compares the post-update prediction with y, so
        mistake_count / update_count is the progressive training error.
        """
        if y not in (-1, 1):
            raise ValueError("label must be -1 or +1")
        if not (importance >= 0.0 and math.isfinite(importance)):
            raise ValueError("importance must be finite and >= 0")
        if score is None:
            score = self.raw(x)
        self.update_count += 1
        if importance == 0.0:
            return score
        score = self._step(x, -importance * y * sigmoid(-y * score))
        if (score > 0.0) != (y > 0):
            self.mistake_count += 1
        return score

    def progressive_error(self) -> float:
        """Fraction of updates whose post-update prediction disagreed with the label."""
        if self.update_count == 0:
            raise ValueError("progressive error undefined before the first update")
        return self.mistake_count / self.update_count


def _weighted_sum(weights: dict[int, float], indices, values) -> float:
    """Sum of w_i * v_i over the indices that hold a weight, in the given order."""
    total = 0.0
    for i, v in zip(indices, values):
        wi = weights.get(i)
        if wi is not None:
            total += wi * v
    return total


def _pair_map(x: SparseVector, key: SparseVector) -> tuple[list[int], list[float]]:
    """pair_features(x, key) as (indices, values) lists.

    One merge pass over both vectors accumulates the dot product, the squared
    distance, ||x||^2, ||key||^2 and the elementwise products; each sum runs
    in the order of `dot`, `l2_distance` and `SparseVector.norm`, so the
    scalars match theirs bit for bit.
    """
    prod_indices: list[int] = []
    prod_values: list[float] = []
    ai, av = x.indices, x.values
    bi, bv = key.indices, key.values
    i = j = 0
    na, nb = len(ai), len(bi)
    xk = dist_sq = x_sq = key_sq = 0.0
    while i < na and j < nb:
        p, q = ai[i], bi[j]
        if p == q:
            a, b = av[i], bv[j]
            prod = a * b
            xk += prod
            d = a - b
            dist_sq += d * d
            x_sq += a * a
            key_sq += b * b
            if prod != 0.0:
                prod_indices.append(p + PAIR_PRODUCT_OFFSET)
                prod_values.append(prod)
            i += 1
            j += 1
        elif p < q:
            s = av[i] * av[i]
            dist_sq += s
            x_sq += s
            i += 1
        else:
            s = bv[j] * bv[j]
            dist_sq += s
            key_sq += s
            j += 1
    while i < na:
        s = av[i] * av[i]
        dist_sq += s
        x_sq += s
        i += 1
    while j < nb:
        s = bv[j] * bv[j]
        dist_sq += s
        key_sq += s
        j += 1

    nx, nk = math.sqrt(x_sq), math.sqrt(key_sq)
    sim = 0.0 if nx == 0.0 or nk == 0.0 else xk / (nx * nk)
    dist = math.sqrt(dist_sq)
    indices: list[int] = []
    values: list[float] = []
    if sim != 0.0:
        indices.append(PAIR_COSINE)
        values.append(sim)
    if dist != 0.0:
        indices.append(PAIR_DISTANCE)
        values.append(dist / (1.0 + dist))
    indices.append(PAIR_BIAS)
    values.append(1.0)
    indices.extend(prod_indices)
    values.extend(prod_values)
    return indices, values


def pair_features(x: SparseVector, key: SparseVector) -> SparseVector:
    """Deterministic feature map for scoring a (query, stored key) pair.

    Concatenates the elementwise product of the two vectors (re-indexed into
    its own namespace) with three scalars: cosine similarity, a bounded
    distance d/(1+d), and a constant bias.
    """
    indices, values = _pair_map(x, key)
    vec = SparseVector.__new__(SparseVector)
    vec.indices = tuple(indices)
    vec.values = tuple(values)
    return vec


class ScorerModel(LinearModel):
    """Predicts the reward of returning a stored memory for a query.

    In "learned" mode this is a linear regressor over pair_features with
    predictions clamped to [0, 1]. In "euclidean" mode it is the fixed
    unsupervised score -||x - key||, and updates are ignored.
    """

    __slots__ = ("mode",)

    def __init__(self, mode: str = SCORER_LEARNED):
        if mode not in (SCORER_LEARNED, SCORER_EUCLIDEAN):
            raise ValueError(f"unknown scorer mode {mode!r}")
        super().__init__()
        self.mode = mode

    def predict(self, x: SparseVector, key: SparseVector) -> float:
        if self.mode == SCORER_EUCLIDEAN:
            return -l2_distance(x, key)
        s = _weighted_sum(self.weights, *_pair_map(x, key))
        return max(0.0, min(1.0, s))

    def update(self, x: SparseVector, key: SparseVector, r: float) -> None:
        if not (0.0 <= r <= 1.0):
            raise ValueError("reward must lie in [0, 1]")
        if self.mode == SCORER_EUCLIDEAN:
            return
        phi = pair_features(x, key)
        self.update_count += 1
        self._step(phi, self.raw(phi) - r)

    def loss(self, x: SparseVector, key: SparseVector, r: float) -> float:
        """Squared loss on the raw (unclamped) score; gradient() differentiates this."""
        e = self.raw(pair_features(x, key)) - r
        return 0.5 * e * e

    def gradient(self, x: SparseVector, key: SparseVector, r: float) -> dict[int, float]:
        """Per-feature analytic gradient of loss() at the current weights."""
        phi = pair_features(x, key)
        e = self.raw(phi) - r
        return {i: e * v for i, v in zip(phi.indices, phi.values)}
