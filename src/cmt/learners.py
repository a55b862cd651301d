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
        """Sum of w_i * x_i over the indices of x that hold a weight, in x's order."""
        w = self.weights
        total = 0.0
        for i, v in zip(x.indices, x.values):
            wi = w.get(i)
            if wi is not None:
                total += wi * v
        return total

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


def _pair_map(
    x: SparseVector, key: SparseVector, x_norm: float
) -> tuple[float, float, list[int], list[float]]:
    """The pieces of pair_features(x, key): (cosine, distance, positions, products).

    One merge pass over both vectors accumulates the dot product, the squared
    distance, ||key||^2 and the nonzero elementwise products a*b, listed with
    their positions in x. `x_norm` is x.norm(). Each sum runs in the order of
    `dot`, `l2_distance` and `SparseVector.norm`, so the scalars match theirs
    bit for bit. `ScorerModel.predict` scores a key with x's index set in its
    own zip pass, making this merge's equal-index steps in the same order;
    every other pair comes here.
    """
    positions: list[int] = []
    products: list[float] = []
    ai, av = x.indices, x.values
    bi, bv = key.indices, key.values
    i = j = 0
    na, nb = len(ai), len(bi)
    xk = dist_sq = key_sq = 0.0
    while i < na and j < nb:
        p, q = ai[i], bi[j]
        if p == q:
            a, b = av[i], bv[j]
            prod = a * b
            xk += prod
            d = a - b
            dist_sq += d * d
            key_sq += b * b
            if prod != 0.0:
                positions.append(i)
                products.append(prod)
            i += 1
            j += 1
        elif p < q:
            dist_sq += av[i] * av[i]
            i += 1
        else:
            s = bv[j] * bv[j]
            dist_sq += s
            key_sq += s
            j += 1
    while i < na:
        dist_sq += av[i] * av[i]
        i += 1
    while j < nb:
        s = bv[j] * bv[j]
        dist_sq += s
        key_sq += s
        j += 1

    nk = math.sqrt(key_sq)
    sim = 0.0 if x_norm == 0.0 or nk == 0.0 else xk / (x_norm * nk)
    return sim, math.sqrt(dist_sq), positions, products


def pair_features(x: SparseVector, key: SparseVector) -> SparseVector:
    """Deterministic feature map for scoring a (query, stored key) pair.

    Concatenates three scalars, cosine similarity, a bounded distance
    d/(1+d) and a constant bias, with the nonzero elementwise products of
    the two vectors (re-indexed into their own namespace). A zero cosine or
    distance is left out. `ScorerModel.predict` scores the same features
    without building this vector.
    """
    sim, dist, positions, products = _pair_map(x, key, x.norm())
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
    xi = x.indices
    indices.extend([xi[i] + PAIR_PRODUCT_OFFSET for i in positions])
    values.extend(products)
    return SparseVector.trusted(tuple(indices), tuple(values))


# What ScorerModel.predict needs of a query, whatever the key:
# (||x||, cosine weight, distance weight, bias weight, product weights), the
# last aligned with x.indices. A weight the model does not hold is None.
Prepared = tuple[float, Optional[float], Optional[float], Optional[float], list]


class ScorerModel(LinearModel):
    """Predicts the reward of returning a stored memory for a query.

    In "learned" mode this is a linear regressor over pair_features with
    predictions clamped to [0, 1]. In "euclidean" mode it is the fixed
    unsupervised score -||x - key||, and updates are ignored.

    Scoring many keys against one query should `prepare` the query once and
    pass the result to every `predict`: that looks up the query's weights
    and norm once instead of once per key, with the same scores bit for bit.
    """

    __slots__ = ("mode",)

    def __init__(self, mode: str = SCORER_LEARNED):
        if mode not in (SCORER_LEARNED, SCORER_EUCLIDEAN):
            raise ValueError(f"unknown scorer mode {mode!r}")
        super().__init__()
        self.mode = mode

    def prepare(self, x: SparseVector) -> Optional[Prepared]:
        """Everything predict(x, key) needs of x alone, at the current weights.

        None in euclidean mode, which has nothing to prepare. Stale once the
        weights change.
        """
        if self.mode == SCORER_EUCLIDEAN:
            return None
        w = self.weights.get
        return (
            x.norm(), w(PAIR_COSINE), w(PAIR_DISTANCE), w(PAIR_BIAS),
            [w(i + PAIR_PRODUCT_OFFSET) for i in x.indices],
        )

    def predict(self, x: SparseVector, key: SparseVector, q: Optional[Prepared] = None) -> float:
        """Score of returning `key` for `x`; `q` is prepare(x) when the caller has it.

        The learned score is raw(pair_features(x, key)) clamped to [0, 1],
        summed in the same order: cosine, distance, bias, then each product
        term w * (a*b) in index order, skipping features without a weight.

        A key with x's index set, as every synth and dense key has, is scored
        in two zip passes (the scalars, then the product terms) that make the
        merge's float operations in its order without building its lists.
        Any other key goes through `_pair_map`.
        """
        if self.mode == SCORER_EUCLIDEAN:
            return -l2_distance(x, key)
        if q is None:
            q = self.prepare(x)
        x_norm, w_cos, w_dist, w_bias, w_prod = q
        av, bv = x.values, key.values
        same_support = x.indices is key.indices or x.indices == key.indices
        if same_support:
            xk = dist_sq = key_sq = 0.0
            for a, b in zip(av, bv):
                xk += a * b
                d = a - b
                dist_sq += d * d
                key_sq += b * b
            nk = math.sqrt(key_sq)
            sim = 0.0 if x_norm == 0.0 or nk == 0.0 else xk / (x_norm * nk)
            dist = math.sqrt(dist_sq)
        else:
            sim, dist, positions, products = _pair_map(x, key, x_norm)
        total = 0.0
        if sim != 0.0 and w_cos is not None:
            total += w_cos * sim
        if dist != 0.0 and w_dist is not None:
            total += w_dist * (dist / (1.0 + dist))
        if w_bias is not None:
            total += w_bias  # times the bias feature, 1.0
        if same_support:
            for wi, a, b in zip(w_prod, av, bv):
                if wi is not None:
                    prod = a * b
                    if prod != 0.0:  # an underflowed product is no feature
                        total += wi * prod
        else:
            for i, prod in zip(positions, products):
                wi = w_prod[i]
                if wi is not None:
                    total += wi * prod
        return max(0.0, min(1.0, total))

    def update(self, x: SparseVector, key: SparseVector, r: float) -> None:
        if not (0.0 <= r <= 1.0):
            raise ValueError("reward must lie in [0, 1]")
        if self.mode == SCORER_EUCLIDEAN:
            return
        phi = pair_features(x, key)
        self.update_count += 1
        self._step(phi, self.raw(phi) - r)
