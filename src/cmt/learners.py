"""Online linear learners: binary routers and the reward scorer.

Both are sparse linear models trained one example at a time with per-feature
adaptive step sizes (accumulated squared gradients). Routers minimize
importance-weighted logistic loss; the scorer regresses rewards in [0, 1]
with squared loss over a pairwise feature map.

A model stores a feature's weight and squared-gradient sum at one slot of
two lists, and caches the slot list of the last index tuple it scored with
every feature known. Every key of a synth or dense store shares one index
tuple, so a router's score and step usually run on list subscripts alone,
with no per-feature dict lookup. A key with its own index set, as hashed
text has, looks each feature up once in the score and steps on the slots it
found. Results are bit for bit those of two dicts keyed by feature index.
`entries` and `set_entries` read and write a model's whole state.

The scorer scores a whole leaf in one `predict` call. A leaf whose keys all
share the query's index set is scored in one numpy pass over a block of
their cached value arrays, each sum added in the order the per-key loops
add it, so the scores match those loops bit for bit; any other leaf is
scored one key at a time. The block, and for the learned score the keys'
norms, depend on the keys alone: a tree leaf keeps the last ones built for
it, and a read of a leaf whose keys have not changed reuses them. numpy is
imported on first use, not with this module.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
    """Sparse weights plus accumulated squared gradients, kept in slots.

    `_slot` maps a feature index to its position in the two lists `_w`
    (weights) and `_g2` (squared-gradient sums). A feature's slot is made,
    as (0.0, 0.0), by its first step and never moves, so a cached list of
    positions stays valid for the life of the model. `_memo` is one cached
    (index tuple, positions) pair, held in a single attribute so a
    concurrent reader never sees half of one. Only `raw` fills it, and only
    when every index of x already has a slot; it is a cache, not model
    state, and changes no output. `entries` and `set_entries` read and
    write the whole state; `weights` is a copy of the weights alone.
    """

    __slots__ = ("_slot", "_w", "_g2", "_memo", "update_count", "mistake_count")

    def __init__(self):
        self._slot: dict[int, int] = {}
        self._w: list[float] = []
        self._g2: list[float] = []
        self._memo: tuple[tuple[int, ...], list[int]] = ((), [])
        self.update_count = 0
        self.mistake_count = 0

    @property
    def weights(self) -> dict[int, float]:
        """A copy of every feature's weight, in the order the features arrived."""
        w = self._w
        return {i: w[s] for i, s in self._slot.items()}

    def _slots(self, indices) -> list[int]:
        """The slot of each index; a new one holds weight 0.0 and squared-gradient sum 0.0."""
        slot, w, g2 = self._slot, self._w, self._g2
        get = slot.get
        slots = []
        for i in indices:
            s = get(i)
            if s is None:
                s = slot[i] = len(w)
                w.append(0.0)
                g2.append(0.0)
            slots.append(s)
        return slots

    def entries(self) -> list[tuple[int, float, float]]:
        """(index, weight, squared-gradient sum) of every feature, by index."""
        w, g2 = self._w, self._g2
        return [(i, w[s], g2[s]) for i, s in sorted(self._slot.items())]

    def set_entries(self, entries) -> None:
        """Set each (index, weight, squared-gradient sum), making missing slots."""
        entries = list(entries)
        slots = self._slots([i for i, _, _ in entries])
        w, g2 = self._w, self._g2
        for s, (_, wi, gi) in zip(slots, entries):
            w[s] = wi
            g2[s] = gi

    def raw(self, x: SparseVector) -> float:
        """Sum of w_i * x_i over the indices of x that hold a weight, in x's order.

        A miss on the memo looks each index up once, collecting the slots as
        it goes, so the step that usually follows on the same x hits.
        """
        idx = x.indices
        memo = self._memo
        w = self._w
        total = 0.0
        if memo[0] is idx or memo[0] == idx:
            for s, v in zip(memo[1], x.values):
                total += w[s] * v
            return total
        get = self._slot.get
        slots = []
        for i, v in zip(idx, x.values):
            s = get(i)
            if s is not None:
                total += w[s] * v
            slots.append(s)
        if None not in slots:
            self._memo = (idx, slots)
        return total

    def _step(self, x: SparseVector, dloss_dscore: float) -> float:
        """One AdaGrad step; returns raw(x) at the new weights.

        dloss_dscore is the derivative of the loss wrt the linear score; the
        per-feature gradient is dloss_dscore * x_i. Every index of x holds a
        weight after its own step, so summing w_i * x_i in x's order here
        gives raw(x) bit for bit. A memo miss means x brings new features;
        the step makes their slots and leaves the memo to the next `raw`.
        """
        idx = x.indices
        memo = self._memo
        slots = memo[1] if memo[0] is idx or memo[0] == idx else self._slots(idx)
        w, g2 = self._w, self._g2
        rate, sqrt = BASE_RATE, math.sqrt
        total = 0.0
        for s, v in zip(slots, x.values):
            g = dloss_dscore * v
            acc = g2[s] + g * g
            g2[s] = acc
            wi = w[s] - rate / sqrt(acc + 1.0) * g
            w[s] = wi
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
    distance and the nonzero elementwise products a*b, listed with their
    positions in x. `x_norm` is x.norm(); ||key|| is key's cached norm. Each
    sum runs in the order of `dot` and of `l2_distance`'s own merge, so the
    scalars match theirs bit for bit. `ScorerModel.predict` scores a leaf whose keys all have
    x's index set in one block pass, making this merge's equal-index steps in
    the same order; every other leaf comes here, one key at a time.
    """
    positions: list[int] = []
    products: list[float] = []
    ai, av = x.indices, x.values
    bi, bv = key.indices, key.values
    i = j = 0
    na, nb = len(ai), len(bi)
    xk = dist_sq = 0.0
    while i < na and j < nb:
        p, q = ai[i], bi[j]
        if p == q:
            a, b = av[i], bv[j]
            prod = a * b
            xk += prod
            d = a - b
            dist_sq += d * d
            if prod != 0.0:
                positions.append(i)
                products.append(prod)
            i += 1
            j += 1
        elif p < q:
            dist_sq += av[i] * av[i]
            i += 1
        else:
            dist_sq += bv[j] * bv[j]
            j += 1
    while i < na:
        dist_sq += av[i] * av[i]
        i += 1
    while j < nb:
        dist_sq += bv[j] * bv[j]
        j += 1

    nk = key.norm()
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


# What scoring any key against x needs of x alone: (||x||, cosine weight,
# distance weight, bias weight, product weights), the last aligned with
# x.indices. A weight the model does not hold is None.
PairWeights = tuple[float, Optional[float], Optional[float], Optional[float], list]


def _value_block(keys: Sequence[SparseVector], order: str = "C"):
    """The keys' cached value arrays as the rows of one (keys x features)
    block; with order "F" its transpose is a C-ordered (features x keys) block."""
    import numpy as np

    return np.array([k.array() for k in keys], order=order)


def _row_sums(block):
    """Sums over the last axis, each added left to right as the per-key loops
    add it: np.sum may add pairwise, a cumulative sum adds in order. Only the
    sign of a zero sum can differ from a loop's, and no score keeps that sign."""
    import numpy as np

    if not block.shape[-1]:
        return np.zeros(block.shape[:-1])
    return np.add.accumulate(block, axis=-1)[..., -1]  # np.cumsum, minus its wrapper


def _column_sums(a):
    """Sums over the first axis of a C-ordered 2-d array, each added in
    order, as `_row_sums` adds a row. Across two or more columns
    np.add.reduce adds row after row; a single column is one contiguous run,
    which it would add pairwise."""
    import numpy as np

    if a.shape[1] > 1:
        return np.add.reduce(a, axis=0)
    if not a.shape[0]:
        return np.zeros(a.shape[1])
    return np.add.accumulate(a, axis=0)[-1]


def _block_distances(x: SparseVector, block) -> list[float]:
    """-l2_distance(x, key) for each row of `block`, a key on x's index set."""
    import numpy as np

    with np.errstate(all="ignore"):  # overflow to inf, silent as Python floats are
        diff = np.array(x.values, dtype=np.float64) - block
        return np.negative(np.sqrt(_row_sums(diff * diff))).tolist()


def _cosine_norms(keys):
    """key.norm() of each column of a (features x keys) block, its squares
    summed in the same order; a zero norm is stored as inf.

    The pair map's cosine is 0.0, no feature, for a key of norm 0.0. Its
    dot product with any x is finite (each |a*b| is below 1e147 when b*b
    underflows), so dividing it by inf gives that zero without a mask.
    """
    import numpy as np

    with np.errstate(all="ignore"):
        norms = np.sqrt(_column_sums(keys * keys))
    norms[norms == 0.0] = np.inf
    return norms


def _block_scores(x: SparseVector, keys, norms, weights: PairWeights) -> list[float]:
    """The learned score of each column of `keys`, a C-ordered (features x
    keys) block of keys on x's index set, whose `_cosine_norms` are `norms`.

    `terms` holds one row per pair feature in the order raw(pair_features)
    adds them: cosine, distance, bias, then the products, and each key's sum
    runs down its column. The per-key loop leaves out a zero cosine,
    distance or product; adding w times that zero, a signed zero, adds
    nothing either, unless w is not finite. A feature without a weight holds
    -0.0. So only a missing or non-finite weight needs a mask.
    """
    import numpy as np

    x_norm, w_cos, w_dist, w_bias, w_prod = weights
    n, m = keys.shape
    a = np.array(x.values, dtype=np.float64)[:, None]
    terms = np.empty((n + 3, m))
    products = terms[3:]
    with np.errstate(all="ignore"):  # overflow to inf and NaN, silent as Python floats are
        np.multiply(keys, a, out=products)
        diff = a - keys
        np.multiply(diff, diff, out=diff)
        if w_cos is None or x_norm == 0.0:
            terms[0] = -0.0
        else:
            sim = _column_sums(products) / (x_norm * norms)
            np.multiply(sim, w_cos, out=terms[0])
            if not math.isfinite(w_cos):
                terms[0, sim == 0.0] = -0.0
        if w_dist is None:
            terms[1] = -0.0
        else:
            dist = np.sqrt(_column_sums(diff))
            np.multiply(dist / (1.0 + dist), w_dist, out=terms[1])
            if not math.isfinite(w_dist):
                terms[1, dist == 0.0] = -0.0
        terms[2] = -0.0 if w_bias is None else w_bias
        skip = None
        if None in w_prod or not all(map(math.isfinite, w_prod)):
            skip = products == 0.0  # an underflowed product is no feature
            skip[[wi is None for wi in w_prod]] = True
            w_prod = [0.0 if wi is None else wi for wi in w_prod]
        np.multiply(products, np.array(w_prod)[:, None], out=products)
        if skip is not None:
            products[skip] = -0.0
        total = np.fmin(_column_sums(terms), 1.0)  # min(1.0, total): NaN gives 1.0
        return np.where(total > 0.0, total, 0.0).tolist()


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

    def predict(self, x: SparseVector, keys: Sequence[SparseVector], leaf=None) -> list[float]:
        """Score of returning each of `keys` for `x`, in the order given.

        The learned score is raw(pair_features(x, key)) clamped to [0, 1],
        summed in the same order: cosine, distance, bias, then each product
        term w * (a*b) in index order, skipping features without a weight.
        The euclidean score is -l2_distance(x, key).

        When every key has x's index set, as every synth and dense key has,
        all keys are scored at once over a block of their cached value
        arrays: (keys x features) for the euclidean score, (features x keys)
        with the keys' norms for the learned one. Every sum is added in the
        order the per-key loops add it, so the scores match those loops bit
        for bit. Otherwise each key is scored on its own, through
        `_pair_map` or `l2_distance`.

        `leaf`, when given, is an object with a `block` attribute (a tree
        `Leaf`) that keeps what this call builds, so that a later call with
        an equal key list and x's index set skips building it again.
        """
        if not keys:
            return []
        shared = self._shared_block(x, keys, leaf)
        if shared is not None:
            block, norms = shared
            if self.mode == SCORER_EUCLIDEAN:
                return _block_distances(x, block)
            return _block_scores(x, block, norms, self._pair_weights(x))
        if self.mode == SCORER_EUCLIDEAN:
            return [-l2_distance(x, k) for k in keys]
        x_norm, w_cos, w_dist, w_bias, w_prod = self._pair_weights(x)
        scores = []
        for key in keys:
            sim, dist, positions, products = _pair_map(x, key, x_norm)
            total = 0.0
            if sim != 0.0 and w_cos is not None:
                total += w_cos * sim
            if dist != 0.0 and w_dist is not None:
                total += w_dist * (dist / (1.0 + dist))
            if w_bias is not None:
                total += w_bias  # times the bias feature, 1.0
            for i, prod in zip(positions, products):
                wi = w_prod[i]
                if wi is not None:
                    total += wi * prod
            scores.append(max(0.0, min(1.0, total)))
        return scores

    def _shared_block(self, x: SparseVector, keys: Sequence[SparseVector], leaf):
        """(block, norms) when every key has x's index set, else None.

        The learned score gets a (features x keys) block and the keys'
        `_cosine_norms`; the euclidean score a (keys x features) block and
        None. A leaf's `block` is a (keys, index tuple, block, norms) tuple,
        or None, and is stored whole in one attribute write. It is reused
        while x has its index tuple and the key list it was built from
        equals `keys`: list equality tests identity first, and an equal key
        has equal values. So a read of a leaf changed since rebuilds it, and
        nothing that changes a leaf needs to clear it.
        """
        xi = x.indices
        learned = self.mode == SCORER_LEARNED
        cached = None if leaf is None else leaf.block
        if cached is not None:
            built_from, indices, block, norms = cached
            if ((indices is xi or indices == xi) and (norms is not None) == learned
                    and built_from == keys):
                return block, norms
        for k in keys:
            ki = k.indices
            if ki is not xi:
                if ki != xi:
                    return None
                xi = ki  # later keys sharing this tuple pass on identity
        if learned:
            block = _value_block(keys, "F").T
            norms = _cosine_norms(block)
        else:
            block, norms = _value_block(keys), None
        if leaf is not None:
            leaf.block = (list(keys), xi, block, norms)
        return block, norms

    def _pair_weights(self, x: SparseVector) -> PairWeights:
        """What scoring any key against x needs of x alone, at the current weights."""
        get, w = self._slot.get, self._w
        features = (PAIR_COSINE, PAIR_DISTANCE, PAIR_BIAS,
                    *[i + PAIR_PRODUCT_OFFSET for i in x.indices])
        ws = [None if (s := get(i)) is None else w[s] for i in features]
        return x.norm(), ws[0], ws[1], ws[2], ws[3:]

    def update(self, x: SparseVector, key: SparseVector, r: float) -> None:
        if not (0.0 <= r <= 1.0):
            raise ValueError("reward must lie in [0, 1]")
        if self.mode == SCORER_EUCLIDEAN:
            return
        phi = pair_features(x, key)
        self.update_count += 1
        self._step(phi, self.raw(phi) - r)
