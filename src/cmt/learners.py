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
share the query's index set is scored in one numpy pass over a (features x
keys) block read straight from the keys' eight-byte value buffers, each sum
added down a key's column in the order the per-key loops add it, so the
scores match those loops bit for bit; any other leaf is scored one key at a
time. The block, and for the learned score the keys' norms, depend on the
keys alone: a tree leaf keeps the last ones built for it, and a read of a
leaf whose keys have not changed reuses them. The learned pass works in one
buffer: a single reduce gives every key's dot product and squared distance,
and the score rows are written in place above them. What it needs of the
scorer's weights for the query's index tuple (the cosine, distance and bias
weights, and the product weights as a read-only column) is kept in one
record until `update` or `set_entries` changes a weight, so a served tree
looks its weights up once. numpy is imported on first use, not with this
module.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any, Optional

from .features import SparseVector, Values, l2_distance

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
    ai, av = x.indices, x.values.tolist()  # indexed as lists, as in l2_distance
    bi, bv = key.indices, key.values.tolist()
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
    return SparseVector.trusted(tuple(indices), Values(values))


# The scorer's weights of the pair features of a query on one index tuple:
# (cosine weight, distance weight, bias weight, product weights), the last
# aligned with the indices. A weight the model does not hold is None.
PairWeights = tuple[Optional[float], Optional[float], Optional[float], list]


def _column_sums(a):
    """Sums over the first axis of a 2-d array whose rows are contiguous,
    each added in order, as the per-key loops add a key's terms. Across two
    or more columns np.add.reduce adds row after row; a single column is one
    run, which it would add pairwise. Only the sign of a zero sum can differ
    from a loop's: a sum of squares is never -0.0, and the learned score's
    clamp drops the sign."""
    import numpy as np

    if a.shape[1] > 1:
        return np.add.reduce(a, axis=0)
    if not a.shape[0]:
        return np.zeros(a.shape[1])
    return np.add.accumulate(a, axis=0)[-1]


def _block_distances(x: SparseVector, keys) -> list[float]:
    """-l2_distance(x, key) for each column of `keys`, a C-ordered
    (features x keys) block of keys on x's index set."""
    import numpy as np

    with np.errstate(all="ignore"):  # overflow to inf, silent as Python floats are
        diff = np.frombuffer(x.values)[:, None] - keys
        np.multiply(diff, diff, out=diff)
        return np.negative(np.sqrt(_column_sums(diff))).tolist()


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


# What `_block_scores` needs of the scorer for queries on one index tuple:
# (index tuple, cosine weight, distance weight, bias weight, product column,
# missing rows). The product column is a read-only (features x 1) array of
# the product weights with 0.0 where the model holds none. Missing rows is
# None unless some product weight is missing or not finite (the mask case);
# then it is a read-only (features x 1) array, True where a weight is missing.
BlockWeights = tuple[tuple[int, ...], Optional[float], Optional[float], Optional[float], Any, Any]


def _block_scores(x: SparseVector, keys, norms, weights: BlockWeights) -> list[float]:
    """The learned score of each column of `keys`, a C-ordered (features x
    keys) block of keys on x's index set, whose `_cosine_norms` are `norms`.

    All the work runs in one C-ordered buffer of (features + 3) x (2 keys).
    Its lower rows hold each key's products a*b in the first `keys` columns
    and its squared differences (a-b)² beside them, so one reduce down the
    rows gives every dot product and squared distance, each added row after
    row as `_pair_map` adds it (2 keys >= 2 columns, so never the pairwise
    one-column case). The top three rows of the first half then take the
    cosine, distance and bias terms, the products are weighted in place,
    and each key's score is the sum down its column of that
    (features + 3) x keys half: the order raw(pair_features) adds them.

    The per-key loop leaves out a zero cosine, distance or product; adding
    w times that zero, a signed zero, adds nothing either, unless w is not
    finite. A feature without a weight holds -0.0. So only a missing or
    non-finite weight needs a mask.
    """
    import numpy as np

    _, w_cos, w_dist, w_bias, column, missing = weights
    x_norm = x.norm()
    n, m = keys.shape
    a = np.frombuffer(x.values)[:, None]  # x's own buffer: only read
    work = np.empty((n + 3, 2 * m))
    lower = work[3:]
    products, squares = lower[:, :m], lower[:, m:]
    cos, dist, bias = work[0, :m], work[1, :m], work[2, :m]
    with np.errstate(all="ignore"):  # overflow to inf and NaN, silent as Python floats are
        np.multiply(keys, a, out=products)
        np.subtract(a, keys, out=squares)
        np.square(squares, out=squares)
        sums = np.add.reduce(lower, axis=0)  # dot products, then squared distances
        if w_cos is None or x_norm == 0.0:
            cos[:] = -0.0
        else:
            np.multiply(norms, x_norm, out=cos)
            np.divide(sums[:m], cos, out=cos)
            zero = None if math.isfinite(w_cos) else cos == 0.0
            np.multiply(cos, w_cos, out=cos)
            if zero is not None:
                cos[zero] = -0.0
        if w_dist is None:
            dist[:] = -0.0
        else:
            d = np.sqrt(sums[m:], out=sums[m:])
            np.add(d, 1.0, out=dist)
            np.divide(d, dist, out=dist)
            np.multiply(dist, w_dist, out=dist)
            if not math.isfinite(w_dist):
                dist[d == 0.0] = -0.0
        bias[:] = -0.0 if w_bias is None else w_bias
        if missing is not None:
            skip = products == 0.0  # an underflowed product is no feature
            np.logical_or(skip, missing, out=skip)
        np.multiply(products, column, out=products)
        if missing is not None:
            products[skip] = -0.0
        total = _column_sums(work[:, :m])
        np.fmin(total, 1.0, out=total)  # min(1.0, total): NaN gives 1.0
        np.maximum(total, 0.0, out=total)
        total += 0.0  # max(0.0, total) is 0.0 for -0.0 too, whichever zero maximum kept
        return total.tolist()


class ScorerModel(LinearModel):
    """Predicts the reward of returning a stored memory for a query.

    In "learned" mode this is a linear regressor over pair_features with
    predictions clamped to [0, 1]. In "euclidean" mode it is the fixed
    unsupervised score -||x - key||, and updates are ignored.

    `_kept` is the `BlockWeights` record of the last index tuple a learned
    block pass scored, or None, stored whole in one attribute write so a
    concurrent reader never sees half of one. Its arrays are never written
    after they are built. Only the two weight writes, `update` and
    `set_entries`, drop it; a read builds it again at the weights then held.
    """

    __slots__ = ("mode", "_kept")

    def __init__(self, mode: str = SCORER_LEARNED):
        if mode not in (SCORER_LEARNED, SCORER_EUCLIDEAN):
            raise ValueError(f"unknown scorer mode {mode!r}")
        super().__init__()
        self.mode = mode
        self._kept: Optional[BlockWeights] = None

    def predict(self, x: SparseVector, keys: Sequence[SparseVector], leaf=None) -> list[float]:
        """Score of returning each of `keys` for `x`, in the order given.

        The learned score is raw(pair_features(x, key)) clamped to [0, 1],
        summed in the same order: cosine, distance, bias, then each product
        term w * (a*b) in index order, skipping features without a weight.
        The euclidean score is -l2_distance(x, key).

        When every key has x's index set, as every synth and dense key has,
        all keys are scored at once over one C-ordered (features x keys)
        block of their values, with the keys' norms for the learned score.
        Every sum runs down a key's column in the order the per-key loops
        add it, so the scores match those loops bit for bit. The learned pass
        (`_block_scores`) runs in one work buffer and reads the weights from
        the scorer's kept record for x's index tuple, which it builds only
        after a weight write or for another index tuple; a served tree's
        weights never change, so its reads of one index set build it once.
        Otherwise each key is scored on its own, through `_pair_map` or
        `l2_distance`.

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
            return _block_scores(x, block, norms, self._block_weights(x.indices))
        if self.mode == SCORER_EUCLIDEAN:
            return [-l2_distance(x, k) for k in keys]
        x_norm = x.norm()
        w_cos, w_dist, w_bias, w_prod = self._pair_weights(x.indices)
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

        Both modes get one C-ordered (features x keys) block, copied from
        the joined bytes of the keys' `Values`; the learned score also gets
        the keys' `_cosine_norms`, the euclidean score None. A leaf's `block`
        is a (keys, index tuple, block, norms) tuple, or None, and is stored
        whole in one attribute write. It is reused while x has its index
        tuple and the key list it was built from equals `keys`: list
        equality tests identity first, and an equal key has equal values. So
        a read of a leaf changed since rebuilds it; a removal clears it only
        so that the removed key is freed at once.
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
        import numpy as np

        n, m = len(xi), len(keys)
        block = np.frombuffer(b"".join([k.values for k in keys])).reshape(m, n).T.copy()
        norms = _cosine_norms(block) if learned else None
        if leaf is not None:
            leaf.block = (list(keys), xi, block, norms)
        return block, norms

    def _pair_weights(self, indices: tuple[int, ...]) -> PairWeights:
        """The weights of the pair features of a query on `indices`, now."""
        get, w = self._slot.get, self._w
        features = (PAIR_COSINE, PAIR_DISTANCE, PAIR_BIAS,
                    *[i + PAIR_PRODUCT_OFFSET for i in indices])
        ws = [None if (s := get(i)) is None else w[s] for i in features]
        return ws[0], ws[1], ws[2], ws[3:]

    def _block_weights(self, indices: tuple[int, ...]) -> BlockWeights:
        """The kept record for `indices`, built and kept anew when the kept
        one is for another index tuple or a weight write has dropped it."""
        kept = self._kept
        if kept is not None and (kept[0] is indices or kept[0] == indices):
            return kept
        import numpy as np

        w_cos, w_dist, w_bias, w_prod = self._pair_weights(indices)
        missing = None
        if None in w_prod or not all(map(math.isfinite, w_prod)):
            missing = np.array([wi is None for wi in w_prod], dtype=bool).reshape(-1, 1)
            missing.flags.writeable = False
            w_prod = [0.0 if wi is None else wi for wi in w_prod]
        column = np.array(w_prod, dtype=float).reshape(-1, 1)
        column.flags.writeable = False
        kept = self._kept = (indices, w_cos, w_dist, w_bias, column, missing)
        return kept

    def set_entries(self, entries) -> None:
        super().set_entries(entries)
        self._kept = None

    def update(self, x: SparseVector, key: SparseVector, r: float) -> None:
        if not (0.0 <= r <= 1.0):
            raise ValueError("reward must lie in [0, 1]")
        if self.mode == SCORER_EUCLIDEAN:
            return
        phi = pair_features(x, key)
        self.update_count += 1
        self._step(phi, self.raw(phi) - r)
        self._kept = None
