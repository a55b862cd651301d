import contextlib
import io
import math
import random
import struct
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmt.features import SparseVector, cosine, dot, l2_distance
from cmt.learners import (
    BASE_RATE,
    PAIR_BIAS,
    PAIR_COSINE,
    PAIR_DISTANCE,
    PAIR_PRODUCT_OFFSET,
    SCORER_EUCLIDEAN,
    SCORER_LEARNED,
    RouterModel,
    ScorerModel,
    _column_sums,
    pair_features,
    sigmoid,
)
from cmt.snapshot import _pack_model
from cmt.tree import Internal, Leaf, path
from helpers import set_weight


def sv(mapping):
    return SparseVector.from_pairs(mapping.items())


X = sv({1: 2.0})


# -- router ------------------------------------------------------------------

def test_fresh_router_scores_zero_and_routes_left():
    g = RouterModel()
    assert g.raw(X) == 0.0
    node = Internal(None, g)
    node.left, node.right = Leaf(node), Leaf(node)
    assert path(X, node) is node.left  # a tied score of 0 goes left


def test_router_one_step_matches_hand_gradient():
    # fresh model, one logistic step toward +1 with importance 1 on x = {1: 2}:
    # dloss/dscore = -sigmoid(0) = -0.5, grad = -1.0, accumulated = 1.0,
    # w = 0.1 / sqrt(2), so the score is 0.2 / sqrt(2).
    g = RouterModel()
    score = g.update(X, 1, 1.0)
    assert g.raw(X) == pytest.approx(0.2 / math.sqrt(2.0), rel=1e-12)
    assert g.raw(X) > 0.0
    assert score == g.raw(X)  # update returns the post-update score


def test_router_zero_importance_is_a_no_op():
    g = RouterModel()
    g.update(X, 1, 1.0)
    before = (g.entries(), g.mistake_count)
    g.update(X, -1, 0.0)
    assert (g.entries(), g.mistake_count) == before
    assert g.update_count == 2


def test_router_repeated_updates_grow_monotonically():
    g = RouterModel()
    prev = 0.0
    for _ in range(100):
        g.update(X, 1, 1.0)
        cur = g.raw(X)
        assert cur >= prev
        prev = cur
    assert prev > 1.0  # keeps growing, no plateau at the margin


def test_router_alternating_labels_stay_bounded():
    g = RouterModel()
    worst = 0.0
    for k in range(1000):
        g.update(X, 1 if k % 2 == 0 else -1, 1.0)
        worst = max(worst, abs(g.raw(X)))
    assert worst < 1.0


def test_router_rejects_bad_inputs():
    g = RouterModel()
    with pytest.raises(ValueError):
        g.update(X, 0, 1.0)
    with pytest.raises(ValueError):
        g.update(X, 1, -1.0)
    with pytest.raises(ValueError):
        g.update(X, 1, math.nan)


def test_progressive_error_perfect_fit():
    g = RouterModel()
    g.update(X, 1, 1.0)
    assert g.progressive_error() == 0.0


def test_progressive_error_undefined_before_updates():
    with pytest.raises(ValueError):
        RouterModel().progressive_error()


def test_progressive_error_random_labels_near_half():
    # a router fed fair-coin labels on a fixed input ends up guessing:
    # simulated rate lands around 0.46 (see the alternating-label case for
    # why a deterministic pattern would instead be tracked almost exactly)
    rng = random.Random(12)
    g = RouterModel()
    for _ in range(1000):
        g.update(X, 1 if rng.random() < 0.5 else -1, 1.0)
    assert 0.4 <= g.progressive_error() <= 0.6


def test_updates_touch_only_present_features():
    g = RouterModel()
    g.update(sv({3: 1.0, 8: -2.0}), 1, 1.0)
    g.update(sv({3: 1.0}), -1, 1.0)
    assert set(g.weights) == {3, 8}
    w8 = g.weights[8]
    g.update(sv({3: 1.0}), 1, 2.0)
    assert g.weights[8] == w8


# -- pair features -------------------------------------------------------------

def test_pair_features_identical_unit_vectors():
    x = sv({1: 1.0})
    phi = pair_features(x, x)
    as_dict = dict(phi.items())
    assert as_dict[PAIR_COSINE] == pytest.approx(1.0)
    assert PAIR_DISTANCE not in as_dict  # zero distance drops out
    assert as_dict[PAIR_BIAS] == 1.0
    assert as_dict[1 + PAIR_PRODUCT_OFFSET] == 1.0


def test_pair_features_disjoint_supports():
    phi = pair_features(sv({1: 1.0}), sv({2: 1.0}))
    as_dict = dict(phi.items())
    assert PAIR_COSINE not in as_dict  # cosine 0 is not stored
    assert all(i < PAIR_PRODUCT_OFFSET for i in phi.indices)  # empty product block
    dist = math.sqrt(2.0)
    assert as_dict[PAIR_DISTANCE] == pytest.approx(dist / (1.0 + dist))


def test_pair_features_deterministic():
    x, k = sv({1: 0.5, 4: -2.0}), sv({1: 1.0, 9: 3.0})
    assert pair_features(x, k) == pair_features(x, k)


# -- scorer --------------------------------------------------------------------

def test_euclidean_scorer_scores_negative_distance():
    f = ScorerModel(mode="euclidean")
    x, k = sv({1: 1.0}), sv({1: 3.0})
    assert f.predict(x, [x]) == [0.0]  # maximum possible
    assert f.predict(x, [k]) == [-l2_distance(x, k)]


def test_learned_scorer_zero_init_predicts_zero():
    f = ScorerModel()
    assert f.predict(sv({1: 1.0}), [sv({1: 1.0})]) == [0.0]


def test_scorer_one_update_strictly_increases_prediction():
    f = ScorerModel()
    x = sv({1: 1.0})
    [before] = f.predict(x, [x])
    f.update(x, x, 1.0)
    [after] = f.predict(x, [x])
    # hand value: three unit features (cosine, bias, product), each stepping
    # 0.1 / sqrt(2), so the raw score lands at 0.3 / sqrt(2)
    assert after > before
    assert after == pytest.approx(0.3 / math.sqrt(2.0), rel=1e-12)


def test_scorer_prediction_clamped_to_unit_interval():
    f = ScorerModel()
    x = sv({1: 5.0})
    for _ in range(200):
        f.update(x, x, 1.0)
    assert f.predict(x, [x])[0] <= 1.0
    for _ in range(400):
        f.update(x, x, 0.0)
    assert f.predict(x, [x])[0] >= 0.0


def test_scorer_skips_underflowed_products_whatever_their_weight():
    # a product that underflows to 0.0 is no feature, so its weight is never
    # read: an infinite one would turn the score into NaN
    f = ScorerModel()
    x = sv({3: 1e-200, 5: 0.5})
    set_weight(f, 3 + PAIR_PRODUCT_OFFSET, math.inf)
    set_weight(f, 5 + PAIR_PRODUCT_OFFSET, 0.5)
    for k in (sv({3: 1e-200, 5: 0.25}), sv({3: 1e-200, 5: 0.25, 7: 1.0})):
        assert f.predict(x, [k]) == [f.raw(pair_features(x, k))] == [0.0625]


def test_scorer_converges_toward_target():
    f = ScorerModel()
    x, k = sv({1: 1.0, 2: -0.5}), sv({1: 0.5, 3: 1.0})
    for _ in range(500):
        f.update(x, k, 1.0)
    assert abs(f.predict(x, [k])[0] - 1.0) <= 0.05


def test_euclidean_scorer_ignores_updates():
    f = ScorerModel(mode="euclidean")
    x = sv({1: 1.0})
    f.update(x, x, 1.0)
    assert not f.entries() and f.update_count == 0


def test_scorer_rejects_out_of_range_reward():
    for mode in ("learned", "euclidean"):
        f = ScorerModel(mode=mode)
        with pytest.raises(ValueError):
            f.update(X, X, 1.5)
        with pytest.raises(ValueError):
            f.update(X, X, -0.1)


def test_scorer_gradient_matches_finite_differences():
    # two updates from fresh AdaGrad state: the second step of weight i is
    # -BASE_RATE * g2 / sqrt(g1^2 + g2^2 + 1), g1 and g2 the finite-difference
    # gradients of 0.5 * (raw(phi) - r)^2 before each step
    rng = random.Random(7)
    for _ in range(100):
        f = ScorerModel()
        x = sv({rng.randrange(50): rng.uniform(-2, 2) for _ in range(rng.randrange(1, 6))})
        k = sv({rng.randrange(50): rng.uniform(-2, 2) for _ in range(rng.randrange(1, 6))})
        r = rng.random()
        phi = pair_features(x, k)
        for i in phi.indices:
            set_weight(f, i, rng.uniform(-1, 1))
        acc = dict.fromkeys(phi.indices, 1.0)
        for _ in range(2):
            start = dict(f.weights)
            grad = {}
            for i in phi.indices:
                eps = 1e-5
                set_weight(f, i, start[i] + eps)
                up = 0.5 * (f.raw(phi) - r) ** 2
                set_weight(f, i, start[i] - eps)
                down = 0.5 * (f.raw(phi) - r) ** 2
                set_weight(f, i, start[i])
                grad[i] = (up - down) / (2 * eps)
            f.update(x, k, r)
            for i, g in grad.items():
                acc[i] += g * g
                step = BASE_RATE * g / math.sqrt(acc[i])
                assert start[i] - f.weights[i] == pytest.approx(step, rel=1e-4, abs=1e-9)


def test_sigmoid_is_stable_at_extremes():
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-300)
    assert sigmoid(0.0) == 0.5


@settings(max_examples=100)
@given(
    st.lists(st.tuples(st.integers(0, 30), st.integers(-40, 40).map(lambda n: n / 4)),
             min_size=1, max_size=6),
    st.sampled_from([-1, 1]),
    st.integers(0, 16).map(lambda n: n / 4),
)
def test_router_update_sparsity(pairs, y, importance):
    x = SparseVector.from_pairs(pairs)
    g = RouterModel()
    set_weight(g, 999, 0.25)  # feature never present in x
    g.update(x, y, importance)
    assert g.weights[999] == 0.25
    assert set(g.weights) - {999} <= set(x.indices)


# -- score reuse: exact equalities with the plain definitions ------------------

# arbitrary (non-dyadic) values, so any change in summation order shows, and
# tiny ones whose pairwise products underflow to 0.0 (pair_features drops
# such a product); a narrow index range makes overlapping supports common
TINY = (1e-200, -3e-200)
value = st.floats(-4.0, 4.0) | st.sampled_from(TINY)
small_vector = st.builds(
    SparseVector.from_pairs,
    st.lists(st.tuples(st.integers(0, 8), value), max_size=6),
)


def same_support(x, key):
    """Keys with x's index set, one on x's own indices tuple and one on an
    equal copy of it, with key's values (cycled) and x's values reversed."""
    values = key.values or (1.0,)
    cycled = tuple(values[i % len(values)] for i in range(len(x)))
    return [SparseVector.trusted(x.indices, cycled),
            SparseVector.trusted(tuple(list(x.indices)), x.values[::-1])]

# a disjoint support: indices that small_vector never draws
far_vector = st.builds(
    SparseVector.from_pairs,
    st.lists(st.tuples(st.integers(100, 104), st.floats(-4.0, 4.0)), min_size=1, max_size=4),
)


@settings(max_examples=200)
@given(st.lists(st.tuples(small_vector, st.sampled_from([-1, 1]), st.floats(0.0, 4.0)),
                min_size=1, max_size=8))
def test_router_update_returns_raw_after_the_step(steps):
    fresh, given_score = RouterModel(), RouterModel()
    for x, y, importance in steps:
        a = fresh.update(x, y, importance)
        b = given_score.update(x, y, importance, given_score.raw(x))
        assert a == fresh.raw(x)
        assert b == given_score.raw(x)
        assert a == b
    assert (fresh.entries(), fresh.mistake_count) == (
        given_score.entries(), given_score.mistake_count)


def reference_pair_features(x, key):
    """pair_features written out with dot, l2_distance and norm."""
    nx, nk = x.norm(), key.norm()
    sim = 0.0 if nx == 0.0 or nk == 0.0 else dot(x, key) / (nx * nk)
    dist = l2_distance(x, key)
    pairs = [(PAIR_COSINE, sim)] if sim != 0.0 else []
    if dist != 0.0:
        pairs.append((PAIR_DISTANCE, dist / (1.0 + dist)))
    pairs.append((PAIR_BIAS, 1.0))
    for i, v in zip(x.indices, x.values):
        for j, u in zip(key.indices, key.values):
            if i == j and v * u != 0.0:
                pairs.append((i + PAIR_PRODUCT_OFFSET, v * u))
    return SparseVector(*zip(*pairs))


@settings(max_examples=200)
@given(small_vector, small_vector, far_vector)
def test_pair_features_match_the_separate_definitions(x, key, far):
    for k in [key, far, x, SparseVector()] + same_support(x, key):
        assert pair_features(x, k) == reference_pair_features(x, k)


@settings(max_examples=200)
@given(small_vector, st.lists(small_vector, max_size=5), far_vector,
       st.lists(st.tuples(small_vector, small_vector, st.floats(0.0, 1.0)), max_size=6))
def test_scorer_predict_equals_clamped_raw_pair_score(x, keys, far, updates):
    f = ScorerModel()
    for q, k, r in updates:
        f.update(q, k, r)
    # a key on x's index set, scored alone, takes predict's block pass; the
    # whole list, mixing supports, takes the per-key merge
    keys = keys + [far, x, SparseVector()] + same_support(x, far)
    expected = [max(0.0, min(1.0, f.raw(pair_features(x, k)))) for k in keys]
    assert [f.predict(x, [k])[0] for k in keys] == expected
    assert f.predict(x, keys) == expected
    assert [max(0.0, min(1.0, f.raw(reference_pair_features(x, k)))) for k in keys] == expected
    euclidean = ScorerModel(mode="euclidean")
    distances = [-l2_distance(x, k) for k in keys]
    assert [euclidean.predict(x, [k])[0] for k in keys] == distances
    assert euclidean.predict(x, keys) == distances


# -- whole-leaf predicts: one call scores every key ------------------------------------------

@settings(max_examples=200)
@given(small_vector, st.lists(st.one_of(small_vector, far_vector), max_size=5),
       st.lists(st.tuples(st.one_of(small_vector, far_vector), small_vector,
                          st.floats(0.0, 1.0)), max_size=8))
def test_leaf_predict_equals_one_predict_per_key_and_clamped_raw(x, keys, updates):
    f = ScorerModel()
    for q, k, r in updates:
        f.update(q, k, r)
    for query in (x, SparseVector()):
        leaf = keys + [x, SparseVector()] + same_support(query, updates[0][1] if updates else x)
        expected = [max(0.0, min(1.0, f.raw(pair_features(query, k)))) for k in leaf]
        assert f.predict(query, leaf) == [f.predict(query, [k])[0] for k in leaf] == expected
    assert ScorerModel(mode="euclidean").predict(x, []) == f.predict(x, []) == []


# values whose products and differences overflow to inf, beside the tiny ones
# whose products underflow to 0.0; sin(i) gives arbitrary non-dyadic values,
# which hypothesis's own floats seldom are
HUGE = (1e200, -3e200)
arbitrary = st.integers(1, 10**6).map(lambda i: 4.0 * math.sin(i))
leaf_value = arbitrary | st.floats(-4.0, 4.0).filter(lambda v: v != 0.0) | st.sampled_from(TINY + HUGE)


# up to 16 features, as many as a synth key has: from 8 terms on, a pairwise
# sum would add in another order than the per-key loops
wide_vector = st.builds(
    SparseVector.from_pairs,
    st.lists(st.tuples(st.integers(0, 19), arbitrary | value), max_size=16),
)


@st.composite
def shared_support_leaf(draw):
    """A query and a leaf of keys on its index set: either one key with 9 to
    16 features, where a pairwise sum down its single column would add in
    another order, or some keys on its indices tuple, some on an equal copy,
    the query itself and an equal copy of it."""
    one_key = draw(st.booleans())
    n = draw(st.integers(9, 16) if one_key else st.integers(0, 16))
    indices = tuple(sorted(draw(st.sets(st.integers(0, 19), min_size=n, max_size=n))))

    def vector(idx):
        return SparseVector.trusted(idx, tuple(draw(st.lists(leaf_value, min_size=n, max_size=n))))

    x = vector(indices)
    if one_key:
        return x, [vector(draw(st.sampled_from([indices, tuple(list(indices))])))]
    keys = [vector(draw(st.sampled_from([indices, tuple(list(indices))])))
            for _ in range(draw(st.integers(0, 5)))]
    keys += [x, SparseVector.trusted(tuple(list(indices)), x.values)]
    draw(st.randoms()).shuffle(keys)
    return x, keys


@settings(max_examples=300, deadline=None)
@given(shared_support_leaf(),
       st.lists(st.tuples(wide_vector, wide_vector, st.floats(0.0, 1.0)), max_size=8))
def test_shared_support_leaf_scores_equal_the_per_pair_definitions(leaf, updates):
    x, keys = leaf
    trained, fitted = ScorerModel(), ScorerModel()
    for q, k, r in updates:
        trained.update(q, k, r)
    # a small weight on every pair feature of x: scores stay inside (0, 1),
    # where the clamp keeps every bit of the sum, and every term adds
    fitted.set_entries([(PAIR_COSINE, 0.1, 0.0), (PAIR_DISTANCE, -0.1, 0.0), (PAIR_BIAS, 0.5, 0.0)]
                       + [(i + PAIR_PRODUCT_OFFSET, 0.01 * math.sin(i + 1), 0.0) for i in x.indices])
    euclidean = ScorerModel(mode="euclidean")
    empty = SparseVector()
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")  # numpy's RuntimeWarnings too
        for query, leaf_keys in ((x, keys), (empty, [empty, SparseVector.trusted((), ())])):
            shared = Leaf()  # read by every scorer in turn: each mode keeps its own block
            for f in (ScorerModel(), trained, fitted, euclidean):  # untrained: every weight None
                if f is euclidean:
                    expected = [-l2_distance(query, k) for k in leaf_keys]
                else:
                    expected = [max(0.0, min(1.0, f.raw(pair_features(query, k)))) for k in leaf_keys]
                assert f.predict(query, leaf_keys) == expected
                for cache in (Leaf(), shared):
                    assert f.predict(query, leaf_keys, cache) == expected  # fills, or hits
                    block = cache.block
                    assert block is not None
                    assert f.predict(query, list(leaf_keys), cache) == expected  # hits
                    assert cache.block is block
        assert ScorerModel().predict(x, keys) == [0.0] * len(keys)
    assert stderr.getvalue() == ""


@st.composite
def two_index_sets(draw):
    """Two index tuples, the second an equal copy of the first or another
    set, each with a leaf of keys on it."""
    def indices():
        return tuple(sorted(draw(st.sets(st.integers(0, 19), min_size=1, max_size=16))))

    first = indices()
    second = tuple(list(first)) if draw(st.booleans()) else indices()
    return [(idx, [SparseVector.trusted(idx, draw(st.lists(arbitrary | value, min_size=len(idx),
                                                           max_size=len(idx))))
                   for _ in range(draw(st.integers(1, 4)))])
            for idx in (first, second)]


kept_weight_op = st.one_of(
    st.tuples(st.just("read"), st.integers(0, 1), st.lists(arbitrary | value, min_size=16,
                                                           max_size=16)),
    st.tuples(st.just("update"), st.integers(0, 1), st.integers(0, 3), st.floats(0.0, 1.0)),
    st.tuples(st.just("set"),
              st.sampled_from([PAIR_COSINE, PAIR_DISTANCE, PAIR_BIAS])
              | st.integers(PAIR_PRODUCT_OFFSET, PAIR_PRODUCT_OFFSET + 19),
              st.sampled_from([math.inf, -math.inf, math.nan]) | st.floats(-1.0, 1.0)),
)


def bits(scores):
    return [struct.pack("<d", s) for s in scores]


@settings(max_examples=200, deadline=None)
@given(two_index_sets(), st.lists(kept_weight_op, min_size=1, max_size=20))
def test_kept_pair_weights_never_go_stale(sets, ops):
    # every weight starts missing; updates and set_weight then write finite,
    # infinite and NaN weights between reads of the two index tuples
    f = ScorerModel()
    leaves = [Leaf(), Leaf()]
    for op in ops:
        if op[0] == "read":
            _, which, values = op
            idx, keys = sets[which]
            x = SparseVector.trusted(idx, values[:len(idx)])
            expected = [max(0.0, min(1.0, f.raw(pair_features(x, k)))) for k in keys]
            assert bits(f.predict(x, keys, leaves[which])) == bits(expected)
            assert bits(f.predict(x, keys)) == bits(expected)
            kept = f._kept
            assert kept[0] == idx
            for array in kept[4:]:
                if array is not None:
                    assert not array.flags.writeable
                    with pytest.raises(ValueError):
                        array[0] = array[0]
        else:
            if op[0] == "update":
                _, which, j, r = op
                idx, keys = sets[which]
                f.update(keys[j % len(keys)], keys[-1 - j % len(keys)], r)
            else:
                _, feature, w = op
                set_weight(f, feature, w)
            assert f._kept is None


@pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan, None])
@pytest.mark.parametrize("feature", [PAIR_COSINE, PAIR_DISTANCE, PAIR_BIAS,
                                     PAIR_PRODUCT_OFFSET, PAIR_PRODUCT_OFFSET + 1])
@pytest.mark.parametrize("big", [1.0, 3e200])
def test_a_missing_or_infinite_weight_still_skips_every_zero_feature(big, feature, w):
    # the block pass adds w times a zero feature, a signed zero, only while w
    # is finite, and a missing weight's 0.0 times a product only while the
    # product is; inf or NaN times zero is NaN, so then each zero is left out
    x = SparseVector.trusted((0, 1), (big, 1e-200))
    keys = [
        SparseVector.trusted((0, 1), x.values),  # distance 0.0
        SparseVector.trusted((0, 1), (1e-200, -big)),  # cosine 0.0: the dot product cancels
        SparseVector.trusted((0, 1), (1e-200, 1e-200)),  # norm 0.0; second product underflows
        SparseVector.trusted((0, 1), (2e200, 2.0)),  # first product overflows when big does
    ]
    f = ScorerModel()
    f.set_entries([(i, 0.1 if i != feature else w, 0.0)
                   for i in (PAIR_COSINE, PAIR_DISTANCE, PAIR_BIAS,
                             PAIR_PRODUCT_OFFSET, PAIR_PRODUCT_OFFSET + 1)
                   if i != feature or w is not None])
    expected = [max(0.0, min(1.0, f.raw(pair_features(x, k)))) for k in keys]
    leaf = Leaf()
    assert f.predict(x, keys) == f.predict(x, keys, leaf) == f.predict(x, keys, leaf) == expected


def test_a_product_without_a_weight_is_left_out_even_when_it_overflows():
    # a missing weight may not count as 0.0 there: 0.0 * inf is NaN, which
    # the clamp would turn into a score of 1.0
    x = SparseVector.trusted((0, 1), (1e154, 1.0))
    keys = [SparseVector.trusted((0, 1), (2e200, 0.5)), SparseVector.trusted((0, 1), (1.0, 1.0))]
    f = ScorerModel()
    f.set_entries([(PAIR_BIAS, 0.25, 0.0), (PAIR_PRODUCT_OFFSET + 1, 0.5, 0.0)])
    expected = [max(0.0, min(1.0, f.raw(pair_features(x, k)))) for k in keys]
    assert expected == [0.5, 0.75]
    assert f.predict(x, keys) == f.predict(x, keys, Leaf()) == expected


# a weight on a cosine, distance, bias or product feature: missing, finite or not
any_weight = st.none() | st.sampled_from([math.inf, -math.inf, math.nan]) | st.floats(-1.0, 1.0)


@st.composite
def block_leaf(draw):
    """A query and one to four keys on its index set of 0 to 16 features.
    The query, or a key, may hold only tiny values, so that its norm
    underflows to 0.0 and so does a key's cosine."""
    n = draw(st.integers(0, 16))
    indices = tuple(sorted(draw(st.sets(st.integers(0, 19), min_size=n, max_size=n))))

    def vector(idx):
        strategy = st.sampled_from(TINY) if draw(st.integers(0, 3)) == 0 else leaf_value
        return SparseVector.trusted(idx, tuple(draw(st.lists(strategy, min_size=n, max_size=n))))

    x = vector(indices)
    keys = [vector(draw(st.sampled_from([indices, tuple(list(indices))])))
            for _ in range(draw(st.integers(1, 4)))]
    return x, keys


@settings(max_examples=300, deadline=None)
@given(block_leaf(), any_weight, any_weight, any_weight,
       st.lists(st.none() | st.floats(-1.0, 1.0), min_size=16, max_size=16),
       st.integers(0, 15), any_weight)
def test_the_block_pass_equals_the_per_pair_definitions_bit_for_bit(leaf, w_cos, w_dist, w_bias,
                                                                     w_prod, j, w_j):
    # at most one product weight is not finite: more would make most scores
    # NaN, which hides what the head weights do
    x, keys = leaf
    w_prod[j] = w_j
    f = ScorerModel()
    f.set_entries([(i, w, 0.0) for i, w in [(PAIR_COSINE, w_cos), (PAIR_DISTANCE, w_dist),
                                            (PAIR_BIAS, w_bias)]
                   + [(i + PAIR_PRODUCT_OFFSET, w) for i, w in zip(x.indices, w_prod)]
                   if w is not None])
    expected = [max(0.0, min(1.0, f.raw(pair_features(x, k)))) for k in keys]
    cache = Leaf()
    assert bits(f.predict(x, keys)) == bits(expected)
    assert bits(f.predict(x, keys, cache)) == bits(expected)  # builds the block
    assert bits(f.predict(x, keys, cache)) == bits(expected)  # reads it back


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 12), st.integers(1, 3), st.data())
def test_column_sums_add_each_block_row_after_row(stack, rows, columns, data):
    import numpy as np

    # big values beside small ones, so that another order of adding shows;
    # no -0.0, so the sign of a zero sum is that of the loop's
    term = arbitrary | st.sampled_from([1e16, -1e16, 3.0])
    blocks = np.array(data.draw(st.lists(term, min_size=stack * rows * columns,
                                         max_size=stack * rows * columns)),
                      dtype=float).reshape(stack, rows, columns)

    def in_order(column):
        total = 0.0
        for v in column:
            total += v
        return total

    expected = [[in_order(blocks[s, :, c].tolist()) for c in range(columns)]
                for s in range(stack)]
    assert [bits(row) for row in _column_sums(blocks).tolist()] == [bits(r) for r in expected]
    assert bits(_column_sums(blocks[0]).tolist()) == bits(expected[0])


def test_a_leafs_kept_block_and_norms_refuse_writes():
    import numpy as np

    x = sv({0: 1.0, 3: -2.0, 5: 0.5})
    keys = [sv({0: 0.5, 3: 1.0, 5: 2.0}), sv({0: -1.0, 3: 0.25, 5: 1.5}), x]
    for mode in (SCORER_LEARNED, SCORER_EUCLIDEAN):
        f, leaf = ScorerModel(mode), Leaf()
        scores = f.predict(x, keys, leaf)
        _, _, block, norms = leaf.block
        arrays = [block] if mode == SCORER_EUCLIDEAN else [block, norms]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[0]
            with pytest.raises(ValueError):
                np.multiply(array, 2.0, out=array)
        assert f.predict(x, keys, leaf) == scores


def test_mixed_support_leaf_takes_the_per_key_path():
    x = sv({1: 1.5, 2: -0.5})
    keys = [sv({1: 0.5, 2: 2.0}), sv({1: 1.0, 5: 3.0}), sv({2: 1.0}), x]
    f = ScorerModel()
    for k in keys:
        f.update(x, k, 0.75)
    expected = [max(0.0, min(1.0, f.raw(pair_features(x, k)))) for k in keys]
    leaf = Leaf()
    assert f.predict(x, keys, leaf) == expected
    assert ScorerModel(mode="euclidean").predict(x, keys, leaf) == [-l2_distance(x, k) for k in keys]
    # the per-key path builds no block, so the leaf keeps none
    assert leaf.block is None


# -- slot lists: bit-identical to the dict-backed AdaGrad they replaced ----------------------

class DictAdaGrad:
    """A router and scorer kept in two dicts, as LinearModel was before its slot lists."""

    def __init__(self):
        self.weights, self.grad_sq = {}, {}
        self.update_count = self.mistake_count = 0

    def raw(self, x):
        total = 0.0
        for i, v in zip(x.indices, x.values):
            wi = self.weights.get(i)
            if wi is not None:
                total += wi * v
        return total

    def _step(self, x, dloss_dscore):
        total = 0.0
        for i, v in zip(x.indices, x.values):
            g = dloss_dscore * v
            acc = self.grad_sq.get(i, 0.0) + g * g
            self.grad_sq[i] = acc
            wi = self.weights.get(i, 0.0) - BASE_RATE / math.sqrt(acc + 1.0) * g
            self.weights[i] = wi
            total += wi * v
        return total

    def route(self, x, y, importance):
        """RouterModel.update, whose checks the reference leaves out."""
        score = self.raw(x)
        self.update_count += 1
        if importance == 0.0:
            return score
        score = self._step(x, -importance * y * sigmoid(-y * score))
        if (score > 0.0) != (y > 0):
            self.mistake_count += 1
        return score

    def score(self, x, key, r):
        """ScorerModel.update in learned mode."""
        phi = pair_features(x, key)
        self.update_count += 1
        self._step(phi, self.raw(phi) - r)

    def pack(self):
        items = sorted(self.weights.items())
        head = struct.pack("<QQI", self.update_count, self.mistake_count, len(items))
        return head + b"".join(struct.pack("<qdd", i, w, self.grad_sq.get(i, 0.0))
                               for i, w in items)


BASE_SUPPORT = (3, 7, 11, 19)
SUPPORTS = {
    "shared": BASE_SUPPORT,
    "equal": tuple(list(BASE_SUPPORT)),  # equal to the shared tuple, another object
    "subset": (7, 19),
    "superset": (1, 3, 7, 11, 19, 40),  # the shared support and two new features
    "disjoint": (50, 60, 70, 80),  # as long as the shared support
}
nonzero = (st.floats(-4.0, 4.0) | st.sampled_from(TINY)).filter(lambda v: v != 0.0)
slot_op = st.tuples(st.sampled_from(sorted(SUPPORTS)), st.lists(nonzero, min_size=6, max_size=6),
                    st.sampled_from(["raw", "update"]), st.sampled_from([-1, 1]),
                    st.floats(0.0, 4.0))


def assert_same_model(model, ref):
    assert dict(model.weights) == ref.weights
    assert list(model.weights) == list(ref.weights)
    assert {i: g2 for i, _, g2 in model.entries()} == ref.grad_sq
    assert (model.update_count, model.mistake_count) == (ref.update_count, ref.mistake_count)
    assert _pack_model(model) == ref.pack()


@settings(max_examples=300)
@given(st.lists(slot_op, max_size=30))
def test_router_slots_match_the_dict_reference_bit_for_bit(ops):
    assert SUPPORTS["equal"] == BASE_SUPPORT and SUPPORTS["equal"] is not BASE_SUPPORT
    g, ref = RouterModel(), DictAdaGrad()
    for support, values, op, y, importance in ops:
        idx = SUPPORTS[support]
        x = SparseVector.trusted(idx, tuple(values[: len(idx)]))
        if op == "raw":
            assert g.raw(x) == ref.raw(x)
        else:
            assert g.update(x, y, importance) == ref.route(x, y, importance)
        assert g.raw(x) == ref.raw(x)
    assert_same_model(g, ref)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.one_of(small_vector, far_vector), small_vector,
                          st.floats(0.0, 1.0)), max_size=8), small_vector)
def test_scorer_slots_match_the_dict_reference_bit_for_bit(updates, probe):
    f, ref = ScorerModel(), DictAdaGrad()
    for x, key, r in updates:
        f.update(x, key, r)
        ref.score(x, key, r)
        phi = pair_features(x, key)
        assert f.raw(phi) == ref.raw(phi)
        assert f.predict(probe, [key]) == [max(0.0, min(1.0, ref.raw(pair_features(probe, key))))]
    assert_same_model(f, ref)


def test_weights_is_a_copy_that_moves_no_score():
    g, f = RouterModel(), ScorerModel()
    x, k = sv({5: 2.0, 7: 1.0}), sv({5: 1.0, 9: 0.5})
    g.update(x, 1, 1.0)
    f.update(x, k, 0.75)
    before = (g.raw(x), f.predict(x, [k, x]), g.entries(), f.entries())
    for model in (g, f):
        w = model.weights
        assert type(w) is dict
        for i in w:
            w[i] = 100.0
        w[1] = w[2] = w[9 + PAIR_PRODUCT_OFFSET] = -100.0
        w.clear()
    assert (g.raw(x), f.predict(x, [k, x]), g.entries(), f.entries()) == before


def test_set_entries_reaches_a_score_from_the_cached_slot_list():
    g = RouterModel()
    g.set_entries([(5, 0.25, 0.0), (7, -1.0, 4.0)])
    x = sv({5: 2.0, 7: 1.0})
    assert g.raw(x) == 0.5 - 1.0
    assert g._memo[0] is x.indices  # every index of x has a slot: raw cached them
    g.set_entries([(7, 3.0, 4.0)])  # an existing feature keeps its slot
    assert g.raw(x) == 0.5 + 3.0
    ref = DictAdaGrad()
    ref.weights, ref.grad_sq = {5: 0.25, 7: 3.0}, {5: 0.0, 7: 4.0}
    assert g.update(x, -1, 1.0) == ref.route(x, -1, 1.0)
    assert_same_model(g, ref)
