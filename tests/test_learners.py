import math
import random

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
    RouterModel,
    ScorerModel,
    pair_features,
    sigmoid,
)
from cmt.tree import LEFT, Internal, Leaf, PathStep, path


def sv(mapping):
    return SparseVector.from_pairs(mapping.items())


X = sv({1: 2.0})


# -- router ------------------------------------------------------------------

def test_fresh_router_scores_zero_and_routes_left():
    g = RouterModel()
    assert g.raw(X) == 0.0
    node = Internal(None, g)
    node.left, node.right = Leaf(node), Leaf(node)
    record = path(X, node)  # a tied score of 0 goes left
    assert record.steps == (PathStep(node, LEFT),)
    assert record.leaf is node.left


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
    before = (dict(g.weights), dict(g.grad_sq), g.mistake_count)
    g.update(X, -1, 0.0)
    assert (dict(g.weights), dict(g.grad_sq), g.mistake_count) == before
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
    assert f.predict(x, x) == 0.0  # maximum possible
    assert f.predict(x, k) == -l2_distance(x, k)


def test_learned_scorer_zero_init_predicts_zero():
    f = ScorerModel()
    assert f.predict(sv({1: 1.0}), sv({1: 1.0})) == 0.0


def test_scorer_one_update_strictly_increases_prediction():
    f = ScorerModel()
    x = sv({1: 1.0})
    before = f.predict(x, x)
    f.update(x, x, 1.0)
    after = f.predict(x, x)
    # hand value: three unit features (cosine, bias, product), each stepping
    # 0.1 / sqrt(2), so the raw score lands at 0.3 / sqrt(2)
    assert after > before
    assert after == pytest.approx(0.3 / math.sqrt(2.0), rel=1e-12)


def test_scorer_prediction_clamped_to_unit_interval():
    f = ScorerModel()
    x = sv({1: 5.0})
    for _ in range(200):
        f.update(x, x, 1.0)
    assert f.predict(x, x) <= 1.0
    for _ in range(400):
        f.update(x, x, 0.0)
    assert f.predict(x, x) >= 0.0


def test_scorer_skips_underflowed_products_whatever_their_weight():
    # a product that underflows to 0.0 is no feature, so its weight is never
    # read: an infinite one would turn the score into NaN
    f = ScorerModel()
    x = sv({3: 1e-200, 5: 0.5})
    f.weights[3 + PAIR_PRODUCT_OFFSET] = math.inf
    f.weights[5 + PAIR_PRODUCT_OFFSET] = 0.5
    for k in (sv({3: 1e-200, 5: 0.25}), sv({3: 1e-200, 5: 0.25, 7: 1.0})):
        assert f.predict(x, k) == f.raw(pair_features(x, k)) == 0.0625


def test_scorer_converges_toward_target():
    f = ScorerModel()
    x, k = sv({1: 1.0, 2: -0.5}), sv({1: 0.5, 3: 1.0})
    for _ in range(500):
        f.update(x, k, 1.0)
    assert abs(f.predict(x, k) - 1.0) <= 0.05


def test_euclidean_scorer_ignores_updates():
    f = ScorerModel(mode="euclidean")
    x = sv({1: 1.0})
    f.update(x, x, 1.0)
    assert not f.weights and not f.grad_sq and f.update_count == 0


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
            f.weights[i] = rng.uniform(-1, 1)
        acc = dict.fromkeys(phi.indices, 1.0)
        for _ in range(2):
            start = dict(f.weights)
            grad = {}
            for i in phi.indices:
                eps = 1e-5
                f.weights[i] = start[i] + eps
                up = 0.5 * (f.raw(phi) - r) ** 2
                f.weights[i] = start[i] - eps
                down = 0.5 * (f.raw(phi) - r) ** 2
                f.weights[i] = start[i]
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
    g.weights[999] = 0.25  # feature never present in x
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
    assert (fresh.weights, fresh.grad_sq, fresh.mistake_count) == (
        given_score.weights, given_score.grad_sq, given_score.mistake_count)


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
    # keys on x's index set take predict's zip passes, the rest the merge
    keys = keys + [far, x, SparseVector()] + same_support(x, far)
    expected = [max(0.0, min(1.0, f.raw(pair_features(x, k)))) for k in keys]
    assert [f.predict(x, k) for k in keys] == expected
    assert [max(0.0, min(1.0, f.raw(reference_pair_features(x, k)))) for k in keys] == expected
    euclidean = ScorerModel(mode="euclidean")
    assert [euclidean.predict(x, k) for k in keys] == [-l2_distance(x, k) for k in keys]


# -- prepared queries: the per-read scorer context -------------------------------------------

@settings(max_examples=200)
@given(small_vector, st.lists(st.one_of(small_vector, far_vector), max_size=5),
       st.lists(st.tuples(st.one_of(small_vector, far_vector), small_vector,
                          st.floats(0.0, 1.0)), max_size=8))
def test_prepared_predict_equals_predict_and_clamped_raw(x, keys, updates):
    f = ScorerModel()
    for q, k, r in updates:
        f.update(q, k, r)
    for query in (x, SparseVector()):
        prepared = f.prepare(query)
        for k in keys + [x, SparseVector()] + same_support(query, updates[0][1] if updates else x):
            expected = max(0.0, min(1.0, f.raw(pair_features(query, k))))
            assert f.predict(query, k, prepared) == f.predict(query, k) == expected
    assert ScorerModel(mode="euclidean").prepare(x) is None
