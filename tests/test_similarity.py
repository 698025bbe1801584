"""Sparse vectors, cosine, and neighborhood search against the all-pairs oracle."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from folkrec.errors import NoProfileError
from folkrec.similarity import (
    BINARY_ITEM,
    TAG_PROFILE,
    SparseVector,
    UserIndex,
    binary_item_vector,
    build_user_vectors,
    cosine,
    item_tag_vectors,
    item_tagger_vector,
    item_tagger_vectors,
    overlapping_pair_cosines,
    summed_item_cosines,
    tag_profile_vector,
)

from conftest import folksonomy_from_rows, random_folksonomy
from oracles import o_binary_items, o_cosine, o_item_taggers, o_neighbors, o_tag_counts

finite_weights = st.dictionaries(
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    max_size=12,
)


def test_sparse_vector_basics():
    v = SparseVector({3: 2.0, 1: 1.0})
    assert v.ids == (1, 3)
    assert v.get(3) == 2.0
    assert v.get(2) == 0.0
    assert math.isclose(v.norm, math.sqrt(5.0), rel_tol=1e-12)


def test_sparse_vector_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        SparseVector({1: 0.0})
    with pytest.raises(ValueError):
        SparseVector({1: -2.0})


@given(finite_weights)
def test_cached_norm_matches_recomputation(weights):
    v = SparseVector(weights)
    recomputed = math.sqrt(sum(w * w for w in v.weights))
    assert v.norm == pytest.approx(recomputed, rel=1e-9)


def test_binary_item_vector_examples(small_folksonomy):
    f = small_folksonomy
    dave = f.vocab.users.id_of("dave")
    v = binary_item_vector(f, dave)
    assert set(v.ids) == set(f.items_of_user(dave))
    assert set(v.weights) == {1.0}
    assert v.norm == pytest.approx(math.sqrt(2))


def test_tag_profile_vector_counts():
    f = folksonomy_from_rows(
        [
            ("u", "r1", "web", 1),
            ("u", "r2", "web", 2),
            ("u", "r3", "web", 3),
            ("u", "r4", "java", 4),
        ]
    )
    u = f.vocab.users.id_of("u")
    v = tag_profile_vector(f, u)
    web, java = f.vocab.tags.id_of("web"), f.vocab.tags.id_of("java")
    assert v.get(web) == 3.0
    assert v.get(java) == 1.0


def test_item_tagger_vector(small_folksonomy):
    f = small_folksonomy
    r1 = f.vocab.items.id_of("r1")
    v = item_tagger_vector(f, r1)
    assert set(v.ids) == {f.vocab.users.id_of("alice"), f.vocab.users.id_of("bob")}
    assert set(v.weights) == {1.0}


def test_cosine_identical_vectors_is_one():
    v = SparseVector({1: 2.0, 5: 3.0})
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_disjoint_supports_is_zero():
    assert cosine(SparseVector({1: 1.0}), SparseVector({2: 1.0})) == 0.0


def test_cosine_handles_empty():
    assert cosine(SparseVector({}), SparseVector({1: 1.0})) == 0.0


def test_cosine_hand_example():
    a = SparseVector({1: 1.0, 2: 1.0})
    b = SparseVector({1: 1.0, 3: 1.0})
    assert cosine(a, b) == pytest.approx(0.5, abs=1e-12)


@given(finite_weights, finite_weights)
def test_cosine_symmetry_and_range(wa, wb):
    a, b = SparseVector(wa), SparseVector(wb)
    assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-12)
    assert 0.0 <= cosine(a, b) <= 1.0


@given(finite_weights, finite_weights, st.floats(min_value=1e-3, max_value=1e3))
def test_cosine_scale_invariance(wa, wb, c):
    a, b = SparseVector(wa), SparseVector(wb)
    scaled = SparseVector({i: c * w for i, w in wa.items()})
    assert cosine(scaled, b) == pytest.approx(cosine(a, b), abs=1e-12)


def test_top_k_shared_items_ordering():
    # u2 shares two items with u1, u3 shares one: u2 must come first
    rows = [
        ("u1", "a", "t", 1),
        ("u1", "b", "t", 2),
        ("u1", "c", "t", 3),
        ("u2", "a", "t", 4),
        ("u2", "b", "t", 5),
        ("u3", "a", "t", 6),
        ("u3", "x", "t", 7),
        ("u3", "y", "t", 8),
    ]
    f = folksonomy_from_rows(rows)
    hood = UserIndex(build_user_vectors(f, BINARY_ITEM)).top_k(f.vocab.users.id_of("u1"), k=5)
    labels = [f.vocab.users.label_of(u) for u, _ in hood]
    assert labels == ["u2", "u3"]


def test_top_k_excludes_zero_similarity_users():
    rows = [
        ("u1", "a", "t", 1),
        ("u2", "a", "t", 2),
        ("u3", "zzz", "t", 3),
        ("u4", "zzz", "t", 4),
    ]
    f = folksonomy_from_rows(rows)
    hood = UserIndex(build_user_vectors(f, BINARY_ITEM)).top_k(f.vocab.users.id_of("u1"), k=10)
    labels = {f.vocab.users.label_of(u) for u, _ in hood}
    assert labels == {"u2"}


def test_top_k_raises_for_missing_profile(small_folksonomy):
    index = UserIndex(build_user_vectors(small_folksonomy, BINARY_ITEM))
    with pytest.raises(NoProfileError):
        index.top_k(999, 5)
    with pytest.raises(ValueError):
        index.top_k(0, 0)


def test_tie_break_by_user_id():
    rows = [
        ("anna", "a", "t", 1),
        ("bob", "a", "t", 2),
        ("carl", "a", "t", 3),
    ]
    f = folksonomy_from_rows(rows)
    hood = UserIndex(build_user_vectors(f, BINARY_ITEM)).top_k(f.vocab.users.id_of("anna"), k=2)
    ids = [u for u, _ in hood]
    assert ids == sorted(ids)
    sims = [s for _, s in hood]
    assert sims == [1.0, 1.0]


@pytest.mark.parametrize("kind,oracle_profile", [(BINARY_ITEM, o_binary_items), (TAG_PROFILE, o_tag_counts)])
def test_index_matches_all_pairs_oracle(kind, oracle_profile):
    for seed in range(6):
        f = random_folksonomy(seed, n_users=25, n_items=30, n_tags=10, n_posts=120)
        vectors = {u: oracle_profile(f, u) for u in f.users()}
        index = UserIndex(build_user_vectors(f, kind))
        for user in f.users():
            expected = o_neighbors(vectors, user, 7)
            if not vectors[user]:
                with pytest.raises(NoProfileError):
                    index.top_k(user, 7)
                continue
            got = index.top_k(user, 7)
            assert [u for u, _ in got] == [u for u, _ in expected]
            for (_, gs), (_, es) in zip(got, expected):
                assert gs == pytest.approx(es, abs=1e-12)


def test_ranking_invariant_under_positive_scaling():
    f = random_folksonomy(2, n_users=15, n_items=20, n_posts=60)
    base = build_user_vectors(f, TAG_PROFILE)
    target = sorted(base)[0]
    scaled = dict(base)
    scaled[target] = SparseVector({i: 37.5 * w for i, w in base[target].items()})
    plain = UserIndex(base).top_k(target, 10)
    boosted = UserIndex(scaled).top_k(target, 10)
    assert [u for u, _ in plain] == [u for u, _ in boosted]
    for (_, a), (_, b) in zip(plain, boosted):
        assert a == pytest.approx(b, abs=1e-12)


def test_oracle_cosine_agrees_with_real_cosine():
    rng = random.Random(0)
    for _ in range(200):
        wa = {rng.randrange(20): rng.uniform(0.1, 5) for _ in range(rng.randrange(1, 8))}
        wb = {rng.randrange(20): rng.uniform(0.1, 5) for _ in range(rng.randrange(1, 8))}
        assert cosine(SparseVector(wa), SparseVector(wb)) == pytest.approx(o_cosine(wa, wb), abs=1e-12)


def test_item_tagger_oracle_agreement(small_folksonomy):
    f = small_folksonomy
    for item in f.items():
        v = item_tagger_vector(f, item)
        assert dict(v.items()) == o_item_taggers(f, item)


def binary_search_dot(a, b):
    """Reference dot product: each id of the shorter vector binary-searched in the longer one."""
    if len(a) > len(b):
        a, b = b, a
    terms = []
    for ident, w in a.items():
        lo, hi = 0, len(b.ids)
        while lo < hi:
            mid = (lo + hi) // 2
            if b.ids[mid] < ident:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(b.ids) and b.ids[lo] == ident:
            terms.append(w * b.weights[lo])
    return math.fsum(terms)


@given(finite_weights, finite_weights)
def test_dot_equals_binary_search_reference(wa, wb):
    a, b = SparseVector(wa), SparseVector(wb)
    assert a.dot(b) == binary_search_dot(a, b)
    assert b.dot(a) == binary_search_dot(a, b)


integer_vectors = st.dictionaries(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=40).map(float),
    max_size=8,
)


@given(
    st.lists(integer_vectors, min_size=1, max_size=10),
    st.lists(st.integers(min_value=0, max_value=9), max_size=6, unique=True),
    st.lists(st.integers(min_value=0, max_value=9), max_size=6, unique=True),
)
def test_summed_item_cosines_equal_fsum_of_cosines(weights, owned, candidates):
    # items n..2n-1 are binary copies of items 0..n-1, so equal supports come
    # up; item 2n overlaps no other item and item 2n+1 is empty
    n = len(weights)
    vectors = {i: SparseVector(w) for i, w in enumerate(weights)}
    vectors.update({n + i: SparseVector({d: 1.0 for d in w}) for i, w in enumerate(weights)})
    vectors[2 * n] = SparseVector({99: 3.0})
    vectors[2 * n + 1] = SparseVector({})
    ids = sorted(vectors)
    owned = sorted({ids[j % len(ids)] for j in owned})
    candidates = sorted({ids[c % len(ids)] for c in candidates} | {n, 2 * n, 2 * n + 1})
    got = summed_item_cosines(vectors, owned, candidates)
    assert list(got) == candidates
    for c in candidates:
        assert got[c] == math.fsum(cosine(vectors[c], vectors[j]) for j in owned)


@given(st.lists(st.one_of(st.none(), integer_vectors), max_size=12))
def test_overlapping_pair_cosines_are_the_cosines_of_pairs_sharing_a_dimension(weights):
    # None stands for an item without a vector; binary copies of the first
    # vector give equal supports
    vectors = [None if w is None else SparseVector(w) for w in weights]
    vectors += [SparseVector({d: 1.0 for d in w}) for w in weights[:1] if w is not None]
    expected = [
        cosine(vectors[a], vectors[b])
        for b in range(len(vectors))
        for a in range(b)
        if vectors[a] is not None and vectors[b] is not None and set(vectors[a].ids) & set(vectors[b].ids)
    ]
    assert sorted(overlapping_pair_cosines(vectors)) == sorted(expected)


def test_summed_item_cosines_clamp_identical_tagger_sets():
    # sqrt(3) * sqrt(3) < 3, so equal 3-user columns have an unclamped cosine above 1
    vectors = {i: SparseVector({u: 1.0 for u in range(3)}) for i in range(3)}
    assert 3.0 / (vectors[0].norm * vectors[1].norm) > 1.0
    assert summed_item_cosines(vectors, [0, 1], [2]) == {2: 2.0}


def test_item_vectors_are_built_once_per_folksonomy(small_folksonomy):
    f = small_folksonomy
    assert item_tagger_vectors(f) is item_tagger_vectors(f)
    copy = folksonomy_from_rows(
        (f.vocab.users.label_of(p.user), f.vocab.items.label_of(p.item), f.vocab.tags.label_of(t), ts)
        for p in f.posts
        for t, ts in p.tag_times
    )
    assert item_tag_vectors(copy) is not item_tag_vectors(f)
    with pytest.raises(TypeError):
        item_tag_vectors(f)[f.items()[0]] = SparseVector({})
