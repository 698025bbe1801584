"""Sparse vectors, the postings kernel, and neighborhood search against the all-pairs oracle."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from folkrec.errors import NoProfileError
from folkrec.similarity import (
    BINARY_ITEM,
    TAG_PROFILE,
    Postings,
    SparseVector,
    best_first,
    build_user_vectors,
    item_tag_vectors,
    item_tagger_vectors,
    summed_item_cosines,
)

from conftest import folksonomy_from_rows, random_folksonomy
from oracles import o_binary_items, o_cosine, o_item_taggers, o_neighbors, o_tag_counts

finite_weights = st.dictionaries(
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    max_size=12,
)

integer_vectors = st.dictionaries(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=40).map(float),
    max_size=8,
)

# weights of 1e-170 square to 0.0: alone they make a zero-norm profile, and a
# neighbour sharing only such dimensions with the target has a dot, and so a
# similarity, of 0.0
underflowing_weights = st.dictionaries(st.integers(min_value=0, max_value=12), st.just(1e-170), min_size=1, max_size=4)

# integer or float weights, or underflowing ones, alone (norm 0.0) or among finite ones
any_weights = st.one_of(
    integer_vectors,
    finite_weights,
    underflowing_weights,
    st.tuples(st.one_of(integer_vectors, finite_weights), underflowing_weights).map(lambda p: {**p[0], **p[1]}),
)


def ref_cosine(a, b):
    """The oracle's cosine of two SparseVectors: fsum dot, fsum norms, clamp."""
    return o_cosine(dict(a.items()), dict(b.items()))


def kernel_cosine(a, b):
    """The library's cosine of two vectors: one candidate against one owned item."""
    return summed_item_cosines({0: a, 1: b}, [1], [0])[0]


def test_sparse_vector_basics():
    v = SparseVector({3: 2.0, 1: 1.0})
    assert v.ids == (1, 3)
    assert dict(v.items()) == {1: 1.0, 3: 2.0}
    assert len(v) == 2
    assert math.isclose(v.norm, math.sqrt(5.0), rel_tol=1e-12)
    assert v.integral
    assert not SparseVector({1: 1.0, 2: 0.5}).integral
    assert SparseVector({}).integral


def test_sparse_vector_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        SparseVector({1: 0.0})
    with pytest.raises(ValueError):
        SparseVector({1: -2.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_sparse_vector_rejects_non_finite_and_nonpositive_weights(bad):
    # nan fails every comparison, so a `w <= 0.0` check would let it through
    with pytest.raises(ValueError):
        SparseVector({1: 2.0, 3: bad})


@given(finite_weights)
def test_cached_norm_matches_recomputation(weights):
    v = SparseVector(weights)
    recomputed = math.sqrt(sum(w * w for w in v.weights))
    assert v.norm == pytest.approx(recomputed, rel=1e-9)


def test_binary_item_vector_examples(small_folksonomy):
    f = small_folksonomy
    dave = f.vocab.users.id_of("dave")
    v = build_user_vectors(f, BINARY_ITEM)[dave]
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
    v = build_user_vectors(f, TAG_PROFILE)[u]
    web, java = f.vocab.tags.id_of("web"), f.vocab.tags.id_of("java")
    assert dict(v.items()) == {web: 3.0, java: 1.0}


def test_unknown_profile_kind_raises(small_folksonomy):
    with pytest.raises(ValueError, match="unknown profile kind"):
        build_user_vectors(small_folksonomy, "tags")


def test_item_tagger_vector(small_folksonomy):
    f = small_folksonomy
    r1 = f.vocab.items.id_of("r1")
    v = item_tagger_vectors(f)[r1]
    assert set(v.ids) == {f.vocab.users.id_of("alice"), f.vocab.users.id_of("bob")}
    assert set(v.weights) == {1.0}


def test_cosine_identical_vectors_is_one():
    v = SparseVector({1: 2.0, 5: 3.0})
    assert kernel_cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_disjoint_supports_is_zero():
    assert kernel_cosine(SparseVector({1: 1.0}), SparseVector({2: 1.0})) == 0.0


def test_cosine_handles_empty():
    assert kernel_cosine(SparseVector({}), SparseVector({1: 1.0})) == 0.0
    assert kernel_cosine(SparseVector({1: 1.0}), SparseVector({})) == 0.0


def test_cosine_hand_example():
    a = SparseVector({1: 1.0, 2: 1.0})
    b = SparseVector({1: 1.0, 3: 1.0})
    assert kernel_cosine(a, b) == pytest.approx(0.5, abs=1e-12)


@given(finite_weights, finite_weights)
def test_cosine_symmetry_and_range(wa, wb):
    a, b = SparseVector(wa), SparseVector(wb)
    assert kernel_cosine(a, b) == pytest.approx(kernel_cosine(b, a), abs=1e-12)
    assert 0.0 <= kernel_cosine(a, b) <= 1.0


@given(finite_weights, finite_weights, st.floats(min_value=1e-3, max_value=1e3))
def test_cosine_scale_invariance(wa, wb, c):
    a, b = SparseVector(wa), SparseVector(wb)
    scaled = SparseVector({i: c * w for i, w in wa.items()})
    assert kernel_cosine(scaled, b) == pytest.approx(kernel_cosine(a, b), abs=1e-12)


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
    hood = Postings(build_user_vectors(f, BINARY_ITEM)).top_k(f.vocab.users.id_of("u1"), k=5)
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
    hood = Postings(build_user_vectors(f, BINARY_ITEM)).top_k(f.vocab.users.id_of("u1"), k=10)
    labels = {f.vocab.users.label_of(u) for u, _ in hood}
    assert labels == {"u2"}


def test_top_k_raises_for_missing_profile(small_folksonomy):
    index = Postings(build_user_vectors(small_folksonomy, BINARY_ITEM))
    with pytest.raises(NoProfileError):
        index.top_k(999, 5)
    # k is an integer >= 1, and a bool is not one (True served one neighbour)
    for k in (0, 2.5, True, "3"):
        with pytest.raises(ValueError):
            index.top_k(0, k)
    # 1e-200 squared underflows: a norm of 0.0 gives no cosine either way
    tiny = Postings({1: SparseVector({5: 1e-200}), 2: SparseVector({5: 1.0})})
    with pytest.raises(NoProfileError):
        tiny.top_k(1, 5)
    assert tiny.top_k(2, 5) == ()


def test_tie_break_by_user_id():
    rows = [
        ("anna", "a", "t", 1),
        ("bob", "a", "t", 2),
        ("carl", "a", "t", 3),
    ]
    f = folksonomy_from_rows(rows)
    hood = Postings(build_user_vectors(f, BINARY_ITEM)).top_k(f.vocab.users.id_of("anna"), k=2)
    ids = [u for u, _ in hood]
    assert ids == sorted(ids)
    sims = [s for _, s in hood]
    assert sims == [1.0, 1.0]


@pytest.mark.parametrize("kind,oracle_profile", [(BINARY_ITEM, o_binary_items), (TAG_PROFILE, o_tag_counts)])
def test_index_matches_all_pairs_oracle(kind, oracle_profile):
    for seed in range(6):
        f = random_folksonomy(seed, n_users=25, n_items=30, n_tags=10, n_posts=120)
        vectors = {u: oracle_profile(f, u) for u in f.users()}
        index = Postings(build_user_vectors(f, kind))
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
    plain = Postings(base).top_k(target, 10)
    boosted = Postings(scaled).top_k(target, 10)
    assert [u for u, _ in plain] == [u for u, _ in boosted]
    for (_, a), (_, b) in zip(plain, boosted):
        assert a == pytest.approx(b, abs=1e-12)


def test_oracle_cosine_agrees_with_real_cosine():
    # exact: the oracle's fsum dot and fsum norms are what the kernel computes
    rng = random.Random(0)
    for _ in range(200):
        wa = {rng.randrange(20): rng.uniform(0.1, 5) for _ in range(rng.randrange(1, 8))}
        wb = {rng.randrange(20): rng.uniform(0.1, 5) for _ in range(rng.randrange(1, 8))}
        assert kernel_cosine(SparseVector(wa), SparseVector(wb)) == o_cosine(wa, wb)
        wa = {i: float(round(w)) + 1.0 for i, w in wa.items()}
        assert kernel_cosine(SparseVector(wa), SparseVector(wb)) == o_cosine(wa, wb)


def test_item_tagger_oracle_agreement(small_folksonomy):
    f = small_folksonomy
    vectors = item_tagger_vectors(f)
    assert sorted(vectors) == sorted(f.items())
    for item in f.items():
        assert dict(vectors[item].items()) == o_item_taggers(f, item)


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


@given(st.lists(st.one_of(integer_vectors, finite_weights), max_size=8), st.one_of(integer_vectors, finite_weights))
def test_dot_equals_binary_search_reference(indexed, query):
    # integer-only draws take the exact-integer path, any float weight the fsum path
    vectors = [SparseVector(w) for w in indexed]
    q = SparseVector(query)
    dots = Postings(dict(enumerate(vectors))).dots(q)
    assert sorted(dots) == [j for j, v in enumerate(vectors) if set(v.ids) & set(q.ids)]
    for j, dot in dots.items():
        assert dot == binary_search_dot(q, vectors[j])
        assert dot == binary_search_dot(vectors[j], q)


@given(st.lists(any_weights, max_size=8), any_weights)
def test_cosines_equal_reference_cosine(indexed, query):
    # the query is indexed too, so a self-cosine that rounds above 1 meets the
    # clamp; a vector of norm 0.0 on either side gets no cosine, which is the
    # oracle's 0
    vectors = [SparseVector(w) for w in indexed + [query]]
    q = SparseVector(query)
    cosines = Postings(dict(enumerate(vectors))).cosines(q)
    assert sorted(cosines) == [j for j, v in enumerate(vectors) if q.norm and v.norm and set(v.ids) & set(q.ids)]
    for j, cosine in cosines.items():
        assert cosine == ref_cosine(q, vectors[j])
    for j, v in enumerate(vectors):
        assert cosines.get(j, 0.0) == ref_cosine(q, v)


def test_postings_norms_and_integer_path():
    a, b = SparseVector({1: 3.0, 2: 4.0}), SparseVector({2: 2.0, 7: 1.0})
    index = Postings({10: a, 20: b})
    assert index.norms == {10: 5.0, 20: math.sqrt(5.0)}
    assert index.dots(SparseVector({2: 1.0, 9: 5.0})) == {10: 4.0, 20: 2.0}
    assert index.dots(SparseVector({2: 0.5})) == {10: 2.0, 20: 1.0}
    assert index.dots(SparseVector({5: 1.0})) == {}
    # integer weights whose dot needs every bit of 2**53: still exact
    big = float(2**26)
    index = Postings({0: SparseVector({1: big, 2: big, 3: 1.0})})
    assert index.dots(SparseVector({1: big, 2: big - 1.0, 3: 1.0})) == {0: float(2**53 - 2**26 + 1)}


scored_pairs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.one_of(
            st.sampled_from([0.0, 1.0, 0.5]),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
        ),
    ),
    max_size=40,
    unique_by=lambda pair: pair[0],
)


@given(scored_pairs, st.integers(min_value=0, max_value=45))
def test_best_first_equals_key_sort(pairs, k):
    # ids are distinct, as every caller's are; scores repeat often
    expected = sorted(pairs, key=lambda e: (-e[1], e[0]))
    assert best_first(pairs) == expected
    assert best_first(iter(pairs), k) == expected[:k]


def sort_everything_top_k(vectors, user, k):
    """Cosine to every other user, positive ones sorted by (-sim, user), cut to k."""
    sims = ((other, min(1.0, ref_cosine(vectors[user], vectors[other]))) for other in vectors if other != user)
    return tuple(sorted(((o, s) for o, s in sims if s > 0.0), key=lambda e: (-e[1], e[0]))[:k])


@st.composite
def user_profiles(draw):
    """Integer or float profiles; users draw from a small pool, so equal vectors (ties) are common.

    A pool entry may also carry underflowing weights on some dimensions.
    """
    weights = draw(st.sampled_from([integer_vectors, finite_weights]))
    entry = st.one_of(weights, st.tuples(weights, underflowing_weights).map(lambda p: {**p[0], **p[1]}))
    pool = draw(st.lists(entry, min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=12))
    return {user: SparseVector(pool[p]) for user, p in enumerate(rows)}


@given(user_profiles(), st.integers(min_value=1, max_value=6), st.data())
def test_top_k_equals_sort_everything_reference(vectors, k, data):
    user = data.draw(st.sampled_from(sorted(vectors)))
    index = Postings(vectors)
    if not vectors[user].norm:
        with pytest.raises(NoProfileError):
            index.top_k(user, k)
        return
    assert index.top_k(user, k) == sort_everything_top_k(vectors, user, k)


@given(
    st.lists(any_weights, min_size=1, max_size=10),
    st.lists(st.integers(min_value=0, max_value=9), max_size=6, unique=True),
    st.lists(st.integers(min_value=0, max_value=9), max_size=6, unique=True),
)
def test_summed_item_cosines_equal_fsum_of_cosines(weights, owned, candidates):
    # items n..2n-1 are binary copies of items 0..n-1, so equal supports come
    # up; item 2n overlaps no other item and item 2n+1 is empty; an item of
    # norm 0.0, owned or candidate, adds the oracle's cosine of 0
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
        assert got[c] == math.fsum(ref_cosine(vectors[c], vectors[j]) for j in owned)


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
