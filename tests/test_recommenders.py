"""The six algorithms against brute-force oracles and targeted fixtures."""

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkrec.errors import ConfigError
from folkrec.ingest import DatasetSpec, run_pipeline
from folkrec.recommenders import (
    ALGORITHMS,
    K_MAX,
    Cirtt,
    ExpDecayCF,
    LinearDecayTagCF,
    MostPopular,
    RecommenderConfig,
    UserBasedCF,
    build_recommender,
)
from folkrec.split import chronological_split, reference_times

from conftest import folksonomy_from_rows, random_folksonomy
from oracles import o_cf, o_cirtt, o_huang, o_mp, o_zheng

MINI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "mini.tsv")


def test_config_validation():
    with pytest.raises(ConfigError):
        RecommenderConfig("nonsense")
    with pytest.raises(ConfigError):
        RecommenderConfig("MP", k=0)
    with pytest.raises(ConfigError):
        RecommenderConfig("Z", t0_seconds=0.0)
    with pytest.raises(ConfigError):
        RecommenderConfig("H", floor=-0.1)
    assert set(ALGORITHMS) == {"MP", "CF_B", "CF_T", "Z", "H", "CIRTT"}


def test_mp_counts_and_exclusion():
    rows = [
        ("a", "i1", "t", 1),
        ("b", "i1", "t", 2),
        ("a", "i2", "t", 3),
        ("b", "i2", "t", 4),
        ("c", "i2", "t", 5),
        ("d", "i3", "t", 6),
    ]
    f = folksonomy_from_rows(rows)
    mp = MostPopular(f, reference_times(f), RecommenderConfig("MP"))
    d = f.vocab.users.id_of("d")
    got = [(f.vocab.items.label_of(i), s) for i, s in mp.recommend(d).entries]
    assert got == [("i2", 3.0), ("i1", 2.0)]
    # the most popular item is hidden from a user who owns it
    c = f.vocab.users.id_of("c")
    labels = [f.vocab.items.label_of(i) for i, _ in mp.recommend(c).entries]
    assert "i2" not in labels


def test_mp_ties_break_by_item_id():
    rows = [("a", "x", "t", 1), ("b", "x", "t", 2), ("a", "y", "t", 3), ("b", "y", "t", 4), ("z", "q", "t", 5)]
    f = folksonomy_from_rows(rows)
    z = f.vocab.users.id_of("z")
    entries = MostPopular(f, reference_times(f), RecommenderConfig("MP")).recommend(z).entries
    ids = [i for i, s in entries if s == 2.0]
    assert ids == sorted(ids)


def test_cf_additive_scoring_beats_single_strong_neighbor():
    # i_pair is held by two medium-similarity neighbors, i_solo by one
    # stronger neighbor; the sum wins
    rows = [
        ("u", "a", "t", 1), ("u", "b", "t", 2), ("u", "c", "t", 3), ("u", "d", "t", 4),
        # strong neighbor: shares 3 of 4 items, holds i_solo
        ("s", "a", "t", 5), ("s", "b", "t", 6), ("s", "c", "t", 7), ("s", "i_solo", "t", 8),
        # two medium neighbors, each sharing 2, both hold i_pair
        ("m1", "a", "t", 9), ("m1", "b", "t", 10), ("m1", "i_pair", "t", 11),
        ("m2", "c", "t", 12), ("m2", "d", "t", 13), ("m2", "i_pair", "t", 14),
    ]
    f = folksonomy_from_rows(rows)
    cf = UserBasedCF(f, reference_times(f), RecommenderConfig("CF_B"))
    u = f.vocab.users.id_of("u")
    entries = {f.vocab.items.label_of(i): s for i, s in cf.recommend(u).entries}
    sim_strong = 3 / math.sqrt(4 * 4)
    sim_medium = 2 / math.sqrt(4 * 3)
    assert entries["i_solo"] == pytest.approx(sim_strong, abs=1e-12)
    assert entries["i_pair"] == pytest.approx(2 * sim_medium, abs=1e-12)
    assert entries["i_pair"] > entries["i_solo"]


def test_cf_b_and_cf_t_diverge_on_shared_tags_without_shared_items():
    # u and v share vocabulary but no items: only CF_T finds the neighbor
    rows = [
        ("u", "i1", "web", 1),
        ("u", "i2", "css", 2),
        ("v", "i3", "web", 3),
        ("v", "i4", "css", 4),
        ("w", "i1", "other", 5),
        ("w", "i5", "other", 6),
    ]
    f = folksonomy_from_rows(rows)
    u = f.vocab.users.id_of("u")
    cf_b = UserBasedCF(f, reference_times(f), RecommenderConfig("CF_B")).recommend(u)
    cf_t = UserBasedCF(f, reference_times(f), RecommenderConfig("CF_T")).recommend(u)
    b_items = {f.vocab.items.label_of(i) for i, _ in cf_b.entries}
    t_items = {f.vocab.items.label_of(i) for i, _ in cf_t.entries}
    assert "i3" in t_items and "i4" in t_items
    assert not ({"i3", "i4"} & b_items)
    assert b_items == {"i5"}  # via w, the only item-overlap neighbor


def test_cirtt_candidates_equal_cf_b_candidates():
    for seed in range(5):
        f = random_folksonomy(seed, n_users=20, n_items=25, n_posts=90)
        t_ref = reference_times(f)
        config = RecommenderConfig("CIRTT", k=5)
        cirtt = Cirtt(f, t_ref, config)
        cf = UserBasedCF(f, t_ref, RecommenderConfig("CF_B", k=5))
        for u in f.users():
            _, a = cirtt.candidates(u)
            _, b = cf.candidates(u)
            assert set(a) == set(b)


def test_cirtt_zero_overlap_candidates_rank_below_positive():
    # candidate i_cold carries only tags u never used -> activation 0
    rows = [
        ("u", "a", "web", 10), ("u", "b", "web", 20),
        ("n1", "a", "web", 11), ("n1", "i_warm", "web", 12),
        ("n2", "b", "web", 21), ("n2", "i_cold", "weird", 22),
    ]
    f = folksonomy_from_rows(rows)
    u = f.vocab.users.id_of("u")
    ranked = Cirtt(f, reference_times(f), RecommenderConfig("CIRTT", k=5)).recommend(u)
    labels = [f.vocab.items.label_of(i) for i, _ in ranked.entries]
    scores = dict(zip(labels, (s for _, s in ranked.entries)))
    assert labels.index("i_warm") < labels.index("i_cold")
    assert scores["i_cold"] == 0.0
    assert scores["i_warm"] > 0.0


def test_cirtt_equal_sim_orders_by_activation():
    # two candidates with symmetric tagger structure, different tag overlap
    rows = [
        ("u", "a", "fresh", 95), ("u", "b", "stale", 30),
        ("n1", "a", "x", 40), ("n1", "c1", "fresh", 41),
        ("n2", "b", "x", 50), ("n2", "c2", "stale", 51),
    ]
    f = folksonomy_from_rows(rows)
    u = f.vocab.users.id_of("u")
    ranked = Cirtt(f, reference_times(f), RecommenderConfig("CIRTT", k=5)).recommend(u)
    by_label = {f.vocab.items.label_of(i): s for i, s in ranked.entries}
    # both candidates have one tagger who shares one item with u -> equal sim;
    # "fresh" was used at t=95 (recency 1), "stale" at t=30 -> c1 wins
    assert by_label["c1"] > by_label["c2"]


def test_zheng_decay_ratio_closed_form():
    t0 = 1000.0
    rows = [
        ("u", "a", "t", 10_000), ("u", "b", "t", 10_000 - int(t0)),
        ("v", "a", "t", 9_000), ("v", "c", "t", 9_500),
    ]
    f = folksonomy_from_rows(rows)
    t_ref = reference_times(f)
    z = ExpDecayCF(f, t_ref, RecommenderConfig("Z", t0_seconds=t0))
    u = f.vocab.users.id_of("u")
    a = f.vocab.items.id_of("a")
    b = f.vocab.items.id_of("b")
    w = z._weights[u]
    assert w[b] / w[a] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_zheng_huge_t0_matches_tag_count_weighted_cf():
    # the limit statement only holds where the exact-limit scores have no
    # ties: the residual decay at T0=1e15 resolves ties on its own
    from oracles import o_neighbors, _candidates, _top_n

    checked = 0
    for seed in (3, 4, 5):
        f = random_folksonomy(seed, n_users=18, n_items=20, n_posts=70)
        t_ref = reference_times(f)
        z = ExpDecayCF(f, t_ref, RecommenderConfig("Z", t0_seconds=1e15, k=6))
        rows = {
            v: {p.item: float(len(p.tag_times)) for p in f.posts_of_user(v)}
            for v in f.users()
        }
        for u in f.users():
            all_sims = sorted(s for _, s in o_neighbors(rows, u, len(rows)))
            if any(b - a < 1e-9 for a, b in zip(all_sims, all_sims[1:])):
                continue  # a near-tie at the k boundary can flip the candidate set
            neighbors = o_neighbors(rows, u, 6)
            scored = [
                (item, math.fsum(sim * rows[v][item] for v, sim in pairs))
                for item, pairs in _candidates(f, u, neighbors).items()
            ]
            values = sorted(s for _, s in scored)
            if any(b - a < 1e-9 for a, b in zip(values, values[1:])):
                continue
            got = [i for i, _ in z.recommend(u, 20).entries]
            expected = [i for i, _ in _top_n(scored, 20)]
            assert got == expected
            checked += 1
    assert checked >= 10  # enough tie-free users to make the check meaningful


def test_zheng_underflowing_decay_matches_oracle():
    # at t0 = 1 s every post older than ~745 s decays to exactly 0.0
    folksonomy, _ = run_pipeline(DatasetSpec(path=MINI))
    split = chronological_split(folksonomy, 0.2)
    config = RecommenderConfig("Z", k=20, t0_seconds=1.0)
    z = build_recommender(split.train, split.t_ref, config)
    assert any(w == 0.0 for row in z._weights.values() for w in row.values())
    for u in split.train.users():
        got = z.recommend(u, 20).entries
        expected = o_zheng(split.train, split.t_ref, u, 20, 20, 1.0)
        assert [i for i, _ in got] == [i for i, _ in expected], u
        for (_, gs), (_, es) in zip(got, expected):
            assert gs == pytest.approx(es, abs=1e-9)


def test_huang_weight_endpoints():
    rows = [
        ("u", "a", "first", 100),
        ("u", "b", "mid", 550),
        ("u", "c", "last", 1000),
    ]
    f = folksonomy_from_rows(rows)
    u = f.vocab.users.id_of("u")
    profile = LinearDecayTagCF._weighted_tag_profile(f, u, reference=1001, floor=0.0)
    by_label = {f.vocab.tags.label_of(t): w for t, w in profile.items()}
    assert "first" not in by_label  # weight 0 at the window start is dropped
    assert by_label["last"] == pytest.approx(1.0, abs=1e-12)
    assert by_label["mid"] == pytest.approx(0.5, abs=1e-12)


def test_huang_degenerate_window_keeps_flat_weights():
    rows = [("u", "a", "x", 500), ("u", "b", "x", 500), ("u", "c", "y", 500)]
    f = folksonomy_from_rows(rows)
    u = f.vocab.users.id_of("u")
    profile = LinearDecayTagCF._weighted_tag_profile(f, u, reference=501, floor=0.0)
    by_label = {f.vocab.tags.label_of(t): w for t, w in profile.items()}
    assert by_label == {"x": 2.0, "y": 1.0}


def test_huang_floor_lifts_early_uses():
    rows = [("u", "a", "first", 100), ("u", "b", "last", 1000)]
    f = folksonomy_from_rows(rows)
    u = f.vocab.users.id_of("u")
    profile = LinearDecayTagCF._weighted_tag_profile(f, u, reference=1001, floor=0.2)
    by_label = {f.vocab.tags.label_of(t): w for t, w in profile.items()}
    assert by_label["first"] == pytest.approx(0.2)


ORACLES = {
    "MP": lambda f, t_ref, u, cfg, n: o_mp(f, u, n),
    "CF_B": lambda f, t_ref, u, cfg, n: o_cf(f, u, cfg.k, n, binary=True),
    "CF_T": lambda f, t_ref, u, cfg, n: o_cf(f, u, cfg.k, n, binary=False),
    "Z": lambda f, t_ref, u, cfg, n: o_zheng(f, t_ref, u, cfg.k, n, cfg.t0_seconds),
    "H": lambda f, t_ref, u, cfg, n: o_huang(f, t_ref, u, cfg.k, n, cfg.floor),
    "CIRTT": lambda f, t_ref, u, cfg, n: o_cirtt(f, t_ref, u, cfg.k, n, cfg.bll.d),
}


@pytest.mark.parametrize("tag", ALGORITHMS)
def test_algorithms_match_brute_force_oracle(tag):
    for seed in (0, 1, 2):
        f = random_folksonomy(seed, n_users=18, n_items=22, n_tags=8, n_posts=80)
        t_ref = reference_times(f)
        config = RecommenderConfig(tag, k=6)
        recommender = build_recommender(f, t_ref, config)
        for u in f.users():
            got = recommender.recommend(u, 10).entries
            expected = ORACLES[tag](f, t_ref, u, config, 10)
            assert [i for i, _ in got] == [i for i, _ in expected], (tag, seed, u)
            for (_, gs), (_, es) in zip(got, expected):
                assert gs == pytest.approx(es, abs=1e-9)


def test_never_recommends_owned_items():
    for seed in range(4):
        f = random_folksonomy(seed)
        t_ref = reference_times(f)
        for tag in ALGORITHMS:
            recommender = build_recommender(f, t_ref, RecommenderConfig(tag, k=5))
            for u in f.users():
                owned = set(f.items_of_user(u))
                for item, _ in recommender.recommend(u).entries:
                    assert item not in owned


def test_rankings_are_deterministic():
    f = random_folksonomy(9)
    t_ref = reference_times(f)
    for tag in ALGORITHMS:
        config = RecommenderConfig(tag)
        a = build_recommender(f, t_ref, config)
        b = build_recommender(f, t_ref, config)
        for u in f.users():
            assert a.recommend(u).entries == b.recommend(u).entries


def test_unknown_user_gets_empty_list():
    f = random_folksonomy(1)
    t_ref = reference_times(f)
    for tag in ("CF_B", "CF_T", "Z", "H", "CIRTT"):
        recommender = build_recommender(f, t_ref, RecommenderConfig(tag))
        assert recommender.recommend(10_000).entries == ()


def test_split_then_recommend_smoke():
    f = random_folksonomy(6, n_users=25, n_items=25, n_posts=110)
    split = chronological_split(f)
    for tag in ALGORITHMS:
        recommender = build_recommender(split.train, split.t_ref, RecommenderConfig(tag))
        served = sum(1 for u in split.test if recommender.recommend(u).entries)
        assert served > 0


N_FOLKSONOMY = random_folksonomy(4)


@settings(max_examples=60, deadline=None)
@given(
    tag=st.sampled_from(ALGORITHMS),
    n=st.one_of(st.none(), st.integers(min_value=-3, max_value=60)),
)
def test_list_length_is_n_or_k_max(tag, n):
    f = N_FOLKSONOMY
    recommender = build_recommender(f, reference_times(f), RecommenderConfig(tag))
    for user in f.users()[:5] + [10_000]:
        if n is not None and n < 1:
            with pytest.raises(ConfigError):
                recommender.recommend(user, n)
            continue
        full = recommender.recommend(user, 10_000).entries
        if n is None:
            assert recommender.recommend(user).entries == full[:K_MAX]
        else:
            assert recommender.recommend(user, n).entries == full[:n]
