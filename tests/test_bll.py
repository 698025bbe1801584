"""Recency-weighted tag activation: raw values, softmax profiles, item sums."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkrec.bll import BllParams, bll_item, bll_raw, build_bll_profile, normalize_profile
from folkrec.errors import ConfigError, NoProfileError

from conftest import folksonomy_from_rows


def test_single_use_at_recency_one_is_zero():
    assert bll_raw([999], t_ref=1000, d=0.5) == pytest.approx(0.0, abs=1e-12)


def test_two_uses_recencies_one_and_four():
    # 1^-0.5 + 4^-0.5 = 1.5
    assert bll_raw([996, 999], t_ref=1000, d=0.5) == pytest.approx(math.log(1.5), abs=1e-12)


def test_single_use_recency_hundred():
    assert bll_raw([900], t_ref=1000, d=0.5) == pytest.approx(math.log(0.1), abs=1e-12)


def test_log_log_slope_is_minus_d():
    for d in (0.25, 0.5, 0.8):
        points = []
        for recency in (10, 1000, 100000):
            points.append((math.log(recency), bll_raw([10**7 - recency], t_ref=10**7, d=d)))
        (x1, y1), (x2, y2), (x3, y3) = points
        assert (y2 - y1) / (x2 - x1) == pytest.approx(-d, abs=1e-9)
        assert (y3 - y2) / (x3 - x2) == pytest.approx(-d, abs=1e-9)


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_more_recent_single_use_activates_higher(r1, r2):
    if r1 == r2:
        return
    lo, hi = sorted((r1, r2))
    t_ref = 2 * 10**6
    assert bll_raw([t_ref - lo], t_ref, 0.5) > bll_raw([t_ref - hi], t_ref, 0.5)


@given(
    st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=10**6),
)
def test_adding_a_use_strictly_increases_activation(recencies, extra):
    t_ref = 2 * 10**6
    uses = [t_ref - r for r in recencies]
    assert bll_raw(uses + [t_ref - extra], t_ref, 0.5) > bll_raw(uses, t_ref, 0.5)


def test_underflowing_single_use_falls_back_to_the_log_domain():
    recency = 10**6
    assert recency ** -150.0 == 0.0
    assert bll_raw([10**9 - recency], t_ref=10**9, d=150.0) == pytest.approx(-150.0 * math.log(recency), rel=1e-9)
    # two equally old uses add ln 2 to one use's activation
    two = bll_raw([10**9 - recency, 10**9 - recency], t_ref=10**9, d=150.0)
    assert two == pytest.approx(-150.0 * math.log(recency) + math.log(2.0), rel=1e-9)


@given(
    st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=8),
    st.floats(min_value=0.1, max_value=500.0),
)
def test_activation_is_finite_for_any_decay(recencies, d):
    t_ref = 2 * 10**9
    assert math.isfinite(bll_raw([t_ref - r for r in recencies], t_ref, d))


def test_preconditions():
    with pytest.raises(ValueError):
        bll_raw([], 100, 0.5)
    with pytest.raises(ValueError):
        bll_raw([100], 100, 0.5)  # recency would be zero
    with pytest.raises(ConfigError):
        BllParams(d=0.0)
    with pytest.raises(ConfigError):
        BllParams(d=-1.0)


def test_profile_of_single_tag_user():
    f = folksonomy_from_rows([("u", "r1", "only", 50), ("u", "r2", "only", 80)])
    u = f.vocab.users.id_of("u")
    profile = build_bll_profile(f, u, t_ref=100, params=BllParams())
    assert list(profile.values()) == [pytest.approx(1.0)]


def test_profile_two_tags_forty_sixty():
    # tag a: one use at recency 1 -> raw 0; tag b: uses at recencies 1 and 4
    # -> raw ln 1.5; softmax of {0, ln 1.5} = {1, 1.5}/2.5
    f = folksonomy_from_rows(
        [
            ("u", "r1", "a", 999),
            ("u", "r2", "b", 999),
            ("u", "r3", "b", 996),
        ]
    )
    u = f.vocab.users.id_of("u")
    profile = build_bll_profile(f, u, t_ref=1000, params=BllParams())
    a, b = f.vocab.tags.id_of("a"), f.vocab.tags.id_of("b")
    assert profile[a] == pytest.approx(0.4, abs=1e-12)
    assert profile[b] == pytest.approx(0.6, abs=1e-12)


def test_profile_time_translation_invariance():
    rng = random.Random(12)
    base_rows = []
    for i in range(10):
        base_rows.append(("u", f"r{i}", f"t{rng.randrange(4)}", rng.randrange(1000, 5000)))
    for shift in (0, 1000, 987654):
        rows = [(u, r, t, ts + shift) for u, r, t, ts in base_rows]
        f = folksonomy_from_rows(rows)
        u = f.vocab.users.id_of("u")
        profile = build_bll_profile(f, u, t_ref=6000 + shift, params=BllParams())
        by_label = {f.vocab.tags.label_of(t): v for t, v in profile.items()}
        if shift == 0:
            reference = by_label
        else:
            for label, value in reference.items():
                assert value == pytest.approx(by_label[label], abs=1e-12)


def test_profile_values_sum_to_one_and_cover_all_train_tags():
    for seed in range(5):
        rng = random.Random(seed)
        rows = [
            ("u", f"r{i}", f"t{rng.randrange(6)}", rng.randrange(100, 900))
            for i in range(12)
        ]
        f = folksonomy_from_rows(rows)
        u = f.vocab.users.id_of("u")
        profile = build_bll_profile(f, u, t_ref=1000, params=BllParams())
        used = set(f.tag_use_times(u))
        assert set(profile) == used
        assert math.fsum(profile.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 < v <= 1.0 for v in profile.values())


def test_missing_user_raises_no_profile(small_folksonomy):
    with pytest.raises(NoProfileError):
        build_bll_profile(small_folksonomy, 999, t_ref=1000, params=BllParams())


def test_normalize_profile_is_isolated_softmax():
    raw = {0: 0.0, 1: math.log(1.5)}
    out = normalize_profile(raw)
    assert out[0] == pytest.approx(0.4, abs=1e-12)
    assert out[1] == pytest.approx(0.6, abs=1e-12)
    # large values must not overflow
    big = normalize_profile({0: 800.0, 1: 800.0})
    assert big[0] == pytest.approx(0.5, abs=1e-12)


def test_item_activation_sums():
    f = folksonomy_from_rows(
        [
            ("u", "r1", "a", 999),
            ("u", "r2", "b", 999),
            ("u", "r3", "b", 996),
        ]
    )
    u = f.vocab.users.id_of("u")
    profile = build_bll_profile(f, u, t_ref=1000, params=BllParams())
    a = f.vocab.tags.id_of("a")
    b = f.vocab.tags.id_of("b")
    assert bll_item(profile, frozenset()) == 0.0
    assert bll_item(profile, frozenset({999})) == 0.0  # unknown tag id: no overlap
    assert bll_item(profile, frozenset({b, 999})) == pytest.approx(0.6, abs=1e-12)
    assert bll_item(profile, frozenset({a, b})) == pytest.approx(1.0, abs=1e-12)


@given(st.sets(st.integers(min_value=0, max_value=9), max_size=6))
@settings(max_examples=200)
def test_item_activation_monotone_in_overlap(extra_tags):
    f = folksonomy_from_rows(
        [("u", f"r{t}", f"t{t}", 900 + t) for t in range(10)]
    )
    u = f.vocab.users.id_of("u")
    profile = build_bll_profile(f, u, t_ref=2000, params=BllParams())
    tag_ids = sorted(profile)
    base = frozenset(tag_ids[:2])
    wider = base | {tag_ids[t] for t in extra_tags}
    assert bll_item(profile, wider) >= bll_item(profile, base) - 1e-15
