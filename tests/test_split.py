"""Chronological per-user hold-out split."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folkrec.errors import ConfigError, EmptyDatasetError
from folkrec.split import chronological_split, write_split

from conftest import folksonomy_from_rows, random_folksonomy


def test_five_posts_yield_one_test_post():
    rows = [("u", f"r{i}", "t", 100 * i) for i in range(1, 6)]
    rows += [("v", f"r{i}", "t", 50) for i in range(1, 6)]  # keep items shared
    split = chronological_split(folksonomy_from_rows(rows))
    f = folksonomy_from_rows(rows)
    u = f.vocab.users.id_of("u")
    assert len(split.test[u]) == 1
    held = split.test[u]
    assert {f.vocab.items.label_of(i) for i in held} == {"r5"}  # the most recent


def test_single_post_user_is_train_only():
    rows = [("solo", "r1", "t", 100), ("other", "r1", "t", 90), ("other", "r2", "t", 95)]
    split = chronological_split(folksonomy_from_rows(rows))
    f = folksonomy_from_rows(rows)
    solo = f.vocab.users.id_of("solo")
    assert solo not in split.test
    assert len(split.train.posts_of_user(solo)) == 1


def test_ten_posts_against_sort_oracle():
    rng = random.Random(5)
    times = rng.sample(range(1000, 100000), 10)
    rows = [("u", f"r{i}", "t", ts) for i, ts in enumerate(times)]
    f = folksonomy_from_rows(rows)
    split = chronological_split(f, 0.2)
    u = f.vocab.users.id_of("u")
    expected = sorted(
        ((p.timestamp, p.item) for p in f.posts_of_user(u)), reverse=True
    )[:2]
    assert split.test[u] == frozenset(item for _, item in expected)


def test_timestamp_ties_break_by_item_id():
    # all posts share one timestamp: the held-out post must be the largest item id
    rows = [("u", name, "t", 777) for name in ("a", "b", "c", "d", "e")]
    f = folksonomy_from_rows(rows)
    split = chronological_split(f)
    u = f.vocab.users.id_of("u")
    assert split.test[u] == {max(f.items_of_user(u))}


@pytest.mark.parametrize("n,expected", [(2, 1), (4, 1), (5, 1), (9, 1), (10, 2), (15, 3)])
def test_test_count_rule(n, expected):
    rows = [("u", f"r{i}", "t", 10 * i) for i in range(n)]
    f = folksonomy_from_rows(rows)
    split = chronological_split(f, 0.2)
    assert len(split.test[f.vocab.users.id_of("u")]) == expected


@settings(max_examples=60, deadline=None)
@given(
    fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(min_value=0, max_value=50),
)
# floor(round(f * n, 9)) reaches n once f is within about 1e-9 of 1: this
# fraction held out every post of the users with two to four
@example(fraction=0.9999999999, seed=0)
def test_every_test_user_keeps_a_training_post(fraction, seed):
    f = random_folksonomy(seed)
    split = chronological_split(f, fraction)
    for user, held in split.test.items():
        n = len(f.posts_of_user(user))
        assert n >= 2 and 1 <= len(held) < n
        assert len(split.train.posts_of_user(user)) == n - len(held)


def test_split_invariants_on_random_fixtures():
    for seed in range(8):
        f = random_folksonomy(seed)
        split = chronological_split(f)
        for user in f.users():
            posts = f.posts_of_user(user)
            train_posts = split.train.posts_of_user(user)
            test_items = split.test.get(user, frozenset())
            assert len(train_posts) + len(test_items) == len(posts)
            train_items = set(p.item for p in train_posts)
            assert not (train_items & test_items)
            if test_items:
                max_train = max(p.timestamp for p in train_posts)
                test_ts = [p.timestamp for p in posts if p.item in test_items]
                assert min(test_ts) >= max_train
            # reference time sits strictly after every train assignment
            last_use = max(ts for p in train_posts for _, ts in p.tag_times)
            assert split.t_ref[user] == last_use + 1


def test_t_ref_uses_assignment_times_not_post_times():
    # the newest train post starts at 100 but one of its tags lands at 400;
    # recencies must stay positive for that later use too
    rows = [
        ("u", "r1", "a", 100),
        ("u", "r1", "b", 400),
        ("u", "r2", "a", 150),
        ("u", "r3", "a", 500),
        ("x", "r1", "a", 10),
        ("x", "r2", "a", 20),
        ("x", "r3", "a", 30),
    ]
    f = folksonomy_from_rows(rows)
    split = chronological_split(f)
    u = f.vocab.users.id_of("u")
    # u's posts sorted by time: r1@100, r2@150, r3@500 -> r3 held out
    assert {f.vocab.items.label_of(i) for i in split.test[u]} == {"r3"}
    assert split.t_ref[u] == 401


def test_split_deterministic(small_folksonomy):
    a = chronological_split(small_folksonomy)
    b = chronological_split(small_folksonomy)
    assert a.test == b.test
    assert a.t_ref == b.t_ref
    assert [p for p in a.train.posts] == [p for p in b.train.posts]


def test_bad_fraction_rejected(small_folksonomy):
    for fraction in (0.0, 1.0, -0.2, 1.5, "0.2", math.nan, True):
        with pytest.raises(ConfigError):
            chronological_split(small_folksonomy, fraction)


def test_empty_folksonomy_has_no_training_posts(small_folksonomy):
    with pytest.raises(EmptyDatasetError, match="no training posts"):
        chronological_split(small_folksonomy.select([False] * len(small_folksonomy)))


def test_write_split_outputs(tmp_path, small_folksonomy):
    split = chronological_split(small_folksonomy)
    out = tmp_path / "splitdir"
    write_split(split, str(out))
    train_lines = (out / "train.tsv").read_text().splitlines()
    test_lines = [l for l in (out / "test.tsv").read_text().splitlines() if not l.startswith("#")]
    tref_lines = [l for l in (out / "t_ref.tsv").read_text().splitlines() if not l.startswith("#")]
    assert any(not l.startswith("#") for l in train_lines)
    expected_pairs = sum(len(items) for items in split.test.values())
    assert len(test_lines) == expected_pairs
    assert len(tref_lines) == len(split.t_ref)
    # the whole files, bytes included: header line, "\n" line ends, UTF-8
    assert (out / "test.tsv").read_bytes() == b"# held-out (user, item) pairs\nalice\tr3\nbob\tr4\ncarol\tr4\ndave\tr5\n"
    assert (out / "t_ref.tsv").read_bytes() == (
        b"# per-user reference timestamp (seconds since epoch)\nalice\t201\nbob\t251\ncarol\t281\ndave\t401\n"
    )
    accented = chronological_split(folksonomy_from_rows([("zoë", "r1", "web", 1), ("zoë", "r2", "web", 2)]))
    write_split(accented, str(tmp_path / "accented"))
    assert (tmp_path / "accented" / "test.tsv").read_bytes() == "# held-out (user, item) pairs\nzoë\tr2\n".encode("utf-8")
    assert (tmp_path / "accented" / "t_ref.tsv").read_bytes() == (
        "# per-user reference timestamp (seconds since epoch)\nzoë\t2\n".encode("utf-8")
    )
