"""Data model: post merging, interning, indexes, fingerprints."""

import gc
import pickle
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folkrec.errors import EmptyDatasetError
from folkrec.ingest import remove_unique_resources, sample_users
from folkrec.model import Post, Vocab, build_folksonomy, fingerprint
from folkrec.split import chronological_split
from folkrec.synth import SynthConfig, generate, write_tsv

from conftest import folksonomy_from_rows, random_folksonomy, random_rows
from oracles import o_folksonomy


def test_assignments_with_equal_user_item_merge_into_one_post():
    f = folksonomy_from_rows([("u1", "i1", "t1", 100), ("u1", "i1", "t2", 90)])
    assert len(f.posts) == 1
    post = f.posts[0]
    assert post.timestamp == 90  # earliest assignment marks the bookmark event
    assert set(post.tags) == {f.vocab.tags.id_of("t1"), f.vocab.tags.id_of("t2")}


def test_same_item_different_users_stay_separate_posts():
    f = folksonomy_from_rows([("u1", "i1", "t1", 100), ("u2", "i1", "t1", 50)])
    assert len(f.posts) == 2
    item = f.vocab.items.id_of("i1")
    assert len(f.taggers_of_item(item)) == 2


def test_duplicate_user_item_tag_keeps_earliest_timestamp():
    f = folksonomy_from_rows(
        [("u1", "i1", "web", 500), ("u1", "i1", "web", 120), ("u1", "i1", "web", 300)]
    )
    assert f.stats().assignments == 1
    (post,) = f.posts
    assert post.tag_times[0][1] == 120


def test_empty_input_raises():
    with pytest.raises(EmptyDatasetError):
        build_folksonomy([], Vocab())


def test_records_are_immutable(small_folksonomy):
    post = small_folksonomy.posts[0]
    for field in ("tag_times", "item"):
        with pytest.raises(AttributeError):
            setattr(post, field, 0)
    with pytest.raises(AttributeError):
        post.extra = 1  # no instance dict either


def test_records_unpack_and_equal_plain_tuples():
    post = Post(0, 1, 90, ((2, 100), (5, 90)))
    user, item, timestamp, tag_times = post
    assert (user, item, timestamp, tag_times) == (0, 1, 90, ((2, 100), (5, 90))) == post
    assert repr(post) == "Post(user=0, item=1, timestamp=90, tag_times=((2, 100), (5, 90)))"


def test_post_tags_match_tag_times(small_folksonomy):
    for post in small_folksonomy.posts:
        assert post.tags == tuple(tag for tag, _ in post.tag_times)
        assert list(post.tags) == sorted(set(post.tags))


def test_folksonomy_pickles_with_the_same_fingerprint(small_folksonomy):
    # a spawned evaluation worker receives the train folksonomy pickled
    restored = pickle.loads(pickle.dumps(small_folksonomy))
    assert restored.fingerprint() == small_folksonomy.fingerprint()
    assert restored.posts == small_folksonomy.posts
    assert all(type(post) is Post for post in restored.posts)
    assert restored.stats() == small_folksonomy.stats()
    # a pickle carries only the indexes read before it: one taken before any
    # accessor runs must build them all, one taken after must carry them all
    users = range(-1, len(small_folksonomy.vocab.users) + 1)
    items = range(-1, len(small_folksonomy.vocab.items) + 1)
    unread = small_folksonomy.select([True] * len(small_folksonomy))
    before = pickle.loads(pickle.dumps(unread))
    expected = _answers(unread, users, items)
    after = pickle.loads(pickle.dumps(unread))
    assert _answers(before, users, items) == _answers(after, users, items) == expected
    assert expected == _answers(small_folksonomy, users, items)


def test_build_folksonomy_merges_rows_and_sorts_by_user_item():
    rows = [(1, 0, 7, 300), (0, 2, 5, 200), (1, 0, 3, 100), (1, 0, 7, 50), (0, 1, 5, 400)]
    assert build_folksonomy(rows, _vocab_for(rows)).posts == (
        Post(0, 1, 400, ((5, 400),)),
        Post(0, 2, 200, ((5, 200),)),
        Post(1, 0, 50, ((3, 100), (7, 50))),
    )


def _reference_group_posts(assignments):
    """The posts of ``assignments`` from a dict of tag dicts per (user, item): the grouping the one sort replaced."""
    grouped = {}
    for user, item, tag, ts in assignments:
        tag_times = grouped.get((user, item))
        if tag_times is None:
            grouped[user, item] = {tag: ts}
        else:
            prev = tag_times.get(tag)
            if prev is None or ts < prev:
                tag_times[tag] = ts
    return [
        Post(user, item, min(tag_times.values()), tuple(sorted(tag_times.items())))
        for (user, item), tag_times in sorted(grouped.items())
    ]


@st.composite
def _rows_with_repeats(draw):
    """Rows whose (user, item, tag) recurs at earlier, equal and later timestamps, in shuffled or reverse-sorted order."""
    base = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 5), st.integers(1_000, 2_000)),
            max_size=30,
        )
    )
    rows = list(base)
    for user, item, tag, ts in base:
        for shift in draw(st.lists(st.integers(-1_000, 1_000), max_size=3)):
            rows.append((user, item, tag, ts + shift))
    if draw(st.booleans()):
        return draw(st.permutations(rows))
    return sorted(rows, reverse=True)


def _vocab_for(rows):
    """Labels for every id up to the largest in ``rows``, interned so that id k is label k."""
    vocab = Vocab()
    for position, (interner, prefix) in enumerate(((vocab.users, "u"), (vocab.items, "r"), (vocab.tags, "t"))):
        for ident in range(max(row[position] for row in rows) + 1):
            interner.intern(f"{prefix}{ident}")
    return vocab


@given(_rows_with_repeats(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_build_folksonomy_equals_the_dict_grouping(rows, rng):
    if not rows:  # test_empty_input_raises
        return
    reference = _reference_group_posts(rows)
    vocab = _vocab_for(rows)
    assert list(build_folksonomy(rows, vocab).posts) == reference
    assert list(build_folksonomy(iter(rows), vocab).posts) == reference  # any iterable, read once
    shuffled = rows[:]
    rng.shuffle(shuffled)
    built = build_folksonomy(shuffled, vocab)
    assert list(built.posts) == reference
    assert built.fingerprint() == o_folksonomy(reference, vocab, [], [])["fingerprint"]


def _answers(f, users, items):
    """The accessors' answers, asked as ``o_folksonomy`` asks them."""
    return {
        "users": f.users(),
        "items": f.items(),
        "posts_of_user": {u: f.posts_of_user(u) for u in users},
        "posts_of_item": {i: f.posts_of_item(i) for i in items},
        "items_of_user": {u: f.items_of_user(u) for u in users},
        "taggers_of_item": {i: f.taggers_of_item(i) for i in items},
        "user_tag_counts": {u: dict(f.user_tag_counts(u)) for u in users},
        "item_tag_counts": {i: dict(f.item_tag_counts(i)) for i in items},
        "tag_use_times": {u: f.tag_use_times(u) for u in users},
        "stats": f.stats(),
        "rows": list(f.rows()),
        "fingerprint": f.fingerprint(),
    }


# u0's only post is on r0, which no one else tags; u1 uses t2 on r1 at 300
# and again at 100, where the earlier use must win; r3's one tagger is u2
_SINGLES = [
    (0, 0, 0, 500),
    (1, 1, 2, 300),
    (1, 1, 2, 100),
    (1, 1, 1, 200),
    (2, 1, 2, 50),
    (1, 2, 3, 400),
    (2, 2, 0, 600),
    (2, 2, 0, 700),
    (2, 3, 1, 800),
]


@given(_rows_with_repeats(), st.randoms(use_true_random=False))
@example(rows=_SINGLES, rng=random.Random(0))
@settings(max_examples=200, deadline=None)
def test_every_route_answers_as_the_layout_free_reference(rows, rng):
    if not rows:
        return
    vocab = _vocab_for(rows)
    posts = _reference_group_posts(rows)
    # every id, one below and one past them: an unknown id has no posts
    users, items = range(-1, len(vocab.users) + 1), range(-1, len(vocab.items) + 1)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    built = build_folksonomy(shuffled, vocab)
    assert built.posts == tuple(posts)
    assert _answers(built, users, items) == o_folksonomy(posts, vocab, users, items)
    # the filters select posts from the columns
    taggers = Counter(p.item for p in posts)
    shared = [p for p in posts if taggers[p.item] > 1]
    if shared:
        assert _answers(remove_unique_resources(built), users, items) == o_folksonomy(shared, vocab, users, items)
    sampled = sample_users(built, 0.5, rng.randrange(100))
    drawn = [p for p in posts if p.user in set(sampled.users())]
    assert _answers(sampled, users, items) == o_folksonomy(drawn, vocab, users, items)
    split = chronological_split(built, 0.5)
    train = [p for p in posts if p.item not in split.test.get(p.user, ())]
    assert _answers(split.train, users, items) == o_folksonomy(train, vocab, users, items)


def test_the_store_holds_no_python_object_per_post():
    gc.collect()
    before = len(gc.get_objects())
    f = generate(SynthConfig(), 1)
    gc.collect()
    added = len(gc.get_objects()) - before
    # Post tuples, and tuples or lists of them, would each be tracked
    assert added < f.stats().bookmarks // 4, added


def test_stats_counts(small_folksonomy):
    stats = small_folksonomy.stats()
    assert stats.bookmarks == 11  # alice's two r1 rows merge into one post
    assert stats.users == 4
    assert stats.resources == 5
    assert stats.tags == 4
    assert stats.assignments == 12
    assert stats.line() == "B=11 U=4 R=5 T=4 TAS=12"


def test_post_counts_balance(small_folksonomy):
    f = small_folksonomy
    by_user = sum(len(f.posts_of_user(u)) for u in f.users())
    by_item = sum(len(f.posts_of_item(i)) for i in f.items())
    assert by_user == by_item == len(f.posts)


def test_indexes_match_post_list_rebuild(small_folksonomy):
    f = small_folksonomy
    for user in f.users():
        expected = [p for p in f.posts if p.user == user]
        assert list(f.posts_of_user(user)) == expected
    for item in f.items():
        expected = [p for p in f.posts if p.item == item]
        assert list(f.posts_of_item(item)) == expected
        counted = {}
        for p in expected:
            for tag, _ in p.tag_times:
                counted[tag] = counted.get(tag, 0) + 1
        assert dict(f.item_tag_counts(item)) == counted


@pytest.mark.parametrize("seed", range(3))
def test_items_of_user_are_the_post_items_ascending(seed):
    f = random_folksonomy(seed)
    for user in f.users():
        items = f.items_of_user(user)
        assert items == tuple(p.item for p in f.posts_of_user(user))
        assert list(items) == sorted(set(items))
    assert f.items_of_user(max(f.users()) + 1) == ()
    assert f.items_of_user(-1) == ()


def test_interner_round_trip(small_folksonomy):
    users = small_folksonomy.vocab.users
    for label in ("alice", "bob", "carol", "dave"):
        assert users.label_of(users.id_of(label)) == label
    assert sorted(users.id_of(label) for label in ("alice", "bob", "carol", "dave")) == [0, 1, 2, 3]


def test_fingerprint_is_input_order_independent():
    rows = random_rows(random.Random(7), 6, 8, 5, 20)
    reference = fingerprint(folksonomy_from_rows(rows))
    for seed in range(5):
        shuffled = rows[:]
        random.Random(seed).shuffle(shuffled)
        assert fingerprint(folksonomy_from_rows(shuffled)) == reference


def test_fingerprint_sensitive_to_timestamp_change():
    rows = [("u1", "i1", "t1", 100), ("u2", "i1", "t1", 200)]
    changed = [("u1", "i1", "t1", 101), ("u2", "i1", "t1", 200)]
    assert fingerprint(folksonomy_from_rows(rows)) != fingerprint(folksonomy_from_rows(changed))


def test_fingerprint_independent_of_interning_order():
    # same content, different label-to-id assignment
    rows = [("u1", "i1", "t1", 100), ("u2", "i2", "t2", 200)]
    assert fingerprint(folksonomy_from_rows(rows)) == fingerprint(folksonomy_from_rows(rows[::-1]))


def test_items_of_user_sorted_and_tag_use_times_hold_each_use(small_folksonomy):
    f = small_folksonomy
    for user in f.users():
        items = f.items_of_user(user)
        assert list(items) == sorted(items)
        uses = Counter((tag, ts) for tag, times in f.tag_use_times(user).items() for ts in times)
        assert uses == Counter(use for post in f.posts_of_user(user) for use in post.tag_times)


def test_rows_are_each_posts_tag_uses_in_post_order(tmp_path, small_folksonomy):
    f = small_folksonomy
    rows = list(f.rows())
    assert rows[:3] == ["alice\tr1\tweb\t100", "alice\tr1\tcss\t100", "alice\tr2\tweb\t200"]
    assert len(rows) == f.stats().assignments
    labels = f.vocab
    expected = [
        (labels.users.label_of(p.user), labels.items.label_of(p.item), labels.tags.label_of(tag), ts)
        for p in f.posts
        for tag, ts in p.tag_times
    ]
    assert [tuple(row.split("\t")) for row in rows] == [(u, i, t, str(ts)) for u, i, t, ts in expected]
    assert f.label_rows() == sorted(rows)
    # the generator's dump is the same rows, one per line
    path = tmp_path / "dump.tsv"
    write_tsv(f, str(path))
    assert path.read_bytes() == "".join(f"{row}\n" for row in rows).encode("utf-8")
