"""Shared fixture builders for the test suite."""

from __future__ import annotations

import math
import random
from typing import Iterable, List, Tuple

import pytest
from hypothesis import Phase
from hypothesis import strategies as st

from folkrec.model import Folksonomy, Vocab, build_folksonomy
from folkrec.recommenders import K_MAX, RecommenderConfig, build_recommender
from folkrec.split import SplitResult, chronological_split
from folkrec.synth import SynthConfig, generate

Row = Tuple[str, str, str, int]


def folksonomy_from_rows(rows: Iterable[Row]) -> Folksonomy:
    """Build a folksonomy from (user, item, tag, ts) label tuples."""
    vocab = Vocab()
    assignments = [
        (vocab.users.intern(user), vocab.items.intern(item), vocab.tags.intern(tag), ts)
        for user, item, tag, ts in rows
    ]
    return build_folksonomy(assignments, vocab)


def random_rows(
    rng: random.Random,
    n_users: int,
    n_items: int,
    n_tags: int,
    n_posts: int,
    tags_per_post: Tuple[int, int] = (1, 3),
    t_lo: int = 1_000,
    t_hi: int = 2_000_000,
) -> List[Row]:
    """Random tagging log; duplicate (user, item) pairs are avoided so post
    counts are exact, everything else (popularity, timing) is unconstrained."""
    users = [f"u{i}" for i in range(n_users)]
    items = [f"r{i}" for i in range(n_items)]
    tags = [f"t{i}" for i in range(n_tags)]
    pairs = set()
    rows: List[Row] = []
    attempts = 0
    while len(pairs) < n_posts and attempts < n_posts * 50:
        attempts += 1
        user = rng.choice(users)
        item = rng.choice(items)
        if (user, item) in pairs:
            continue
        pairs.add((user, item))
        ts = rng.randint(t_lo, t_hi)
        for tag in rng.sample(tags, rng.randint(*tags_per_post)):
            rows.append((user, item, tag, ts))
    return rows


def random_folksonomy(seed: int, n_users: int = 30, n_items: int = 40, n_tags: int = 15, n_posts: int = 150) -> Folksonomy:
    rng = random.Random(seed)
    return folksonomy_from_rows(random_rows(rng, n_users, n_items, n_tags, n_posts))


# Any value a caller or a YAML file could put in one settings field: wrong
# types, bools, non-finite, tiny and huge numbers, strings, lists and None.
ANY_SETTING = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from((math.nan, math.inf, -math.inf, 5e-324, 0.5, 1e300, 2**64, 10**400)),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(min_value=-1, max_value=5), st.floats(), st.text(max_size=3)), max_size=5),
    st.lists(st.integers(min_value=-1, max_value=5), min_size=4, max_size=4).map(tuple),
)

# The phases of a property that reports a falsifying example as drawn: no
# shrinking and no explain phase. Under pytest hypothesis renders every
# failing example it tries as a traceback, which parses the whole test
# module, and shrinking re-runs a costly example many times; the properties
# that use this took 18 s to five minutes to report a mutation with them.
UNSHRUNK = (Phase.explicit, Phase.reuse, Phase.generate)

TINY_SPLIT = chronological_split(random_folksonomy(7), 0.2)
TINY_SYNTH = generate(SynthConfig(users=30, items=40, tags=20, topics=4), seed=0)


def assert_config_serves(split: SplitResult, config: RecommenderConfig) -> None:
    """Every test user gets a list of at most K_MAX items with finite, non-increasing scores."""
    recommender = build_recommender(split.train, split.t_ref, config)
    for user in sorted(split.test):
        scores = [score for _, score in recommender.recommend(user).entries]
        assert len(scores) <= K_MAX
        assert all(math.isfinite(score) for score in scores), (config, user)
        assert scores == sorted(scores, reverse=True), (config, user)


@pytest.fixture
def small_folksonomy() -> Folksonomy:
    """Hand-sized fixture: 4 users, 5 items, 4 tags, known timestamps."""
    return folksonomy_from_rows(
        [
            ("alice", "r1", "web", 100),
            ("alice", "r1", "css", 100),
            ("alice", "r2", "web", 200),
            ("alice", "r3", "python", 300),
            ("bob", "r1", "web", 150),
            ("bob", "r2", "css", 250),
            ("bob", "r4", "python", 350),
            ("carol", "r2", "web", 180),
            ("carol", "r3", "ml", 280),
            ("carol", "r4", "ml", 380),
            ("dave", "r4", "python", 400),
            ("dave", "r5", "ml", 500),
        ]
    )
