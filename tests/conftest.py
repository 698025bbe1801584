"""Shared fixture builders for the test suite."""

from __future__ import annotations

import random
from typing import Iterable, List, Tuple

import pytest

from folkrec.model import Folksonomy, Vocab, build_folksonomy

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
