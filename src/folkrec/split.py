"""Chronological per-user train/test partitioning.

For every user the bookmarks are sorted in time order and the most recent
fraction is held out for testing, simulating prediction of future bookmarking
behavior from past behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Dict, FrozenSet

from .errors import ConfigError, EmptyDatasetError, is_number
from .ingest import write_snapshot
from .model import Folksonomy, write_lines


@dataclass
class SplitResult:
    """Train folksonomy, held-out items per user, and per-user reference times.

    ``t_ref[u]`` is one second past the user's latest training timestamp, so
    every training recency is strictly positive and scoring happens "at the
    moment after the last observed action".
    """

    train: Folksonomy
    test: Dict[int, FrozenSet[int]]
    t_ref: Dict[int, int]


def reference_times(folksonomy: Folksonomy) -> Dict[int, int]:
    """user -> one second past the user's latest tag use, in ascending user order.

    Over assignment times, not post times: a post carries its earliest time,
    and recencies must stay strictly positive for every tag use.
    """
    time = folksonomy.columns.time
    return {user: max(time[folksonomy.user_uses(user)]) + 1 for user in folksonomy.users()}


def chronological_split(folksonomy: Folksonomy, test_fraction: float = 0.2) -> SplitResult:
    """Hold out each user's most recent bookmarks.

    A user with n >= 2 posts contributes max(1, floor(test_fraction * n))
    most recent posts to the test set, but never all n; a user with a single
    post goes to train only. Either way the user keeps a training post,
    since an empty training profile makes every personalized algorithm
    undefined. Timestamp ties break by item id ascending (the smaller id
    counts as older). Train keeps the remaining posts whole and in their
    (user, item) order.
    """
    if not (is_number(test_fraction) and 0.0 < test_fraction < 1.0):
        raise ConfigError(f"test_fraction must be a number in (0, 1), got {test_fraction!r}")
    columns = folksonomy.columns
    timestamp, item = columns.timestamp, columns.item
    test: Dict[int, FrozenSet[int]] = {}
    train_posts = [True] * len(columns)  # per post, whether train keeps it
    for user in folksonomy.users():
        posts = sorted(folksonomy.post_range(user), key=lambda p: (timestamp[p], item[p]))
        n = len(posts)
        if n >= 2:
            n_test = min(n - 1, max(1, math.floor(round(test_fraction * n, 9))))
            held = posts[n - n_test :]
            test[user] = frozenset(item[p] for p in held)
            for p in held:
                train_posts[p] = False
    if not any(train_posts):
        raise EmptyDatasetError("no training posts after splitting")
    train = Folksonomy(columns.select(train_posts), folksonomy.vocab)
    return SplitResult(train=train, test=test, t_ref=reference_times(train))


def write_split(split: SplitResult, out_dir: str | Path) -> None:
    """Emit train snapshot, `user item` test pairs, and the t_ref table."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_snapshot(split.train, out / "train.tsv")
    vocab = split.train.vocab
    pair_rows = []
    for user, items in split.test.items():
        user_label = vocab.users.label_of(user)
        for item in items:
            pair_rows.append(f"{user_label}\t{vocab.items.label_of(item)}")
    write_lines(out / "test.tsv", chain(("# held-out (user, item) pairs",), sorted(pair_rows)))
    ref_rows = sorted((vocab.users.label_of(user), ts) for user, ts in split.t_ref.items())
    ref_header = "# per-user reference timestamp (seconds since epoch)"
    write_lines(out / "t_ref.tsv", chain((ref_header,), (f"{label}\t{ts}" for label, ts in ref_rows)))
