"""Folksonomy data model.

A folksonomy is the tripartite user-item-tag structure of a social tagging
system. The atomic event is a tag assignment (user, item, tag, timestamp);
all assignments of one user on one item form a post (a bookmark). Everything
downstream (similarity search, recommending, evaluation) reads the immutable
``Folksonomy`` built here.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, compress, groupby, islice
from operator import sub
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, TextIO, Tuple

from .errors import EmptyDatasetError

# One tag assignment as interned ids: (user, item, tag, timestamp). Timestamps
# are non-negative: parse checks them, and the generator's start at synth.START.
Assignment = Tuple[int, int, int, int]

# The largest timestamp a time column holds (a signed 64-bit integer).
MAX_TIMESTAMP = 2**63 - 1

# Lines per piece when an output file or the fingerprint is streamed: few
# enough that one joined piece is small, enough that the joins stay cheap.
_CHUNK_ROWS = 4096


class Interner:
    """Bidirectional map between external string labels and dense integer ids.

    Ids are assigned 0..n-1 in first-seen order, so sparse vectors and
    neighbor arrays can index directly.
    """

    __slots__ = ("_by_label", "_labels")

    def __init__(self) -> None:
        self._by_label: Dict[str, int] = {}
        self._labels: List[str] = []

    def intern(self, label: str) -> int:
        ident = self._by_label.get(label)
        if ident is None:
            ident = len(self._labels)
            self._by_label[label] = ident
            self._labels.append(label)
        return ident

    def lookup(self) -> Callable[[str], Optional[int]]:
        """``label -> id``, or None for an unseen label, as the mapping's own ``get``.

        A hot loop calls it without a Python frame per label and falls back to
        :meth:`intern` only for labels it has not seen.
        """
        return self._by_label.get

    def id_of(self, label: str) -> int:
        """Look up an existing label; raises KeyError for unknown labels."""
        return self._by_label[label]

    def label_of(self, ident: int) -> str:
        return self._labels[ident]

    def __len__(self) -> int:
        return len(self._labels)


@dataclass
class Vocab:
    """The three interners a folksonomy resolves its ids against."""

    users: Interner = field(default_factory=Interner)
    items: Interner = field(default_factory=Interner)
    tags: Interner = field(default_factory=Interner)


class Post(NamedTuple):
    """All tag assignments of one user on one item, treated as one bookmark.

    The post contract, kept by every route into a ``Folksonomy``: ``tag_times``
    holds at least one (tag, timestamp) entry, one per distinct tag with its
    earliest use, tag ids ascending. ``timestamp`` is the earliest of those
    times (the bookmark's creation). An immutable named tuple: it unpacks and
    compares like a plain tuple. A folksonomy stores its posts as flat
    columns and builds ``Post`` values only when asked for them.
    """

    user: int
    item: int
    timestamp: int
    tag_times: Tuple[Tuple[int, int], ...]

    @property
    def tags(self) -> Tuple[int, ...]:
        return tuple(t for t, _ in self.tag_times)


@dataclass(frozen=True)
class Stats:
    """Dataset size statistics: bookmarks, users, resources, tags, assignments."""

    bookmarks: int
    users: int
    resources: int
    tags: int
    assignments: int

    def line(self) -> str:
        return (
            f"B={self.bookmarks} U={self.users} R={self.resources} "
            f"T={self.tags} TAS={self.assignments}"
        )


class Folksonomy:
    """Immutable store of posts as flat columns, indexed by user and by item on first read.

    Post ``p`` is ``user[p]``, ``item[p]`` and ``timestamp[p]``; its tag uses
    are ``tag[k]`` with time ``time[k]`` for ``k`` in ``start[p]:start[p + 1]``
    (:meth:`uses`), so ``start`` holds one more entry than there are posts.
    The posts keep the :class:`Post` contract, so every user listed has a tag
    use; they hold at most one post per (user, item), sorted by (user, item),
    which the indexes rely on. The arrays hold no Python object per entry:
    the cyclic GC never walks them, a forked process shares their pages and
    a pickle copies their bytes. ``posts``, ``posts_of_user`` and
    ``posts_of_item`` build ``Post`` values on demand.

    A user's posts are one range of post numbers (:meth:`post_range`); an
    item's are listed by a counting sort of the post numbers. Each index is
    filled the first time it is read, so a folksonomy that is only filtered,
    written or fingerprinted builds none, and a pickle carries only the
    indexes read before it. Tag statistics are derived from the columns when
    read. Safe for concurrent reads: the columns are never mutated, and two
    threads racing to fill one index compute equal values. Made only by
    :func:`build_folksonomy` and :meth:`select`.
    """

    def __init__(
        self, user: array, item: array, timestamp: array, start: array, tag: array, time: array, vocab: Vocab
    ) -> None:
        self.user, self.item, self.timestamp, self.start, self.tag, self.time = user, item, timestamp, start, tag, time
        self.vocab = vocab
        self._fingerprint: str | None = None

    # -- indexes, each filled on first read ---------------------------------

    @cached_property
    def _user_start(self) -> array:
        return _offsets(self.user)

    @cached_property
    def _item_start(self) -> array:
        return _offsets(self.item)

    @cached_property
    def _item_posts(self) -> array:
        """Post numbers by item: a stable counting sort, so each item's posts stay in user order."""
        fill = self._item_start.tolist()
        by_item = array("i", bytes(4 * len(self)))
        for p, item in enumerate(self.item):
            slot = fill[item]
            by_item[slot] = p
            fill[item] = slot + 1
        return by_item

    @cached_property
    def _user_items(self) -> Dict[int, Tuple[int, ...]]:
        return _id_tuples(self._user_start, self.item)

    @cached_property
    def _item_users(self) -> Dict[int, Tuple[int, ...]]:
        return _id_tuples(self._item_start, array("i", map(self.user.__getitem__, self._item_posts)))

    # -- the columns ---------------------------------------------------------

    def __len__(self) -> int:
        """The number of posts."""
        return len(self.user)

    def uses(self, first: int, stop: int) -> slice:
        """Where the tag uses of posts ``first`` to ``stop - 1`` lie in ``tag`` and ``time``."""
        return slice(self.start[first], self.start[stop])

    def sizes(self) -> Iterator[int]:
        """The number of tag uses of each post, in post order."""
        return map(sub, self.start[1:], self.start[:-1])

    def select(self, keep: Sequence[bool]) -> Folksonomy:
        """A folksonomy over the same vocabulary holding each post ``p`` for which ``keep[p]`` is true, in order.

        The kept posts are copied a run of consecutive posts at a time; the
        filters keep most posts, in long runs.
        """
        user, item, timestamp, tag, time = array("i"), array("i"), array("q"), array("i"), array("q")
        first = 0
        for kept, run in groupby(keep):
            stop = first + len(list(run))
            if kept:
                user += self.user[first:stop]
                item += self.item[first:stop]
                timestamp += self.timestamp[first:stop]
                uses = self.uses(first, stop)
                tag += self.tag[uses]
                time += self.time[uses]
            first = stop
        start = array("q", accumulate(compress(self.sizes(), keep), initial=0))
        return Folksonomy(user, item, timestamp, start, tag, time, self.vocab)

    # -- accessors ---------------------------------------------------------

    def _post(self, p: int) -> Post:
        """Post ``p`` as a :class:`Post` value."""
        uses = self.uses(p, p + 1)
        return Post(self.user[p], self.item[p], self.timestamp[p], tuple(zip(self.tag[uses], self.time[uses])))

    @property
    def posts(self) -> Tuple[Post, ...]:
        """Every post as a :class:`Post` value, in (user, item) order, built on each read."""
        return tuple(map(self._post, range(len(self))))

    def users(self) -> List[int]:
        """Ids of users with at least one post, ascending."""
        return _present(self._user_start)

    def items(self) -> List[int]:
        """Ids of items with at least one post, ascending."""
        return _present(self._item_start)

    def post_range(self, user: int) -> range:
        """Numbers of the user's posts (posts are user-sorted)."""
        return range(*_span(self._user_start, user))

    def user_uses(self, user: int) -> slice:
        """Where the user's tag uses lie in ``tag`` and ``time``, in post order."""
        return self.uses(*_span(self._user_start, user))

    def posts_of_user(self, user: int) -> Tuple[Post, ...]:
        return tuple([*map(self._post, self.post_range(user))])

    def posts_of_item(self, item: int) -> Tuple[Post, ...]:
        lo, hi = _span(self._item_start, item)
        return tuple([*map(self._post, self._item_posts[lo:hi])])

    def items_of_user(self, user: int) -> Tuple[int, ...]:
        """Items the user has bookmarked, ascending (posts are item-sorted)."""
        return self._user_items.get(user, ())

    def taggers_of_item(self, item: int) -> Tuple[int, ...]:
        """Users who bookmarked the item, ascending (posts are user-sorted)."""
        return self._item_users.get(item, ())

    def user_tag_counts(self, user: int) -> Mapping[int, int]:
        """tag -> number of the user's posts carrying that tag."""
        return Counter(self.tag[self.user_uses(user)])

    def item_tag_counts(self, item: int) -> Mapping[int, int]:
        """tag -> number of posts on this item carrying that tag."""
        lo, hi = _span(self._item_start, item)
        tag, uses = self.tag, self.uses
        return Counter(chain.from_iterable([tag[uses(p, p + 1)] for p in self._item_posts[lo:hi]]))

    def tag_use_times(self, user: int) -> Dict[int, List[int]]:
        """tag -> timestamps of the user's uses of that tag, in post order."""
        span = self.user_uses(user)
        uses: Dict[int, List[int]] = {}
        for tag, ts in zip(self.tag[span], self.time[span]):
            uses.setdefault(tag, []).append(ts)
        return uses

    def stats(self) -> Stats:
        """Counted from the columns alone: builds no index."""
        return Stats(
            bookmarks=len(self),
            users=len(set(self.user)),
            resources=len(set(self.item)),
            tags=len(set(self.tag)),
            assignments=len(self.tag),
        )

    def rows(self) -> Iterator[str]:
        """``user\titem\ttag\tts`` label rows in post order, one per tag use of each post.

        The one spelling of a row: the plain dump format ingest reads, and,
        sorted, the snapshot body.
        """
        user_of, item_of, tag_of = self.vocab.users.label_of, self.vocab.items.label_of, self.vocab.tags.label_of
        uses = zip(self.tag, self.time)
        for user, item, size in zip(self.user, self.item, self.sizes()):
            user, item = user_of(user), item_of(item)
            for tag, ts in islice(uses, size):
                yield f"{user}\t{item}\t{tag_of(tag)}\t{ts}"

    def label_rows(self) -> List[str]:
        """The :meth:`rows`, sorted: the snapshot body.

        Their digest is cached as the fingerprint if none is yet, so a
        snapshot writer builds the rows once for both.
        """
        rows = sorted(self.rows())
        if self._fingerprint is None:
            self._fingerprint = _label_digest(rows)
        return rows

    def fingerprint(self) -> str:
        """Stable content digest, independent of id assignment and input order.

        Hashes the label-level canonical row set, so two loads of the same
        data (even with rows shuffled, which permutes interned ids) agree.
        """
        if self._fingerprint is None:
            self.label_rows()
        return self._fingerprint


def _offsets(ids: array) -> array:
    """Per id k, where the entries equal to k begin: they lie in ``offsets[k]:offsets[k + 1]`` of ``ids`` sorted."""
    counts = [0] * (max(ids, default=-1) + 2)
    for k in ids:
        counts[k + 1] += 1
    return array("q", accumulate(counts))


def _span(offsets: array, ident: int) -> Tuple[int, int]:
    """``offsets[ident]``, ``offsets[ident + 1]``; an empty span for an id outside the offsets."""
    if 0 <= ident < len(offsets) - 1:
        return offsets[ident], offsets[ident + 1]
    return 0, 0


def _id_tuples(offsets: array, values: array) -> Dict[int, Tuple[int, ...]]:
    """Per id k with a non-empty span, ``values[offsets[k]:offsets[k + 1]]`` as a tuple.

    The tuples share one int object per value. Each is copied from a list: a
    tuple built from an iterator of unknown length is reallocated as it
    grows, and doing that for every id of every build fragments the heap, so
    a process's peak memory creeps up.
    """
    shared = list(range(max(values, default=-1) + 1))
    return {k: tuple([*map(shared.__getitem__, values[offsets[k] : offsets[k + 1]])]) for k in _present(offsets)}


def _present(offsets: array) -> List[int]:
    """The ids with a non-empty span, ascending."""
    return [k for k in range(len(offsets) - 1) if offsets[k] != offsets[k + 1]]


def _label_chunks(rows: Iterable[str]) -> Iterator[str]:
    """The rows joined by newlines, in consecutive pieces of up to ``_CHUNK_ROWS`` rows.

    Joined by newlines in turn, the pieces give the whole text. Each piece is
    built when it is asked for, so a reader that consumes them one at a time
    holds one piece next to the rows, never the whole text.
    """
    rows = iter(rows)
    while piece := list(islice(rows, _CHUNK_ROWS)):
        yield "\n".join(piece)


def open_output(path: str | Path) -> TextIO:
    """Open ``path`` for writing as every file folkrec writes: UTF-8, ``"\\n"`` line ends on every platform."""
    return open(path, "w", encoding="utf-8", newline="\n")


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line followed by ``"\\n"`` through :func:`open_output`, piece by piece, never joined whole."""
    with open_output(path) as fh:
        fh.writelines(f"{chunk}\n" for chunk in _label_chunks(lines))


def _label_digest(rows: Sequence[str]) -> str:
    """sha256 of the rows joined by newlines (the fingerprint), fed piece by piece."""
    digest = hashlib.sha256()
    separator = b""
    for chunk in _label_chunks(rows):
        digest.update(separator)
        digest.update(chunk.encode("utf-8"))
        separator = b"\n"
    return digest.hexdigest()


def build_folksonomy(assignments: Iterable[Assignment], vocab: Vocab) -> Folksonomy:
    """Group (user, item, tag, timestamp) rows into the posts of a folksonomy, sorted by (user, item).

    Rows sharing (user, item) merge into one post whose timestamp is the
    earliest among them. Duplicate (user, item, tag) rows collapse to the
    earliest use so re-imports cannot inflate frequency counts. The result
    does not depend on input order. No rows is an EmptyDatasetError.

    One sort does the grouping: in (user, item, tag, timestamp) order a
    post's rows are adjacent, its tags ascend, and the first row of each tag
    is that tag's earliest use. The rows go straight into the columns.
    """
    users, items, stamps, start = array("i"), array("i"), array("q"), array("q")
    tags, times = array("i"), array("q")
    last_user = last_item = last_tag = None
    for user, item, tag, ts in sorted(assignments):
        if item != last_item or user != last_user:  # the first row of a new post
            start.append(len(tags))
            users.append(user)
            items.append(item)
            stamps.append(ts)
            last_user, last_item = user, item
        elif tag == last_tag:  # a later use of a tag the post already has
            continue
        elif ts < stamps[-1]:
            stamps[-1] = ts
        tags.append(tag)
        times.append(ts)
        last_tag = tag
    if not users:
        raise EmptyDatasetError("no tag assignments to build from")
    start.append(len(tags))
    return Folksonomy(users, items, stamps, start, tags, times, vocab)


def fingerprint(folksonomy: Folksonomy) -> str:
    return folksonomy.fingerprint()
