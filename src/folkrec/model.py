"""Folksonomy data model.

A folksonomy is the tripartite user-item-tag structure of a social tagging
system. The atomic event is a tag assignment (user, item, tag, timestamp);
all assignments of one user on one item form a post (a bookmark). Everything
downstream (similarity search, recommending, evaluation) reads the immutable
``Folksonomy`` built here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, TextIO, Tuple

from .errors import EmptyDatasetError

# One tag assignment as interned ids: (user, item, tag, timestamp). Timestamps
# are non-negative: parse checks them, and the generator's start at synth.START.
Assignment = Tuple[int, int, int, int]

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
    compares like a plain tuple.
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
    """Immutable store of posts, indexed by user and by item.

    ``posts`` keep the :class:`Post` contract, so every user listed has a tag
    use; they hold at most one post per (user, item), sorted by (user, item)
    as :func:`build_folksonomy` leaves them, which the accessors and the
    filters that keep a subset of another folksonomy's posts rely on. Tag
    statistics (counts, use times, the number of distinct tags) are derived
    from the posts when read. Safe for concurrent reads; never mutated.
    """

    def __init__(self, posts: Sequence[Post], vocab: Vocab) -> None:
        self.posts: Tuple[Post, ...] = tuple(posts)
        self.vocab = vocab
        self._build_indexes()
        self._fingerprint: str | None = None

    def _build_indexes(self) -> None:
        user_posts: Dict[int, List[Post]] = {}
        item_posts: Dict[int, List[Post]] = {}
        for post in self.posts:
            user_posts.setdefault(post.user, []).append(post)
            item_posts.setdefault(post.item, []).append(post)
        self._user_posts: Dict[int, Tuple[Post, ...]] = {u: tuple(ps) for u, ps in user_posts.items()}
        self._user_items: Dict[int, Tuple[int, ...]] = {u: tuple([p.item for p in ps]) for u, ps in user_posts.items()}
        self._item_posts: Dict[int, Tuple[Post, ...]] = {i: tuple(ps) for i, ps in item_posts.items()}

    # -- accessors ---------------------------------------------------------

    def users(self) -> List[int]:
        """Ids of users with at least one post, ascending."""
        return sorted(self._user_posts)

    def items(self) -> List[int]:
        return sorted(self._item_posts)

    def posts_of_user(self, user: int) -> Tuple[Post, ...]:
        return self._user_posts.get(user, ())

    def posts_of_item(self, item: int) -> Tuple[Post, ...]:
        return self._item_posts.get(item, ())

    def items_of_user(self, user: int) -> Tuple[int, ...]:
        """Items the user has bookmarked, ascending (posts are item-sorted)."""
        return self._user_items.get(user, ())

    def taggers_of_item(self, item: int) -> Tuple[int, ...]:
        """Users who bookmarked the item, ascending (posts are user-sorted)."""
        return tuple([p.user for p in self._item_posts.get(item, ())])

    def user_tag_counts(self, user: int) -> Mapping[int, int]:
        """tag -> number of the user's posts carrying that tag."""
        return _tag_counts(self._user_posts.get(user, ()))

    def item_tag_counts(self, item: int) -> Mapping[int, int]:
        """tag -> number of posts on this item carrying that tag."""
        return _tag_counts(self._item_posts.get(item, ()))

    def tag_use_times(self, user: int) -> Dict[int, List[int]]:
        """tag -> timestamps of the user's uses of that tag, in post order."""
        uses: Dict[int, List[int]] = {}
        for post in self._user_posts.get(user, ()):
            for tag, ts in post.tag_times:
                uses.setdefault(tag, []).append(ts)
        return uses

    def stats(self) -> Stats:
        return Stats(
            bookmarks=len(self.posts),
            users=len(self._user_posts),
            resources=len(self._item_posts),
            tags=len(_tag_counts(self.posts)),
            assignments=sum(len(p.tag_times) for p in self.posts),
        )

    def rows(self) -> Iterator[str]:
        """``user\titem\ttag\tts`` label rows in post order, one per tag use of each post.

        The one spelling of a row: the plain dump format ingest reads, and,
        sorted, the snapshot body.
        """
        user_of, item_of, tag_of = self.vocab.users.label_of, self.vocab.items.label_of, self.vocab.tags.label_of
        for post in self.posts:
            user, item = user_of(post.user), item_of(post.item)
            for tag, ts in post.tag_times:
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


def _tag_counts(posts: Iterable[Post]) -> Dict[int, int]:
    """tag -> number of the posts carrying that tag."""
    counts: Dict[int, int] = {}
    for post in posts:
        for tag, _ in post.tag_times:
            counts[tag] = counts.get(tag, 0) + 1
    return counts


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


def group_posts(assignments: Iterable[Assignment]) -> List[Post]:
    """Group (user, item, tag, timestamp) rows into posts sorted by (user, item).

    Rows sharing (user, item) merge into one post whose timestamp is the
    earliest among them. Duplicate (user, item, tag) rows collapse to the
    earliest use so re-imports cannot inflate frequency counts. The result
    does not depend on input order.

    One sort does the grouping: in (user, item, tag, timestamp) order a
    post's rows are adjacent, its tags ascend, and the first row of each tag
    is that tag's earliest use.
    """
    posts: List[Post] = []
    for (user, item), rows in groupby(sorted(assignments), itemgetter(0, 1)):
        tag_times: List[Tuple[int, int]] = []
        last_tag = None
        for _, _, tag, ts in rows:
            if tag != last_tag:
                tag_times.append((tag, ts))
                last_tag = tag
        posts.append(Post(user, item, min(map(itemgetter(1), tag_times)), tuple(tag_times)))
    return posts


def build_folksonomy(assignments: Iterable[Assignment], vocab: Vocab) -> Folksonomy:
    """Group tag assignments into posts (:func:`group_posts`) and build the indexed store."""
    posts = group_posts(assignments)
    if not posts:
        raise EmptyDatasetError("no tag assignments to build from")
    return Folksonomy(posts, vocab)


def fingerprint(folksonomy: Folksonomy) -> str:
    return folksonomy.fingerprint()
