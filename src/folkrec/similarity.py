"""Sparse vectors, cosine similarity, top-k user neighborhoods and item-item sums.

All user profiles (binary item rows, tag-frequency profiles, time-weighted
variants) are non-negative sparse vectors, so every cosine lands in [0, 1].
Neighborhood search goes through an inverted index over vector dimensions:
only users co-occurring with the target on at least one dimension are
touched, which is also exactly the set with nonzero similarity. The
brute-force all-pairs scan lives in the test suite as the oracle.

Item-item similarity has one home here. Each training folksonomy's item
vectors (binary tagger columns and tag-count vectors) are built once and
shared by every consumer, and ``summed_item_cosines`` scores a user's
candidates against the user's own items through one inverted index per
user; ``overlapping_pair_cosines`` scores every pair within one ranked list
(evaluation's diversity) through one inverted index per list. Item vectors
carry integer weights, so every product and partial dot product is an exact
integer in a float: item-item cosines are exact and do not depend on the
order their terms are added in.

Float sums use math.fsum throughout, so results do not depend on the order
contributions happen to arrive in.
"""

from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import NoProfileError
from .model import Folksonomy

BINARY_ITEM = "binary-item"
TAG_PROFILE = "tag-profile"
PROFILE_KINDS = (BINARY_ITEM, TAG_PROFILE)


class SparseVector:
    """Immutable id -> weight map with strictly positive weights and a cached norm."""

    __slots__ = ("ids", "weights", "norm")

    def __init__(self, entries: Union[Mapping[int, float], Iterable[Tuple[int, float]]]) -> None:
        if isinstance(entries, Mapping):
            pairs = sorted(entries.items())
        else:
            pairs = sorted(entries)
        for _, w in pairs:
            if w <= 0.0:
                raise ValueError(f"sparse vector weights must be positive, got {w}")
        self.ids: Tuple[int, ...] = tuple(i for i, _ in pairs)
        self.weights: Tuple[float, ...] = tuple(w for _, w in pairs)
        self.norm: float = math.sqrt(math.fsum(w * w for w in self.weights))

    def __len__(self) -> int:
        return len(self.ids)

    def items(self) -> Iterable[Tuple[int, float]]:
        return zip(self.ids, self.weights)

    def get(self, ident: int, default: float = 0.0) -> float:
        pos = bisect.bisect_left(self.ids, ident)
        if pos < len(self.ids) and self.ids[pos] == ident:
            return self.weights[pos]
        return default

    def dot(self, other: "SparseVector") -> float:
        """Merge join over the two sorted id tuples; math.fsum of the shared-id products."""
        a_ids, a_weights, b_ids, b_weights = self.ids, self.weights, other.ids, other.weights
        a_len, b_len = len(a_ids), len(b_ids)
        x = y = 0
        terms = []
        while x < a_len and y < b_len:
            a_id, b_id = a_ids[x], b_ids[y]
            if a_id == b_id:
                terms.append(a_weights[x] * b_weights[y])
                x += 1
                y += 1
            elif a_id < b_id:
                x += 1
            else:
                y += 1
        return math.fsum(terms)


def cosine(a: SparseVector, b: SparseVector) -> float:
    """Cosine of two non-negative sparse vectors; 0.0 when either is empty."""
    if not a.ids or not b.ids:
        return 0.0
    value = a.dot(b) / (a.norm * b.norm)
    return max(0.0, min(1.0, value))


@dataclass(frozen=True)
class Neighborhood:
    """At most k most similar users, similarity descending, user id breaking ties."""

    target: int
    neighbors: Tuple[Tuple[int, float], ...]


def binary_item_vector(train: Folksonomy, user: int) -> SparseVector:
    """Row of the binary user-item matrix: weight 1.0 per bookmarked item."""
    return SparseVector({item: 1.0 for item in train.items_of_user(user)})

def tag_profile_vector(train: Folksonomy, user: int) -> SparseVector:
    """Tag-frequency profile: weight = number of times the user applied the tag."""
    return SparseVector({t: float(c) for t, c in train.user_tag_counts(user).items()})

def item_tagger_vector(train: Folksonomy, item: int) -> SparseVector:
    """Column of the binary matrix: weight 1.0 per user who bookmarked the item."""
    return SparseVector({u: 1.0 for u in train.taggers_of_item(item)})

def item_tag_vector(train: Folksonomy, item: int) -> SparseVector:
    """Aggregated tag counts: weight = number of posts on the item carrying the tag."""
    return SparseVector({t: float(c) for t, c in train.item_tag_counts(item).items()})


# A folksonomy never changes after construction, so its item vectors are a
# pure function of it. They are memoised per folksonomy object, held only as
# long as the folksonomy itself, and handed out read-only.
_ITEM_VECTORS: "weakref.WeakKeyDictionary[Folksonomy, Dict[Callable, Mapping[int, SparseVector]]]" = (
    weakref.WeakKeyDictionary()
)


def _item_vectors(train: Folksonomy, build: Callable[[Folksonomy, int], SparseVector]) -> Mapping[int, SparseVector]:
    per_train = _ITEM_VECTORS.setdefault(train, {})
    vectors = per_train.get(build)
    if vectors is None:
        vectors = MappingProxyType({item: build(train, item) for item in train.items()})
        per_train[build] = vectors
    return vectors


def item_tag_vectors(train: Folksonomy) -> Mapping[int, SparseVector]:
    """Tag-count vector per item, built once per folksonomy: what H ranks by and diversity compares."""
    return _item_vectors(train, item_tag_vector)


def item_tagger_vectors(train: Folksonomy) -> Mapping[int, SparseVector]:
    """Binary tagger column per item, built once per folksonomy: what CIRTT ranks by."""
    return _item_vectors(train, item_tagger_vector)


def summed_item_cosines(
    vectors: Mapping[int, SparseVector],
    owned: Iterable[int],
    candidates: Iterable[int],
) -> Dict[int, float]:
    """Per candidate, math.fsum of its cosines to every (distinct) owned item.

    Equal bit for bit to ``math.fsum(cosine(vectors[c], vectors[j]) for j in
    owned)``, provided every weight is an integer (item tagger columns and
    tag-count vectors; never the decayed user profiles): each product and
    each partial dot product is then an exact integer in a float (far below
    2**53), so the plain accumulation below equals ``dot``'s fsum. Norms,
    the division and the [0, 1] clamp are those of ``cosine``; an owned item
    sharing no dimension with the candidate adds an exact 0.0 and is skipped.

    One inverted index over the owned items' dimensions serves every
    candidate. ``overlapping_pair_cosines`` works under the same contract.
    """
    postings: Dict[int, List[Tuple[int, float]]] = {}
    norms: Dict[int, float] = {}
    for j in owned:
        vec = vectors[j]
        norms[j] = vec.norm
        for dim, w in vec.items():
            postings.setdefault(dim, []).append((j, w))
    sums: Dict[int, float] = {}
    for item in candidates:
        vec = vectors[item]
        dots: Dict[int, float] = {}
        for dim, w in vec.items():
            for j, ow in postings.get(dim, ()):
                dots[j] = dots.get(j, 0.0) + w * ow
        sums[item] = math.fsum(max(0.0, min(1.0, dot / (vec.norm * norms[j]))) for j, dot in dots.items())
    return sums


def overlapping_pair_cosines(vectors: Sequence[Optional[SparseVector]]) -> List[float]:
    """Cosine of every pair of positions whose vectors share a dimension.

    Every other pair, including any pair with a missing (None) or empty
    vector, has ``cosine`` exactly 0.0 and is left out; the caller counts
    those as ``pairs - len(result)``.

    Each value equals ``cosine(vectors[a], vectors[b])`` bit for bit under
    the contract of ``summed_item_cosines``: every weight is an integer, so
    each product and each partial dot product is an exact integer in a float
    and the plain accumulation below equals ``dot``'s fsum. The division and
    the [0, 1] clamp are those of ``cosine``.

    One inverted index over the list's dimensions serves every pair: each
    position meets only the earlier positions it shares a dimension with.
    """
    postings: Dict[int, List[Tuple[int, float]]] = {}
    norms: Dict[int, float] = {}
    cosines: List[float] = []
    for b, vec in enumerate(vectors):
        if not vec:
            continue
        norms[b] = vec.norm
        dots: Dict[int, float] = {}
        for dim, w in vec.items():
            entries = postings.get(dim)
            if entries is None:
                postings[dim] = [(b, w)]
                continue
            for a, wa in entries:
                dots[a] = dots.get(a, 0.0) + wa * w
            entries.append((b, w))
        for a, dot in dots.items():
            cosines.append(max(0.0, min(1.0, dot / (norms[a] * vec.norm))))
    return cosines


class UserIndex:
    """Inverted index over a fixed set of user vectors, for top-k queries.

    Immutable after construction; queries for different users are safe to run
    concurrently.
    """

    def __init__(self, vectors: Mapping[int, SparseVector]) -> None:
        self._vectors: Dict[int, SparseVector] = dict(vectors)
        postings: Dict[int, List[Tuple[int, float]]] = {}
        for user in sorted(self._vectors):
            for dim, w in self._vectors[user].items():
                postings.setdefault(dim, []).append((user, w))
        self._postings = {dim: tuple(entry) for dim, entry in postings.items()}

    def vector(self, user: int) -> SparseVector:
        return self._vectors[user]

    def __contains__(self, user: int) -> bool:
        return user in self._vectors

    def top_k(self, user: int, k: int) -> Neighborhood:
        """The k most cosine-similar users, zero-similarity users excluded.

        Raises NoProfileError when the target has no (or an empty) vector;
        callers typically skip such users, which feeds the coverage metric.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        vec = self._vectors.get(user)
        if vec is None or len(vec) == 0:
            raise NoProfileError(f"user {user} has no profile to search neighbors for")
        contributions: Dict[int, List[float]] = {}
        for dim, w in vec.items():
            for other, ow in self._postings.get(dim, ()):
                if other != user:
                    contributions.setdefault(other, []).append(w * ow)
        scored = []
        for other in sorted(contributions):
            sim = math.fsum(contributions[other]) / (vec.norm * self._vectors[other].norm)
            sim = min(1.0, sim)
            if sim > 0.0:
                scored.append((other, sim))
        scored.sort(key=lambda entry: (-entry[1], entry[0]))
        return Neighborhood(target=user, neighbors=tuple(scored[:k]))


def build_user_vectors(train: Folksonomy, profile_kind: str) -> Dict[int, SparseVector]:
    if profile_kind == BINARY_ITEM:
        return {u: binary_item_vector(train, u) for u in train.users()}
    if profile_kind == TAG_PROFILE:
        return {u: tag_profile_vector(train, u) for u in train.users()}
    raise ValueError(f"unknown profile kind: {profile_kind!r}")

