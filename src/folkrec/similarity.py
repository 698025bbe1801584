"""Sparse vectors, one postings index, top-k user neighborhoods and item-item sums.

All user profiles (binary item rows, tag-frequency profiles, time-weighted
variants) are non-negative sparse vectors, so every cosine lands in [0, 1].
Both cosine steps of the two-step algorithms take their cosines from one
inverted index, ``Postings``: ``Postings.top_k`` finds a user's neighbors
(only users sharing a dimension with the target are touched, exactly the set
with nonzero similarity), and ``summed_item_cosines`` scores a user's
candidates against the user's own items with ``Postings.cosines``. One rule
covers zero: a 0.0 weight is not an entry, and a vector of norm 0.0 (empty,
or every squared weight underflows) has cosine 0 with every vector and is
left out. One rule covers the top of the float range: a weight that is
negative, infinite or nan, or weights whose squares do not sum to a finite
float, raise ``ValueError``, so every norm is finite. The brute-force
all-pairs scan lives in the test suite as the oracle.

Every dot product is rounded once. One rule covers exact integers: a
vector is ``integral`` when every weight is an integer and its squares sum
below 2**53. By Cauchy-Schwarz a dot of two integral vectors, and so each
of its products and partial sums, is then under that bound too: an exact
integer in a float, added as it comes. Any other dot is summed with
math.fsum, so no result depends on the order its terms arrive in. Each
training folksonomy's item vectors (binary tagger columns and tag-count
vectors) are built once and shared by every consumer. ``diversity`` scores
every pair within one ranked list in its own fused pass.
"""

from __future__ import annotations

import math
import weakref
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import NoProfileError, is_integer
from .model import Folksonomy

BINARY_ITEM = "binary-item"
TAG_PROFILE = "tag-profile"


def best_first(pairs: Iterable[Tuple[int, float]], k: Optional[int] = None) -> List[Tuple[int, float]]:
    """(id, score) pairs by score descending, id ascending; only the first k when k is given.

    Sorts plain (-score, id) tuples, whose native order is exactly this one,
    so no key function runs per pair. Negation is exact, so every score
    comes back bit for bit.
    """
    order = sorted([(-score, ident) for ident, score in pairs])
    if k is not None:
        del order[k:]
    return [(ident, -neg) for neg, ident in order]


class SparseVector:
    """Immutable id -> weight map with a cached norm; a 0.0 weight is left out (the module's zero rule).

    Weights that the module's range rule rejects raise ``ValueError``.
    ``integral`` follows the module's exact-integer rule.
    """

    __slots__ = ("ids", "weights", "norm", "integral")

    def __init__(self, entries: Mapping[int, float]) -> None:
        ids: List[int] = []
        weights: List[float] = []
        integral = True
        for i, w in sorted(entries.items()):
            if not 0.0 <= w < math.inf:
                raise ValueError(f"sparse vector weights must be non-negative and finite, got {w}")
            if w:
                ids.append(i)
                weights.append(w)
                integral = integral and float(w).is_integer()
        try:
            squares = math.fsum(w * w for w in weights)
        except OverflowError:  # a partial sum left the float range
            squares = math.inf
        if squares == math.inf:
            raise ValueError(f"sparse vector squared weights must sum to a finite float; largest weight {max(weights)}")
        self.ids: Tuple[int, ...] = tuple(ids)
        self.weights: Tuple[float, ...] = tuple(weights)
        self.norm: float = math.sqrt(squares)
        self.integral: bool = integral and squares < 2.0**53

    def items(self) -> Iterable[Tuple[int, float]]:
        return zip(self.ids, self.weights)


class Postings:
    """Inverted index over a fixed id -> vector map: dots, cosines and top-k neighbours of a query.

    By the module's zero rule, a vector of norm 0.0 is left out of the index
    and as a query gets no cosines. ``vectors`` maps every indexed id to its
    vector. Whether the integer shortcut applies to the indexed side is
    decided once, here.

    Immutable after construction; queries are safe to run concurrently.
    """

    __slots__ = ("vectors", "_lists", "_integral")

    def __init__(self, vectors: Mapping[int, SparseVector]) -> None:
        self.vectors: Dict[int, SparseVector] = {ident: vec for ident, vec in vectors.items() if vec.norm}
        lists: Dict[int, List[Tuple[int, float]]] = {}
        integral = True
        for ident, vec in self.vectors.items():
            integral = integral and vec.integral
            for dim, w in vec.items():
                lists.setdefault(dim, []).append((ident, w))
        self._lists = lists
        self._integral = integral

    def dots(self, query: SparseVector) -> Dict[int, float]:
        """{id: dot with query} for every indexed vector sharing a dimension with it.

        Each dot is the correctly rounded sum of its products, as
        ``math.fsum`` gives it. When the query and every indexed vector are
        integral, the module's exact-integer rule lets the terms be added as
        they come.
        """
        lists = self._lists
        if self._integral and query.integral:
            dots: Dict[int, float] = {}
            for dim, w in query.items():
                for ident, iw in lists.get(dim, ()):
                    dots[ident] = dots.get(ident, 0.0) + w * iw
            return dots
        terms: Dict[int, List[float]] = {}
        for dim, w in query.items():
            for ident, iw in lists.get(dim, ()):
                terms.setdefault(ident, []).append(w * iw)
        return {ident: math.fsum(products) for ident, products in terms.items()}

    def cosines(self, query: SparseVector) -> Dict[int, float]:
        """{id: cosine with query} for the ids ``dots`` returns: each dot over both norms, clamped at 1.

        No product is negative, so neither is a cosine. A query of norm 0.0 gets none.
        """
        norm, vectors = query.norm, self.vectors
        if not norm:
            return {}
        cosines = self.dots(query)  # a fresh dict: each dot is replaced by its cosine
        for ident, dot in cosines.items():
            c = dot / (norm * vectors[ident].norm)
            cosines[ident] = c if c < 1.0 else 1.0
        return cosines

    def top_k(self, user: int, k: int) -> Tuple[Tuple[int, float], ...]:
        """The k most cosine-similar users as (user, similarity) pairs.

        Similarity descends, user id breaks ties, zero-similarity users are
        excluded.

        Raises NoProfileError when the target has no vector or one of norm
        0.0; callers typically skip such users, which feeds the coverage
        metric. A k that is not an integer >= 1 raises ValueError.
        """
        if not (is_integer(k) and k >= 1):
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        vec = self.vectors.get(user)
        if vec is None:
            raise NoProfileError(f"user {user} has no profile to search neighbors for")
        cosines = self.cosines(vec)
        del cosines[user]
        # the target shares its own dimensions, so it is always a key; a zero
        # similarity sorts after every positive one, so dropping zeros after
        # the cut keeps the same pairs in the same order
        return tuple(pair for pair in best_first(cosines.items(), k) if pair[1] > 0.0)


# A folksonomy never changes after construction, so its item vectors are a
# pure function of it. They are memoised per folksonomy object and kind,
# held only as long as the folksonomy itself, and handed out read-only.
_ITEM_VECTORS: "weakref.WeakKeyDictionary[Folksonomy, Dict[str, Mapping[int, SparseVector]]]" = (
    weakref.WeakKeyDictionary()
)


def _item_vectors(
    train: Folksonomy, kind: str, weights: Callable[[int], Mapping[int, float]]
) -> Mapping[int, SparseVector]:
    per_train = _ITEM_VECTORS.setdefault(train, {})
    vectors = per_train.get(kind)
    if vectors is None:
        vectors = MappingProxyType({item: SparseVector(weights(item)) for item in train.items()})
        per_train[kind] = vectors
    return vectors


def item_tag_vectors(train: Folksonomy) -> Mapping[int, SparseVector]:
    """Tag-count vector per item, built once per folksonomy: H ranks by it, diversity and CIRTT read it."""
    return _item_vectors(train, "tags", lambda item: {t: float(c) for t, c in train.item_tag_counts(item).items()})


def item_tagger_vectors(train: Folksonomy) -> Mapping[int, SparseVector]:
    """Binary tagger column per item, built once per folksonomy: what CIRTT ranks by."""
    return _item_vectors(train, "taggers", lambda item: {u: 1.0 for u in train.taggers_of_item(item)})


def summed_item_cosines(
    vectors: Mapping[int, SparseVector],
    owned: Iterable[int],
    candidates: Iterable[int],
) -> Dict[int, float]:
    """Per candidate, math.fsum of its cosines to every (distinct) owned item.

    Each cosine comes from ``Postings.cosines`` over one index of the owned
    items, which serves every candidate; an owned item sharing no dimension
    with the candidate adds an exact 0.0 and is skipped, as is every pair
    the module's zero rule gives cosine 0.
    """
    index = Postings({j: vectors[j] for j in owned})
    return {item: math.fsum(index.cosines(vectors[item]).values()) for item in candidates}


def diversity(recommended: Sequence[int], item_vectors: Mapping[int, SparseVector]) -> float:
    """Mean pairwise tag-vector cosine distance within one ranked list.

    Lists with fewer than two items have no pairs and score 0. An item
    without a vector counts as maximally distant from everything (cosine 0),
    as one of norm 0.0 does by the module's zero rule; neither takes a
    position in the pass. Every vector must be integral (item tag-count
    vectors are; any other vector raises ValueError), so by the module's
    exact-integer rule the plain accumulation below is the exact dot. A
    cosine is that dot over the product of the two norms, clamped at 1, as
    ``Postings.cosines`` computes it.

    One inverted index over the list's dimensions serves every pair: each
    position meets only the earlier positions it shares a dimension with.
    Querying and inserting happen in one fused pass, which is why this does
    not go through ``Postings``.
    """
    m = len(recommended)
    if m < 2:
        return 0.0
    postings: Dict[int, List[Tuple[int, float]]] = {}
    norms: List[float] = []
    distances: List[float] = []
    for item in recommended:
        vec = item_vectors.get(item)
        if vec is None or not vec.norm:
            continue
        if not vec.integral:
            raise ValueError(f"diversity needs integral vectors; the vector of item {item} is not")
        b = len(norms)
        norm = vec.norm
        norms.append(norm)
        # dots[a] is the dot with earlier position a; it stays 0.0 exactly
        # when the two share no dimension, as every product is positive
        dots = [0.0] * b
        for dim, w in vec.items():
            entries = postings.get(dim)
            if entries is None:
                postings[dim] = [(b, w)]
                continue
            for a, wa in entries:
                dots[a] += wa * w
            entries.append((b, w))
        for a, dot in enumerate(dots):
            if dot:
                c = dot / (norms[a] * norm)
                distances.append(1.0 - c if c < 1.0 else 0.0)
    # every other pair is at distance exactly 1.0; fsum rounds the exact
    # total once, so they can enter as one count
    distances.append(m * (m - 1) // 2 - len(distances))
    return math.fsum(distances) / (m * (m - 1) / 2)


UserIndex = Postings  # the old name, still imported by perfbench/run.py


def build_user_vectors(train: Folksonomy, profile_kind: str) -> Dict[int, SparseVector]:
    """Per user, a row of the binary user-item matrix (BINARY_ITEM: 1.0 per
    bookmarked item) or a tag-frequency profile (TAG_PROFILE: how often the
    user applied each tag)."""
    if profile_kind == BINARY_ITEM:
        return {u: SparseVector({item: 1.0 for item in train.items_of_user(u)}) for u in train.users()}
    if profile_kind == TAG_PROFILE:
        return {u: SparseVector({t: float(c) for t, c in train.user_tag_counts(u).items()}) for u in train.users()}
    raise ValueError(f"unknown profile kind: {profile_kind!r}")
