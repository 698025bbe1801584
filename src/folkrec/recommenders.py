"""The six ranking algorithms behind one contract.

Every recommender is built once from training data and then asked, per
user, for the top-n items the user has not bookmarked yet. All of them are
pure functions of (train folksonomy, per-user reference times, config): no
shared mutable state, so batch recommendation parallelizes freely.

Algorithm tags:

* ``MP``      most popular items by global bookmark count
* ``CF_B``    user-based CF over the binary user-item matrix
* ``CF_T``    user-based CF over tag-frequency user profiles
* ``Z``       CF with exponential recency decay built into the weighted
              user-item matrix used for both similarities and scoring
* ``H``       two-step CF over linearly time-weighted tag profiles, ranked
              by tag-vector similarity to the user's own items
* ``CIRTT``   two-step CF: candidates from binary-matrix neighbors, ranked
              by item-item similarity times the recency-weighted activation
              of the candidate's tags in the user's tagging history
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Mapping, Optional, Tuple

from .bll import BllParams, bll_item, build_bll_profile
from .errors import ConfigError, NoProfileError
from .model import Folksonomy
from .similarity import (
    BINARY_ITEM,
    TAG_PROFILE,
    Neighborhood,
    SparseVector,
    UserIndex,
    build_user_vectors,
    item_tag_vectors,
    item_tagger_vectors,
    summed_item_cosines,
)

ALGORITHMS = ("MP", "CF_B", "CF_T", "Z", "H", "CIRTT")

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class RankedList:
    """Ordered (item, score) recommendations for one user.

    Scores are non-increasing; within equal sort keys item ids ascend. Items
    from the user's training profile never appear.
    """

    user: int
    entries: Tuple[Tuple[int, float], ...]

    def items(self) -> Tuple[int, ...]:
        return tuple(i for i, _ in self.entries)


@dataclass(frozen=True)
class RecommenderConfig:
    algorithm: str
    k: int = 20
    n: int = 20
    bll: BllParams = field(default_factory=BllParams)
    t0_seconds: float = 100 * SECONDS_PER_DAY  # e-folding timescale of the Z decay
    floor: float = 0.0  # minimum per-use weight in the H linear decay

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm tag {self.algorithm!r}; known: {', '.join(ALGORITHMS)}")
        if self.k < 1 or self.n < 1:
            raise ConfigError(f"k and n must be >= 1, got k={self.k} n={self.n}")
        if not self.t0_seconds > 0.0:
            raise ConfigError(f"t0_seconds must be positive, got {self.t0_seconds}")
        if self.floor < 0.0:
            raise ConfigError(f"floor must be non-negative, got {self.floor}")


class Recommender:
    """Common surface: rank unseen items for one user from train data only."""

    tag: str = "?"

    def __init__(self, train: Folksonomy, config: RecommenderConfig) -> None:
        self.train = train
        self.config = config

    def recommend(self, user: int, n: Optional[int] = None) -> RankedList:
        """The user's top-n unseen items; n defaults to config.n and must be >= 1."""
        raise NotImplementedError

    def _list_length(self, n: Optional[int]) -> int:
        if n is None:
            return self.config.n
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        return n


def _ranked(user: int, scored: List[Tuple[int, float]], n: int) -> RankedList:
    scored.sort(key=lambda entry: (-entry[1], entry[0]))
    return RankedList(user=user, entries=tuple(scored[:n]))


class MostPopular(Recommender):
    """Unpersonalized baseline: the globally most-bookmarked items."""

    tag = "MP"

    def __init__(self, train: Folksonomy, config: RecommenderConfig) -> None:
        super().__init__(train, config)
        self._ranking = tuple(
            sorted(
                ((item, float(len(train.posts_of_item(item)))) for item in train.items()),
                key=lambda entry: (-entry[1], entry[0]),
            )
        )

    def recommend(self, user: int, n: Optional[int] = None) -> RankedList:
        n = self._list_length(n)
        owned = set(self.train.items_of_user(user))
        unseen = (entry for entry in self._ranking if entry[0] not in owned)
        return RankedList(user=user, entries=tuple(islice(unseen, n)))


class _NeighborhoodRecommender(Recommender):
    """Shared step one of the CF family: neighbors and their new items."""

    def __init__(self, train: Folksonomy, config: RecommenderConfig, vectors: Mapping[int, SparseVector]) -> None:
        super().__init__(train, config)
        self.index = UserIndex(vectors)

    def candidates(self, user: int) -> Tuple[Optional[Neighborhood], Dict[int, List[Tuple[int, float]]]]:
        """Items bookmarked by the k nearest users but new to the target.

        Returns the neighborhood and, per candidate item, the (neighbor,
        similarity) pairs that brought it in, in neighborhood order.
        """
        try:
            neighborhood = self.index.top_k(user, self.config.k)
        except NoProfileError:
            return None, {}
        owned = set(self.train.items_of_user(user))
        contrib: Dict[int, List[Tuple[int, float]]] = {}
        for neighbor, sim in neighborhood.neighbors:
            for item in self.train.items_of_user(neighbor):
                if item not in owned:
                    contrib.setdefault(item, []).append((neighbor, sim))
        return neighborhood, contrib


class UserBasedCF(_NeighborhoodRecommender):
    """CF_B / CF_T: score a candidate by the summed similarity of the neighbors holding it."""

    def __init__(self, train: Folksonomy, config: RecommenderConfig, profile_kind: str) -> None:
        super().__init__(train, config, build_user_vectors(train, profile_kind))
        self.profile_kind = profile_kind
        self.tag = "CF_B" if profile_kind == BINARY_ITEM else "CF_T"

    def recommend(self, user: int, n: Optional[int] = None) -> RankedList:
        n = self._list_length(n)
        _, contrib = self.candidates(user)
        scored = [
            (item, math.fsum(sim for _, sim in pairs))
            for item, pairs in sorted(contrib.items())
        ]
        return _ranked(user, scored, n)


class Cirtt(_NeighborhoodRecommender):
    """Two-step ranking with tag and time information.

    Step one finds candidates exactly as CF_B does (binary matrix, k nearest
    users). Step two scores each candidate by its summed item-item cosine to
    the user's own items, times the summed normalized activation of the
    candidate's tags in the user's tagging history. Candidates with no tag
    overlap score zero and fall back to the item-similarity order.
    """

    tag = "CIRTT"

    def __init__(self, train: Folksonomy, t_ref: Mapping[int, int], config: RecommenderConfig) -> None:
        super().__init__(train, config, build_user_vectors(train, BINARY_ITEM))
        self.t_ref = t_ref
        self.item_vectors = item_tagger_vectors(train)

    def item_similarity(self, user: int, item: int) -> float:
        """Summed cosine between the candidate's and the user's item columns."""
        return summed_item_cosines(self.item_vectors, self.train.items_of_user(user), (item,))[item]

    def recommend(self, user: int, n: Optional[int] = None) -> RankedList:
        n = self._list_length(n)
        _, contrib = self.candidates(user)
        if not contrib:
            return RankedList(user=user, entries=())
        try:
            profile = build_bll_profile(self.train, user, self.t_ref[user], self.config.bll)
        except (NoProfileError, KeyError):
            return RankedList(user=user, entries=())
        sims = summed_item_cosines(self.item_vectors, self.train.items_of_user(user), sorted(contrib))
        scored = []
        for item, sim in sims.items():
            activation = bll_item(profile, self.train.item_tags(item))
            scored.append((item, sim * activation, sim))
        scored.sort(key=lambda entry: (-entry[1], -entry[2], entry[0]))
        return RankedList(user=user, entries=tuple((item, pred) for item, pred, _ in scored[:n]))


class ExpDecayCF(_NeighborhoodRecommender):
    """Z-style CF: exponential recency decay applied before user similarity.

    The binary matrix is replaced by W[u][i] = (number of tags u put on i)
    * exp(-(t_ref(u) - t(u,i)) / t0); both the user neighborhood and the
    candidate scores sum(sim(u,v) * W[v][i]) are computed from W.
    """

    tag = "Z"

    def __init__(self, train: Folksonomy, t_ref: Mapping[int, int], config: RecommenderConfig) -> None:
        self._weights: Dict[int, Dict[int, float]] = {}
        for user in train.users():
            reference = t_ref[user]
            self._weights[user] = {
                post.item: len(post.tag_times) * math.exp(-(reference - post.timestamp) / config.t0_seconds)
                for post in train.posts_of_user(user)
            }
        super().__init__(train, config, {user: SparseVector(row) for user, row in self._weights.items()})

    def recommend(self, user: int, n: Optional[int] = None) -> RankedList:
        n = self._list_length(n)
        _, contrib = self.candidates(user)
        scored = [
            (item, math.fsum(sim * self._weights[neighbor][item] for neighbor, sim in pairs))
            for item, pairs in sorted(contrib.items())
        ]
        return _ranked(user, scored, n)


class LinearDecayTagCF(_NeighborhoodRecommender):
    """H-style two-step CF over linearly time-weighted tag profiles.

    Each tag use is weighted by its position in the user's training window:
    0 at the earliest use, 1 at the latest, clamped from below by the
    configured floor; a user whose uses all share one timestamp keeps flat
    weight 1. Neighbors come from cosine over these weighted profiles; the
    candidates are then ranked by the summed cosine between aggregated item
    tag vectors of the candidate and of the user's own items.
    """

    tag = "H"

    def __init__(self, train: Folksonomy, t_ref: Mapping[int, int], config: RecommenderConfig) -> None:
        vectors = {
            user: SparseVector(self._weighted_tag_profile(train, user, t_ref[user], config.floor))
            for user in train.users()
        }
        super().__init__(train, config, vectors)
        self.item_vectors = item_tag_vectors(train)

    @staticmethod
    def _weighted_tag_profile(train: Folksonomy, user: int, reference: int, floor: float) -> Dict[int, float]:
        uses = train.tag_use_times(user)
        if not uses:
            return {}
        earliest = min(ts for times in uses.values() for ts in times)
        latest = reference - 1
        span = latest - earliest
        profile: Dict[int, float] = {}
        for tag, times in sorted(uses.items()):
            if span > 0:
                weight = math.fsum(max(floor, (ts - earliest) / span) for ts in times)
            else:
                weight = float(len(times))
            if weight > 0.0:
                profile[tag] = weight
        return profile

    def recommend(self, user: int, n: Optional[int] = None) -> RankedList:
        n = self._list_length(n)
        _, contrib = self.candidates(user)
        scores = summed_item_cosines(self.item_vectors, self.train.items_of_user(user), sorted(contrib))
        return _ranked(user, list(scores.items()), n)


def build_recommender(
    train: Folksonomy,
    t_ref: Mapping[int, int],
    config: RecommenderConfig,
) -> Recommender:
    """Instantiate the algorithm named by config.algorithm."""
    tag = config.algorithm
    if tag == "MP":
        return MostPopular(train, config)
    if tag == "CF_B":
        return UserBasedCF(train, config, BINARY_ITEM)
    if tag == "CF_T":
        return UserBasedCF(train, config, TAG_PROFILE)
    if tag == "Z":
        return ExpDecayCF(train, t_ref, config)
    if tag == "H":
        return LinearDecayTagCF(train, t_ref, config)
    if tag == "CIRTT":
        return Cirtt(train, t_ref, config)
    raise ConfigError(f"unknown algorithm tag {tag!r}")
