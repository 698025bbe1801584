"""The six ranking algorithms behind one contract.

Every recommender is built once from training data and then asked, per
user, for the top-n items the user has not bookmarked yet. All of them are
pure functions of (train folksonomy, per-user reference times, config): no
shared mutable state, so batch recommendation parallelizes freely. Each
algorithm supplies only its ranking of the user's unseen items; the base
class cuts it to the requested length.

The ``t_ref`` a recommender receives covers every training user, as
``split.reference_times`` builds it (a missing user raises ``KeyError``), and
every training user has a tag use (the ``model.Post`` contract).

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
import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .bll import BllParams, bll_item, build_bll_profile
from .errors import ConfigError, NoProfileError, is_integer, is_number
from .model import Folksonomy
from .similarity import (
    BINARY_ITEM,
    TAG_PROFILE,
    Postings,
    SparseVector,
    best_first,
    build_user_vectors,
    item_tag_vectors,
    item_tagger_vectors,
    summed_item_cosines,
)

ALGORITHMS = ("MP", "CF_B", "CF_T", "Z", "H", "CIRTT")

K_MAX = 20  # list length: evaluation reads every per-k metric off it; recommend's default

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
    bll: BllParams = field(default_factory=BllParams)
    t0_seconds: float = 100 * SECONDS_PER_DAY  # e-folding timescale of the Z decay
    floor: float = 0.0  # minimum per-use weight in the H linear decay, in [0, 1]

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm tag {self.algorithm!r}; known: {', '.join(ALGORITHMS)}")
        if not (is_integer(self.k) and self.k >= 1):
            raise ConfigError(f"k must be an integer >= 1, got {self.k!r}")
        if not isinstance(self.bll, BllParams):
            raise ConfigError(f"bll must be a BllParams, got {self.bll!r}")
        if not (is_number(self.t0_seconds) and 0.0 < self.t0_seconds <= sys.float_info.max):
            raise ConfigError(f"t0_seconds must be a positive finite number, got {self.t0_seconds!r}")
        # per-use weights lie in [0, 1]; a floor above 1 would only rescale
        # every weight alike, and from ~1e154 on their squares overflow
        if not (is_number(self.floor) and 0.0 <= self.floor <= 1.0):
            raise ConfigError(f"floor must be a number in [0, 1], got {self.floor!r}")
        # stored as floats, so an int setting echoes into the report as a float does
        object.__setattr__(self, "t0_seconds", float(self.t0_seconds))
        object.__setattr__(self, "floor", float(self.floor))


class Recommender:
    """Common surface: rank unseen items for one user from train data only.

    An algorithm implements ``ranking``; ``recommend`` cuts it to length.
    """

    def __init__(self, train: Folksonomy, t_ref: Mapping[int, int], config: RecommenderConfig) -> None:
        self.train = train
        self.t_ref = t_ref
        self.config = config

    def ranking(self, user: int) -> Iterable[Tuple[int, float]]:
        """The user's unseen items as (item, score), best first."""
        raise NotImplementedError

    def recommend(self, user: int, n: int = K_MAX) -> RankedList:
        """The user's top-n unseen items, all of them when n is longer; n must be an integer >= 1."""
        if not (is_integer(n) and n >= 1):
            raise ConfigError(f"n must be an integer >= 1, got {n!r}")
        # islice takes no stop above sys.maxsize, and no ranking is that long
        return RankedList(user=user, entries=tuple(islice(self.ranking(user), min(n, sys.maxsize))))


class MostPopular(Recommender):
    """Unpersonalized baseline: the globally most-bookmarked items."""

    def __init__(self, train: Folksonomy, t_ref: Mapping[int, int], config: RecommenderConfig) -> None:
        super().__init__(train, t_ref, config)
        self._by_popularity = tuple(
            best_first((item, float(len(train.posts_of_item(item)))) for item in train.items())
        )

    def ranking(self, user: int) -> Iterable[Tuple[int, float]]:
        owned = set(self.train.items_of_user(user))
        return (entry for entry in self._by_popularity if entry[0] not in owned)


class _NeighborhoodRecommender(Recommender):
    """The CF family: step one finds neighbors and their new items, step two scores them.

    A subclass supplies the user vectors and ``scores``; ranking sorts by
    score descending, item id ascending.
    """

    def __init__(
        self,
        train: Folksonomy,
        t_ref: Mapping[int, int],
        config: RecommenderConfig,
        vectors: Mapping[int, SparseVector],
    ) -> None:
        super().__init__(train, t_ref, config)
        self.index = Postings(vectors)

    def candidates(
        self, user: int
    ) -> Tuple[Optional[Tuple[Tuple[int, float], ...]], Dict[int, List[Tuple[int, float]]]]:
        """Items bookmarked by the k nearest users but new to the target.

        Returns the (neighbor, similarity) pairs, or None for a user without
        a profile, and, per candidate item, the pairs that brought it in, in
        neighborhood order.
        """
        try:
            neighbors = self.index.top_k(user, self.config.k)
        except NoProfileError:
            return None, {}
        items_of_user = self.train.items_of_user
        owned = set(items_of_user(user))
        contrib: Dict[int, List[Tuple[int, float]]] = {}
        for pair in neighbors:
            for item in items_of_user(pair[0]):
                if item not in owned:
                    pairs = contrib.get(item)
                    if pairs is None:
                        contrib[item] = [pair]
                    else:
                        pairs.append(pair)
        return neighbors, contrib

    def scores(self, user: int, contrib: Mapping[int, List[Tuple[int, float]]]) -> Mapping[int, float]:
        """Score per candidate item in ``contrib``."""
        raise NotImplementedError

    def ranking(self, user: int) -> Iterable[Tuple[int, float]]:
        _, contrib = self.candidates(user)
        return best_first(self.scores(user, contrib).items())


class UserBasedCF(_NeighborhoodRecommender):
    """CF_B / CF_T: score a candidate by the summed similarity of the neighbors holding it."""

    def __init__(self, train: Folksonomy, t_ref: Mapping[int, int], config: RecommenderConfig) -> None:
        profile_kind = {"CF_B": BINARY_ITEM, "CF_T": TAG_PROFILE}[config.algorithm]
        super().__init__(train, t_ref, config, build_user_vectors(train, profile_kind))

    def scores(self, user: int, contrib: Mapping[int, List[Tuple[int, float]]]) -> Mapping[int, float]:
        return {item: math.fsum([sim for _, sim in pairs]) for item, pairs in contrib.items()}


class Cirtt(_NeighborhoodRecommender):
    """Two-step ranking with tag and time information.

    Step one finds candidates exactly as CF_B does (binary matrix, k nearest
    users). Step two scores each candidate by its summed item-item cosine to
    the user's own items, times the summed normalized activation of the
    candidate's tags in the user's tagging history. Candidates with no tag
    overlap score zero and fall back to the item-similarity order.
    """

    def __init__(self, train: Folksonomy, t_ref: Mapping[int, int], config: RecommenderConfig) -> None:
        super().__init__(train, t_ref, config, build_user_vectors(train, BINARY_ITEM))
        self.item_vectors = item_tagger_vectors(train)
        self.tag_vectors = item_tag_vectors(train)  # a candidate's tags are its vector's ids

    def item_similarity(self, user: int, item: int) -> float:
        """Summed cosine between the candidate's and the user's item columns."""
        return summed_item_cosines(self.item_vectors, self.train.items_of_user(user), (item,))[item]

    def ranking(self, user: int) -> Iterable[Tuple[int, float]]:
        # ties in the prediction break by item similarity before item id,
        # so this overrides the shared (score, item) sort
        _, contrib = self.candidates(user)
        if not contrib:
            return ()
        profile = build_bll_profile(self.train, user, self.t_ref[user], self.config.bll)
        sims = summed_item_cosines(self.item_vectors, self.train.items_of_user(user), contrib)
        tags = self.tag_vectors
        scored = sorted([(-(sim * bll_item(profile, tags[item].ids)), -sim, item) for item, sim in sims.items()])
        return ((item, -neg_pred) for neg_pred, _, item in scored)


class ExpDecayCF(_NeighborhoodRecommender):
    """Z-style CF: exponential recency decay applied before user similarity.

    The binary matrix is replaced by W[u][i] = (number of tags u put on i)
    * exp(-(t_ref(u) - t(u,i)) / t0); both the user neighborhood and the
    candidate scores sum(sim(u,v) * W[v][i]) are computed from W. A weight
    whose decay underflows to 0.0 is left out of the user vectors (it adds
    nothing to a dot product) and adds an exact 0.0 to a score.
    """

    def __init__(self, train: Folksonomy, t_ref: Mapping[int, int], config: RecommenderConfig) -> None:
        self._weights: Dict[int, Dict[int, float]] = {}
        for user in train.users():
            reference = t_ref[user]
            self._weights[user] = {
                post.item: len(post.tag_times) * math.exp(-(reference - post.timestamp) / config.t0_seconds)
                for post in train.posts_of_user(user)
            }
        vectors = {
            user: SparseVector({item: w for item, w in row.items() if w > 0.0})
            for user, row in self._weights.items()
        }
        super().__init__(train, t_ref, config, vectors)

    def scores(self, user: int, contrib: Mapping[int, List[Tuple[int, float]]]) -> Mapping[int, float]:
        weights = self._weights
        return {
            item: math.fsum([sim * weights[neighbor][item] for neighbor, sim in pairs])
            for item, pairs in contrib.items()
        }


class LinearDecayTagCF(_NeighborhoodRecommender):
    """H-style two-step CF over linearly time-weighted tag profiles.

    Each tag use is weighted by its position in the user's training window:
    0 at the earliest use, 1 at the latest, clamped from below by the
    configured floor; a user whose uses all share one timestamp keeps flat
    weight 1. Neighbors come from cosine over these weighted profiles; the
    candidates are then ranked by the summed cosine between aggregated item
    tag vectors of the candidate and of the user's own items.
    """

    def __init__(self, train: Folksonomy, t_ref: Mapping[int, int], config: RecommenderConfig) -> None:
        vectors = {
            user: SparseVector(self._weighted_tag_profile(train, user, t_ref[user], config.floor))
            for user in train.users()
        }
        super().__init__(train, t_ref, config, vectors)
        self.item_vectors = item_tag_vectors(train)

    @staticmethod
    def _weighted_tag_profile(train: Folksonomy, user: int, reference: int, floor: float) -> Dict[int, float]:
        uses = train.tag_use_times(user)
        earliest = min(ts for times in uses.values() for ts in times)
        latest = reference - 1
        span = latest - earliest
        profile: Dict[int, float] = {}
        for tag, times in uses.items():
            if span > 0:
                weight = math.fsum(max(floor, (ts - earliest) / span) for ts in times)
            else:
                weight = float(len(times))
            if weight > 0.0:
                profile[tag] = weight
        return profile

    def scores(self, user: int, contrib: Mapping[int, List[Tuple[int, float]]]) -> Mapping[int, float]:
        return summed_item_cosines(self.item_vectors, self.train.items_of_user(user), contrib)


_CLASSES = {
    "MP": MostPopular,
    "CF_B": UserBasedCF,
    "CF_T": UserBasedCF,
    "Z": ExpDecayCF,
    "H": LinearDecayTagCF,
    "CIRTT": Cirtt,
}


def build_recommender(
    train: Folksonomy,
    t_ref: Mapping[int, int],
    config: RecommenderConfig,
) -> Recommender:
    """Instantiate the algorithm named by config.algorithm."""
    return _CLASSES[config.algorithm](train, t_ref, config)
