"""Brute-force reference implementations the real code is checked against.

Everything here is written for clarity over speed: dense dict vectors,
all-pairs similarity scans, direct transcriptions of the scoring formulas.
Only the data model is shared with the package under test; none of the
similarity, activation, recommendation, or metric code is reused.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from folkrec.model import Folksonomy, Post, Stats, Vocab

Vec = Dict[int, float]


def o_folksonomy(posts: Sequence[Post], vocab: Vocab, users: Iterable[int], items: Iterable[int]) -> dict:
    """What each ``Folksonomy`` accessor answers for these posts, asked about the given user and item ids.

    Computed from the ``Post`` values alone by filtering the whole list per
    question, so the answers do not depend on how a folksonomy stores or
    indexes its posts. ``posts`` must keep the post contract and be sorted
    by (user, item), as a folksonomy's are.
    """
    users, items = list(users), list(items)

    def counts(selected: Sequence[Post]) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for post in selected:
            for tag, _ in post.tag_times:
                out[tag] = out.get(tag, 0) + 1
        return out

    def uses(user: int) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = {}
        for post in posts:
            if post.user == user:
                for tag, ts in post.tag_times:
                    out.setdefault(tag, []).append(ts)
        return out

    of_user = {u: tuple(p for p in posts if p.user == u) for u in users}
    of_item = {i: tuple(p for p in posts if p.item == i) for i in items}
    label = (vocab.users.label_of, vocab.items.label_of, vocab.tags.label_of)
    rows = [
        f"{label[0](p.user)}\t{label[1](p.item)}\t{label[2](tag)}\t{ts}" for p in posts for tag, ts in p.tag_times
    ]
    return {
        "users": sorted({p.user for p in posts}),
        "items": sorted({p.item for p in posts}),
        "posts_of_user": of_user,
        "posts_of_item": of_item,
        "items_of_user": {u: tuple(p.item for p in of_user[u]) for u in users},
        "taggers_of_item": {i: tuple(p.user for p in of_item[i]) for i in items},
        "user_tag_counts": {u: counts(of_user[u]) for u in users},
        "item_tag_counts": {i: counts(of_item[i]) for i in items},
        "tag_use_times": {u: uses(u) for u in users},
        "stats": Stats(
            bookmarks=len(posts),
            users=len({p.user for p in posts}),
            resources=len({p.item for p in posts}),
            tags=len({tag for p in posts for tag, _ in p.tag_times}),
            assignments=sum(len(p.tag_times) for p in posts),
        ),
        "rows": rows,
        "fingerprint": hashlib.sha256("\n".join(sorted(rows)).encode("utf-8")).hexdigest(),
    }


def o_cosine(a: Vec, b: Vec) -> float:
    dot = math.fsum(w * b[i] for i, w in sorted(a.items()) if i in b)
    if not a or not b:
        return 0.0
    na = math.sqrt(math.fsum(w * w for w in a.values()))
    nb = math.sqrt(math.fsum(w * w for w in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return max(0.0, min(1.0, dot / (na * nb)))


def o_binary_items(train: Folksonomy, user: int) -> Vec:
    return {item: 1.0 for item in train.items_of_user(user)}


def o_tag_counts(train: Folksonomy, user: int) -> Vec:
    counts: Vec = {}
    for post in train.posts_of_user(user):
        for tag, _ in post.tag_times:
            counts[tag] = counts.get(tag, 0.0) + 1.0
    return counts


def o_item_taggers(train: Folksonomy, item: int) -> Vec:
    return {user: 1.0 for user in train.taggers_of_item(item)}


def o_item_tag_counts(train: Folksonomy, item: int) -> Vec:
    counts: Vec = {}
    for post in train.posts_of_item(item):
        for tag, _ in post.tag_times:
            counts[tag] = counts.get(tag, 0.0) + 1.0
    return counts


def o_neighbors(vectors: Dict[int, Vec], user: int, k: int) -> List[Tuple[int, float]]:
    """All-pairs scan: cosine against every other user, keep positive, top k."""
    target = vectors.get(user, {})
    if not target:
        return []
    scored = []
    for other in sorted(vectors):
        if other == user:
            continue
        sim = o_cosine(target, vectors[other])
        if sim > 0.0:
            scored.append((other, sim))
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k]


def _candidates(train: Folksonomy, user: int, neighbors: Sequence[Tuple[int, float]]) -> Dict[int, List[Tuple[int, float]]]:
    owned = set(train.items_of_user(user))
    out: Dict[int, List[Tuple[int, float]]] = {}
    for neighbor, sim in neighbors:
        for item in train.items_of_user(neighbor):
            if item not in owned:
                out.setdefault(item, []).append((neighbor, sim))
    return out


def _top_n(scored: List[Tuple[int, float]], n: int) -> List[Tuple[int, float]]:
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:n]


def o_mp(train: Folksonomy, user: int, n: int) -> List[Tuple[int, float]]:
    owned = set(train.items_of_user(user))
    scored = [
        (item, float(len(train.posts_of_item(item))))
        for item in train.items()
        if item not in owned
    ]
    return _top_n(scored, n)


def o_cf(train: Folksonomy, user: int, k: int, n: int, binary: bool) -> List[Tuple[int, float]]:
    profile = o_binary_items if binary else o_tag_counts
    vectors = {u: profile(train, u) for u in train.users()}
    neighbors = o_neighbors(vectors, user, k)
    scored = [
        (item, math.fsum(sim for _, sim in pairs))
        for item, pairs in _candidates(train, user, neighbors).items()
    ]
    return _top_n(scored, n)


def o_bll_profile(train: Folksonomy, user: int, t_ref: int, d: float) -> Vec:
    """Log power-decay sum per tag, softmax-normalized without max-shifting."""
    raw: Vec = {}
    for tag, times in train.tag_use_times(user).items():
        raw[tag] = math.log(math.fsum((t_ref - ts) ** (-d) for ts in times))
    total = math.fsum(math.exp(v) for _, v in sorted(raw.items()))
    return {tag: math.exp(v) / total for tag, v in raw.items()}


def o_cirtt(train: Folksonomy, t_ref: Dict[int, int], user: int, k: int, n: int, d: float) -> List[Tuple[int, float]]:
    vectors = {u: o_binary_items(train, u) for u in train.users()}
    neighbors = o_neighbors(vectors, user, k)
    candidates = _candidates(train, user, neighbors)
    if not candidates or not train.posts_of_user(user):
        return []
    profile = o_bll_profile(train, user, t_ref[user], d)
    columns = {item: o_item_taggers(train, item) for item in train.items()}
    scored = []
    for item in candidates:
        sim = math.fsum(o_cosine(columns[item], columns[j]) for j in train.items_of_user(user))
        activation = math.fsum(profile.get(t, 0.0) for t in sorted(o_item_tag_counts(train, item)))
        scored.append((item, sim * activation, sim))
    scored.sort(key=lambda e: (-e[1], -e[2], e[0]))
    return [(item, pred) for item, pred, _ in scored[:n]]


def o_zheng(train: Folksonomy, t_ref: Dict[int, int], user: int, k: int, n: int, t0: float) -> List[Tuple[int, float]]:
    rows: Dict[int, Vec] = {}
    for u in train.users():
        rows[u] = {
            post.item: len(post.tag_times) * math.exp(-(t_ref[u] - post.timestamp) / t0)
            for post in train.posts_of_user(u)
        }
    neighbors = o_neighbors(rows, user, k)
    scored = [
        (item, math.fsum(sim * rows[neighbor][item] for neighbor, sim in pairs))
        for item, pairs in _candidates(train, user, neighbors).items()
    ]
    return _top_n(scored, n)


def o_huang(train: Folksonomy, t_ref: Dict[int, int], user: int, k: int, n: int, floor: float) -> List[Tuple[int, float]]:
    profiles: Dict[int, Vec] = {}
    for u in train.users():
        uses = train.tag_use_times(u)
        if not uses:
            profiles[u] = {}
            continue
        earliest = min(ts for times in uses.values() for ts in times)
        span = (t_ref[u] - 1) - earliest
        prof: Vec = {}
        for tag, times in uses.items():
            if span > 0:
                weight = math.fsum(max(floor, (ts - earliest) / span) for ts in times)
            else:
                weight = float(len(times))
            if weight > 0.0:
                prof[tag] = weight
        profiles[u] = prof
    neighbors = o_neighbors(profiles, user, k)
    candidates = _candidates(train, user, neighbors)
    tag_vecs = {item: o_item_tag_counts(train, item) for item in train.items()}
    scored = [
        (item, math.fsum(o_cosine(tag_vecs[item], tag_vecs[j]) for j in train.items_of_user(user)))
        for item in candidates
    ]
    return _top_n(scored, n)


def o_ranking(train: Folksonomy, t_ref: Dict[int, int], user: int, config, n: int) -> List[Tuple[int, float]]:
    """The oracle for ``config.algorithm``, with that config's parameters."""
    tag, k = config.algorithm, config.k
    if tag == "MP":
        return o_mp(train, user, n)
    if tag in ("CF_B", "CF_T"):
        return o_cf(train, user, k, n, binary=tag == "CF_B")
    if tag == "Z":
        return o_zheng(train, t_ref, user, k, n, config.t0_seconds)
    if tag == "H":
        return o_huang(train, t_ref, user, k, n, config.floor)
    if tag == "CIRTT":
        return o_cirtt(train, t_ref, user, k, n, config.bll.d)
    raise ValueError(f"no oracle for {tag!r}")


# Metric oracles: direct transcriptions of the definitions.

def o_dcg(gains: Sequence[int]) -> float:
    return math.fsum(g / math.log2(pos + 1) for pos, g in enumerate(gains, start=1))


def o_ndcg(recommended: Sequence[int], relevant: Set[int], k: int) -> float:
    if not relevant:
        return 0.0
    gains = [1 if item in relevant else 0 for item in recommended[:k]]
    ideal = [1] * min(len(relevant), k)
    return o_dcg(gains) / o_dcg(ideal)


def o_ap(recommended: Sequence[int], relevant: Set[int], k: int) -> float:
    if not relevant:
        return 0.0
    total, hits = 0.0, 0
    for pos, item in enumerate(recommended[:k], start=1):
        if item in relevant:
            hits += 1
            total += hits / pos
    return total / min(len(relevant), k)


def o_recall(recommended: Sequence[int], relevant: Set[int], k: int) -> float:
    if not relevant:
        return 0.0
    return len(set(recommended[:k]) & relevant) / len(relevant)


def o_diversity(recommended: Sequence[int], vectors: Dict[int, Vec]) -> float:
    m = len(recommended)
    if m < 2:
        return 0.0
    total = 0.0
    pairs = 0
    for a in range(m):
        for b in range(a + 1, m):
            total += 1.0 - o_cosine(vectors.get(recommended[a], {}), vectors.get(recommended[b], {}))
            pairs += 1
    return total / pairs
