"""Print one sha256 over every recommended list and its diversity.

A check that an optimization left every output bit-identical: run it before
and after the change and compare the digests. For ``SynthConfig()`` seeds 1
and 2, each of the six algorithms (default configs) recommends for every
training user; each list's (item, score) entries, scores as float hex, and
the list's diversity, as float hex, go into the digest. It imports the
``folkrec`` package next to it, so it measures the checkout it sits in. Run
from anywhere:

    python3 tests/list_digest.py
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from folkrec.evaluation import diversity
from folkrec.recommenders import ALGORITHMS, K_MAX, RecommenderConfig, build_recommender
from folkrec.similarity import item_tag_vectors
from folkrec.split import chronological_split
from folkrec.synth import SynthConfig, generate

SEEDS = (1, 2)


def list_digest() -> str:
    digest = hashlib.sha256()
    for seed in SEEDS:
        split = chronological_split(generate(SynthConfig(), seed), 0.2)
        train = split.train
        vectors = item_tag_vectors(train)
        for tag in ALGORITHMS:
            recommender = build_recommender(train, split.t_ref, RecommenderConfig(tag))
            for user in train.users():
                ranked = recommender.recommend(user, K_MAX)
                entries = " ".join(f"{item}:{score.hex()}" for item, score in ranked.entries)
                div = diversity(ranked.items(), vectors).hex()
                digest.update(f"{seed} {tag} {user} {div} {entries}\n".encode("ascii"))
    return digest.hexdigest()


if __name__ == "__main__":
    print(list_digest())
