"""Print one sha256 over every recommended list, one over ingest's output, and one over the generator's.

A check that an optimization left every output bit-identical: run it before
and after the change and compare the digests. It imports the ``folkrec``
package next to it, so it measures the checkout it sits in. Run from
anywhere:

    python3 tests/list_digest.py

``lists``: for ``SynthConfig()`` seeds 1 and 2, each of the six algorithms
(default configs) recommends for every training user; each list's (item,
score) entries, scores as float hex, and the list's diversity, as float hex,
go into the digest.

``ingest``: for the same seeds, the ``SynthConfig()`` folksonomy is dumped
with the hazards of a real export mixed in (comment lines, malformed rows,
blacklisted and mixed-case tags, re-imported duplicates with later
timestamps), once with its rows shuffled and once with each post's rows
adjacent, as exports write them. ``run_pipeline`` ingests each dump at
sample fractions 0.5 and 1.0; the malformed-row line numbers and reasons,
the ``write_snapshot`` bytes, and the fingerprint and stats line of the
snapshot reloaded with ``load_snapshot`` go into the digest. Two users no
post holds, one with only blacklisted tags and one with only malformed
rows, pin that the user sample is drawn over the users with a kept row;
their rows carry the generator's earliest timestamp, ``synth.START``.

``synth``: the fingerprint and stats line of ``generate()`` for
``SynthConfig()`` with seeds 1 and 2, and for the benchmark's largest shape
(2,000 users, 1,500 items, 500 tags, 50 topics) with seed 1, and the sha256
of each one's ``write_tsv`` dump, go into the digest, so the generator's
output and the dumps the benchmark ingests are pinned at benchmark size too.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from folkrec.evaluation import diversity
from folkrec.ingest import DatasetSpec, load_snapshot, run_pipeline, write_snapshot
from folkrec.recommenders import ALGORITHMS, K_MAX, RecommenderConfig, build_recommender
from folkrec.similarity import item_tag_vectors
from folkrec.split import chronological_split
from folkrec.synth import START, SynthConfig, generate, write_tsv

SEEDS = (1, 2)
SAMPLE_FRACTIONS = (0.5, 1.0)
BLACKLIST = ("bibtex-import", "imported*")
SYNTH_RUNS = ((SynthConfig(), SEEDS), (SynthConfig(users=2000, items=1500, tags=500, topics=50), (1,)))


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


def hazardous_dump(seed: int, shuffled: bool) -> str:
    """The SynthConfig() folksonomy as a raw export: every row, plus hazards, optionally shuffled.

    Unshuffled, each post's rows, its duplicates and its bad rows among them,
    are adjacent.
    """
    folksonomy = generate(SynthConfig(), seed)
    vocab = folksonomy.vocab
    rng = random.Random(f"ingest-{seed}")
    lines = []
    for post in folksonomy.posts:
        user, item = vocab.users.label_of(post.user), vocab.items.label_of(post.item)
        for tag_id, ts in post.tag_times:
            tag = vocab.tags.label_of(tag_id)
            if rng.random() < 0.05:
                tag = tag.upper()
            lines.append(f"{user}\t{item}\t{tag}\t{ts}\n")
            if rng.random() < 0.02:
                lines.append(f"{user}\t{item}\t{tag.title()}\t{ts + rng.randint(1, 86400)}\n")
            if rng.random() < 0.01:
                lines.append(f"{user}\t{item}\t{rng.choice(['bibtex-import', 'Imported-2007'])}\t{ts}\n")
            if rng.random() < 0.01:
                bad = (
                    f"{user}\t{item}\n",
                    f"{user}\t{item}\t \t{ts}\n",
                    f"{user}\t{item}\t{tag}\tsoon\n",
                    f"{user}\t{item}\t{tag}\t-{ts}\n",
                )
                lines.append(rng.choice(bad))
            if rng.random() < 0.002:
                lines.append("# export batch\n")
    # users no post holds: one tags only blacklisted tags, one writes only malformed rows
    for item_id in range(5):
        item = vocab.items.label_of(item_id)
        lines.append(f"import-bot\t{item}\tbibtex-import\t{START}\n")
        lines.append(f"broken-user\t{item}\tweb\tsoon\n")
    if shuffled:
        rng.shuffle(lines)
    return "".join(lines)


def ingest_digest() -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        dump, snapshot = os.path.join(tmp, "dump.tsv"), os.path.join(tmp, "snapshot.tsv")
        for seed in SEEDS:
            for shuffled in (True, False):
                with open(dump, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(hazardous_dump(seed, shuffled))
                for fraction in SAMPLE_FRACTIONS:
                    spec = DatasetSpec(path=dump, blacklist=BLACKLIST, sample_fraction=fraction, seed=seed)
                    folksonomy, parsed = run_pipeline(spec)
                    write_snapshot(folksonomy, snapshot)
                    digest.update(f"{seed} {shuffled} {fraction} {parsed.malformed!r}\n".encode("utf-8"))
                    with open(snapshot, "rb") as fh:
                        digest.update(fh.read())
                    reloaded = load_snapshot(snapshot)
                    digest.update(f"{reloaded.fingerprint()} {reloaded.stats().line()}\n".encode("utf-8"))
    return digest.hexdigest()


def synth_digest() -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        dump = os.path.join(tmp, "dump.tsv")
        for config, seeds in SYNTH_RUNS:
            for seed in seeds:
                folksonomy = generate(config, seed)
                write_tsv(folksonomy, dump)
                with open(dump, "rb") as fh:
                    dumped = hashlib.sha256(fh.read()).hexdigest()
                shape = f"{config.users} {config.items} {config.tags} {config.topics}"
                line = f"{shape} {seed} {folksonomy.fingerprint()} {folksonomy.stats().line()} {dumped}\n"
                digest.update(line.encode("ascii"))
    return digest.hexdigest()


if __name__ == "__main__":
    print("lists", list_digest())
    print("ingest", ingest_digest())
    print("synth", synth_digest())
