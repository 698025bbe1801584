"""Seeded input generator for the benchmark workloads.

Runs as its own process during set-up and is never timed:

    python3 perfbench/gen.py --workload synth-drift --seed 1 --out dump.tsv

It writes the ``folkrec.synth`` folksonomy through ``write_tsv`` and then
rewrites that file with the hazards of a real export mixed in: comment
lines, malformed rows, ``bibtex-import`` and ``imported*`` tags, mixed-case
tags and re-imported duplicate rows with later timestamps. Next to the dump
it writes ``<out>.expect.json``: the counts ingest must report for it,
worked out here from the clean folksonomy without calling the ingest code.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from folkrec.model import Folksonomy, Stats  # noqa: E402
from folkrec.synth import SynthConfig, generate, write_tsv  # noqa: E402

# Per clean row, the chance that each hazard follows it; the same for every workload.
HAZARDS = {
    "comment_rate": 0.002,
    "malformed_rate": 0.01,
    "blacklist_rate": 0.01,
    "mixed_case_rate": 0.05,
    "duplicate_rate": 0.02,
}
# The glob blacklist every workload ingests with.
BLACKLIST = ("bibtex-import", "imported*")
# Tags an import tool adds; every one matches BLACKLIST
# ("bibtex-import" literally, the rest through "imported*" after case folding).
IMPORT_TAGS = ("bibtex-import", "imported", "imported-from-delicious", "Imported-2007")


def load_workload(name: str) -> dict:
    with open(HERE / "workloads.json", encoding="utf-8") as handle:
        return json.load(handle)["workloads"][name]


def _mixed_case(label: str, rng: random.Random) -> str:
    return "".join(c.upper() if rng.random() < 0.5 else c for c in label)


def _malformed_row(user: str, item: str, tag: str, ts: str, rng: random.Random) -> str:
    """One row ingest must count as malformed and never intern."""
    return rng.choice(
        (
            f"{user}\t{item}\t{tag}\n",  # too few columns
            f"{user}\t{item}\t \t{ts}\n",  # blank tag
            f"{user}\t{item}\t{tag}\tnot-a-time\n",  # unparsable timestamp
            f"{user}\t{item}\t{tag}\t-{ts}\n",  # timestamp before the epoch
        )
    )


def add_hazards(clean_path: Path, out_path: Path, rng: random.Random) -> dict:
    """Copy the clean dump row by row, mixing hazards in; return what was added.

    Hazard rows always follow a clean row of the same (user, item), so every
    label is first seen in a clean row and ingest interns users in the
    clean dump's order.
    """
    counts = {"data_rows": 0, "malformed": 0, "blacklisted": 0}
    with open(clean_path, encoding="utf-8") as src, open(out_path, "w", encoding="utf-8", newline="\n") as dst:
        dst.write("# synthetic tag-assignment dump: user, item, tag, epoch seconds\n")
        for line in src:
            user, item, tag, ts = line.rstrip("\n").split("\t")
            if rng.random() < HAZARDS["comment_rate"]:
                dst.write(f"# export batch {rng.randrange(10**6)}\n")
            if rng.random() < HAZARDS["mixed_case_rate"]:
                tag = _mixed_case(tag, rng)
            dst.write(f"{user}\t{item}\t{tag}\t{ts}\n")
            counts["data_rows"] += 1
            if rng.random() < HAZARDS["duplicate_rate"]:
                # a re-import: collapses onto the earlier use of the same tag
                later = int(ts) + rng.randint(1, 86400)
                dst.write(f"{user}\t{item}\t{_mixed_case(tag, rng)}\t{later}\n")
                counts["data_rows"] += 1
            if rng.random() < HAZARDS["blacklist_rate"]:
                dst.write(f"{user}\t{item}\t{rng.choice(IMPORT_TAGS)}\t{ts}\n")
                counts["data_rows"] += 1
                counts["blacklisted"] += 1
            if rng.random() < HAZARDS["malformed_rate"]:
                dst.write(_malformed_row(user, item, tag, ts, rng))
                counts["data_rows"] += 1
                counts["malformed"] += 1
    return counts


def predict_stats(folksonomy: Folksonomy, sample_fraction: float, sample_seed: int) -> Stats:
    """Stats after user sampling and one pass of unique-resource removal.

    Ingest numbers users in first-seen order, which is the synthetic ids'
    order, and samples ceil(fraction * |U|) of them with random.sample.
    """
    users = folksonomy.users()
    kept = set(users)
    if sample_fraction < 1.0:
        keep = math.ceil(round(sample_fraction * len(users), 9))
        kept = set(random.Random(sample_seed).sample(users, keep))
    posts = [p for p in folksonomy.posts if p.user in kept]
    taggers = Counter(p.item for p in posts)
    posts = [p for p in posts if taggers[p.item] > 1]
    return Stats(
        bookmarks=len(posts),
        users=len({p.user for p in posts}),
        resources=len({p.item for p in posts}),
        tags=len({tag for p in posts for tag in p.tags}),
        assignments=sum(len(p.tag_times) for p in posts),
    )


def generate_input(workload: dict, seed: int, out_path: Path) -> dict:
    folksonomy = generate(SynthConfig(**workload["synth"]), seed)
    clean_path = out_path.with_name(out_path.name + ".clean")
    write_tsv(folksonomy, str(clean_path))
    try:
        counts = add_hazards(clean_path, out_path, random.Random(f"hazards-{seed}"))
    finally:
        clean_path.unlink()
    stats = predict_stats(folksonomy, workload["sample_fraction"], seed)
    return {**counts, "stats_line": stats.line(), "assignments": stats.assignments}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="dump path; the expected counts go to <out>.expect.json")
    args = parser.parse_args()
    out_path = Path(args.out)
    expect = generate_input(load_workload(args.workload), args.seed, out_path)
    with open(f"{out_path}.expect.json", "w", encoding="utf-8") as handle:
        json.dump(expect, handle, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
