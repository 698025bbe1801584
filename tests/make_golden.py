"""Regenerate tests/data/golden/ from the brute-force oracles.

The golden report files pin the end-to-end numbers for the bundled mini
fixture. They are produced by the oracle implementations (rankings and
metrics), not by the code under test; only parsing, the data model, the
split, and the report formatting are shared. It imports the ``folkrec``
package next to it, so it regenerates from the checkout it sits in. Run
from anywhere; the files go to OUT_DIR if it is given, else to
tests/data/golden/:

    python3 tests/make_golden.py [OUT_DIR]
"""

from __future__ import annotations

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

from folkrec.evaluation import (
    K_MAX,
    AlgorithmReport,
    EvalReport,
    _config_echo,
    config_hash,
    write_reports,
)
from folkrec.ingest import DatasetSpec, run_pipeline
from folkrec.recommenders import RecommenderConfig
from folkrec.split import chronological_split

from oracles import o_ap, o_diversity, o_item_tag_counts, o_ndcg, o_ranking, o_recall

CONFIGS = [
    RecommenderConfig("MP"),
    RecommenderConfig("CF_B", k=20),
    RecommenderConfig("CF_T", k=20),
    RecommenderConfig("Z", k=20, t0_seconds=8_640_000.0),
    RecommenderConfig("H", k=20, floor=0.0),
    RecommenderConfig("CIRTT", k=20),
]


def oracle_algorithm_report(split, config):
    train = split.train
    tag_vecs = {item: o_item_tag_counts(train, item) for item in train.items()}
    users = sorted(split.test)
    curves = {"ndcg": [], "map": [], "recall": []}
    diversities = []
    served = 0
    for user in users:
        ranked = [i for i, _ in o_ranking(train, split.t_ref, user, config, K_MAX)]
        relevant = split.test[user]
        if ranked:
            served += 1
        curves["ndcg"].append([o_ndcg(ranked, relevant, k) for k in range(1, K_MAX + 1)])
        curves["map"].append([o_ap(ranked, relevant, k) for k in range(1, K_MAX + 1)])
        curves["recall"].append([o_recall(ranked, relevant, k) for k in range(1, K_MAX + 1)])
        if len(ranked) >= 2:
            diversities.append(o_diversity(ranked, tag_vecs))
    mean = lambda series: tuple(
        math.fsum(row[j] for row in series) / len(users) for j in range(K_MAX)
    )
    return AlgorithmReport(
        algorithm=config.algorithm,
        users_evaluated=len(users),
        users_served=served,
        ndcg=mean(curves["ndcg"]),
        map=mean(curves["map"]),
        recall=mean(curves["recall"]),
        diversity=math.fsum(diversities) / len(diversities) if diversities else 0.0,
    )


def main(out: str = os.path.join(HERE, "data", "golden")) -> None:
    folksonomy, _ = run_pipeline(DatasetSpec(path=os.path.join(HERE, "data", "mini.tsv")))
    split = chronological_split(folksonomy, 0.2)
    echo = _config_echo(CONFIGS, 0.2, 0, True)
    report = EvalReport(
        dataset_fingerprint=folksonomy.fingerprint(),
        config_hash=config_hash(echo),
        config_echo=echo,
        algorithms=tuple(oracle_algorithm_report(split, c) for c in CONFIGS),
    )
    write_reports(report, out)
    print(f"golden files regenerated in {out}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
