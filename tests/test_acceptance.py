"""Acceptance gate: one test per criterion, run with `pytest -v tests/test_acceptance.py`.

Each criterion is a single test function, so the verbose run prints exactly
one PASSED/FAILED line per criterion. Criterion 7 needs an external dataset
dump that is deliberately not bundled; it is reported as a skip with
instructions, never as a silent pass.
"""

import math
import os
import random
import shutil
import time

import pytest

from folkrec.bll import bll_raw
from folkrec.cli import EXIT_OK, main as cli_main
from folkrec.evaluation import (
    K_MAX,
    ExperimentConfig,
    diversity,
    map_at_k,
    ndcg_at_k,
    recall_at_k,
    run_experiment,
)
from folkrec.ingest import DatasetSpec, run_pipeline
from folkrec.recommenders import ALGORITHMS, RecommenderConfig, build_recommender
from folkrec.similarity import SparseVector
from folkrec.split import chronological_split, reference_times
from folkrec.synth import SynthConfig, generate

from conftest import random_folksonomy
from oracles import o_ranking

HERE = os.path.dirname(os.path.abspath(__file__))


def test_criterion_1_all_algorithms_match_brute_force_oracles():
    """>=10 random fixtures, <=50 users / <=80 items, item-for-item, scores 1e-9."""
    rng = random.Random(2024)
    fixtures = 0
    comparisons = 0
    while fixtures < 10:
        n_users = rng.randint(10, 50)
        n_items = rng.randint(15, 80)
        f = random_folksonomy(
            seed=rng.randrange(10**6),
            n_users=n_users,
            n_items=n_items,
            n_tags=rng.randint(6, 20),
            n_posts=rng.randint(60, 220),
        )
        t_ref = reference_times(f)
        k, n = rng.choice([(5, 10), (20, 20), (3, 20)])
        for tag in ALGORITHMS:
            config = RecommenderConfig(tag, k=k)
            recommender = build_recommender(f, t_ref, config)
            for u in f.users():
                got = recommender.recommend(u, n).entries
                expected = o_ranking(f, t_ref, u, config, n)
                assert [i for i, _ in got] == [i for i, _ in expected], (tag, u)
                for (_, gs), (_, es) in zip(got, expected):
                    assert abs(gs - es) <= 1e-9, (tag, u, gs, es)
                comparisons += 1
        fixtures += 1
    assert fixtures >= 10 and comparisons > 100


def test_criterion_2_bll_unit_suite():
    """Closed forms, the log-log slope, and 1000-case monotonicity."""
    t_ref = 10**7
    assert abs(bll_raw([t_ref - 1], t_ref, 0.5) - 0.0) <= 1e-12
    assert abs(bll_raw([t_ref - 1, t_ref - 4], t_ref, 0.5) - math.log(1.5)) <= 1e-12

    for d in (0.25, 0.5, 0.9):
        xs, ys = [], []
        for recency in (10, 10_000, 10_000_000):
            xs.append(math.log(recency))
            ys.append(bll_raw([10**9 - recency], 10**9, d))
        slope_a = (ys[1] - ys[0]) / (xs[1] - xs[0])
        slope_b = (ys[2] - ys[1]) / (xs[2] - xs[1])
        assert abs(slope_a + d) <= 1e-9
        assert abs(slope_b + d) <= 1e-9

    rng = random.Random(7)
    for _ in range(1000):
        r1, r2 = rng.sample(range(1, 10**6), 2)
        lo, hi = sorted((r1, r2))
        # more recent single use activates strictly higher
        assert bll_raw([t_ref - lo], t_ref, 0.5) > bll_raw([t_ref - hi], t_ref, 0.5)
        # an extra use strictly increases activation
        uses = [t_ref - rng.randint(1, 10**6) for _ in range(rng.randint(1, 6))]
        extra = t_ref - rng.randint(1, 10**6)
        assert bll_raw(uses + [extra], t_ref, 0.5) > bll_raw(uses, t_ref, 0.5)


def test_criterion_3_metric_suite():
    """Closed forms at 1e-12; bounds and recall monotonicity over 1000 rankings."""
    assert abs(ndcg_at_k(["a"], {"a"}, 1) - 1.0) <= 1e-12
    assert abs(ndcg_at_k(["x", "a"], {"a"}, 2) - 1 / math.log2(3)) <= 1e-12
    assert ndcg_at_k(["x", "y"], {"a"}, 2) == 0.0
    assert abs(map_at_k(["a", "b"], {"a", "b"}, 2) - 1.0) <= 1e-12
    assert abs(map_at_k(["x", "a"], {"a"}, 2) - 0.5) <= 1e-12
    assert map_at_k(["x", "y"], {"a"}, 2) == 0.0
    assert abs(recall_at_k(list(range(20)), {3, 7}, 20) - 1.0) <= 1e-12
    assert abs(recall_at_k([1, 99], {1, 2, 3, 4}, 2) - 0.25) <= 1e-12
    same = SparseVector({1: 1.0})
    other = SparseVector({2: 1.0})
    assert abs(diversity([10, 11], {10: same, 11: same}) - 0.0) <= 1e-12
    assert abs(diversity([10, 11], {10: same, 11: other}) - 1.0) <= 1e-12
    assert abs(diversity([10, 11, 12], {10: same, 11: same, 12: other}) - 2 / 3) <= 1e-12

    rng = random.Random(99)
    for _ in range(1000):
        universe = list(range(60))
        rng.shuffle(universe)
        ranking = universe[: rng.randint(0, 20)]
        relevant = set(rng.sample(range(60), rng.randint(1, 10)))
        previous_recall = 0.0
        for k in range(1, K_MAX + 1):
            for fn in (ndcg_at_k, map_at_k, recall_at_k):
                value = fn(ranking, relevant, k)
                assert 0.0 <= value <= 1.0
            r = recall_at_k(ranking, relevant, k)
            assert r >= previous_recall
            previous_recall = r


def test_criterion_4_no_leakage_on_mini_folksonomy():
    """Zero test pairs in any train-derived structure across a full run."""
    folksonomy, _ = run_pipeline(DatasetSpec(path=os.path.join(HERE, "data", "mini.tsv")))
    split = chronological_split(folksonomy, 0.2)
    violations = 0
    # the split itself must not carry test pairs into train
    for user, held in split.test.items():
        train_items = set(split.train.items_of_user(user))
        violations += len(train_items & held)
    # after the split, every t_ref must predate no train assignment
    for user in split.train.users():
        for post in split.train.posts_of_user(user):
            for _, ts in post.tag_times:
                if ts >= split.t_ref[user]:
                    violations += 1
    # recommendations must never resurface a user's own train items, and
    # _evaluate_user's internal assertions fire on any violation
    report = run_experiment(
        folksonomy,
        ExperimentConfig([RecommenderConfig(tag) for tag in ALGORITHMS], split_fraction=0.2),
    )
    for tag in ALGORITHMS:
        recommender = build_recommender(split.train, split.t_ref, RecommenderConfig(tag))
        for user in split.test:
            owned = set(split.train.items_of_user(user))
            for item, _ in recommender.recommend(user, K_MAX).entries:
                if item in owned:
                    violations += 1
    assert violations == 0
    assert len(report.algorithms) == len(ALGORITHMS)


def test_criterion_5_synthetic_drift_ordering():
    """CIRTT > CF_B > MP on nDCG@20 per seed; mean margin > 0.005; under 60 s."""
    started = time.monotonic()
    configs = [RecommenderConfig("MP"), RecommenderConfig("CF_B"), RecommenderConfig("CIRTT")]
    margins = []
    for seed in range(1, 6):
        f = generate(SynthConfig(), seed=seed)
        stats = f.stats()
        assert stats.users == 200 and stats.resources == 300 and stats.tags == 100
        report = run_experiment(f, ExperimentConfig(configs, split_fraction=0.2, seed=seed))
        mp = report.by_algorithm("MP").ndcg[K_MAX - 1]
        cf_b = report.by_algorithm("CF_B").ndcg[K_MAX - 1]
        cirtt = report.by_algorithm("CIRTT").ndcg[K_MAX - 1]
        assert cirtt > cf_b > mp, f"seed {seed}: MP={mp:.4f} CF_B={cf_b:.4f} CIRTT={cirtt:.4f}"
        margins.append(cirtt - cf_b)
    mean_margin = sum(margins) / len(margins)
    elapsed = time.monotonic() - started
    assert mean_margin > 0.005, f"mean nDCG@20 margin {mean_margin:.4f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_6_byte_identical_reports(tmp_path):
    """Same config + seed twice, and worker counts 1 vs 3, produce identical bytes."""
    shutil.copy(os.path.join(HERE, "data", "mini.tsv"), tmp_path / "mini.tsv")
    shutil.copy(os.path.join(HERE, "data", "mini_config.yaml"), tmp_path / "mini_config.yaml")
    config = str(tmp_path / "mini_config.yaml")
    assert cli_main(["run", "--config", config, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert cli_main(["run", "--config", config, "--out", str(tmp_path / "b")]) == EXIT_OK
    assert cli_main(["run", "--config", config, "--out", str(tmp_path / "w3"), "--workers", "3"]) == EXIT_OK
    for name in ("report.txt", "metrics.csv", "summary.json"):
        first = (tmp_path / "a" / name).read_bytes()
        assert first == (tmp_path / "b" / name).read_bytes(), f"rerun changed {name}"
        assert first == (tmp_path / "w3" / name).read_bytes(), f"workers changed {name}"


BIBSONOMY_ENV = "FOLKREC_BIBSONOMY_TSV"


@pytest.mark.skipif(
    BIBSONOMY_ENV not in os.environ,
    reason=(
        "stretch criterion: needs a public BibSonomy dump (not bundled; snapshot-"
        f"sensitive). Point {BIBSONOMY_ENV} at a user/item/tag/timestamp TSV to run."
    ),
)
def test_criterion_7_stretch_bibsonomy_ordering():
    """Qualitative Table-style ordering on a real dump; documented as snapshot-sensitive."""
    spec = DatasetSpec(path=os.environ[BIBSONOMY_ENV])
    folksonomy, _ = run_pipeline(spec)
    report = run_experiment(
        folksonomy,
        ExperimentConfig([RecommenderConfig(tag) for tag in ("MP", "CF_T", "CF_B", "Z", "CIRTT")], split_fraction=0.2),
    )
    at20 = {tag: report.by_algorithm(tag).ndcg[K_MAX - 1] for tag in ("MP", "CF_T", "CF_B", "Z", "CIRTT")}
    assert at20["CIRTT"] > at20["Z"] > at20["CF_B"] > at20["CF_T"] > at20["MP"]
    assert report.by_algorithm("MP").coverage == 1.0
