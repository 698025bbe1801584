"""Metric closed forms, aggregation rules, leakage guards, golden reports."""

import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folkrec import evaluation
from folkrec.errors import ConfigError, EmptyDatasetError
from folkrec.evaluation import (
    K_MAX,
    ExperimentConfig,
    diversity,
    evaluate_algorithm,
    item_tag_vectors,
    map_at_k,
    metric_curves,
    ndcg_at_k,
    recall_at_k,
    run_experiment,
    write_reports,
)
from folkrec.ingest import DatasetSpec, run_pipeline
from folkrec.recommenders import ALGORITHMS, RankedList, Recommender, RecommenderConfig, build_recommender
from folkrec.similarity import SparseVector, item_tagger_vectors
from folkrec.split import SplitResult, chronological_split
from folkrec.synth import SynthConfig, generate

from conftest import ANY_SETTING, TINY_SYNTH, folksonomy_from_rows, random_folksonomy
from make_golden import CONFIGS as GOLDEN_CONFIGS
from make_golden import main as write_golden_files
from oracles import o_cosine

HERE = os.path.dirname(os.path.abspath(__file__))


def test_ndcg_examples():
    assert ndcg_at_k(["a"], {"a"}, 1) == pytest.approx(1.0, abs=1e-12)
    assert ndcg_at_k(["x", "a"], {"a"}, 2) == pytest.approx(1 / math.log2(3), abs=1e-12)
    assert ndcg_at_k(["x", "y"], {"a"}, 2) == 0.0
    assert ndcg_at_k([], {"a"}, 5) == 0.0


def test_ndcg_perfect_prefix_is_one():
    relevant = {f"i{j}" for j in range(7)}
    ranking = [f"i{j}" for j in range(7)] + ["x", "y"]
    for k in range(1, 10):
        assert ndcg_at_k(ranking, relevant, k) == pytest.approx(1.0, abs=1e-12)


def test_map_examples():
    assert map_at_k(["a", "b"], {"a", "b"}, 2) == pytest.approx(1.0, abs=1e-12)
    assert map_at_k(["x", "a"], {"a"}, 2) == pytest.approx(0.5, abs=1e-12)
    assert map_at_k(["x", "y"], {"a"}, 2) == 0.0


def test_map_bounded_when_relevant_exceeds_k():
    relevant = set(range(50))
    ranking = list(range(10))
    assert map_at_k(ranking, relevant, 10) == pytest.approx(1.0, abs=1e-12)


def test_recall_examples():
    assert recall_at_k(list(range(20)), {3, 7}, 20) == pytest.approx(1.0)
    assert recall_at_k([1, 99, 98, 97], {1, 2, 3, 4}, 4) == pytest.approx(0.25)


def test_diversity_examples():
    same = {1: {"a": 2.0}, 2: {"a": 5.0}}
    vectors = {i: SparseVector(v) for i, v in same.items()}
    assert diversity([1, 2], vectors) == pytest.approx(0.0, abs=1e-12)

    disjoint = {1: SparseVector({10: 1.0}), 2: SparseVector({20: 1.0})}
    assert diversity([1, 2], disjoint) == pytest.approx(1.0, abs=1e-12)

    trio = {
        1: SparseVector({10: 1.0}),
        2: SparseVector({10: 1.0}),
        3: SparseVector({20: 1.0}),
    }
    assert diversity([1, 2, 3], trio) == pytest.approx(2 / 3, abs=1e-12)


def test_diversity_short_lists_and_missing_vectors():
    assert diversity([], {}) == 0.0
    assert diversity([1], {}) == 0.0
    # items without tags count as maximally distant
    assert diversity([1, 2], {1: SparseVector({5: 1.0})}) == pytest.approx(1.0)


def test_metric_preconditions():
    for fn in (ndcg_at_k, map_at_k, recall_at_k, metric_curves):
        # k is an integer >= 1, and a bool is not one (True served as k=1)
        for k in (0, 2.5, True, "3"):
            with pytest.raises(ValueError):
                fn([1], {1}, k)
    for fn in (ndcg_at_k, map_at_k, recall_at_k):
        assert fn([1], set(), 5) == 0.0


@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=0, max_size=20, unique=True),
    st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=10),
    st.integers(min_value=1, max_value=20),
)
@settings(max_examples=300)
def test_metrics_bounded_and_recall_monotone(ranking, relevant, k):
    for fn in (ndcg_at_k, map_at_k, recall_at_k):
        value = fn(ranking, relevant, k)
        assert 0.0 <= value <= 1.0
    if k > 1:
        assert recall_at_k(ranking, relevant, k) >= recall_at_k(ranking, relevant, k - 1)


@st.composite
def rankings_with_a_repeat(draw):
    ranking = draw(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=20))
    repeated = draw(st.sampled_from(ranking))
    ranking.insert(draw(st.integers(min_value=0, max_value=len(ranking))), repeated)
    return ranking


@given(
    rankings_with_a_repeat(),
    st.sets(st.integers(min_value=0, max_value=40), max_size=10),
    st.integers(min_value=1, max_value=25),
)
def test_metric_curves_rejects_a_repeated_item(ranking, relevant, k_max):
    # a repeat would count one hit twice: [1, 1, 2] against {1} read nDCG
    # 1.63, AP 2.0 and recall 2.0 at k = 3
    with pytest.raises(ValueError):
        metric_curves(ranking, relevant, k_max)


def reference_curve_point(recommended, relevant, k):
    """(nDCG@k, AP@k, recall@k) by the per-k formulas, each computed from scratch."""
    if not relevant:
        return (0.0, 0.0, 0.0)

    def dcg(relevances):
        return math.fsum(rel / math.log2(position + 1) for position, rel in enumerate(relevances, start=1))

    top = recommended[:k]
    ndcg = dcg([1 if item in relevant else 0 for item in top]) / dcg([1] * min(len(relevant), k))
    hits = 0
    precisions = []
    for position, item in enumerate(top, start=1):
        if item in relevant:
            hits += 1
            precisions.append(hits / position)
    ap = math.fsum(precisions) / min(len(relevant), k)
    recall = sum(1 for item in top if item in relevant) / len(relevant)
    return (ndcg, ap, recall)


@given(
    st.lists(st.integers(min_value=0, max_value=40), max_size=25, unique=True),
    st.sets(st.integers(min_value=0, max_value=40), max_size=30),
    st.integers(min_value=1, max_value=25),
)
@settings(max_examples=300)
def test_metric_curves_equal_per_k_formulas(ranking, relevant, k_max):
    # lists shorter than k and |relevant| > k both come up
    curves = metric_curves(ranking, relevant, k_max)
    assert curves == [reference_curve_point(ranking, relevant, k) for k in range(1, k_max + 1)]
    assert ndcg_at_k(ranking, relevant, k_max) == curves[-1][0]
    assert map_at_k(ranking, relevant, k_max) == curves[-1][1]
    assert recall_at_k(ranking, relevant, k_max) == curves[-1][2]
    assert len(metric_curves(ranking, relevant)) == K_MAX


def reference_diversity(recommended, item_vectors):
    """fsum of 1 - cosine over every pair, divided by the pair count."""
    m = len(recommended)
    if m < 2:
        return 0.0
    vectors = [dict(item_vectors[item].items()) if item in item_vectors else {} for item in recommended]
    distances = [1.0 - o_cosine(vectors[a], vectors[b]) for a in range(m) for b in range(a + 1, m)]
    return math.fsum(distances) / (m * (m - 1) / 2)


@st.composite
def item_vector_maps(draw):
    """Integer-weight item vectors over one id alphabet (ints or strings).

    Items 0..24 get random vectors over the alphabet's first five ids, so
    pairs share dimensions often; items 25..29 are missing; 30..32 are equal
    3-dimension binary vectors, whose unclamped cosine is above 1; 33 is
    empty; 34 sits on the sixth id and overlaps nothing else.
    """
    alphabet = draw(st.sampled_from([tuple(range(6)), tuple("abcdef")]))
    weights = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=24),
            st.dictionaries(st.sampled_from(alphabet[:5]), st.integers(min_value=1, max_value=9).map(float), max_size=5),
            max_size=25,
        )
    )
    vectors = {item: SparseVector(w) for item, w in weights.items()}
    vectors.update({item: SparseVector({d: 1.0 for d in alphabet[:3]}) for item in (30, 31, 32)})
    vectors[33] = SparseVector({})
    vectors[34] = SparseVector({alphabet[5]: 2.0})
    return vectors


@given(item_vector_maps(), st.lists(st.integers(min_value=0, max_value=34), max_size=20, unique=True))
@settings(max_examples=300)
def test_diversity_equals_pairwise_cosine_reference(vectors, ranking):
    assert diversity(ranking, vectors) == reference_diversity(ranking, vectors)


def test_diversity_rejects_a_vector_with_non_integer_weights():
    # the fused pass adds products as they come, which is exact only for
    # integers: here it gave 0.5340994296187282, the pairwise fsum ...284
    weights = {
        0: {0: 0.1, 2: 0.3, 3: 0.001, 5: 0.2},
        1: {0: 0.1, 1: 0.001, 3: 0.3, 4: 0.2},
        2: {0: 0.1, 2: 0.3, 3: 0.2, 4: 0.2},
    }
    vectors = {item: SparseVector(w) for item, w in weights.items()}
    assert reference_diversity([0, 1, 2], vectors) == 0.5340994296187284
    with pytest.raises(ValueError):
        diversity([0, 1, 2], vectors)
    # one non-integral vector is enough, wherever it sits in the list
    with pytest.raises(ValueError):
        diversity([0, 3], {0: SparseVector({0: 1.0}), 3: SparseVector({0: 2.5})})
    # integer weights whose squares pass 2**53 are not integral either
    with pytest.raises(ValueError):
        diversity([0, 3], {0: SparseVector({0: 1.0}), 3: SparseVector({0: 2.0**27})})


def test_diversity_clamps_and_counts_disjoint_pairs_as_one():
    equal = {item: SparseVector({u: 1.0 for u in range(3)}) for item in range(3)}
    assert 3.0 / (equal[0].norm * equal[1].norm) > 1.0
    assert diversity([0, 1, 2], equal) == 0.0
    disjoint = {item: SparseVector({item: 1.0}) for item in range(20)}
    assert diversity(list(range(20)), disjoint) == 1.0


def _mini_split():
    folksonomy, _ = run_pipeline(DatasetSpec(path=os.path.join(HERE, "data", "mini.tsv")))
    return folksonomy, chronological_split(folksonomy, 0.2)


def test_aggregate_mean_over_users():
    _, split = _mini_split()
    report = evaluate_algorithm(split, RecommenderConfig("MP"))
    assert report.users_evaluated == len(split.test)
    assert 0.0 <= report.ndcg[K_MAX - 1] <= 1.0
    for j in range(1, K_MAX):
        assert report.recall[j] >= report.recall[j - 1] - 1e-15


def test_two_user_mean_is_half_when_one_perfect_one_zero():
    # direct check of the averaging rule through the public metric functions
    users = [("u1", 1.0), ("u2", 0.0)]
    mean = math.fsum(v for _, v in users) / len(users)
    assert mean == pytest.approx(0.5)


def test_unserved_users_score_zero_but_count(monkeypatch):
    folksonomy, split = _mini_split()
    report_all = evaluate_algorithm(split, RecommenderConfig("H"))
    report_served = evaluate_algorithm(split, RecommenderConfig("H"), count_unserved=False)
    assert report_all.users_evaluated == report_served.users_evaluated
    assert report_all.users_served == report_served.users_served
    if report_all.users_served < report_all.users_evaluated:
        # smaller denominator -> no smaller means
        for j in range(K_MAX):
            assert report_served.ndcg[j] >= report_all.ndcg[j] - 1e-15
        assert report_served.coverage == report_all.coverage  # UC is unaffected


class _Stub:
    """A recommender that returns fixed entries, over a real train set."""

    def __init__(self, train, entries):
        self.train = train
        self.entries = entries

    def recommend(self, user, n=None):
        return RankedList(entries=self.entries(user))


class _Leaky(Recommender):
    """Ranks an unseen item, then the user's first owned item: a broken filter."""

    def ranking(self, user):
        return ((9999, 2.0), (sorted(self.train.items_of_user(user))[0], 1.0))


def test_leakage_guard_fires_on_corrupt_recommender():
    folksonomy, split = _mini_split()
    leaky = _Leaky(split.train, split.t_ref, RecommenderConfig("MP"))
    user = sorted(split.test)[0]
    owned = sorted(split.train.items_of_user(user))[0]
    # recommend owns the guard, so every caller gets it, evaluation included
    with pytest.raises(AssertionError, match=rf"items \[{owned}\] recommended to user {user}"):
        leaky.recommend(user)
    with pytest.raises(AssertionError):
        evaluation._evaluate_user(leaky, user, split.test[user])
    # the owned item is cut away at n=1, and the guard reads the cut list
    assert leaky.recommend(user, 1).items() == (9999,)


def test_duplicate_guard_fires():
    folksonomy, split = _mini_split()
    doubler = _Stub(split.train, lambda user: ((9999, 1.0), (9999, 0.5)))
    user = sorted(split.test)[0]
    with pytest.raises(ValueError, match="must not repeat an item"):
        evaluation._evaluate_user(doubler, user, split.test[user])


def test_unserved_user_result_is_all_zeros():
    _, split = _mini_split()
    user = sorted(split.test)[0]
    result = evaluation._evaluate_user(_Stub(split.train, lambda user: ()), user, split.test[user])
    zeros = tuple(0.0 for _ in range(K_MAX))
    assert result == evaluation.UserResult(user, False, (), zeros, zeros, zeros, 0.0)
    # equal is not enough: -0.0 == 0.0, so compare the bits of every value
    values = result.ndcg + result.ap + result.recall + (result.diversity_at_max,)
    assert [v.hex() for v in values] == [(0.0).hex()] * len(values)


def test_nobody_served_averages_over_served_users_to_zeros():
    # no two users share an item, so CF_B finds no neighbour for anyone
    f = folksonomy_from_rows([("u1", "a", "t", 1), ("u1", "b", "t", 2), ("u2", "c", "t", 1), ("u2", "d", "t", 2)])
    split = chronological_split(f, 0.2)
    report = evaluate_algorithm(split, RecommenderConfig("CF_B"), count_unserved=False)
    zeros = (0.0,) * K_MAX
    assert (report.users_evaluated, report.users_served, report.coverage) == (2, 0, 0.0)
    assert (report.ndcg, report.map, report.recall, report.diversity) == (zeros, zeros, zeros, 0.0)


def test_no_evaluable_users_raises():
    f = random_folksonomy(0, n_users=3, n_items=4, n_posts=3)  # likely all single-post
    split = SplitResult(train=f, test={}, t_ref={u: 10**9 for u in f.users()})
    with pytest.raises(EmptyDatasetError):
        evaluate_algorithm(split, RecommenderConfig("MP"))


def test_duplicate_algorithms_rejected():
    folksonomy, _ = _mini_split()
    with pytest.raises(ConfigError):
        run_experiment(folksonomy, ExperimentConfig([RecommenderConfig("MP"), RecommenderConfig("MP")]))
    with pytest.raises(ConfigError):
        run_experiment(folksonomy, ExperimentConfig([]))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"workers": "2"},
        {"workers": 2.5},
        {"workers": True},
        {"workers": 0},
        {"count_unserved": "no"},  # ran as if true
        {"count_unserved": 0},
    ],
)
def test_bad_evaluate_algorithm_argument_is_config_error(kwargs):
    _, split = _mini_split()
    with pytest.raises(ConfigError):
        evaluate_algorithm(split, RecommenderConfig("MP"), **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"split_fraction": 0.0},
        {"split_fraction": 1.0},
        {"workers": 0},
        {"seed": 1.0},
        {"count_unserved": 1},
    ],
)
def test_experiment_config_rejects_a_bad_setting_when_built(kwargs):
    # a run would reject some of these later (the split checks its fraction
    # too), but the config is checked when it is built
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


def test_evaluation_is_deterministic():
    _, split = _mini_split()
    a = evaluate_algorithm(split, RecommenderConfig("CIRTT"))
    b = evaluate_algorithm(split, RecommenderConfig("CIRTT"))
    assert a == b


def test_workers_do_not_change_results():
    _, mini = _mini_split()
    synth = chronological_split(generate(SynthConfig(), 1), 0.2)
    assert len(synth.test) == 200
    cases = [
        (mini, 3),
        # 200 users on 6 workers: chunks of 3 and a last chunk of 2
        (synth, 6),
        # fewer test users than workers: the pool still runs
        (SplitResult(mini.train, {u: mini.test[u] for u in sorted(mini.test)[:1]}, mini.t_ref), 2),
        (SplitResult(mini.train, {u: mini.test[u] for u in sorted(mini.test)[:3]}, mini.t_ref), 2),
    ]
    for split, workers in cases:
        for tag in ALGORITHMS:
            one = evaluate_algorithm(split, RecommenderConfig(tag), workers=1)
            pooled = evaluate_algorithm(split, RecommenderConfig(tag), workers=workers)
            assert one == pooled, (tag, len(split.test), workers)


def test_reports_do_not_depend_on_workers_or_algorithm_order():
    """Each algorithm's report is the same on 1 and 3 workers and wherever it stands in the algorithm list."""
    folksonomy, _ = _mini_split()
    configs = [RecommenderConfig(tag) for tag in ALGORITHMS]
    serial = run_experiment(folksonomy, ExperimentConfig(configs, workers=1))
    pooled = run_experiment(folksonomy, ExperimentConfig(configs[::-1], workers=3))
    assert [a.algorithm for a in serial.algorithms] == list(ALGORITHMS)
    assert [a.algorithm for a in pooled.algorithms] == list(ALGORITHMS)[::-1]
    assert {a.algorithm: a for a in pooled.algorithms} == {a.algorithm: a for a in serial.algorithms}


START_METHOD_RUN = """
import multiprocessing, sys
from folkrec.evaluation import ExperimentConfig, run_experiment, write_reports
from folkrec.recommenders import ALGORITHMS, RecommenderConfig
from folkrec.synth import SynthConfig, generate

multiprocessing.set_start_method(sys.argv[1])
config = ExperimentConfig([RecommenderConfig(tag) for tag in ALGORITHMS], workers=2)
write_reports(run_experiment(generate(SynthConfig(users=60), 1), config), sys.argv[2])
"""


def test_reports_do_not_depend_on_the_start_method(tmp_path):
    """Under spawn or forkserver each worker rebuilds the item-vector memo that fork inherits: same bytes."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(evaluation.__file__)))
    summaries = {}
    for method in multiprocessing.get_all_start_methods():
        out = tmp_path / method
        run = subprocess.run(
            [sys.executable, "-c", START_METHOD_RUN, method, str(out)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, (method, run.stderr)
        summaries[method] = (out / "summary.json").read_bytes()
    for method, summary in summaries.items():
        assert summary == summaries["fork"], method


def in_process_pool(seen):
    """Stand-in for ProcessPoolExecutor: records its size and chunking in ``seen``, runs everything here."""

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            seen["max_workers"] = max_workers
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            seen["tasks"] = list(tasks)
            seen["chunksize"] = chunksize
            return map(fn, seen["tasks"])

    return InProcessPool


def test_pool_size_is_capped_by_batches_and_cpus(monkeypatch):
    seen = {}
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", in_process_pool(seen))
    monkeypatch.setattr(evaluation, "_WORKER_STATE", {})
    _, split = _mini_split()
    serial = evaluate_algorithm(split, RecommenderConfig("CF_B"), workers=1)
    assert seen == {}
    # the stand-in starts no process, so asking for this many is safe here
    pooled = evaluate_algorithm(split, RecommenderConfig("CF_B"), workers=10_000)
    assert seen["chunksize"] == 1  # so there are as many chunks as tasks
    assert 1 <= seen["max_workers"] <= min(len(seen["tasks"]), os.cpu_count() or 1)
    assert [user for user, _ in seen["tasks"]] == sorted(split.test)
    assert pooled == serial


def test_full_run_matches_oracle_golden_files(tmp_path):
    """End-to-end values and layout pinned by the oracle-generated files."""
    folksonomy, _ = _mini_split()
    report = run_experiment(folksonomy, ExperimentConfig(GOLDEN_CONFIGS, split_fraction=0.2, seed=0))
    write_reports(report, str(tmp_path))
    for name in ("report.txt", "metrics.csv", "summary.json"):
        got = (tmp_path / name).read_bytes()
        want = Path(HERE, "data", "golden", name).read_bytes()
        assert got == want, f"{name} deviates from golden"


def test_golden_files_are_the_oracles_output(tmp_path):
    """tests/make_golden.py, run now, writes the checked-in golden files byte for byte."""
    write_golden_files(str(tmp_path))
    for name in ("report.txt", "metrics.csv", "summary.json"):
        assert (tmp_path / name).read_bytes() == Path(HERE, "data", "golden", name).read_bytes(), name


def test_make_golden_writes_to_the_directory_it_is_given(tmp_path):
    script = os.path.join(HERE, "make_golden.py")
    run = subprocess.run([sys.executable, script, str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"golden files regenerated in {tmp_path}\n"
    for name in ("report.txt", "metrics.csv", "summary.json"):
        assert (tmp_path / name).read_bytes() == Path(HERE, "data", "golden", name).read_bytes(), name


def test_config_hash_tracks_settings_not_plumbing():
    folksonomy, _ = _mini_split()
    base = run_experiment(folksonomy, ExperimentConfig([RecommenderConfig("MP")], seed=0))
    same = run_experiment(folksonomy, ExperimentConfig([RecommenderConfig("MP")], seed=0, workers=2))
    other_seed = run_experiment(folksonomy, ExperimentConfig([RecommenderConfig("MP")], seed=1))
    other_algo = run_experiment(folksonomy, ExperimentConfig([RecommenderConfig("MP", k=5)], seed=0))
    assert base.config_hash == same.config_hash
    assert base.config_hash != other_seed.config_hash
    assert base.config_hash != other_algo.config_hash


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from([f.name for f in dataclasses.fields(ExperimentConfig)]),
    value=st.one_of(ANY_SETTING, st.just([RecommenderConfig("CIRTT")])),
)
@example(name="count_unserved", value="no")
@example(name="split_fraction", value="0.2")
@example(name="split_fraction", value=1.5)
@example(name="algorithms", value=[])
@example(name="workers", value=3)
@example(name="seed", value=10**5000)
def test_every_experiment_is_rejected_or_runs(name, value):
    try:
        config = ExperimentConfig(**{"algorithms": (RecommenderConfig("MP"), RecommenderConfig("CF_B")), name: value})
        with pytest.MonkeyPatch.context() as patch:
            # the stand-in starts no process, so any workers value is safe here
            patch.setattr(evaluation, "ProcessPoolExecutor", in_process_pool({}))
            patch.setattr(evaluation, "_WORKER_STATE", {})
            report = run_experiment(TINY_SYNTH, config)
    except ConfigError:
        return
    assert isinstance(config.algorithms, tuple)
    for result in report.algorithms:
        numbers = result.ndcg + result.map + result.recall + (result.diversity, result.coverage)
        assert all(math.isfinite(x) for x in numbers), result
    echo = report.config_echo
    # the echo holds the settings the run applied, with the types they were applied as
    assert type(echo["count_unserved"]) is bool and echo["count_unserved"] == config.count_unserved
    assert type(echo["split_fraction"]) is float and echo["split_fraction"] == config.split_fraction
    assert type(echo["seed"]) is int and echo["seed"] == config.seed
    assert [a["algorithm"] for a in echo["algorithms"]] == [c.algorithm for c in config.algorithms]


def test_report_writers_format(tmp_path):
    folksonomy, _ = _mini_split()
    report = run_experiment(folksonomy, ExperimentConfig([RecommenderConfig("MP")]))
    write_reports(report, str(tmp_path))
    csv_lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# dataset_fingerprint=")
    assert csv_lines[1].startswith("# config_hash=")
    assert csv_lines[2] == "algorithm,k,ndcg,map,recall"
    data = csv_lines[3:]
    assert len(data) == K_MAX
    for line in data:
        algo, k, *metrics = line.split(",")
        assert algo == "MP"
        for m in metrics:
            whole, frac = m.split(".")
            assert len(frac) == 6
    txt = (tmp_path / "report.txt").read_text()
    (mp_row,) = [line for line in txt.splitlines() if line.startswith("MP ")]
    assert mp_row.endswith(f" {100.0 * report.by_algorithm('MP').coverage:>8.2f}%")
    import json

    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["config"]["seed"] == 0
    assert set(payload["algorithms"]) == {"MP"}
    assert len(payload["algorithms"]["MP"]["ndcg"]) == K_MAX


def test_by_algorithm_raises_key_error_for_a_tag_not_run():
    folksonomy, _ = _mini_split()
    report = run_experiment(folksonomy, ExperimentConfig([RecommenderConfig("MP")]))
    assert report.by_algorithm("MP") is report.algorithms[0]
    with pytest.raises(KeyError, match="CIRTT"):
        report.by_algorithm("CIRTT")


def test_item_tag_vectors_use_tag_counts():
    folksonomy, split = _mini_split()
    vectors = item_tag_vectors(split.train)
    item = split.train.items()[0]
    assert dict(vectors[item].items()) == {
        t: float(c) for t, c in split.train.item_tag_counts(item).items()
    }


def test_h_cirtt_and_diversity_share_item_vectors(monkeypatch):
    from folkrec import evaluation

    _, split = _mini_split()
    seen = []
    real = evaluation.diversity
    monkeypatch.setattr(evaluation, "diversity", lambda items, vectors: seen.append(vectors) or real(items, vectors))
    evaluate_algorithm(split, RecommenderConfig("MP"))
    h = build_recommender(split.train, split.t_ref, RecommenderConfig("H"))
    cirtt = build_recommender(split.train, split.t_ref, RecommenderConfig("CIRTT"))
    again = build_recommender(split.train, split.t_ref, RecommenderConfig("CIRTT", k=3))
    assert seen and all(vectors is h.item_vectors for vectors in seen)
    assert h.item_vectors is item_tag_vectors(split.train)
    assert cirtt.item_vectors is again.item_vectors is item_tagger_vectors(split.train)
