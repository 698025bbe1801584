"""Tests of the benchmark itself; they run in seconds.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
from gate import Gate, check_digest, compare_ranking, load_oracles, sha256_file, spot_check  # noqa: E402
from spans import Span, Tracer, percentile, samples_beyond, self_times  # noqa: E402

from folkrec import RecommenderConfig, chronological_split, evaluate_algorithm, run_pipeline  # noqa: E402
from folkrec.synth import SynthConfig, generate  # noqa: E402

TINY = {"synth": {"users": 40, "items": 60, "tags": 24, "topics": 4}, "sample_fraction": 0.5}


# -- the percentile rule --------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))  # 1..200
    assert percentile(values, 50) == 100
    assert percentile(values, 95) == 190
    assert percentile(list(reversed(values)), 95) == 190
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p95_keeps_ten_samples_beyond_it_from_200_samples():
    assert samples_beyond(200, 95) == 10
    assert samples_beyond(199, 95) == 9
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(20, 50) == 10


# -- self time --------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, None, "parent", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 3.0),
        Span(2, 0, "b", 4.0, 7.0),
        Span(3, 2, "grandchild", 4.5, 6.0),  # counts against b, not against the parent
        Span(4, None, "next", 11.0, 12.0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.5, 1.5, 1.0])


def test_tracer_nests_spans_and_records_parents():
    tracer = Tracer("run-1")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    with tracer.span("next"):
        pass
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0), ("inner", 0), ("next", None)]
    outer, first, second, _ = tracer.spans
    own = self_times(tracer.spans)[0]
    assert own == pytest.approx(outer.duration - first.duration - second.duration)


# -- the gate ---------------------------------------------------------------------


def test_gate_rejects_a_tampered_digest(tmp_path):
    summary = tmp_path / "summary.json"
    summary.write_text('{"ndcg": [0.25]}\n')
    pinned = sha256_file(summary)
    gate = Gate()
    assert check_digest(gate, "pinned", sha256_file(summary), pinned)
    summary.write_text('{"ndcg": [0.26]}\n')
    assert not check_digest(gate, "pinned", sha256_file(summary), pinned)
    assert (gate.attempted, gate.failed, gate.correct) == (2, 1, False)


def test_compare_ranking_tolerance():
    expected = [(3, 0.5), (1, 0.25)]
    assert compare_ranking([(3, 0.5 + 1e-12), (1, 0.25)], expected) is None
    assert "score" in compare_ranking([(3, 0.5 + 1e-7), (1, 0.25)], expected)
    assert "items" in compare_ranking([(1, 0.5), (3, 0.25)], expected)


@pytest.fixture(scope="module")
def tiny_split():
    folksonomy = generate(SynthConfig(users=30, items=45, tags=18, topics=3), seed=5)
    return chronological_split(folksonomy, 0.2)


def test_spot_check_passes_on_the_real_code_and_rejects_a_perturbed_oracle(tiny_split):
    oracles = load_oracles(run.ROOT)
    configs = [RecommenderConfig(tag) for tag in run.ALGORITHMS]
    gate = Gate()
    spot_check(gate, oracles, tiny_split, configs, users_per_algorithm=3, seed=1)
    assert gate.correct and gate.attempted == 3 * len(configs)

    def perturbed(fn):
        return lambda *args, **kwargs: [(item, score + 1e-6) for item, score in fn(*args, **kwargs)]

    names = ("o_mp", "o_cf", "o_zheng", "o_huang", "o_cirtt")
    tampered = SimpleNamespace(**{name: perturbed(getattr(oracles, name)) for name in names})
    gate = Gate()
    spot_check(gate, tampered, tiny_split, configs, users_per_algorithm=3, seed=1)
    assert gate.failed > 0 and not gate.correct
    assert all("score" in failure for failure in gate.failures)


# -- the traced replay ----------------------------------------------------------


def test_replayed_evaluation_reproduces_evaluate_algorithm(tiny_split):
    for tag in run.ALGORITHMS:
        config = RecommenderConfig(tag)
        tracer, gate = Tracer("replay"), Gate()
        report, _, pairs = run.replay_evaluation(tracer, gate, tiny_split, config)
        assert report == evaluate_algorithm(tiny_split, config)
        assert gate.correct and gate.attempted == len(tiny_split.test)
        assert pairs > 0
        names = {span.name for span in tracer.spans}
        assert {f"recommenders.recommend.{tag}", f"evaluation.diversity.{tag}"} <= names


# -- the generator ------------------------------------------------------------------


def test_generator_predicts_what_ingest_reports(tmp_path):
    dump = tmp_path / "dump.tsv"
    expect = gen.generate_input(TINY, seed=3, out_path=dump)
    assert expect["malformed"] > 0 and expect["blacklisted"] > 0
    spec = run.dataset_spec(TINY, dump, seed=3)
    folksonomy, parsed = run_pipeline(spec)
    gate = Gate()
    run.check_ingest(gate, expect, folksonomy, parsed, spec)
    assert gate.correct, gate.failures
    assert gate.attempted == 4


def test_generator_is_seeded(tmp_path):
    first, second, other = tmp_path / "a.tsv", tmp_path / "b.tsv", tmp_path / "c.tsv"
    gen.generate_input(TINY, seed=3, out_path=first)
    gen.generate_input(TINY, seed=3, out_path=second)
    gen.generate_input(TINY, seed=4, out_path=other)
    assert first.read_bytes() == second.read_bytes() != other.read_bytes()


# -- the benchmark definition ---------------------------------------------------------


def test_benchmark_json_lists_the_metrics_and_workloads_run_py_reports():
    definition = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in definition["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in definition["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in definition["workloads"]] == list(run.load_workloads()["workloads"])
    assert any(m["name"] == "setup_s" and m["bound"] == max(e["bound"] for e in definition["end_to_end"])
               for m in definition["end_to_end"])
