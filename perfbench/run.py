"""folkrec benchmark: seeded workloads through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload synth-drift --seed 1 --seconds 45 --trace 0

Set-up generates the input dump in a separate process (``gen.py``), then
forks the process that measures, so that neither it nor its pool workers
count the generator's memory. A pass makes the calls ``folkrec ingest``,
``split`` and ``run`` make: ingest, fingerprint, write and reload the
snapshot, split, write the split, evaluate every algorithm and write the
reports. Before each pass ``run_pipeline`` alone is timed repeatedly for a
fixed budget. With ``--trace 0`` passes repeat for ``--seconds`` and the
end-to-end metrics are their medians. With ``--trace 1`` one
untraced pass is followed by a traced one that replays each layer's public
calls inside spans; the per-layer metrics are span self times and counts.

Every run checks its outputs (see ``gate.py``). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = (ROOT / "src" / "folkrec" / "__init__.py", ROOT / "tests" / "oracles.py")

if __name__ == "__main__":
    for _path in REQUIRED:
        if not _path.is_file():
            print(f"perfbench: {_path.relative_to(ROOT)} not found; run from the root of a folkrec checkout", file=sys.stderr)
            sys.exit(2)

sys.path.insert(0, str(ROOT / "src"))

from folkrec import (  # noqa: E402
    DatasetSpec,
    RecommenderConfig,
    build_folksonomy,
    build_recommender,
    chronological_split,
    evaluate_algorithm,
    fingerprint,
    load_snapshot,
    run_pipeline,
    write_reports,
    write_snapshot,
)
from folkrec import evaluation  # noqa: E402
from folkrec.bll import build_bll_profile  # noqa: E402
from folkrec.evaluation import K_MAX, AlgorithmReport, UserResult  # noqa: E402
from folkrec.ingest import filter_blacklisted_tags, parse, remove_unique_resources, sample_users  # noqa: E402
from folkrec.similarity import BINARY_ITEM, TAG_PROFILE, UserIndex, build_user_vectors  # noqa: E402
from folkrec.split import write_split  # noqa: E402

from gen import BLACKLIST, HAZARDS  # noqa: E402
from gate import Gate, check_digest, load_oracles, sha256_file, spot_check  # noqa: E402
from spans import Tracer, percentile, self_times  # noqa: E402

ALGORITHMS = ("MP", "CF_B", "CF_T", "Z", "H", "CIRTT")
PROFILE_KINDS = {"binary": BINARY_ITEM, "tag": TAG_PROFILE}

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("eval_users_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _per_layer() -> Tuple[Tuple[str, str], ...]:
    metrics = [
        ("ingest.parse_s", "s"),
        ("ingest.blacklist_s", "s"),
        ("ingest.sample_s", "s"),
        ("ingest.unique_s", "s"),
        ("ingest.write_snapshot_s", "s"),
        ("ingest.load_snapshot_s", "s"),
        ("ingest.rows", "count"),
        ("ingest.malformed", "count"),
        ("ingest.blacklisted", "count"),
        ("ingest.kept_ratio", "ratio"),
        ("model.build_s", "s"),
        ("model.fingerprint_s", "s"),
        ("split.split_s", "s"),
        ("split.write_split_s", "s"),
        ("split.test_users", "count"),
    ]
    for kind in PROFILE_KINDS:
        metrics += [
            (f"similarity.index_build_s.{kind}", "s"),
            (f"similarity.top_k_p50_us.{kind}", "us"),
            (f"similarity.top_k_samples.{kind}", "count"),
        ]
    metrics += [
        ("similarity.item_cosine_us", "us"),
        ("similarity.item_cosines.CIRTT", "count"),
        ("bll.profile_s", "s"),
        ("bll.profile_p50_us", "us"),
        ("bll.profile_samples", "count"),
    ]
    for tag in ALGORITHMS:
        metrics += [
            (f"recommenders.build_s.{tag}", "s"),
            (f"recommenders.recommend_s.{tag}", "s"),
            (f"recommenders.recommend_p50_ms.{tag}", "ms"),
            (f"recommenders.recommend_p95_ms.{tag}", "ms"),
            (f"recommenders.recommend_samples.{tag}", "count"),
            (f"recommenders.served_ratio.{tag}", "ratio"),
        ]
    for tag in ALGORITHMS:
        metrics += [
            (f"evaluation.metrics_s.{tag}", "s"),
            (f"evaluation.diversity_s.{tag}", "s"),
            (f"evaluation.diversity_pairs.{tag}", "count"),
            (f"evaluation.pool_overhead_s.{tag}", "s"),
        ]
    metrics += [
        ("evaluation.item_vectors_s", "s"),
        ("evaluation.write_reports_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return tuple(metrics)


PER_LAYER = _per_layer()

SPLIT_FRACTION = 0.2  # share of each user's latest posts held out, as `folkrec split` defaults
SETUP_SECONDS = 0.5  # run_pipeline repeats before each pass for this long, at least once
MIN_PASSES = 2  # summary.json must repeat byte for byte across passes
ORACLE_USERS = 4  # test users per algorithm checked against the oracles
COSINE_USERS = 20  # CIRTT test users whose item-item cosines are timed in the traced run
WORK_DIR = ROOT / ".perfbench_work"


def load_workloads() -> dict:
    with open(HERE / "workloads.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- set-up --------------------------------------------------------------------


def generate_input(workload: str, seed: int, path: Path) -> dict:
    """Write the dump in a separate process, so its memory is not this run's."""
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed), "--out", str(path)],
        check=True,
        timeout=300,
    )
    with open(f"{path}.expect.json", encoding="utf-8") as handle:
        return json.load(handle)


def dataset_spec(workload: dict, path: Path, seed: int) -> DatasetSpec:
    return DatasetSpec(
        path=str(path),
        blacklist=BLACKLIST,
        sample_fraction=workload["sample_fraction"],
        seed=seed,
    )


def check_ingest(gate: Gate, expect: dict, folksonomy, parsed, spec: DatasetSpec) -> None:
    """Ingest counts must equal the ones the generator predicted."""
    blacklisted = len(parsed.assignments) - len(filter_blacklisted_tags(parsed.assignments, spec.blacklist, parsed.vocab))
    observed = {
        "data_rows": parsed.data_rows,
        "malformed": len(parsed.malformed),
        "blacklisted": blacklisted,
        "stats_line": folksonomy.stats().line(),
    }
    for key, value in observed.items():
        gate.check(f"ingest {key}", value == expect[key], f"{value!r} != {expect[key]!r}")


def make_report(folksonomy, configs, seed: int, reports) -> evaluation.EvalReport:
    """The EvalReport run_experiment builds, so summary.json holds the bytes `folkrec run` writes."""
    echo = evaluation._config_echo(configs, SPLIT_FRACTION, seed, True)
    return evaluation.EvalReport(
        dataset_fingerprint=fingerprint(folksonomy),
        config_hash=evaluation.config_hash(echo),
        config_echo=echo,
        algorithms=tuple(reports),
    )


# -- untraced pass -------------------------------------------------------------


def time_setup(spec: DatasetSpec, seconds: float) -> List[float]:
    """Wall times of run_pipeline, repeated for ``seconds`` and at least once."""
    times: List[float] = []
    began = time.perf_counter()
    while not times or time.perf_counter() - began < seconds:
        start = time.perf_counter()
        folksonomy = run_pipeline(spec)[0]
        times.append(time.perf_counter() - start)
        del folksonomy
    return times


def run_pass(workload: dict, spec: DatasetSpec, configs, seed: int, out: Path) -> dict:
    """One pass, timed end to end: from the input file to the last report written."""
    start = time.perf_counter()
    folksonomy = run_pipeline(spec)[0]
    setup_s = time.perf_counter() - start
    ingested = fingerprint(folksonomy)
    write_snapshot(folksonomy, out / "snapshot.tsv")
    del folksonomy  # `folkrec ingest` ends here; `split` and `run` start from the snapshot
    snapshot = load_snapshot(out / "snapshot.tsv")
    split = chronological_split(snapshot, SPLIT_FRACTION)
    write_split(split, out / "split")
    reports, eval_s = [], {}
    for config in configs:
        began = time.perf_counter()
        reports.append(evaluate_algorithm(split, config, workers=workload["workers"]))
        eval_s[config.algorithm] = time.perf_counter() - began
    write_reports(make_report(snapshot, configs, seed, reports), str(out / "reports"))
    run_s = time.perf_counter() - start
    return {
        "run_s": run_s,
        "setup_s": setup_s,
        "eval_s": eval_s,
        "test_users": len(split.test),
        "fingerprint": ingested,
        "reloaded_fingerprint": fingerprint(snapshot),
        "ndcg20": {report.algorithm: report.ndcg[-1] for report in reports},
        # seven stages, one evaluation per algorithm, one (user, algorithm) pair per test user
        "operations": 7 + len(configs) + len(split.test) * len(configs),
    }


# -- traced pass ---------------------------------------------------------------


def replay_evaluation(tracer: Tracer, gate: Gate, split, config) -> Tuple[AlgorithmReport, object, int]:
    """evaluate_algorithm's serial loop with one span per layer call.

    Returns the report, the recommender and the number of diversity pairs.
    """
    tag = config.algorithm
    span = tracer.span
    with span(f"recommenders.build.{tag}"):
        recommender = build_recommender(split.train, split.t_ref, config)
    with span("evaluation.item_vectors"):
        vectors = evaluation.item_tag_vectors(split.train)
    zeros = (0.0,) * K_MAX
    results, pairs = [], 0
    for user in sorted(split.test):
        with span(f"recommenders.recommend.{tag}"):
            items = recommender.recommend(user, K_MAX).items()
        gate.check(
            f"leakage {tag} user {user}",
            set(split.train.items_of_user(user)).isdisjoint(items) and len(set(items)) == len(items),
            "owned or duplicate item recommended",
        )
        if not items:
            results.append(UserResult(user, False, (), zeros, zeros, zeros, 0.0))
            continue
        relevant = split.test[user]
        with span(f"evaluation.metrics.{tag}"):
            ndcg = tuple(evaluation.ndcg_at_k(items, relevant, k) for k in range(1, K_MAX + 1))
            ap = tuple(evaluation.map_at_k(items, relevant, k) for k in range(1, K_MAX + 1))
            recall = tuple(evaluation.recall_at_k(items, relevant, k) for k in range(1, K_MAX + 1))
        with span(f"evaluation.diversity.{tag}"):
            div = evaluation.diversity(items, vectors)
        pairs += len(items) * (len(items) - 1) // 2
        results.append(UserResult(user, True, items, ndcg, ap, recall, div))
    return evaluation._aggregate(tag, results, True), recommender, pairs


def replay_similarity(tracer: Tracer, split, k: int) -> None:
    """Build the user-neighbourhood index and query it once per test user, per profile kind."""
    for kind, profile in PROFILE_KINDS.items():
        with tracer.span(f"similarity.index_build.{kind}"):
            index = UserIndex(build_user_vectors(split.train, profile))
        for user in sorted(split.test):
            with tracer.span(f"similarity.top_k.{kind}"):
                index.top_k(user, k)


def replay_cirtt(tracer: Tracer, split, config, recommender, seed: int) -> Tuple[int, int]:
    """BLL profile of every test user, then timed item-item cosines for a user sample.

    Returns the item cosines CIRTT computes over all test users (candidates
    times owned items) and the number of cosines timed here.
    """
    test_users = sorted(split.test)
    for user in test_users:
        with tracer.span("bll.profile"):
            build_bll_profile(split.train, user, split.t_ref[user], config.bll)
    candidates = {}
    for user in test_users:
        contrib = recommender.candidates(user)[1]
        if contrib:
            candidates[user] = sorted(contrib)
    total = sum(len(items) * len(split.train.items_of_user(user)) for user, items in candidates.items())
    timed = 0
    for user in random.Random(seed).sample(sorted(candidates), min(COSINE_USERS, len(candidates))):
        for item in candidates[user]:
            with tracer.span("similarity.item_cosine"):
                recommender.item_similarity(user, item)
        timed += len(candidates[user]) * len(split.train.items_of_user(user))
    return total, timed


def traced_pass(tracer: Tracer, gate: Gate, workload: dict, spec: DatasetSpec, configs, seed: int, out: Path) -> dict:
    """The pass with each layer call in its own span, then the sub-layer replays."""
    span = tracer.span
    counts: Dict[str, float] = {}
    reports, diversity_pairs, recommenders = [], {}, {}
    with span("pass"):
        with span("ingest.parse"):
            parsed = parse(spec)
        with span("ingest.blacklist"):
            kept = filter_blacklisted_tags(parsed.assignments, spec.blacklist, parsed.vocab)
        counts["ingest.rows"] = parsed.data_rows
        counts["ingest.malformed"] = len(parsed.malformed)
        counts["ingest.blacklisted"] = len(parsed.assignments) - len(kept)
        vocab = parsed.vocab
        del parsed
        with span("model.build"):
            folksonomy = build_folksonomy(kept, vocab)
        del kept
        with span("ingest.sample"):
            folksonomy = sample_users(folksonomy, spec.sample_fraction, spec.seed)
        with span("ingest.unique"):
            folksonomy = remove_unique_resources(folksonomy)
        with span("model.fingerprint"):
            ingested = fingerprint(folksonomy)
        with span("ingest.write_snapshot"):
            write_snapshot(folksonomy, out / "snapshot.tsv")
        stats = folksonomy.stats()
        del folksonomy
        with span("ingest.load_snapshot"):
            snapshot = load_snapshot(out / "snapshot.tsv")
        with span("model.fingerprint"):
            reloaded = fingerprint(snapshot)
        with span("split.split"):
            split = chronological_split(snapshot, SPLIT_FRACTION)
        with span("split.write_split"):
            write_split(split, out / "split")
        for config in configs:
            with span(f"evaluation.evaluate.{config.algorithm}"):
                report, recommender, pairs = replay_evaluation(tracer, gate, split, config)
            reports.append(report)
            recommenders[config.algorithm] = (config, recommender)
            diversity_pairs[config.algorithm] = pairs
        with span("evaluation.write_reports"):
            write_reports(make_report(snapshot, configs, seed, reports), str(out / "reports"))
    replay_similarity(tracer, split, configs[0].k)
    cosines = replay_cirtt(tracer, split, *recommenders["CIRTT"], seed) if "CIRTT" in recommenders else (0, 0)
    counts["ingest.kept_ratio"] = stats.assignments / counts["ingest.rows"]
    counts["split.test_users"] = len(split.test)
    counts["similarity.item_cosines.CIRTT"] = cosines[0]
    return {
        "counts": counts,
        "stats_line": stats.line(),
        "cosines_timed": cosines[1],
        "fingerprint": ingested,
        "reloaded_fingerprint": reloaded,
        "ndcg20": {report.algorithm: report.ndcg[-1] for report in reports},
        "served": {report.algorithm: report.users_served / report.users_evaluated for report in reports},
        "diversity_pairs": diversity_pairs,
        # eleven stages, one evaluation per algorithm; the pairs were counted by their leakage checks
        "operations": 11 + len(configs),
    }


# -- metrics -------------------------------------------------------------------


def span_table(tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, List[float]], Dict[str, float]]:
    """Per span name: summed self time, the self time of each span, summed duration."""
    totals: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    durations: Dict[str, float] = {}
    for record, own in zip(tracer.spans, self_times(tracer.spans)):
        totals[record.name] = totals.get(record.name, 0.0) + own
        samples.setdefault(record.name, []).append(own)
        durations[record.name] = durations.get(record.name, 0.0) + record.duration
    return totals, samples, durations


def layer_metrics(tracer: Tracer, traced: dict, untraced: dict, workers: int) -> Dict[str, float]:
    """Per-layer metrics; a layer the workload never calls reads 0 with 0 samples."""
    totals, samples, durations = span_table(tracer)

    def p(span_name: str, q: float, scale: float) -> float:
        values = samples.get(span_name)
        return percentile(values, q) * scale if values else 0.0

    m: Dict[str, float] = dict(traced["counts"])
    # "layer.op_s[.suffix]" is the summed self time of the spans named "layer.op[.suffix]"
    for name, unit in PER_LAYER:
        layer, op, *suffix = name.split(".")
        if unit == "s" and op.endswith("_s"):
            m[name] = totals.get(".".join([layer, op[:-2], *suffix]), 0.0)
    for kind in PROFILE_KINDS:
        m[f"similarity.top_k_p50_us.{kind}"] = p(f"similarity.top_k.{kind}", 50, 1e6)
        m[f"similarity.top_k_samples.{kind}"] = len(samples.get(f"similarity.top_k.{kind}", ()))
    timed = traced["cosines_timed"]
    m["similarity.item_cosine_us"] = totals.get("similarity.item_cosine", 0.0) / timed * 1e6 if timed else 0.0
    m["bll.profile_p50_us"] = p("bll.profile", 50, 1e6)
    m["bll.profile_samples"] = len(samples.get("bll.profile", ()))
    for tag in ALGORITHMS:
        recommend = f"recommenders.recommend.{tag}"
        m[f"recommenders.recommend_p50_ms.{tag}"] = p(recommend, 50, 1e3)
        m[f"recommenders.recommend_p95_ms.{tag}"] = p(recommend, 95, 1e3)
        m[f"recommenders.recommend_samples.{tag}"] = len(samples.get(recommend, ()))
        m[f"recommenders.served_ratio.{tag}"] = traced["served"].get(tag, 0.0)
        m[f"evaluation.diversity_pairs.{tag}"] = traced["diversity_pairs"].get(tag, 0)
        serial = durations.get(f"evaluation.evaluate.{tag}")
        m[f"evaluation.pool_overhead_s.{tag}"] = workers * untraced["eval_s"][tag] - serial if serial else 0.0
    m["trace.overhead_s"] = durations["pass"] - untraced["run_s"]
    return {name: m[name] for name, _ in PER_LAYER}


# -- provenance ----------------------------------------------------------------


def _loadavg() -> Optional[str]:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _git_commit() -> Optional[str]:
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """Identifies the measured code where there is no git commit to name."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "folkrec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# -- the run -------------------------------------------------------------------


def measure(
    args: argparse.Namespace, workload: dict, pinned_seed: int, expect: dict, work: Path, gate: Gate
) -> Tuple[Dict[str, float], dict]:
    spec = dataset_spec(workload, work / "dump.tsv", args.seed)
    configs = [RecommenderConfig(tag) for tag in workload["algorithms"]]

    folksonomy, parsed = run_pipeline(spec)
    check_ingest(gate, expect, folksonomy, parsed, spec)
    del folksonomy, parsed

    out = work / "out"
    out.mkdir()
    setup_times: List[float] = []
    passes: List[dict] = []
    digests: List[str] = []
    began = time.perf_counter()
    while True:
        # set-up repeats are spread over the run, so their median sees the same machine as the passes
        setup_times += time_setup(spec, SETUP_SECONDS)
        result = run_pass(workload, spec, configs, args.seed, out)
        gate.ran(result["operations"])
        passes.append(result)
        digests.append(sha256_file(out / "reports" / "summary.json"))
        elapsed = time.perf_counter() - began
        # stop before a pass that would end past --seconds; a traced run needs one reference pass
        if args.trace or (len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > args.seconds):
            break
    gate.ran(len(setup_times))
    # this process's peak or, on a process pool, the largest worker's, whichever is larger
    peak_rss_mb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0

    checked = list(passes)
    tracer = traced = None
    if args.trace:
        tracer = Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}")
        traced = traced_pass(tracer, gate, workload, spec, configs, args.seed, out)
        gate.ran(traced["operations"])
        digests.append(sha256_file(out / "reports" / "summary.json"))
        checked.append(traced)
        for key in ("malformed", "blacklisted"):
            value = traced["counts"][f"ingest.{key}"]
            gate.check(f"traced ingest {key}", value == expect[key], f"{value} != {expect[key]}")
        gate.check("traced stats line", traced["stats_line"] == expect["stats_line"], traced["stats_line"])
        for tag, value in passes[0]["ndcg20"].items():
            gate.check(f"traced nDCG@20 {tag}", traced["ndcg20"][tag] == value, f"{traced['ndcg20'][tag]!r} != {value!r}")

    for index, result in enumerate(checked, start=1):
        check_digest(gate, f"snapshot fingerprint round trip, pass {index}", result["reloaded_fingerprint"], result["fingerprint"])
    for index, digest in enumerate(digests[1:], start=2):
        check_digest(gate, f"summary.json of pass {index} vs pass 1", digest, digests[0])
    if args.seed == pinned_seed:
        pinned = workload["pinned"]
        check_digest(gate, "pinned summary.json", digests[0], pinned["summary_sha256"])
        check_digest(gate, "pinned fingerprint", passes[0]["fingerprint"], pinned["fingerprint"])
        check_digest(gate, "pinned stats line", expect["stats_line"], pinned["stats_line"])
        gate.check("pinned test users", passes[0]["test_users"] == pinned["test_users"], str(passes[0]["test_users"]))

    split = chronological_split(load_snapshot(out / "snapshot.tsv"), SPLIT_FRACTION)
    spot_check(gate, load_oracles(ROOT), split, configs, ORACLE_USERS, args.seed)

    detail = {"passes": passes, "setup_times": setup_times, "summary_sha256": digests, "expected": expect, "tracer": tracer}
    if tracer is not None:
        detail["span_self_s"] = span_table(tracer)[0]
        return layer_metrics(tracer, traced, passes[0], workload["workers"]), detail
    users_x_algorithms = passes[0]["test_users"] * len(configs)
    metrics = {
        "run_s": statistics.median(p["run_s"] for p in passes),
        "setup_s": statistics.median(setup_times + [p["setup_s"] for p in passes]),
        "eval_users_per_s": statistics.median(users_x_algorithms / sum(p["eval_s"].values()) for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, detail


def report(args: argparse.Namespace, config: dict, expect: dict, work: Path, tag: str) -> int:
    """Measure, check and print the result; returns the exit code."""
    workload = config["workloads"][args.workload]
    started = time.time()
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "definition": workload,
        "hazards": HAZARDS,
        "blacklist": BLACKLIST,
        "split_fraction": SPLIT_FRACTION,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_start": _loadavg(),
    }
    gate = Gate()
    results_dir = WORK_DIR / "results"
    metrics: Dict[str, float] = {}
    detail: dict = {}
    try:
        results_dir.mkdir(parents=True, exist_ok=True)
        metrics, detail = measure(args, workload, config["default_seed"], expect, work, gate)
    except Exception as exc:  # the run must still report, so every failure becomes a failed operation
        traceback.print_exc()
        gate.check("run", False, f"{type(exc).__name__}: {exc}")

    tracer = detail.pop("tracer", None)
    if tracer is not None:
        tracer.write(str(results_dir / f"{tag}.spans.jsonl"))
    provenance["loadavg_end"] = _loadavg()
    provenance["wall_s"] = time.time() - started
    units = dict(PER_LAYER if args.trace else END_TO_END)
    record = {**provenance, "correct": gate.correct, "attempted": gate.attempted, "failed": gate.failed,
              "failures": gate.failures, "metrics": metrics, **detail}
    if results_dir.is_dir():
        with open(results_dir / f"{tag}.json", "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: nproc {provenance['nproc']}, "
          f"loadavg {provenance['loadavg_start']} -> {provenance['loadavg_end']}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    failed_frac = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"  {'failed_frac':<40} {failed_frac:>14.6g} ({gate.failed} of {gate.attempted} operations)")
    for failure in gate.failures:
        print(f"  FAILED {failure}")
    payload = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": gate.correct, "attempted": max(gate.attempted, 1), "failed": gate.failed, "metrics": payload}))
    return 0 if gate.correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    config = load_workloads()
    parser = argparse.ArgumentParser(description="Benchmark folkrec on one seeded workload.")
    parser.add_argument("--workload", required=True, choices=sorted(config["workloads"]))
    parser.add_argument("--seed", type=int, default=config["default_seed"], help="data seed; the default seed's outputs are pinned")
    parser.add_argument("--seconds", type=float, default=45.0, help="how long the untraced passes repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = WORK_DIR / tag
    work.mkdir(parents=True)
    try:
        expect = generate_input(args.workload, args.seed, work / "dump.tsv")
        # Measure in a fresh process, so that its ru_maxrss and its pool
        # workers' leave out the generator, a child of this process.
        sys.stdout.flush()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                status = report(args, config, expect, work, tag)
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(status)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
