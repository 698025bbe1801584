"""Command-line behavior: subcommands, exit codes, output stability."""

import json
import math
import os
import re
import shutil
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import yaml

from folkrec.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK, load_config, main
from folkrec.errors import ConfigError
from folkrec.evaluation import run_experiment
from folkrec.recommenders import ALGORITHMS, build_recommender
from folkrec.split import chronological_split

from conftest import TINY_SYNTH, UNSHRUNK

HERE = os.path.dirname(os.path.abspath(__file__))
MINI = os.path.join(HERE, "data", "mini.tsv")
CONFIG = os.path.join(HERE, "data", "mini_config.yaml")
README = os.path.join(HERE, os.pardir, "README.md")


@pytest.fixture
def workdir(tmp_path):
    """Copy of the bundled fixture + config into a scratch directory."""
    shutil.copy(MINI, tmp_path / "mini.tsv")
    shutil.copy(CONFIG, tmp_path / "mini_config.yaml")
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_ingest_prints_pinned_stats_line(workdir, capsys):
    code = run_cli("ingest", "--config", workdir / "mini_config.yaml")
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines()[0] == "B=38 U=12 R=9 T=15 TAS=61"
    assert (workdir / "out" / "snapshot.tsv").exists()


def test_ingest_reruns_yield_identical_snapshot(workdir, capsys):
    run_cli("ingest", "--config", workdir / "mini_config.yaml", "--out", workdir / "a")
    run_cli("ingest", "--config", workdir / "mini_config.yaml", "--out", workdir / "b")
    a = (workdir / "a" / "snapshot.tsv").read_bytes()
    b = (workdir / "b" / "snapshot.tsv").read_bytes()
    assert a == b


def test_ingest_empty_file_is_data_error(workdir, capsys):
    (workdir / "mini.tsv").write_text("")
    code = run_cli("ingest", "--config", workdir / "mini_config.yaml")
    assert code == EXIT_DATA
    assert "error" in capsys.readouterr().err


def test_ingest_reports_malformed_lines(workdir, capsys):
    with open(workdir / "mini.tsv", "a") as fh:
        fh.write("half\tbaked\n")
    code = run_cli("ingest", "--config", workdir / "mini_config.yaml")
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert "malformed line 62" in err


def test_ingest_reads_the_dataset_when_a_snapshot_is_also_configured(workdir, capsys):
    # other.tsv is a snapshot of mini.tsv's first 20 rows; ingest used to
    # re-snapshot it and ignore the dataset, malformed line included
    rows = (workdir / "mini.tsv").read_text().splitlines(keepends=True)
    (workdir / "head.tsv").write_text("".join(rows[:20]))
    (workdir / "head.yaml").write_text("dataset: {path: head.tsv}\nout_dir: head\n")
    assert run_cli("ingest", "--config", workdir / "head.yaml") == EXIT_OK
    shutil.copy(workdir / "head" / "snapshot.tsv", workdir / "other.tsv")
    assert run_cli("ingest", "--config", workdir / "mini_config.yaml", "--out", workdir / "alone") == EXIT_OK
    with open(workdir / "mini.tsv", "a") as fh:
        fh.write("half\tbaked\n")
    both = workdir / "both.yaml"
    both.write_text("dataset: {path: mini.tsv}\nsnapshot: other.tsv\nout_dir: both\n")
    capsys.readouterr()
    assert run_cli("ingest", "--config", both) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "B=38 U=12 R=9 T=15 TAS=61"
    assert "malformed line 62" in captured.err
    assert (workdir / "both" / "snapshot.tsv").read_bytes() == (workdir / "alone" / "snapshot.tsv").read_bytes()
    # split still prefers the snapshot
    (workdir / "snap.yaml").write_text("snapshot: other.tsv\nout_dir: snap\n")
    assert run_cli("split", "--config", workdir / "snap.yaml") == EXIT_OK
    assert run_cli("split", "--config", both) == EXIT_OK
    assert (workdir / "both" / "train.tsv").read_bytes() == (workdir / "snap" / "train.tsv").read_bytes()


@pytest.mark.parametrize("source", ["dump", "snapshot"])
def test_non_utf8_input_is_data_error(workdir, capsys, source):
    config = workdir / "mini_config.yaml"
    data = workdir / "mini.tsv"
    if source == "snapshot":
        assert run_cli("ingest", "--config", config) == EXIT_OK
        config = workdir / "snap_config.yaml"
        config.write_text("snapshot: out/snapshot.tsv\nalgorithms: [MP]\n")
        data = workdir / "out" / "snapshot.tsv"
    lines = data.read_bytes().splitlines(keepends=True)
    lines.insert(5, "u01\tr99\tcaf\u00e9\t1000\n".encode("latin-1"))
    data.write_bytes(b"".join(lines))
    capsys.readouterr()
    code = run_cli("run", "--config", config, "--out", workdir / "r")
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("data error:")
    assert f"{data} line 6 " in err
    assert "Traceback" not in err
    assert not (workdir / "r").exists()


# Each sets up one unreadable path and returns the command line and that path.
def missing_config(workdir):
    return ("run", "--config", workdir / "absent.yaml"), workdir / "absent.yaml"


def missing_snapshot(workdir):
    (workdir / "snap.yaml").write_text("snapshot: absent.tsv\nalgorithms: [MP]\n")
    return ("run", "--config", workdir / "snap.yaml"), workdir / "absent.tsv"


def missing_dataset(workdir):
    os.remove(workdir / "mini.tsv")
    return ("ingest", "--config", workdir / "mini_config.yaml"), workdir / "mini.tsv"


def dataset_is_a_directory(workdir):
    os.remove(workdir / "mini.tsv")
    os.mkdir(workdir / "mini.tsv")
    return ("split", "--config", workdir / "mini_config.yaml"), workdir / "mini.tsv"


def missing_report(workdir):
    return ("plotdata", workdir / "absent.json"), workdir / "absent.json"


@pytest.mark.parametrize(
    "failure", [missing_config, missing_snapshot, missing_dataset, dataset_is_a_directory, missing_report]
)
def test_unreadable_path_is_io_error_naming_it(workdir, capsys, failure):
    argv, path = failure(workdir)
    assert run_cli(*argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error:")
    assert str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, line, mistake",
    [
        (("run", "--workers", 0), None, None),
        (("recommend", "--user", "u01", "--n", 0), None, None),
        (("run",), "  - algorithm: MP\n", "  - algorithm: MP\n  - mp\n"),
    ],
    ids=["workers", "n", "duplicate-tags"],
)
def test_bad_setting_is_config_error_before_data_is_read(workdir, capsys, argv, line, mistake):
    # with the dataset gone, a check made after ingest would end in exit 4
    os.remove(workdir / "mini.tsv")
    config = workdir / "mini_config.yaml"
    if line is not None:
        assert line in config.read_text()
        config.write_text(config.read_text().replace(line, mistake))
    assert run_cli(argv[0], "--config", config, *argv[1:]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


def test_unknown_algorithm_is_config_error_before_compute(workdir, capsys):
    config = (workdir / "mini_config.yaml").read_text().replace("- algorithm: MP", "- algorithm: MAGIC")
    (workdir / "mini_config.yaml").write_text(config)
    code = run_cli("run", "--config", workdir / "mini_config.yaml")
    assert code == EXIT_CONFIG
    assert "MAGIC" in capsys.readouterr().err


def test_invalid_yaml_is_config_error(workdir, capsys):
    (workdir / "mini_config.yaml").write_text("algorithms: [unclosed\n")
    assert run_cli("run", "--config", workdir / "mini_config.yaml") == EXIT_CONFIG


def test_non_utf8_config_is_config_error(workdir, capsys):
    with open(workdir / "mini_config.yaml", "ab") as fh:
        fh.write("# caf\u00e9\n".encode("latin-1"))
    assert run_cli("run", "--config", workdir / "mini_config.yaml") == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


def test_unknown_config_key_is_config_error(workdir, capsys):
    with open(workdir / "mini_config.yaml", "a") as fh:
        fh.write("surprise_knob: 7\n")
    assert run_cli("run", "--config", workdir / "mini_config.yaml") == EXIT_CONFIG


@pytest.mark.parametrize(
    "line,mistake",
    [
        ("    d: 0.5", "    d: 0"),
        ("split_fraction: 0.2", "split_fraction: abc"),
        ("count_unserved: true", 'count_unserved: "false"'),
        ("split_fraction: 0.2", "split_fraction: 1" + "0" * 400),
        ("  columns: [0, 1, 2, 3]", "  columns: 5"),
        ("  columns: [0, 1, 2, 3]", "  columns: [a, b, c, d]"),
        ("  columns: [0, 1, 2, 3]", "  columns: [0, 2, 3, true]"),
        ("  columns: [0, 1, 2, 3]", "  columns: [0, 1, 2, 3.0]"),
        ("  columns: [0, 1, 2, 3]", "  columns: [0, 1, 2, 3, 4]"),
        ("  columns: [0, 1, 2, 3]", "  columns: [3, 1, 2, -1]"),  # user and timestamp both read column 3
        ("  columns: [0, 1, 2, 3]", "  columns: [-4, 1, 2, 3]"),
        ("  sample_fraction: 1.0", "  sample_fraction: 1.0\n  blacklist: 7"),
        ("  sample_fraction: 1.0", "  sample_fraction: 1.0\n  blacklist: [bibtex-import, 7]"),
        ('  delimiter: "\\t"', "  delimiter: 1"),
        ('  delimiter: "\\t"', '  delimiter: ""'),
        ("  timestamp_format: epoch", "  timestamp_format: 5"),
        ("  - algorithm: MP", "  - algorithm: MP\n    n: 5"),  # lists are K_MAX long
        ("    floor: 0.0", "    floor: .nan"),
        ("    floor: 0.0", "    floor: .inf"),
        ("    d: 0.5", "    d: .inf"),
        ("    t0_seconds: 8640000.0", "    t0_seconds: .inf"),
        ("  path: mini.tsv", "  path: null"),
        ("workers: 1", "workers: 1\n1: 2"),  # keys YAML loads as numbers are unknown keys too
        ("  seed: 0", "  seed: 0\n  true: 1"),
        ("\nseed: 0\n", "\nseed: 1" + "0" * 5000 + "\n"),  # past Python's int-to-string digit limit
    ],
)
def test_bad_config_value_is_config_error(workdir, capsys, line, mistake):
    config = (workdir / "mini_config.yaml").read_text()
    assert line in config
    (workdir / "mini_config.yaml").write_text(config.replace(line, mistake))
    code = run_cli("run", "--config", workdir / "mini_config.yaml")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "Traceback" not in err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize(
    "command,text,message",
    [
        ("run", "dataset: {path: mini.tsv}\nalgorithms: [5]\n", "must be a mapping or tag string"),
        ("run", "dataset: {path: mini.tsv}\nalgorithms: [{k: 3}]\n", "needs an 'algorithm' tag"),
        ("run", "- dataset\n- algorithms\n", "must hold a mapping at top level"),
        ("run", "snapshot: 5\nalgorithms: [MP]\n", "expected a path string, got 5"),
        ("run", "dataset: mini.tsv\nalgorithms: [MP]\n", "'dataset' must be a mapping"),
        ("run", "algorithms: [MP]\n", "needs a 'dataset' section or a 'snapshot' path"),
        ("run", "dataset: {path: mini.tsv}\nalgorithms: MP\n", "'algorithms' must be a list"),
        ("ingest", "snapshot: snapshot.tsv\n", "ingest needs a 'dataset' section"),
        ("run", "dataset: {path: mini.tsv}\n", "run needs a non-empty 'algorithms' list"),
    ],
)
def test_config_of_the_wrong_shape_is_config_error(workdir, capsys, command, text, message):
    (workdir / "shape.yaml").write_text(text)
    assert run_cli(command, "--config", workdir / "shape.yaml") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err
    assert "Traceback" not in err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize(
    "line,value",
    [
        ("    t0_seconds: 8640000.0", "    t0_seconds: 1.0"),  # Z's decay underflows to 0.0
        ("    d: 0.5", "    d: 150"),  # every CIRTT recency term underflows
    ],
)
def test_run_completes_where_decay_underflows(workdir, capsys, line, value):
    config = (workdir / "mini_config.yaml").read_text()
    assert line in config
    (workdir / "mini_config.yaml").write_text(config.replace(line, value))
    assert run_cli("run", "--config", workdir / "mini_config.yaml") == EXIT_OK
    for name in ("report.txt", "metrics.csv", "summary.json"):
        assert (workdir / "out" / name).exists()


EXTREMES = (math.nan, math.inf, -math.inf, -1.0, 0.0, 5e-324, 1e-300, 1e-6, 0.5, 1.0, 150.0, 1e300, sys.float_info.max)
extreme_floats = st.one_of(st.sampled_from(EXTREMES), st.floats())
extreme_ints = st.one_of(st.sampled_from((-1, 0, 1, 2, 20, 2**63)), st.integers())


@settings(max_examples=30, deadline=None, phases=UNSHRUNK)
@given(extreme_floats, extreme_ints, extreme_floats, extreme_floats, extreme_floats)
@example(0.2, 20, 8640000.0, 0.0, math.inf)
@example(0.2, 20, math.inf, math.nan, 0.5)
@example(0.2, 20, 8640000.0, math.inf, 0.5)
@example(0.2, 20, 0.002, 0.0, 0.5)
@example(0.2, 20, -1.0, 0.5, 0.5)  # a valid split and k, so Z meets a negative t0_seconds
def test_every_config_is_rejected_or_yields_finite_results(tmp_path_factory, split_fraction, k, t0_seconds, floor, d):
    # each algorithm gets its own config and only its own knob, so one bad
    # knob does not hide the others
    knobs = {"Z": {"t0_seconds": t0_seconds}, "H": {"floor": floor}, "CIRTT": {"d": d}}
    path = tmp_path_factory.mktemp("config") / "config.yaml"
    for tag in ALGORITHMS:
        entry = {"algorithm": tag, "k": k, **knobs.get(tag, {})}
        raw = {"snapshot": "unused.tsv", "split_fraction": split_fraction, "algorithms": [entry]}
        path.write_text(yaml.safe_dump(raw))
        try:
            experiment = load_config(str(path)).experiment
            report = run_experiment(TINY_SYNTH, experiment)
        except ConfigError:
            continue
        (result,) = report.algorithms
        numbers = result.ndcg + result.map + result.recall + (result.diversity, result.coverage)
        assert all(math.isfinite(x) for x in numbers), (tag, result)
        split = chronological_split(TINY_SYNTH, experiment.split_fraction)
        recommender = build_recommender(split.train, split.t_ref, experiment.algorithms[0])
        for user in sorted(split.test):
            assert all(math.isfinite(score) for _, score in recommender.recommend(user).entries), (tag, user)


def test_readme_config_loads(tmp_path):
    with open(README, encoding="utf-8") as handle:
        block = handle.read().split("```yaml\n", 1)[1].split("```", 1)[0]
    assert "  path: tags.tsv " in block
    block = block.replace("  path: tags.tsv ", f"  path: {MINI} ")
    # the commented-out keys are documented too
    block = re.sub(r"^  # ", "  ", block, flags=re.M)
    (tmp_path / "config.yaml").write_text(block, encoding="utf-8")
    config = load_config(str(tmp_path / "config.yaml"))
    assert (config.dataset.path, config.dataset.sample_fraction) == (MINI, 0.1)
    assert [c.algorithm for c in config.experiment.algorithms] == ["MP", "CF_B", "Z", "H", "CIRTT"]
    assert config.out_dir == str(tmp_path / "out")


def test_run_writes_all_three_reports(workdir, capsys):
    code = run_cli("run", "--config", workdir / "mini_config.yaml")
    assert code == EXIT_OK
    for name in ("report.txt", "metrics.csv", "summary.json"):
        assert (workdir / "out" / name).exists()
    txt = (workdir / "out" / "report.txt").read_text()
    for tag in ("MP", "CF_B", "CF_T", "Z", "H", "CIRTT"):
        assert tag in txt


def test_run_twice_is_byte_identical(workdir, capsys):
    run_cli("run", "--config", workdir / "mini_config.yaml", "--out", workdir / "r1")
    run_cli("run", "--config", workdir / "mini_config.yaml", "--out", workdir / "r2")
    for name in ("report.txt", "metrics.csv", "summary.json"):
        assert (workdir / "r1" / name).read_bytes() == (workdir / "r2" / name).read_bytes()


def test_seed_flag_changes_only_the_echoed_seed(workdir, capsys):
    # sampling uses dataset.seed, so the sampled data and every score stay put
    config = workdir / "mini_config.yaml"
    config.write_text(config.read_text().replace("  sample_fraction: 1.0", "  sample_fraction: 0.5"))
    summaries = []
    for seed in (0, 5):
        assert run_cli("run", "--config", config, "--seed", seed, "--out", workdir / f"s{seed}") == EXIT_OK
        summaries.append(json.loads((workdir / f"s{seed}" / "summary.json").read_text()))
    a, b = summaries
    assert (a["config"].pop("seed"), b["config"].pop("seed")) == (0, 5)
    assert a.pop("config_hash") != b.pop("config_hash")
    assert a == b


def test_worker_count_does_not_change_bytes(workdir, capsys):
    run_cli("run", "--config", workdir / "mini_config.yaml", "--out", workdir / "w1", "--workers", 1)
    run_cli("run", "--config", workdir / "mini_config.yaml", "--out", workdir / "w2", "--workers", 3)
    for name in ("report.txt", "metrics.csv", "summary.json"):
        assert (workdir / "w1" / name).read_bytes() == (workdir / "w2" / name).read_bytes()


def test_run_from_snapshot(workdir, capsys):
    run_cli("ingest", "--config", workdir / "mini_config.yaml")
    snapshot_config = workdir / "snap_config.yaml"
    snapshot_config.write_text(
        "snapshot: out/snapshot.tsv\nout_dir: from_snap\nalgorithms:\n  - algorithm: MP\n"
    )
    code = run_cli("run", "--config", snapshot_config)
    assert code == EXIT_OK
    assert (workdir / "from_snap" / "report.txt").exists()


def test_run_from_an_edited_snapshot_is_data_error(workdir, capsys):
    run_cli("ingest", "--config", workdir / "mini_config.yaml")
    snapshot = workdir / "out" / "snapshot.tsv"
    lines = snapshot.read_text(encoding="utf-8").splitlines(keepends=True)
    snapshot.write_text("".join(lines[:-1]), encoding="utf-8")
    snapshot_config = workdir / "snap_config.yaml"
    snapshot_config.write_text("snapshot: out/snapshot.tsv\nout_dir: from_snap\nalgorithms: [MP]\n")
    capsys.readouterr()
    code = run_cli("run", "--config", snapshot_config)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert str(snapshot) in err
    assert not (workdir / "from_snap").exists()


def test_split_from_a_dump_with_a_malformed_row_is_data_error(workdir, capsys):
    # a headerless dump has no fingerprint to catch the dropped row, so the
    # snapshot route must reject the row itself
    rows = ["u1\tr1\tweb\t100", "u1\tr2\tcss\t200", "u2\tr1\tweb\t150",
            "u2\tr3\tcss\t250", "u3\tr2\tweb\t120", "u3\tr3\tml\tnotatime"]
    (workdir / "dump.tsv").write_text("".join(row + "\n" for row in rows))
    (workdir / "snap.yaml").write_text("snapshot: dump.tsv\nout_dir: split\n")
    capsys.readouterr()
    assert run_cli("split", "--config", workdir / "snap.yaml") == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert f"{workdir / 'dump.tsv'} line 6 " in err
    assert "notatime" in err
    assert not (workdir / "split").exists()


@pytest.mark.parametrize("section", ["snapshot: dump.tsv", "dataset:\n  path: dump.tsv"])
def test_split_from_a_mostly_malformed_dump_names_the_file_and_first_bad_line(workdir, capsys, section):
    # two bad rows of three trip parse's half-malformed limit on either route
    (workdir / "dump.tsv").write_text("u1\ti1\tt1\t100\nu1\ti2\tt2\tnotatime\nu2\ti1\n")
    (workdir / "bad.yaml").write_text(f"{section}\nout_dir: split\n")
    capsys.readouterr()
    assert run_cli("split", "--config", workdir / "bad.yaml") == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert str(workdir / "dump.tsv") in err
    assert "2 of 3 rows malformed" in err
    assert "line 2" in err
    assert "notatime" in err
    assert not (workdir / "split").exists()


def test_split_writes_three_files(workdir, capsys):
    code = run_cli("split", "--config", workdir / "mini_config.yaml", "--out", workdir / "sp")
    assert code == EXIT_OK
    for name in ("train.tsv", "test.tsv", "t_ref.tsv"):
        assert (workdir / "sp" / name).exists()


def test_plotdata_series_round_trip(workdir, capsys):
    run_cli("run", "--config", workdir / "mini_config.yaml")
    code = run_cli("plotdata", workdir / "out")
    assert code == EXIT_OK
    plot_dir = workdir / "out" / "plotdata"
    files = sorted(os.listdir(plot_dir))
    assert len(files) == 18  # 6 algorithms x 3 metrics
    # series values must match the report CSV strings exactly
    csv_rows = {}
    for line in (workdir / "out" / "metrics.csv").read_text().splitlines():
        if line.startswith("#") or line.startswith("algorithm"):
            continue
        algo, k, ndcg, map_, recall = line.split(",")
        csv_rows[(algo, int(k))] = {"ndcg": ndcg, "map": map_, "recall": recall}
    for name in files:
        algo, metric = name[:-4].rsplit("_", 1)
        lines = [
            l for l in (plot_dir / name).read_text().splitlines() if not l.startswith("#")
        ]
        assert lines[0] == "k,value"
        body = lines[1:]
        assert len(body) == 20
        for row in body:
            k, value = row.split(",")
            assert value == csv_rows[(algo, int(k))][metric]


# a well-formed summary whose tag would name files outside the output directory
ESCAPING_SUMMARY = json.dumps(
    {
        "dataset_fingerprint": "f",
        "config_hash": "h",
        "algorithms": {"../escaped": {metric: [0.0] * 20 for metric in ("ndcg", "map", "recall")}},
    }
)


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "{}",
        '{"dataset_fingerprint": "f", "config_hash": "h", "algorithms": {"MP": {}}}',
        ESCAPING_SUMMARY,
    ],
)
def test_plotdata_bad_summary_is_data_error(workdir, capsys, text):
    (workdir / "summary.json").write_text(text)
    code = run_cli("plotdata", workdir)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("data error:")
    assert "Traceback" not in err
    assert not (workdir / "plotdata").exists()
    assert not list(workdir.rglob("*.csv"))


def test_recommend_emits_user_item_rank_score(workdir, capsys):
    code = run_cli(
        "recommend", "--config", workdir / "mini_config.yaml", "--user", "u01", "--algorithm", "CIRTT", "--n", 5
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert 0 < len(lines) <= 5
    for rank, line in enumerate(lines, start=1):
        user, item, got_rank, score = line.split("\t")
        assert user == "u01"
        assert item.startswith("r")
        assert int(got_rank) == rank
        float(score)


def test_recommend_unknown_user_is_config_error(workdir, capsys):
    code = run_cli("recommend", "--config", workdir / "mini_config.yaml", "--user", "nobody")
    assert code == EXIT_CONFIG


def test_recommend_a_user_preprocessing_dropped_is_unknown_on_both_routes(workdir, capsys):
    # sampling at seed 3 drops u01, whose label the vocabulary still holds;
    # from the dataset MP served u01 its own items and CF_B and CIRTT nothing
    config = workdir / "mini_config.yaml"
    text = config.read_text()
    for line, value in (("  sample_fraction: 1.0", "  sample_fraction: 0.5"), ("  seed: 0", "  seed: 3")):
        assert line in text
        text = text.replace(line, value)
    config.write_text(text)
    assert run_cli("ingest", "--config", config) == EXIT_OK
    assert "u01\t" not in (workdir / "out" / "snapshot.tsv").read_text()
    (workdir / "snapshot.yaml").write_text("snapshot: out/snapshot.tsv\n")
    capsys.readouterr()
    for route in (config, workdir / "snapshot.yaml"):
        for tag in ("MP", "CF_B", "CIRTT"):
            assert run_cli("recommend", "--config", route, "--user", "u01", "--algorithm", tag) == EXIT_CONFIG
            assert capsys.readouterr() == ("", "config error: unknown user label 'u01'\n")


def test_recommend_an_algorithm_missing_from_the_config_runs_with_its_defaults(workdir, capsys):
    # the mini config's CF_B entry holds the defaults, so dropping it changes nothing
    config = workdir / "mini_config.yaml"
    assert run_cli("recommend", "--config", config, "--user", "u01", "--algorithm", "CF_B") == EXIT_OK
    expected = capsys.readouterr().out
    assert expected
    text = config.read_text()
    assert "  - algorithm: CF_B\n    k: 20\n" in text
    config.write_text(text.replace("  - algorithm: CF_B\n    k: 20\n", ""))
    assert run_cli("recommend", "--config", config, "--user", "u01", "--algorithm", "cf_b") == EXIT_OK
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("n", [0, -1])
def test_recommend_nonpositive_n_is_config_error(workdir, capsys, n):
    code = run_cli("recommend", "--config", workdir / "mini_config.yaml", "--user", "u01", "--n", n)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().out == ""


def test_recommend_n_above_maxsize_serves_the_whole_ranking(workdir, capsys):
    # islice rejects a stop above sys.maxsize, so 2**63 used to end in a traceback
    config = workdir / "mini_config.yaml"
    assert run_cli("recommend", "--config", config, "--user", "u01", "--n", 9223372036854775807) == EXIT_OK
    expected = capsys.readouterr().out
    assert run_cli("recommend", "--config", config, "--user", "u01", "--n", 9223372036854775808) == EXIT_OK
    assert capsys.readouterr().out == expected
    assert len(expected.splitlines()) > 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    import folkrec

    assert folkrec.__version__ in capsys.readouterr().out


def test_every_exported_name_resolves_once():
    import folkrec

    assert len(set(folkrec.__all__)) == len(folkrec.__all__)
    assert "ExperimentConfig" in folkrec.__all__
    for name in folkrec.__all__:
        assert hasattr(folkrec, name), name
    assert not hasattr(folkrec, "TagAssignment")
    # defined once, beside the cosine rule, and re-exported
    assert folkrec.diversity is folkrec.evaluation.diversity is folkrec.similarity.diversity
