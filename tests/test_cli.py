"""Command-line behavior: subcommands, exit codes, output stability."""

import os
import shutil

import pytest

from folkrec.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK, main

HERE = os.path.dirname(os.path.abspath(__file__))
MINI = os.path.join(HERE, "data", "mini.tsv")
CONFIG = os.path.join(HERE, "data", "mini_config.yaml")


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


def test_missing_dataset_is_io_error(workdir, capsys):
    os.remove(workdir / "mini.tsv")
    code = run_cli("ingest", "--config", workdir / "mini_config.yaml")
    assert code == EXIT_IO


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
        ("  sample_fraction: 1.0", "  sample_fraction: 1.0\n  blacklist: 7"),
        ("  sample_fraction: 1.0", "  sample_fraction: 1.0\n  blacklist: [bibtex-import, 7]"),
        ('  delimiter: "\\t"', "  delimiter: 1"),
        ("  timestamp_format: epoch", "  timestamp_format: 5"),
        ("  - algorithm: MP", "  - algorithm: MP\n    n: 5"),  # lists are K_MAX long
    ],
)
def test_bad_config_value_is_config_error(workdir, capsys, line, mistake):
    config = (workdir / "mini_config.yaml").read_text()
    assert line in config
    (workdir / "mini_config.yaml").write_text(config.replace(line, mistake))
    code = run_cli("run", "--config", workdir / "mini_config.yaml")
    assert code == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
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


def test_plotdata_missing_report_is_io_error(workdir, capsys):
    assert run_cli("plotdata", workdir / "nowhere") == EXIT_IO


@pytest.mark.parametrize(
    "text",
    ["{not json", "{}", '{"dataset_fingerprint": "f", "config_hash": "h", "algorithms": {"MP": {}}}'],
)
def test_plotdata_bad_summary_is_data_error(workdir, capsys, text):
    (workdir / "summary.json").write_text(text)
    code = run_cli("plotdata", workdir)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("data error:")
    assert "Traceback" not in err
    assert not (workdir / "plotdata").exists()


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


@pytest.mark.parametrize("n", [0, -1])
def test_recommend_nonpositive_n_is_config_error(workdir, capsys, n):
    code = run_cli("recommend", "--config", workdir / "mini_config.yaml", "--user", "u01", "--n", n)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().out == ""


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    import folkrec

    assert folkrec.__version__ in capsys.readouterr().out
