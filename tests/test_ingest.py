"""Parsing, tag blacklisting, user sampling, unique-resource removal, snapshots."""

import dataclasses
import hashlib
import math
import os
import random
import tempfile
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folkrec import ingest, model
from folkrec.errors import ConfigError, EmptyDatasetError, FormatError
from folkrec.ingest import (
    DEFAULT_BLACKLIST,
    DatasetSpec,
    filter_blacklisted_tags,
    load_snapshot,
    parse,
    remove_unique_resources,
    run_pipeline,
    sample_users,
    write_snapshot,
)
from folkrec.model import Folksonomy, Vocab, build_folksonomy, fingerprint
from folkrec.split import chronological_split
from folkrec.synth import SynthConfig, generate, write_tsv

from conftest import ANY_SETTING, UNSHRUNK, folksonomy_from_rows, random_folksonomy, random_rows
from oracles import o_folksonomy


def write_rows(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(str(x) for x in row) + "\n")


def assignments_of(folksonomy):
    """The folksonomy's deduplicated tag assignments, walked post by post."""
    return [(p.user, p.item, tag, ts) for p in folksonomy.posts for tag, ts in p.tag_times]


def test_parse_basic_row(tmp_path):
    path = tmp_path / "d.tsv"
    write_rows(path, [("u1", "i9", "web", 1300000000)])
    result = parse(DatasetSpec(path=str(path)))
    assert len(result.assignments) == 1
    user, item, tag, ts = result.assignments[0]
    vocab = result.vocab
    assert vocab.users.label_of(user) == "u1"
    assert vocab.items.label_of(item) == "i9"
    assert vocab.tags.label_of(tag) == "web"
    assert ts == 1300000000
    assert result.malformed == []


def test_malformed_rows_counted_with_line_numbers(tmp_path):
    path = tmp_path / "d.tsv"
    with open(path, "w") as fh:
        fh.write("u1\ti1\tweb\t100\n")
        fh.write("u1\ti2\tweb\tnot-a-number\n")
        fh.write("broken row\n")
        fh.write("u2\ti1\tcss\t200\n")
    result = parse(DatasetSpec(path=str(path)))
    assert len(result.assignments) == 2
    assert [line for line, _ in result.malformed] == [2, 3]


@pytest.mark.parametrize(
    "fmt, valid, before_epoch",
    [
        ("epoch", "100", "-5"),
        ("iso8601", "1970-01-01T00:01:40Z", "1969-12-31T23:59:59Z"),
        # a fraction of a second before the epoch is before it too
        ("epoch", "100", "-1"),
        ("epoch", "100", "-0.5"),
        ("iso8601", "1970-01-01T00:01:40Z", "1969-12-31T23:59:59.500Z"),
    ],
)
def test_timestamp_before_epoch_is_a_malformed_row(tmp_path, fmt, valid, before_epoch):
    path = tmp_path / "d.tsv"
    # a repeated bad timestamp text is reported again; a rejected value is never reused
    write_rows(
        path,
        [
            ("u1", "i1", "web", valid),
            ("u2", "i1", "web", before_epoch),
            ("u4", "i2", "web", before_epoch),
            ("u3", "i2", "css", valid),
        ],
    )
    result = parse(DatasetSpec(path=str(path), timestamp_format=fmt))
    assert [line for line, _ in result.malformed] == [2, 3]
    assert all("timestamp before epoch" in reason for _, reason in result.malformed)
    assert [(result.vocab.users.label_of(user), ts) for user, _, _, ts in result.assignments] == [
        ("u1", 100),
        ("u3", 100),
    ]


def test_timestamp_past_the_time_column_is_a_malformed_row(tmp_path):
    # a folksonomy's time columns hold signed 64-bit values, so a later time could not be stored
    path = tmp_path / "d.tsv"
    largest = 2**63 - 1  # integer epoch text is read exactly, so the column's largest value is kept
    write_rows(
        path,
        [
            ("u1", "i1", "web", largest),
            ("u2", "i1", "web", "1e19"),
            ("u3", "i1", "web", largest + 1),
            ("u2", "i2", "css", 100),
            ("u4", "i2", "css", 100),
        ],
    )
    parsed = parse(DatasetSpec(path=str(path)))
    assert parsed.malformed == [
        (2, "bad timestamp '1e19': timestamp past 2**63 - 1 seconds"),
        (3, "bad timestamp '9223372036854775808': timestamp past 2**63 - 1 seconds"),
    ]
    folksonomy = build_folksonomy(parsed.assignments, parsed.vocab)
    assert [post.timestamp for post in folksonomy.posts] == [largest, 100, 100]


def test_mostly_malformed_file_raises_format_error(tmp_path):
    path = tmp_path / "d.tsv"
    with open(path, "w") as fh:
        fh.write("u1\ti1\tweb\t100\n")
        fh.write("garbage\n")
        fh.write("more garbage\n")
    with pytest.raises(FormatError):
        parse(DatasetSpec(path=str(path)))


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "d.tsv"
    with open(path, "w") as fh:
        fh.write("# a comment\n\nu1\ti1\tweb\t100\n")
    result = parse(DatasetSpec(path=str(path)))
    assert len(result.assignments) == 1
    assert result.malformed == []


def test_tags_lowercased_and_trimmed(tmp_path):
    path = tmp_path / "d.tsv"
    write_rows(path, [("u1", "i1", "  WeB ", 100), ("u2", "i1", "web", 200)])
    result = parse(DatasetSpec(path=str(path)))
    assert len(result.vocab.tags) == 1
    assert result.vocab.tags.label_of(0) == "web"


def test_iso8601_timestamps(tmp_path):
    path = tmp_path / "d.tsv"
    write_rows(
        path,
        [
            ("u1", "i1", "web", "2010-03-14T02:40:00Z"),
            ("u2", "i1", "web", "2010-03-14T02:40:00+00:00"),
            ("u3", "i1", "web", "2010-03-14 02:40:00"),
        ],
    )
    result = parse(DatasetSpec(path=str(path), timestamp_format="iso8601"))
    assert [ts for _, _, _, ts in result.assignments] == [1268534400] * 3


def test_custom_column_order_and_delimiter(tmp_path):
    path = tmp_path / "d.csv"
    with open(path, "w") as fh:
        fh.write("100,web,i1,u1\n")
    result = parse(DatasetSpec(path=str(path), columns=(3, 2, 1, 0), delimiter=","))
    user, _, _, ts = result.assignments[0]
    assert result.vocab.users.label_of(user) == "u1"
    assert ts == 100


def test_spec_validation():
    with pytest.raises(ConfigError):
        DatasetSpec(path="x", sample_fraction=0.0)
    with pytest.raises(ConfigError):
        DatasetSpec(path="x", sample_fraction=1.5)
    with pytest.raises(ConfigError):
        DatasetSpec(path="x", columns=(0, 1, 2, 2))
    with pytest.raises(ConfigError):
        DatasetSpec(path="x", timestamp_format="julian")
    with pytest.raises(ConfigError):
        DatasetSpec(path="x", columns=(3, 1, 2, -1))
    with pytest.raises(ConfigError):
        DatasetSpec(path="x", delimiter="")


@pytest.fixture(scope="module")
def six_row_dump(tmp_path_factory):
    path = tmp_path_factory.mktemp("dump") / "d.tsv"
    write_rows(
        path,
        [
            ("u1", "i1", "web", 100),
            ("u1", "i1", "bibtex-import", 100),
            ("u2", "i1", "t", 200),
            ("u2", "i2", "x", 210),
            ("u3", "i2", "web", 300),
            ("u3", "i1", "css", 310),
        ],
    )
    return path


@pytest.mark.parametrize(
    "kwargs",
    [
        {"blacklist": "bibtex-import"},  # would be read as one pattern per character
        {"blacklist": ["web", 7]},
        {"columns": (0, 1, 2, 3.0)},
        {"columns": (0, 1, 2, True)},
        {"columns": "0123"},
        {"delimiter": 5},
        {"timestamp_format": None},
        {"sample_fraction": True},
        {"sample_fraction": "0.5"},
        {"seed": None},
        {"seed": 1.0},
        {"path": 5},  # open() would read file descriptor 5
        {"path": None},
        {"path": b"d.tsv"},
    ],
)
def test_spec_rejects_a_wrong_type(kwargs):
    with pytest.raises(ConfigError):
        DatasetSpec(**{"path": "x", **kwargs})


def test_spec_accepts_lists_none_and_a_path_object(six_row_dump):
    def fingerprint(**kwargs):
        return run_pipeline(DatasetSpec(**{"path": str(six_row_dump), **kwargs}))[0].fingerprint()

    assert fingerprint(path=six_row_dump) == fingerprint()
    assert fingerprint(columns=[0, 1, 2, 3], blacklist=["bibtex-import"]) == fingerprint()
    assert fingerprint(blacklist=None) == fingerprint(blacklist=())


def test_spec_stores_lists_and_none_as_tuples():
    spec = DatasetSpec(path="x", columns=[0, 1, 2, 3], blacklist=["bibtex-import"])
    assert (spec.columns, spec.blacklist) == ((0, 1, 2, 3), ("bibtex-import",))
    assert DatasetSpec(path="x", blacklist=None).blacklist == ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.blacklist = "bibtex-import"  # a checked spec stays checked


# path is not drawn: any string names some file, so what it reads depends on
# the working directory; its type rule is covered by the examples above
@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from([f.name for f in dataclasses.fields(DatasetSpec) if f.name != "path"]), value=ANY_SETTING)
@example(name="columns", value=(0, 1, 2, 3.0))
@example(name="delimiter", value=5)
@example(name="blacklist", value="bibtex-import")
@example(name="seed", value=None)
@example(name="delimiter", value="")  # str.split("") raises a raw ValueError
def test_every_spec_is_rejected_or_runs(six_row_dump, name, value):
    try:
        spec = DatasetSpec(path=str(six_row_dump), **{name: value})
    except ConfigError:
        return
    assert isinstance(spec.columns, tuple)
    assert isinstance(spec.blacklist, tuple) and all(isinstance(p, str) for p in spec.blacklist)
    try:
        folksonomy, _ = run_pipeline(spec)
    except (FormatError, EmptyDatasetError):
        return  # settings that do not fit the dump are a data error, exit 3
    assert run_pipeline(spec)[0].fingerprint() == folksonomy.fingerprint()


def test_default_blacklist_removes_bibtex_import(tmp_path):
    path = tmp_path / "d.tsv"
    write_rows(
        path,
        [("u1", "i1", "bibtex-import", 100), ("u1", "i1", "web", 100), ("u2", "i1", "web", 200)],
    )
    result = parse(DatasetSpec(path=str(path)))
    kept = filter_blacklisted_tags(result.assignments, DEFAULT_BLACKLIST, result.vocab)
    labels = {result.vocab.tags.label_of(tag) for _, _, tag, _ in kept}
    assert labels == {"web"}


def test_empty_blacklist_is_identity(tmp_path):
    path = tmp_path / "d.tsv"
    write_rows(path, [("u1", "i1", "bibtex-import", 100), ("u2", "i1", "web", 200)])
    result = parse(DatasetSpec(path=str(path)))
    assert filter_blacklisted_tags(result.assignments, (), result.vocab) == result.assignments


def test_glob_blacklist(tmp_path):
    path = tmp_path / "d.tsv"
    write_rows(
        path,
        [
            ("u1", "i1", "no-tag", 100),
            ("u1", "i2", "imported-2009", 110),
            ("u1", "i3", "importedfoo", 120),
            ("u1", "i4", "keepme", 130),
            ("u2", "i5", "Imported-X", 140),
        ],
    )
    result = parse(DatasetSpec(path=str(path)))
    kept = filter_blacklisted_tags(result.assignments, ("no-tag", "imported*"), result.vocab)
    labels = {result.vocab.tags.label_of(tag) for _, _, tag, _ in kept}
    # matching is case-insensitive because tags are case-folded at parse time
    assert labels == {"keepme"}


def test_sample_fraction_one_is_identity(small_folksonomy):
    sampled = sample_users(small_folksonomy, 1.0, seed=3)
    assert fingerprint(sampled) == fingerprint(small_folksonomy)


def test_sample_keeps_ceiling_of_fraction_times_users():
    rows = [(f"u{i}", f"r{i % 7}", "t", 100 + i) for i in range(100)]
    f = folksonomy_from_rows(rows)
    sampled = sample_users(f, 0.1, seed=0)
    assert len(sampled.users()) == 10
    # ceil(0.25 * 6) = 2
    six = folksonomy_from_rows(rows[:6])
    assert len(sample_users(six, 0.25, seed=0).users()) == math.ceil(0.25 * 6)
    # at least one: ceil(round(1e-12 * 100, 9)) is 0, and kept no user
    assert len(sample_users(f, 1e-12, seed=0).users()) == 1
    # but an empty folksonomy has none to draw
    assert sample_users(f.select([False] * len(f)), 1e-12, seed=0).users() == []


def test_sampling_deterministic_per_seed():
    f = random_folksonomy(11)
    a = sample_users(f, 0.4, seed=5)
    b = sample_users(f, 0.4, seed=5)
    c = sample_users(f, 0.4, seed=6)
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint(c)  # overwhelmingly likely for this fixture


@pytest.mark.parametrize(
    "fraction, seed",
    [("0.5", 1), (True, 1), (0.5, "1"), (0.5, 1.5), (0.5, None)],
    ids=["str-fraction", "bool-fraction", "str-seed", "float-seed", "none-seed"],
)
def test_bad_sample_users_argument_is_config_error(small_folksonomy, fraction, seed):
    with pytest.raises(ConfigError):
        sample_users(small_folksonomy, fraction, seed)


def test_unique_resource_removal_single_pass():
    f = folksonomy_from_rows(
        [
            ("u1", "shared", "t", 100),
            ("u2", "shared", "t", 110),
            ("u2", "solo", "t", 120),
        ]
    )
    cleaned = remove_unique_resources(f)
    labels = {cleaned.vocab.items.label_of(i) for i in cleaned.items()}
    assert labels == {"shared"}


def test_unique_resource_removal_does_not_cascade():
    # dropping u2's solo item leaves u2 with one post; a fixpoint pass would
    # then re-examine "shared" items, a single pass must not
    f = folksonomy_from_rows(
        [
            ("u1", "a", "t", 100),
            ("u2", "a", "t", 110),
            ("u2", "solo", "t", 120),
            ("u3", "b", "t", 130),
            ("u1", "b", "t", 140),
        ]
    )
    cleaned = remove_unique_resources(f)
    users = {cleaned.vocab.users.label_of(u) for u in cleaned.users()}
    items = {cleaned.vocab.items.label_of(i) for i in cleaned.items()}
    assert users == {"u1", "u2", "u3"}
    assert items == {"a", "b"}


def test_unique_resource_removal_matches_brute_force():
    for seed in range(6):
        f = random_folksonomy(seed, n_users=12, n_items=30, n_posts=40)
        survivors = {
            item for item in f.items() if len(f.taggers_of_item(item)) >= 2
        }
        expected_rows = sorted(row for row in assignments_of(f) if row[1] in survivors)
        if not expected_rows:
            with pytest.raises(EmptyDatasetError):
                remove_unique_resources(f)
            continue
        cleaned = remove_unique_resources(f)
        got_rows = sorted(assignments_of(cleaned))
        assert got_rows == expected_rows


def test_removal_to_empty_dataset_raises():
    f = folksonomy_from_rows([("u1", "only", "t", 100)])
    with pytest.raises(EmptyDatasetError):
        remove_unique_resources(f)


def test_pipeline_never_increases_counts(tmp_path):
    f = random_folksonomy(3)
    path = tmp_path / "d.tsv"
    write_tsv(f, str(path))
    out, _ = run_pipeline(DatasetSpec(path=str(path), sample_fraction=0.5, seed=1))
    before, after = f.stats(), out.stats()
    assert after.bookmarks <= before.bookmarks
    assert after.users <= before.users
    assert after.resources <= before.resources
    assert after.tags <= before.tags
    assert after.assignments <= before.assignments


def test_pipeline_deterministic(tmp_path):
    f = random_folksonomy(4)
    path = tmp_path / "d.tsv"
    write_tsv(f, str(path))
    spec = DatasetSpec(path=str(path), sample_fraction=0.6, seed=9)
    one, _ = run_pipeline(spec)
    two, _ = run_pipeline(spec)
    assert fingerprint(one) == fingerprint(two)


def test_snapshot_round_trip(tmp_path, small_folksonomy):
    path = tmp_path / "snap.tsv"
    write_snapshot(small_folksonomy, str(path))
    loaded = load_snapshot(str(path))
    assert fingerprint(loaded) == fingerprint(small_folksonomy)
    head = path.read_text().splitlines()[:3]
    assert head[0].startswith("# folkrec snapshot")
    assert head[1] == f"# fingerprint={fingerprint(small_folksonomy)}"
    assert head[2] == "# " + small_folksonomy.stats().line()


def test_a_snapshot_keeps_a_timestamp_past_2_to_the_53(tmp_path):
    # read through a float, 2**53 + 1 would reload as 2**53 and the body would not match its header
    late = 2**53 + 1
    folksonomy = folksonomy_from_rows([("u1", "i1", "web", late), ("u2", "i1", "css", 100)])
    loaded = _reloaded(folksonomy, str(tmp_path))
    assert fingerprint(loaded) == fingerprint(folksonomy)
    assert [post.timestamp for post in loaded.posts] == [late, 100]


def _count_label_row_builds(monkeypatch):
    calls = []
    original = Folksonomy.label_rows

    def counting(folksonomy):
        calls.append(folksonomy)
        return original(folksonomy)

    monkeypatch.setattr(Folksonomy, "label_rows", counting)
    return calls


def test_write_snapshot_builds_the_label_rows_once(tmp_path, monkeypatch, small_folksonomy):
    vocab = small_folksonomy.vocab
    rows = sorted(
        f"{vocab.users.label_of(u)}\t{vocab.items.label_of(i)}\t{vocab.tags.label_of(t)}\t{ts}"
        for u, i, t, ts in assignments_of(small_folksonomy)
    )
    digest = hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()
    fresh = small_folksonomy.select([True] * len(small_folksonomy))  # no cached fingerprint
    calls = _count_label_row_builds(monkeypatch)
    path = tmp_path / "snap.tsv"
    write_snapshot(fresh, path)
    assert len(calls) == 1
    expected = f"# folkrec snapshot v1\n# fingerprint={digest}\n# {fresh.stats().line()}\n" + "".join(r + "\n" for r in rows)
    assert path.read_bytes() == expected.encode("utf-8")
    assert fresh.fingerprint() == digest
    assert len(calls) == 1  # the digest of the written rows was cached
    assert small_folksonomy.select([True] * len(small_folksonomy)).fingerprint() == digest
    assert len(calls) == 2


def _edit_last_row(text):
    user, item, tag, ts = text.splitlines()[-1].split("\t")
    return text.rsplit("\n", 2)[0] + f"\n{user}\t{item}\t{tag}\t{int(ts) + 1}\n"


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda text: text.rsplit("\n", 2)[0] + "\n", id="dropped-last-row"),
        pytest.param(_edit_last_row, id="edited-row"),
    ],
)
def test_load_snapshot_rejects_a_body_that_does_not_match_its_header(tmp_path, small_folksonomy, damage):
    path = tmp_path / "snap.tsv"
    write_snapshot(small_folksonomy, path)
    text = path.read_text(encoding="utf-8")
    path.write_text(damage(text), encoding="utf-8")
    with pytest.raises(FormatError, match=str(path)):
        load_snapshot(path)


def test_headerless_dump_loads_unchecked(tmp_path, small_folksonomy):
    path = tmp_path / "snap.tsv"
    write_snapshot(small_folksonomy, path)
    body = path.read_text(encoding="utf-8").splitlines(keepends=True)[3:]
    path.write_text("".join(body[:-1]), encoding="utf-8")  # no header, last row dropped
    loaded = load_snapshot(path)
    assert loaded.stats().assignments == small_folksonomy.stats().assignments - 1
    assert loaded.fingerprint() == o_folksonomy(loaded.posts, loaded.vocab, [], [])["fingerprint"]


@pytest.mark.parametrize("line_2", ["", "# fingerprint\n"], ids=["dropped", "no-digest"])
def test_a_snapshot_header_without_a_fingerprint_line_is_rejected(tmp_path, line_2):
    # with the fingerprint line gone, this snapshot less its last row loaded
    # unchecked as TAS=815, where the folksonomy written had 816
    folksonomy = generate(SynthConfig(users=20, items=30, tags=10, topics=3), 1)
    assert folksonomy.stats().assignments == 816
    path = tmp_path / "snap.tsv"
    write_snapshot(folksonomy, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(lines[0] + line_2 + "".join(lines[2:-1]), encoding="utf-8")
    with pytest.raises(FormatError, match=str(path)):
        load_snapshot(path)


@pytest.mark.parametrize("comment", ["", "# exported by an editor\n"])
def test_a_byte_order_mark_is_not_part_of_the_first_row(tmp_path, comment):
    # with the mark read as text, the first user became a phantom '\ufeffalice'
    # (U=3, not 2), and a leading comment line became malformed row 1
    text = comment + "alice\ti1\tweb\t1\nalice\ti2\tweb\t2\nbob\ti1\tweb\t3\nbob\ti2\tcss\t4\n"
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    want, want_parsed = run_pipeline(DatasetSpec(path=plain))
    got, got_parsed = run_pipeline(DatasetSpec(path=marked))
    assert want.stats().users == 2
    assert got.fingerprint() == want.fingerprint()
    assert got.stats().line() == want.stats().line()
    assert (got_parsed.data_rows, got_parsed.malformed) == (want_parsed.data_rows, want_parsed.malformed) == (4, [])


def test_a_snapshot_saved_with_a_byte_order_mark_is_still_checked(tmp_path, small_folksonomy):
    # an editor that re-saves a snapshot may prepend the mark; the header
    # behind it still holds, so an intact copy loads and an edited one fails
    path = tmp_path / "snap.tsv"
    write_snapshot(small_folksonomy, path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text, encoding="utf-8-sig")
    assert load_snapshot(path).fingerprint() == small_folksonomy.fingerprint()
    path.write_text(_edit_last_row(text), encoding="utf-8-sig")
    with pytest.raises(FormatError, match="does not match its header"):
        load_snapshot(path)


def test_snapshot_with_a_header_and_no_rows_is_empty(tmp_path, small_folksonomy):
    path = tmp_path / "snap.tsv"
    write_snapshot(small_folksonomy, path)
    header = path.read_text(encoding="utf-8").splitlines(keepends=True)[:3]
    assert all(line.startswith("#") for line in header)
    path.write_text("".join(header), encoding="utf-8")
    with pytest.raises(EmptyDatasetError, match="holds no assignments"):
        load_snapshot(path)


def test_load_snapshot_caches_the_checked_fingerprint(tmp_path, monkeypatch, small_folksonomy):
    path = tmp_path / "snap.tsv"
    write_snapshot(small_folksonomy, path)
    calls = _count_label_row_builds(monkeypatch)
    loaded = load_snapshot(path)
    assert loaded.fingerprint() == small_folksonomy.fingerprint()
    assert len(calls) == 1


@pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 7])
def test_snapshot_text_streams_across_chunk_boundaries(tmp_path, monkeypatch, n_rows):
    monkeypatch.setattr(model, "_CHUNK_ROWS", 3)
    rows = [(f"u{i % 2}", f"r{i}", "web", 100 + i) for i in range(n_rows)]
    label_rows = folksonomy_from_rows(rows).label_rows()
    assert len(label_rows) == n_rows
    text = "\n".join(label_rows)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert folksonomy_from_rows(rows).fingerprint() == digest
    path = tmp_path / "snap.tsv"
    write_snapshot(folksonomy_from_rows(rows), path)  # no cached fingerprint: digested while writing
    lines = path.read_text(encoding="utf-8").split("\n", 3)
    assert lines[1] == f"# fingerprint={digest}"
    assert lines[3] == text + "\n"  # the body, after three header lines
    assert load_snapshot(path).fingerprint() == digest


def test_missing_file_raises_oserror():
    with pytest.raises(OSError):
        parse(DatasetSpec(path="/nonexistent/nope.tsv"))


def _regrouped(folksonomy, keep):
    """Reference for the post filters: flatten to tag assignments, keep, group again.

    ``keep`` is called with a row unpacked: ``keep(user, item, tag, ts)``.
    """
    return build_folksonomy([row for row in assignments_of(folksonomy) if keep(*row)], folksonomy.vocab)


def _assert_same_posts(got, reference):
    assert got.posts == reference.posts
    assert got.stats() == reference.stats()
    for user in got.users():
        items = got.items_of_user(user)
        assert list(items) == sorted(set(items))


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    sample_fraction=st.floats(min_value=0.05, max_value=1.0),
    test_fraction=st.floats(min_value=0.05, max_value=0.95),
    t_hi=st.sampled_from([1_010, 2_000_000]),
)
@settings(max_examples=60, deadline=None, phases=UNSHRUNK)
def test_post_filters_equal_regrouping_their_kept_assignments(seed, sample_fraction, test_fraction, t_hi):
    # random_folksonomy's log, but the tags of one post land at different
    # times and some rows repeat, so grouping has earliest times to pick;
    # the narrow time range makes post-time ties common
    rng = random.Random(seed)
    rows = []
    for user, item, tag, ts in random_rows(rng, 30, 40, 15, 150, t_hi=t_hi):
        rows.append((user, item, tag, ts + rng.randint(0, 20)))
        if rng.random() < 0.2:
            rows.append((user, item, tag, ts + rng.randint(0, 40)))
    rng.shuffle(rows)
    f = folksonomy_from_rows(rows)

    users = f.users()
    keep = min(len(users), max(1, math.ceil(round(sample_fraction * len(users), 9))))
    kept_users = set(random.Random(seed).sample(users, keep))
    sampled = sample_users(f, sample_fraction, seed)
    _assert_same_posts(sampled, _regrouped(f, lambda user, item, tag, ts: user in kept_users))

    shared = {i for i in sampled.items() if len(sampled.taggers_of_item(i)) >= 2}
    if not shared:
        with pytest.raises(EmptyDatasetError):
            remove_unique_resources(sampled)
        cleaned = sampled
    else:
        cleaned = remove_unique_resources(sampled)
        _assert_same_posts(cleaned, _regrouped(sampled, lambda user, item, tag, ts: item in shared))

    held_out = {}
    for user in cleaned.users():
        by_time = sorted(cleaned.posts_of_user(user), key=lambda p: (p.timestamp, p.item))
        n = len(by_time)
        if n >= 2:
            n_test = min(n - 1, max(1, math.floor(round(test_fraction * n, 9))))
            held_out[user] = frozenset(p.item for p in by_time[n - n_test :])
    split = chronological_split(cleaned, test_fraction)
    reference = _regrouped(cleaned, lambda user, item, tag, ts: item not in held_out.get(user, ()))
    _assert_same_posts(split.train, reference)
    assert split.test == held_out
    last_use = {}
    for user, _, _, ts in assignments_of(reference):
        last_use[user] = max(last_use.get(user, 0), ts)
    assert split.t_ref == {user: ts + 1 for user, ts in last_use.items()}


def _stepwise(spec):
    """run_pipeline spelled out as the public steps, each building its own Folksonomy."""
    parsed = parse(spec)
    kept = filter_blacklisted_tags(parsed.assignments, spec.blacklist, parsed.vocab)
    if not kept:
        raise EmptyDatasetError("no usable tag assignments")
    folksonomy = build_folksonomy(kept, parsed.vocab)
    folksonomy = sample_users(folksonomy, spec.sample_fraction, spec.seed)
    return remove_unique_resources(folksonomy), parsed


def _outcome(pipeline, spec):
    try:
        folksonomy, parsed = pipeline(spec)
    except (EmptyDatasetError, FormatError) as exc:
        return type(exc)
    return folksonomy.posts, folksonomy.fingerprint(), folksonomy.stats().line(), parsed.assignments, parsed.malformed


def _hazardous_dump(rng):
    """A small raw export: later-timestamped duplicates, blacklisted and mixed-case tags, malformed rows."""
    tags = ["web", "Web", "css", "ML", "ml", "python", "bibtex-import", "Imported-2007", "imported"]
    lines = []
    for user, item, tag, ts in random_rows(rng, rng.randint(2, 12), rng.randint(2, 15), 6, rng.randint(1, 40)):
        tag = rng.choice(tags) if rng.random() < 0.3 else tag
        lines.append(f"{user}\t{item}\t{tag}\t{ts}\n")
        if rng.random() < 0.15:
            lines.append(f"{user}\t{item}\t{tag.upper()}\t{ts + rng.randint(0, 500)}\n")
        if rng.random() < 0.05:
            lines.append(rng.choice([f"{user}\t{item}\n", f"{user}\t{item}\t \t{ts}\n", f"{user}\t{item}\t{tag}\tsoon\n"]))
        if rng.random() < 0.02:
            lines.append("# exported comment\n")
    rng.shuffle(lines)
    return "".join(lines)


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    sample_fraction=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
    sample_seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=80, deadline=None)
# seed 26's dump has a user (u4) whose only row is blacklisted: the draw runs
# over the users with a kept row, not over every parsed user
@example(seed=26, sample_fraction=0.5, sample_seed=0)
def test_run_pipeline_equals_the_public_steps(seed, sample_fraction, sample_seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dump.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_hazardous_dump(random.Random(seed)))
        spec = DatasetSpec(
            path=path,
            blacklist=("bibtex-import", "imported*"),
            sample_fraction=sample_fraction,
            seed=sample_seed,
        )
        assert _outcome(run_pipeline, spec) == _outcome(_stepwise, spec)


def test_ingest_builds_no_index(tmp_path, monkeypatch):
    path = tmp_path / "d.tsv"
    write_tsv(random_folksonomy(5), str(path))
    spec = DatasetSpec(path=str(path), sample_fraction=0.5, seed=1)
    built = []
    original = model._offsets

    def counting_offsets(ids):
        built.append(ids)
        return original(ids)

    monkeypatch.setattr(model, "_offsets", counting_offsets)
    folksonomy, _ = run_pipeline(spec)
    _stepwise(spec)
    folksonomy.fingerprint()
    folksonomy.stats()
    write_snapshot(folksonomy, tmp_path / "snap.tsv")
    load_snapshot(tmp_path / "snap.tsv")
    assert built == []
    # the first reads build each offset table, and only the first
    for user in folksonomy.users():
        folksonomy.items_of_user(user)
        folksonomy.tag_use_times(user)
    assert len(built) == 1 and built[0] is folksonomy.user
    for item in folksonomy.items():
        folksonomy.taggers_of_item(item)
        folksonomy.posts_of_item(item)
    folksonomy.users()
    assert len(built) == 2 and built[1] is folksonomy.item


def test_only_the_sampled_users_rows_are_grouped(tmp_path, monkeypatch):
    path = tmp_path / "d.tsv"
    write_tsv(random_folksonomy(5), str(path))
    spec = DatasetSpec(path=str(path), sample_fraction=0.5, seed=1)
    parsed = parse(spec)
    kept = filter_blacklisted_tags(parsed.assignments, spec.blacklist, parsed.vocab)
    users = sorted({user for user, _, _, _ in kept})
    drawn = set(random.Random(spec.seed).sample(users, math.ceil(round(0.5 * len(users), 9))))
    grouped = []
    original = ingest.build_folksonomy

    def recording_build_folksonomy(rows, vocab):
        grouped.append(list(rows))
        return original(grouped[-1], vocab)

    monkeypatch.setattr(ingest, "build_folksonomy", recording_build_folksonomy)
    run_pipeline(spec)
    assert grouped == [[row for row in kept if row[0] in drawn]]
    assert len(grouped[0]) < len(kept)


def _dump_with_users_no_post_holds(path):
    """Users u0..u7 on shared items; "ghost" tags only blacklisted tags and
    "broken" only writes malformed rows. Both are met before any other user."""
    lines = ["ghost\tr1\tbibtex-import\t50\n", "broken\tr1\tweb\tsoon\n", "ghost\tr2\tImported-2007\t60\n"]
    rng = random.Random(7)
    for n in range(8):
        for item in rng.sample(["r1", "r2", "r3", "r4", "r5"], 3):
            lines.append(f"u{n}\t{item}\t{rng.choice(['web', 'css', 'ml'])}\t{100 + n * 10}\n")
    lines.append("broken\tr2\n")
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("seed", range(8))
def test_the_draw_runs_over_users_with_a_kept_row(tmp_path, seed):
    # ghost is interned (its rows parse) but has no kept row; broken is never
    # interned; a draw over vocab.users, or over every user in the file,
    # gives another sample
    path = tmp_path / "d.tsv"
    _dump_with_users_no_post_holds(path)
    spec = DatasetSpec(path=str(path), blacklist=("bibtex-import", "imported*"), sample_fraction=0.5, seed=seed)
    assert _outcome(run_pipeline, spec) == _outcome(_stepwise, spec)


def _reference_timestamp(raw, fmt):
    """Seconds since the epoch: integer text (exact), another number (floored) or an ISO-8601 time (UTC unless zoned, floored)."""
    if fmt == "epoch":
        try:
            ts = int(raw)
        except ValueError:
            ts = math.floor(float(raw))
    else:
        text = raw.strip()
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        ts = math.floor(dt.timestamp())
    if ts < 0:
        raise ValueError("timestamp before epoch")
    if ts >= 2**63:
        raise ValueError("timestamp past 2**63 - 1 seconds")
    return ts


def _reference_parse(path, spec):
    """parse spelled out plainly: one intern call and one timestamp parse per valid row."""
    vocab = Vocab()
    rows, malformed, data_rows = [], [], 0
    needed = max(spec.columns) + 1
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip() or line.strip().startswith("#"):
                continue
            data_rows += 1
            fields = line.rstrip("\n").split(spec.delimiter)
            if len(fields) < needed:
                malformed.append((lineno, f"expected at least {needed} columns, got {len(fields)}"))
                continue
            user, item, tag, raw_ts = (fields[c] for c in spec.columns)
            user, item, tag = user.strip(), item.strip(), tag.strip().lower()
            if not user or not item or not tag:
                malformed.append((lineno, "empty user, item or tag field"))
                continue
            # snapshot rows are TAB-delimited and start with the user label
            if "\t" in user + item + tag:
                malformed.append((lineno, "TAB inside a user, item or tag label"))
                continue
            if user.startswith("#"):
                malformed.append((lineno, "user label starts with '#'"))
                continue
            try:
                ts = _reference_timestamp(raw_ts, spec.timestamp_format)
            except (ValueError, OverflowError) as exc:
                malformed.append((lineno, f"bad timestamp {raw_ts!r}: {exc}"))
                continue
            rows.append((vocab.users.intern(user), vocab.items.intern(item), vocab.tags.intern(tag), ts))
    return rows, vocab, data_rows, malformed


def _label(kind, pad, text, pad_after):
    if kind == 0:
        return " "
    if kind == 1:
        text = "#" + text
    elif kind == 2:
        text = text[:1] + "\t" + text
    return pad + text + pad_after


# mixed case and space padding; one label in forty is blank, one starts with
# '#' and one holds a TAB, the two kinds a snapshot could not hold
_PAD = st.sampled_from(["", "", " "])
_LABEL = st.tuples(
    st.sampled_from(range(40)), _PAD, st.text(alphabet="aAbZ0_É", min_size=1, max_size=3), _PAD
).map(lambda t: _label(*t))

# Per format, the strategies a row's timestamp text is drawn from, each
# equally likely: valid text six times in nine, so that most dumps stay under
# the half-malformed limit and are compared row by row; then text before the
# epoch, values on either side of it, and odd or invalid text.
_ISO_VALID = [
    st.datetimes(min_value=datetime(1970, 1, 2)).map(lambda d: d.isoformat()),
    st.datetimes(min_value=datetime(1970, 1, 2)).map(lambda d: d.isoformat(sep=" ") + "Z"),
]
_TIMESTAMPS = {
    "epoch": [st.integers(min_value=0, max_value=2 * 10**9).map(str)] * 6
    + [
        st.integers(max_value=-1).map(str),
        st.integers(min_value=-(10**12), max_value=10**12).map(str),
        st.sampled_from(["12.7", "-0.5", "1e400", "-1e400", "nan", "1e3", " 42 ", "", "soon", "0x10", "1_000"]),
    ],
    "iso8601": _ISO_VALID * 3
    + [
        st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(1969, 12, 31)).map(lambda d: d.isoformat()),
        st.datetimes(min_value=datetime(1960, 1, 1)).map(lambda d: d.isoformat(sep=" ") + "Z"),
        st.sampled_from(
            ["2010-03-14T02:40:00Z", "2010-03-14 02:40:00+02:00", "1969-12-31T23:59:59Z", "2010-13-01", "", "100"]
        ),
    ],
}


# few distinct labels, so that items are shared and ingest keeps posts
_FEW_LABELS = st.tuples(st.sampled_from(range(24)), _PAD, st.sampled_from(["a", "É"]), _PAD).map(lambda t: _label(*t))


# The properties over _dumps report a falsifying dump as drawn (UNSHRUNK).
# Each failing example's traceback parses this whole file (about 30 ms), and
# shrinking a multi-line dump ran a failing property for up to five minutes;
# without it a failure is reported within seconds, and the dump has at most
# 25 lines.


@st.composite
def _dumps(draw, labels=_LABEL):
    fmt = draw(st.sampled_from(["epoch", "iso8601"]))
    delimiter = draw(st.sampled_from(["\t", ",", ";", "::"]))
    width = draw(st.integers(min_value=4, max_value=6))
    columns = tuple(draw(st.permutations(range(width)))[:4])
    lines = []
    timestamps = []  # the timestamp text drawn for each row so far
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        kind = draw(st.sampled_from(["row"] * 10 + ["repeat"] * 5 + ["comment", "blank", "short"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# export", "  # indented", "#"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        else:
            fields = [draw(labels) for _ in range(width)]
            if kind == "repeat" and timestamps:
                # the previous row's timestamp text, or the one before it, valid or not
                raw_ts = draw(st.sampled_from(timestamps[-2:]))
            else:
                raw_ts = draw(draw(st.sampled_from(_TIMESTAMPS[fmt])))
            timestamps.append(raw_ts)
            fields[columns[3]] = raw_ts
            if kind == "short":
                fields = fields[: draw(st.integers(min_value=1, max_value=max(columns)))]
            lines.append(delimiter.join(fields))
    text = "".join(line + "\n" for line in lines)
    return {"columns": columns, "delimiter": delimiter, "timestamp_format": fmt}, text


@given(_dumps())
@settings(max_examples=100, deadline=None, phases=UNSHRUNK)
def test_parse_equals_a_plain_reference_parser(dump):
    layout, text = dump
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dump.txt")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        spec = DatasetSpec(path=path, **layout)
        rows, vocab, data_rows, malformed = _reference_parse(path, spec)
        if len(malformed) * 2 > data_rows:
            with pytest.raises(FormatError):
                parse(spec)
            return
        result = parse(spec)
    assert result.assignments == rows
    for name in ("users", "items", "tags"):
        got, want = getattr(result.vocab, name), getattr(vocab, name)
        assert [got.label_of(i) for i in range(len(got))] == [want.label_of(i) for i in range(len(want))]
    assert result.data_rows == data_rows
    assert result.malformed == malformed


def _reloaded(folksonomy, tmp):
    """The folksonomy after write_snapshot and load_snapshot."""
    snapshot = os.path.join(tmp, "snapshot.tsv")
    write_snapshot(folksonomy, snapshot)
    return load_snapshot(snapshot)


@given(_dumps(_FEW_LABELS))
@settings(max_examples=100, deadline=None, phases=UNSHRUNK)
def test_every_ingested_dump_reloads_from_its_snapshot(dump):
    layout, text = dump
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dump.txt")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        try:
            folksonomy, _ = run_pipeline(DatasetSpec(path=path, **layout))
        except (FormatError, EmptyDatasetError):
            return
        reloaded = _reloaded(folksonomy, tmp)
    assert reloaded.fingerprint() == folksonomy.fingerprint()
    assert reloaded.stats().line() == folksonomy.stats().line()


@pytest.mark.parametrize(
    "layout, lines, reason",
    [
        (
            {"delimiter": ","},
            ["u1,i1,web,100", "u2,i1,we\tb,200", "u2,i1,web,300"],
            "TAB inside a user, item or tag label",
        ),
        (
            {"columns": (1, 0, 2, 3)},
            ["i1\tu1\tweb\t100", "i1\t#u2\tweb\t200", "i1\tu3\tweb\t300"],
            "user label starts with '#'",
        ),
    ],
    ids=["tab-in-label", "hash-user"],
)
def test_labels_a_snapshot_cannot_hold_are_malformed_rows(tmp_path, layout, lines, reason):
    path = tmp_path / "dump.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    folksonomy, parsed = run_pipeline(DatasetSpec(path=str(path), **layout))
    assert parsed.malformed == [(2, reason)]
    reloaded = _reloaded(folksonomy, str(tmp_path))
    assert reloaded.fingerprint() == folksonomy.fingerprint()
    assert reloaded.stats().line() == folksonomy.stats().line() == "B=2 U=2 R=1 T=1 TAS=2"
