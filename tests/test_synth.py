"""Synthetic folksonomy generator: config validation and timestamps."""

import dataclasses

import pytest
from hypothesis import example, given, strategies as st

from folkrec.errors import ConfigError
from folkrec.ingest import load_snapshot, write_snapshot
from folkrec.synth import START, SynthConfig, generate

from conftest import ANY_SETTING

FIELDS = [f.name for f in dataclasses.fields(SynthConfig)]


def test_fields_are_the_four_sizes():
    assert FIELDS == ["users", "items", "tags", "topics"]


@pytest.mark.parametrize(
    "overrides",
    [
        {"topics": 1},
        {"items": 19},
        {"tags": 19},
        {"users": 0},
        {"users": 2.5},  # would end in a TypeError inside generate
        {"users": "5"},
        {"users": True},
        {"users": None},
        {"topics": 2.0},
        {"topics": True},
        {"items": None},
        {"items": 40.0},
        {"tags": [20]},
        {"tags": "100"},
    ],
)
def test_bad_config_is_config_error(overrides):
    with pytest.raises(ConfigError):
        SynthConfig(**overrides)


@given(name=st.sampled_from(FIELDS), value=ANY_SETTING)
@example(name="users", value=2.5)
@example(name="topics", value=True)
def test_every_setting_is_rejected_or_stored(name, value):
    # never generated from: ANY_SETTING holds sizes such as 2**64
    try:
        config = SynthConfig(**{name: value})
    except ConfigError:
        return
    assert getattr(config, name) is value


def test_timestamps_are_ints_from_start_and_the_snapshot_reloads(tmp_path):
    f = generate(SynthConfig(users=20, items=40, tags=20, topics=4), seed=1)
    times = [ts for post in f.posts for _, ts in post.tag_times]
    assert all(type(ts) is int and ts >= START for ts in times)
    path = tmp_path / "snap.tsv"
    write_snapshot(f, path)
    assert load_snapshot(path).fingerprint() == f.fingerprint()
