"""Layered run configuration: flags over environment over file over defaults."""
from __future__ import annotations

import json
import os

import pytest

from landau.config import Config, ConfigError, default_workers, load_config
from landau.primes import PrimeConvention

INC = PrimeConvention.INCLUDE1
EXC = PrimeConvention.EXCLUDE1


@pytest.fixture(autouse=True)
def no_landau_env(monkeypatch):
    """Each test starts with no LANDAU_* variable set."""
    for name in [n for n in os.environ if n.startswith("LANDAU_")]:
        monkeypatch.delenv(name)


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_defaults(tmp_path):
    cfg = load_config()
    assert cfg.convention is INC
    assert cfg.workers == default_workers()
    assert cfg.checkpoint_dir == "."


def test_file_layer_overrides_defaults(tmp_path):
    path = write_config(tmp_path / "run.json", {
        "convention": "exclude1",
        "workers": 2,
        "checkpoint_dir": str(tmp_path),
    })
    cfg = load_config(path=path)
    assert cfg == Config(EXC, 2, str(tmp_path))


def test_env_layer_overrides_file(tmp_path, monkeypatch):
    path = write_config(tmp_path / "run.json", {"convention": "exclude1", "workers": 2})
    monkeypatch.setenv("LANDAU_CONVENTION", "include1")
    monkeypatch.setenv("LANDAU_CHECKPOINT_DIR", "/tmp/ck")
    cfg = load_config(path=path)
    assert cfg.convention is INC  # env wins
    assert cfg.checkpoint_dir == "/tmp/ck"  # env fills what the file left alone
    assert cfg.workers == 2  # file survives where env is silent


def test_overrides_beat_env_and_file(tmp_path, monkeypatch):
    path = write_config(tmp_path / "run.json", {"workers": 2})
    monkeypatch.setenv("LANDAU_WORKERS", "5")
    cfg = load_config(path=path, overrides={"workers": 7})
    assert cfg.workers == 7


def test_env_names_config_file(tmp_path, monkeypatch):
    path = write_config(tmp_path / "run.json", {"workers": 3})
    monkeypatch.setenv("LANDAU_CONFIG", path)
    cfg = load_config()
    assert cfg.workers == 3


def test_explicit_path_beats_env_config(tmp_path, monkeypatch):
    a = write_config(tmp_path / "a.json", {"workers": 1})
    b = write_config(tmp_path / "b.json", {"workers": 2})
    monkeypatch.setenv("LANDAU_CONFIG", b)
    cfg = load_config(path=a)
    assert cfg.workers == 1


@pytest.mark.parametrize("overrides,key", [
    ({"workers": -5}, "workers"),
    ({"checkpoint_dir": ""}, "checkpoint_dir"),
    ({"workers": 0}, "workers"),
    ({"convention": "both"}, "convention"),
    ({"segment_size": 4096}, "segment_size"),
])
def test_bad_values_name_the_key(overrides, key):
    with pytest.raises(ConfigError, match=rf"^{key}"):
        load_config(overrides=overrides)


def test_boolean_workers_in_a_file_names_the_key(tmp_path):
    # JSON true is a Python bool, an int subclass, and no worker count
    path = write_config(tmp_path / "run.json", {"workers": True})
    with pytest.raises(ConfigError, match=r"^workers: expected a positive integer, got True$"):
        load_config(path=path)


def test_convention_override_may_be_the_enum_itself():
    assert load_config(overrides={"convention": EXC}).convention is EXC


def test_bad_env_values_name_the_key(monkeypatch):
    monkeypatch.setenv("LANDAU_WORKERS", "many")
    with pytest.raises(ConfigError, match=r"^workers"):
        load_config()
    monkeypatch.delenv("LANDAU_WORKERS")
    monkeypatch.setenv("LANDAU_CONVENTION", "neither")
    with pytest.raises(ConfigError, match=r"^convention"):
        load_config()


def test_unknown_file_key_names_key_and_path(tmp_path):
    # an old config file that still sets segment_size must fail loudly
    for payload in ({"segmnt_size": 1}, {"segment_size": 4096}):
        path = write_config(tmp_path / "run.json", payload)
        key = next(iter(payload))
        with pytest.raises(ConfigError, match=rf"^{key}.*run\.json"):
            load_config(path=path)


def test_missing_file_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match=r"^config: file not found"):
        load_config(path=str(tmp_path / "nope.json"))


def test_malformed_json_is_an_error(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{oops", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^config: invalid JSON"):
        load_config(path=str(path))


def test_non_object_json_is_an_error(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^config"):
        load_config(path=str(path))


def test_echo_lists_every_knob():
    cfg = Config(EXC, 3, "/tmp/ckpt")
    assert cfg.echo() == "convention=exclude1 workers=3 checkpoint_dir=/tmp/ckpt"


def test_config_is_frozen():
    cfg = load_config()
    with pytest.raises(AttributeError):
        cfg.workers = 99
