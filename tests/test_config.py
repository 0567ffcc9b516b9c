"""PipelineConfig as the one description of a run's settings: the config-file
parser, the ``run`` flags and the value checks all follow its fields."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from promptseg.cli import main
from promptseg.errors import ConfigError
from promptseg.pipeline import (PipelineConfig, format_value, load_config,
                                parse_value)

README = Path(__file__).resolve().parents[1] / "README.md"
FIELD_NAMES = {f.name for f in fields(PipelineConfig)}


def flag(name):
    return "--" + name.replace("_", "-")


def test_parse_value_reads_each_field_type():
    assert parse_value("rounds", "3") == 3
    assert parse_value("keep_fraction", "0.5") == 0.5
    assert parse_value("use_vls", "No") is False
    assert parse_value("dims", "20, 21,22") == (20, 21, 22)
    assert parse_value("spacing", "1,0.5,2") == (1.0, 0.5, 2.0)
    assert parse_value("data_dir", "scans/ct") == "scans/ct"
    with pytest.raises(ConfigError):
        parse_value("not_a_key", "1")


def test_format_value_round_trips_every_default():
    for f in fields(PipelineConfig):
        if f.default is not None:
            assert parse_value(f.name, format_value(f.default)) == f.default, f.name


MALFORMED = [("rounds", "abc"), ("keep_fraction", "half"), ("dims", "20,x,20"),
             ("spacing", "1,,1"), ("use_vls", "maybe")]


@pytest.mark.parametrize("key,raw", MALFORMED)
def test_malformed_value_is_a_config_error(tmp_path, capsys, key, raw):
    with pytest.raises(ConfigError, match=key):
        parse_value(key, raw)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {raw}\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1: "):
        load_config(cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    if key != "use_vls":  # booleans are --flag/--no-flag switches
        assert main(["run", flag(key), raw, "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
    assert not out.exists()


BAD_VALUES = [
    {"hd95_missing_policy": "bogus"},
    {"tau_cls": 1.5},
    {"delta_roi": -2},
    {"box_padding": -1},
    {"dims": (0, 20, 20)},
    {"dims": (20, 20)},
    {"spacing": (0, 1, 1)},
    {"spacing": (1, float("nan"), 1)},
    {"generalist_cooperativeness": 1.5},
    {"oracle_timeout": 0.0},
    {"specialist_contradiction_weight": float("nan")},
    {"specialist_contradiction_weight": -1.0},
    {"keep_fraction": 0.05},  # round(0.05 * 6 organs) keeps none
    {"seed": -1},
    {"organs": 256},
]


@pytest.mark.parametrize("bad", BAD_VALUES, ids=lambda b: "-".join(map(str, *b.items())))
def test_bad_value_fails_before_any_work(tmp_path, capsys, bad):
    out = tmp_path / "out"
    with pytest.raises(ConfigError):
        PipelineConfig(out_dir=str(out), **bad)
    ((name, value),) = bad.items()
    assert main(["run", flag(name), format_value(value), "--out", str(out)]) == 1
    assert f"error: {name}" in capsys.readouterr().err
    assert not out.exists()


def test_run_help_lists_a_flag_per_field(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
    assert {flag(name) for name in FIELD_NAMES} <= listed
    assert {"--out", "--gate-from-round", "--vls", "--no-vls"} <= listed


def test_run_flags_set_refinement_phantom_and_output_fields(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--rounds", "1", "--gate-from-round", "1", "--scans", "2",
                 "--test-scans", "0", "--organs", "2", "--dims", "16,16,16",
                 "--tau-cls", "0.3", "--delta-roi", "2", "--box-padding", "4",
                 "--generalist-cooperativeness", "0.8", "--spacing", "1,1,2",
                 "--no-vls", "--hd95-missing-policy", "max_diag",
                 "--out", str(out)]) == 0
    echoed = set((out / "run_manifest.txt").read_text().splitlines())
    assert {"entropy_gate_from_round=1", "dims=16,16,16", "tau_cls=0.3", "delta_roi=2",
            "box_padding=4", "generalist_cooperativeness=0.8",
            "spacing=1.0,1.0,2.0", "use_vls=false",
            "hd95_missing_policy=max_diag"} <= echoed


def test_readme_config_block_loads_and_names_every_key(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block)
    load_config(cfg)
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines()
            if "=" in line and not line.lstrip().startswith("#")}
    assert keys == FIELD_NAMES
