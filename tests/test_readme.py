"""README.md agrees with the configuration and the commands the code accepts."""

import argparse
import dataclasses
import re
from pathlib import Path

from pir import cli, config, llm_gateway
from pir.detection import DetectorParams

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_names_every_config_key():
    keys = [*config.CONFIG_KEYS, *config.GATEWAY_KEYS, *(f.name for f in dataclasses.fields(DetectorParams))]
    assert [key for key in sorted(keys) if f"`{key}`" not in README and f'"{key}"' not in README] == []


def test_readme_names_no_removed_input():
    assert [name for name in ("catalog_path", "refine_subtechniques", "raw EVTX") if name in README] == []


def test_readme_cli_block_names_every_subcommand():
    [subcommands] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    block = README.split("## CLI", 1)[1].split("```")[1]
    assert [name for name in subcommands.choices if f"\npir {name} " not in block] == []


def test_readme_environment_table_names_exactly_the_gateway_variables():
    variables = sorted(value for name, value in vars(llm_gateway).items() if name.startswith("ENV_"))
    table = README.split("\n| variable ", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"^\| `(\w+)`", table, re.M)) == variables
    assert sorted(set(re.findall(r"PIR_\w+", README))) == variables
