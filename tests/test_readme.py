"""README.md agrees with the configuration and the commands the code accepts."""

import argparse
import dataclasses
from pathlib import Path

from pir import cli, config
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
