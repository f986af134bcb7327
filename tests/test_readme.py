"""README.md agrees with the configuration the code accepts."""

import dataclasses
from pathlib import Path

from pir import config
from pir.detection import DetectorParams

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_names_every_config_key():
    keys = [*config.CONFIG_KEYS, *config.GATEWAY_KEYS, *(f.name for f in dataclasses.fields(DetectorParams))]
    assert [key for key in sorted(keys) if f"`{key}`" not in README and f'"{key}"' not in README] == []


def test_readme_names_no_removed_input():
    assert [name for name in ("catalog_path", "refine_subtechniques", "raw EVTX") if name in README] == []
