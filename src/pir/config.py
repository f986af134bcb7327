"""Review run configuration: JSON file plus CLI flag overrides (flags win).

Paths inside a config file resolve relative to the file's own directory so a
committed config reproduces the same run from any working directory. Secrets
never live here; credentials come from environment variables only.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .canon import digest_of
from .detection import DetectorParams
from .errors import ConfigInvalidError
from .llm_gateway import GATEWAY_MODES, MODE_REPLAY, GenerationParams
from .log_ingest import check_evidence_path

POLICY_SUFFIXES = (".md", ".txt")

CONFIG_KEYS = frozenset(
    {
        "evidence_paths",
        "org_policy_paths",
        "baseline_policy_paths",
        "output_dir",
        "detector",
        "retrieval_k",
        "gateway_mode",
        "gateway",
    }
)
GATEWAY_KEYS = frozenset({"model_id", "temperature", "max_tokens", "top_p", "cache_dir"})

_NUMBER = (int, float)
_TYPE_NAMES = {int: "an integer", _NUMBER: "a number", str: "a string"}


def _typed(key: str, value, kind):
    """``value`` of config field ``key`` if it has the JSON type ``kind``;
    ``true`` and ``false`` are never numbers."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigInvalidError(
            f"config field {key!r} must be {_TYPE_NAMES[kind]}, "
            f"got {json.dumps(value)}"
        )
    return value


@dataclass
class ReviewConfig:
    evidence_paths: list[Path]
    org_policy_paths: list[Path]
    baseline_policy_paths: list[Path]
    output_dir: Path
    detector: DetectorParams = field(default_factory=DetectorParams)
    retrieval_k: int = 8
    gateway_mode: str = MODE_REPLAY
    generation: GenerationParams = field(default_factory=GenerationParams)
    cache_dir: Path = Path("llm_cache")
    digest: str = ""

    @classmethod
    def from_dict(
        cls, raw: dict, base_dir: Path, overrides: dict | None = None
    ) -> "ReviewConfig":
        """Build a config from parsed JSON; ``overrides`` maps field names
        (output_dir, gateway_mode) to values that win over the file.

        The ``output_dir`` override moves the output alone: the config
        digest, and with it the run id, covers the file's own ``output_dir``.

        Raises ConfigInvalidError naming any unknown key, top-level or under
        ``gateway`` or ``detector``, any value of the wrong JSON type, an
        empty ``gateway.model_id`` or path, or a ``gateway_mode`` not in
        GATEWAY_MODES."""
        overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
        output = overrides.pop("output_dir", None) or raw.get("output_dir")
        effective = {**raw, **overrides}

        def _path(key, p) -> Path:
            text = _typed(key, p, str)
            if not text:
                raise ConfigInvalidError(f"config field {key!r} must not be empty")
            candidate = Path(text)
            return candidate if candidate.is_absolute() else base_dir / candidate

        def _paths(key) -> list[Path]:
            vals = effective.get(key, [])
            if not isinstance(vals, list):
                raise ConfigInvalidError(f"config field {key!r} must be a list")
            return [_path(f"{key}[{i}]", v) for i, v in enumerate(vals)]

        gw, det = effective.get("gateway", {}), effective.get("detector", {})
        for key, value in (("gateway", gw), ("detector", det)):
            if not isinstance(value, dict):
                raise ConfigInvalidError(f"config field {key!r} must be an object")
        unknown = sorted(effective.keys() - CONFIG_KEYS)
        unknown += sorted(f"gateway.{k}" for k in gw.keys() - GATEWAY_KEYS)
        if unknown:
            raise ConfigInvalidError(f"unknown config key(s): {', '.join(unknown)}")
        model_id = _typed("gateway.model_id", gw.get("model_id", "gpt-4o"), str)
        if not model_id:
            raise ConfigInvalidError("config field 'gateway.model_id' must not be empty")
        try:
            detector = DetectorParams.from_dict(det)
            temperature = _typed("gateway.temperature", gw.get("temperature", 0.0), _NUMBER)
            generation = GenerationParams(
                model_id=model_id,
                temperature=float(temperature),
                max_tokens=_typed("gateway.max_tokens", gw.get("max_tokens", 1024), int),
                top_p=float(_typed("gateway.top_p", gw.get("top_p", 1.0), _NUMBER)),
            )
        except (ValueError, TypeError) as exc:
            raise ConfigInvalidError(f"invalid parameter in config: {exc}") from exc

        mode = _typed("gateway_mode", effective.get("gateway_mode", MODE_REPLAY), str)
        if mode not in GATEWAY_MODES:
            raise ConfigInvalidError(
                f"gateway_mode must be one of {GATEWAY_MODES}, got {mode!r}"
            )
        if not output:
            raise ConfigInvalidError("config requires output_dir")

        # The digest covers the file plus the gateway_mode override, so the
        # same review shares a run id wherever it writes; raw values keep it
        # machine-portable.
        effective["gateway"] = {**gw, "model_id": model_id, "mode": mode}
        config = cls(
            evidence_paths=_paths("evidence_paths"),
            org_policy_paths=_paths("org_policy_paths"),
            baseline_policy_paths=_paths("baseline_policy_paths"),
            output_dir=_path("output_dir", output),
            detector=detector,
            retrieval_k=_typed("retrieval_k", effective.get("retrieval_k", 8), int),
            gateway_mode=mode,
            generation=generation,
            cache_dir=_path("gateway.cache_dir", gw.get("cache_dir", "llm_cache")),
            digest=digest_of(effective),
        )
        return config

    @classmethod
    def from_file(cls, path: Path, overrides: dict | None = None) -> "ReviewConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigInvalidError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise ConfigInvalidError(f"cannot parse config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigInvalidError(f"config {path} must contain a JSON object")
        return cls.from_dict(raw, path.parent, overrides)

    def validate(self) -> None:
        """Check paths and uniqueness rules, then create the output dir."""
        if not self.evidence_paths:
            raise ConfigInvalidError("config lists no evidence_paths")
        if not self.org_policy_paths:
            raise ConfigInvalidError("config lists no org_policy_paths")
        if not self.baseline_policy_paths:
            raise ConfigInvalidError("config lists no baseline_policy_paths")
        if self.retrieval_k < 1:
            raise ConfigInvalidError(f"retrieval_k must be >= 1, got {self.retrieval_k}")

        for p in self.evidence_paths:
            check_evidence_path(p)
        for p in [*self.org_policy_paths, *self.baseline_policy_paths]:
            if not p.is_file():
                raise ConfigInvalidError(f"policy path not found: {p}")
            if p.suffix.lower() not in POLICY_SUFFIXES:
                raise ConfigInvalidError(
                    f"policy path {p} must end in one of {POLICY_SUFFIXES}"
                )
        if self.gateway_mode == MODE_REPLAY and not self.cache_dir.is_dir():
            raise ConfigInvalidError(
                f"replay mode needs an existing cache dir: {self.cache_dir}"
            )

        # Record refs and clause ids are keyed by file stem; collisions would
        # alias citations.
        stems = [p.stem for p in self.evidence_paths]
        if len(set(stems)) != len(stems):
            raise ConfigInvalidError(
                f"evidence file stems must be unique, got {stems}"
            )
        doc_ids = [p.stem for p in [*self.org_policy_paths, *self.baseline_policy_paths]]
        if len(set(doc_ids)) != len(doc_ids):
            raise ConfigInvalidError(
                f"policy file stems must be unique across org and baseline, "
                f"got {doc_ids}"
            )

        try:
            self.output_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigInvalidError(
                f"cannot create output dir {self.output_dir}: {exc}"
            ) from exc
        if not os.access(self.output_dir, os.W_OK):
            raise ConfigInvalidError(f"output dir {self.output_dir} is not writable")
