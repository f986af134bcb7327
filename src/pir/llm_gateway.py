"""Provider-agnostic generative-model gateway with record/replay transcripts.

Every call renders a fixed template, hashes (template_id, rendered prompt,
decoding params, model id) into a transcript id, and either performs one
HTTP chat-completion request (live/record) or reads the committed cache file
for that id (replay). Replay never touches the network, which is what makes
review runs reproducible offline.

Model output never reaches a report directly: verdict() resolves citation
markers ([EVT:<record_ref>], [POL:<clause_id>]) against the caller's scope
and checks the paragraphs the template asks for; narrate() flags the
transcript degraded when either fails, and the report then takes its
narration site's deterministic fallback instead (reporting.narrated_texts).

The review config sets the mode, the decoding parameters, the model id and
the cache dir. The environment holds only the live provider's credentials,
PIR_LLM_ENDPOINT and PIR_LLM_API_KEY, read when a live call is made.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import os
import re
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .canon import Canonical, canon_dumps, sha256_hex
from .errors import (
    ConfigInvalidError,
    GatewayDisabledError,
    GatewayUnavailableError,
    MissingPlaceholderError,
    ProviderError,
    ReplayMissError,
)

logger = logging.getLogger(__name__)

MODE_LIVE = "live"
MODE_RECORD = "record"
MODE_REPLAY = "replay"
MODE_DISABLED = "disabled"
GATEWAY_MODES = (MODE_LIVE, MODE_RECORD, MODE_REPLAY, MODE_DISABLED)

ENV_ENDPOINT = "PIR_LLM_ENDPOINT"
ENV_API_KEY = "PIR_LLM_API_KEY"

RETRY_BACKOFF_SECONDS = (1.0, 4.0)
HTTP_TIMEOUT_SECONDS = 30.0

_PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")
EVT_MARKER = re.compile(r"\[EVT:([^\]\s]+)\]")
POL_MARKER = re.compile(r"\[POL:([^\]\s]+)\]")


@dataclass(frozen=True)
class GenerationParams:
    """Decoding parameters, fixed for a whole run; temperature 0 maximizes
    repeatability."""

    model_id: str = "gpt-4o"
    temperature: float = 0.0
    max_tokens: int = 1024
    top_p: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 1.0:
            raise ValueError(f"temperature must be in [0,1], got {self.temperature}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0,1], got {self.top_p}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be positive, got {self.max_tokens}")

    def decoding(self) -> dict:
        """The decoding parameters as sent to the model, hashed into
        transcript ids and stored in cache entries."""
        return {
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
            "top_p": self.top_p,
        }


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    stage: str
    body: str
    # the labels of the paragraphs the body asks for, in order (sections)
    sections: tuple[str, ...] = ()


@functools.cache
def _format(body: str) -> str:
    """A template body as a %-format: each ``{{name}}`` becomes
    ``%(name)s`` and every other ``%`` is doubled."""
    return _PLACEHOLDER.sub(r"%(\1)s", body.replace("%", "%%"))


def render(template: PromptTemplate, bindings: dict[str, str]) -> str:
    """Deterministic placeholder substitution; nothing else.

    Every placeholder of the template body must be bound. Bound values go in
    as they are, so evidence text that looks like a placeholder stays text.
    """
    try:
        return _format(template.body) % bindings
    except KeyError as exc:
        raise MissingPlaceholderError(
            f"template {template.template_id} placeholder {exc.args[0]!r} left unbound"
        ) from None


# Spelled out in words rather than shown literally: a bracketed example such
# as "[EVT:x]" would itself parse as a citation marker wherever this prompt
# text is archived, and "x" resolves to nothing.
_CITATION_RULES = (
    "Cite every factual claim inline with a citation marker: the text EVT: "
    "followed by a record ref, or POL: followed by a clause id, enclosed in "
    "square brackets with no spaces. Use only the refs listed below. Do not "
    "make claims you cannot cite, and do not invent refs."
)

TEMPLATES: dict[str, PromptTemplate] = {
    t.template_id: t
    for t in (
        PromptTemplate(
            template_id="finding_summary",
            stage="ProcessEvidence",
            body=(
                "You are assisting a post-incident security review. Summarise "
                "the following authentication behaviour in two to four "
                f"sentences for an incident report. {_CITATION_RULES}\n\n"
                "Account: {{account}}\n"
                "Failed logon count: {{failure_count}}\n"
                "Window (UTC): {{window_start}} to {{window_end}}\n"
                "Subsequent successful logon: {{success_line}}\n"
                "Available record refs: {{evidence_refs}}"
            ),
        ),
        PromptTemplate(
            template_id="mapping_justification",
            stage="MapAttack",
            body=(
                "You are assisting a post-incident security review. Explain in "
                "two or three sentences why the observed behaviour maps to the "
                f"MITRE ATT&CK technique below. {_CITATION_RULES}\n\n"
                "Technique: {{technique_id}} {{technique_name}} "
                "(tactic: {{tactic}})\n"
                "Account: {{account}}\n"
                "Failed logon count: {{failure_count}}\n"
                "Available record refs: {{evidence_refs}}"
            ),
        ),
        PromptTemplate(
            template_id="gap_rationale",
            stage="ValidatePolicies",
            body=(
                "You are assisting a post-incident security review. Write the "
                "rationale and remediation for the policy gap below. Respond "
                "in exactly two paragraphs, the first starting with "
                "'RATIONALE:' and the second starting with 'REMEDIATION:'. "
                "The remediation must reference the baseline requirement. "
                f"{_CITATION_RULES}\n\n"
                "Control: {{control}}\n"
                "Gap kind: {{gap_kind}}\n"
                "Organisation position: {{org_summary}}\n"
                "Baseline requirement: {{baseline_summary}}\n"
                "Available record refs: {{evidence_refs}}\n"
                "Available clause refs: {{clause_refs}}"
            ),
            sections=("RATIONALE", "REMEDIATION"),
        ),
        PromptTemplate(
            template_id="incident_summary",
            stage="GenerateReport",
            body=(
                "You are assisting a post-incident security review. Write a "
                "three to five sentence executive summary of the incident and "
                f"its policy implications. {_CITATION_RULES}\n\n"
                "Behaviour findings: {{findings_digest}}\n"
                "Technique attributions: {{technique_digest}}\n"
                "Policy gaps: {{gap_digest}}\n"
                "Available record refs: {{evidence_refs}}\n"
                "Available clause refs: {{clause_refs}}"
            ),
        ),
    )
}


@dataclass(frozen=True)
class GroundingReport(Canonical):
    markers_found: tuple[str, ...]
    resolved: tuple[str, ...]
    unresolved: tuple[str, ...]
    passed: bool


def validate_grounding(response: str, record_refs, clause_ids) -> GroundingReport:
    """Resolve every [EVT:]/[POL:] marker in the response against the given
    scope; evidence-bearing text with zero markers fails."""
    record_refs = set(record_refs)
    clause_ids = set(clause_ids)
    markers: dict[str, bool] = {}
    for m in EVT_MARKER.finditer(response):
        markers.setdefault(m.group(0), m.group(1) in record_refs)
    for m in POL_MARKER.finditer(response):
        markers.setdefault(m.group(0), m.group(1) in clause_ids)
    resolved = tuple(mk for mk, ok in markers.items() if ok)
    unresolved = tuple(mk for mk, ok in markers.items() if not ok)
    passed = bool(markers) and not unresolved
    return GroundingReport(
        markers_found=tuple(markers),
        resolved=resolved,
        unresolved=unresolved,
        passed=passed,
    )


def sections(template: PromptTemplate, response: str) -> tuple[str, ...] | None:
    """The text of each paragraph ``template`` asks for, each begun by its
    label and a colon, in order, the last running to the end; None when
    ``response`` lacks them."""
    *heads, last = template.sections
    pattern = "".join(rf"{re.escape(label)}:\s*(.+?)\s*" for label in heads) + rf"{re.escape(last)}:\s*(.+)\s*$"
    m = re.search(pattern, response, re.S)
    return None if m is None else m.groups()


def verdict(
    template: PromptTemplate, response: str, record_refs, clause_ids
) -> tuple[GroundingReport, str | None]:
    """The grounding report of a response to ``template`` and why the
    response may not enter a report, or None when it may: grounding comes
    first, then the paragraphs the template asks for (sections). narrate
    and a checkpoint load both decide by this."""
    report = validate_grounding(response, record_refs, clause_ids)
    if not report.passed:
        unresolved = ", ".join(report.unresolved)
        detail = f"unresolved markers: {unresolved}" if unresolved else "no citation markers present"
        return report, f"grounding failed for {template.template_id} ({detail})"
    if template.sections and sections(template, response) is None:
        return report, f"{template.template_id} response lacked {'/'.join(template.sections)} paragraphs"
    return report, None


# What a narration renders and grounds against: the template's bindings, and
# the record refs and clause ids its text may cite. Each narration site has
# one function that makes it from the state alone, so a load re-grounds the
# response the review kept.
Request = tuple[dict[str, str], Sequence[str], Sequence[str]]


def scoped(bindings: dict[str, str], record_refs, clause_ids) -> dict[str, str]:
    """The bindings of a narration with its scope listed as every prompt
    names it: ``evidence_refs`` and ``clause_refs``."""
    return {
        **bindings,
        "evidence_refs": ", ".join(record_refs),
        "clause_refs": ", ".join(clause_ids) or "none",
    }


@dataclass(frozen=True)
class Transcript(Canonical):
    transcript_id: str
    stage: str
    template_id: str
    response: str
    mode: str  # "Live" or "Replay"
    grounding: GroundingReport | None = None
    degraded: bool = False
    latency_ms: int = 0


@dataclass(frozen=True)
class NarrativeResult:
    """Outcome of one grounded narration request."""

    degraded: bool
    transcript: Transcript | None
    note: str | None = None


def transcript_id_for(
    template_id: str, rendered_prompt: str, params: GenerationParams
) -> str:
    return sha256_hex(
        canon_dumps(
            {
                "template_id": template_id,
                "rendered_prompt": rendered_prompt,
                "params": params.decoding(),
                "model_id": params.model_id,
            }
        )
    )


class TransientTransportError(Exception):
    """Network-level failure worth retrying (connect/timeout/5xx)."""


def http_transport(
    endpoint: str, api_key: str | None, timeout_seconds: float
) -> Callable[[dict], str]:
    """Default JSON-over-HTTP chat-completion transport.

    Request body: {"model", "messages": [{"role": "user", "content": prompt}],
    "temperature", "top_p", "max_tokens"}; response text is read from
    choices[0].message.content.
    """
    # imported here, so a review that makes no HTTP call loads no HTTP stack
    import urllib.error
    import urllib.request

    def call(request_body: dict) -> str:
        payload = json.dumps(request_body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        req = urllib.request.Request(
            endpoint, data=payload, headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout_seconds) as resp:
                body = resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")[:500]
            if exc.code >= 500:
                raise TransientTransportError(
                    f"provider returned {exc.code}: {detail}"
                ) from exc
            raise ProviderError(exc.code, detail) from exc
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise TransientTransportError(str(exc)) from exc
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError("message content is not a string")
            return content
        except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(200, f"unparseable provider response: {exc}") from exc

    return call


class Gateway:
    """One gateway per review run, called from one thread.

    ``mode`` is one of GATEWAY_MODES, as checked by the review config;
    ``params`` fix the model and its decoding, and ``cache_dir`` holds the
    transcripts that record writes and replay reads. A non-default
    ``transport`` callable (request body dict -> response text) replaces the
    HTTP layer, which is how tests and the fixture recorder stay offline.
    """

    def __init__(
        self,
        mode: str,
        params: GenerationParams,
        cache_dir: Path,
        transport: Callable[[dict], str] | None = None,
    ):
        self.mode = mode
        self.params = params
        self.cache_dir = cache_dir
        self._transport = transport

    # -- cache ------------------------------------------------------------

    def _cache_path(self, transcript_id: str) -> Path:
        return self.cache_dir / f"{transcript_id}.json"

    def _write_cache(self, entry: dict) -> None:
        path = self._cache_path(entry["transcript_id"])
        path.parent.mkdir(parents=True, exist_ok=True)
        # one temp file per thread: two threads recording one transcript never share it
        tmp = path.with_suffix(f".tmp-{os.getpid()}-{threading.get_ident()}")
        tmp.write_text(
            json.dumps(entry, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)

    def _read_cache(self, transcript_id: str) -> dict:
        path = self._cache_path(transcript_id)
        if not path.is_file():
            raise ReplayMissError(transcript_id, str(self.cache_dir))
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(entry["response"], str):
                raise TypeError("response is not a string")
        except (ValueError, KeyError, TypeError) as exc:
            raise ReplayMissError(
                transcript_id, f"{self.cache_dir} (corrupt entry: {exc})"
            ) from exc
        return entry

    # -- live call with retries -------------------------------------------

    def _live_response(self, rendered_prompt: str) -> str:
        transport = self._transport
        if transport is None:
            endpoint = os.environ.get(ENV_ENDPOINT)
            if not endpoint:
                raise GatewayUnavailableError(
                    f"no endpoint configured; set {ENV_ENDPOINT}"
                )
            transport = http_transport(
                endpoint, os.environ.get(ENV_API_KEY), HTTP_TIMEOUT_SECONDS
            )
        p = self.params
        request_body = {
            "model": p.model_id,
            "messages": [{"role": "user", "content": rendered_prompt}],
            **p.decoding(),
        }
        last_error: Exception | None = None
        for attempt, delay in enumerate((0.0, *RETRY_BACKOFF_SECONDS)):
            if attempt > 0:
                logger.warning(
                    "gateway retry %d after %.0f s: %s", attempt, delay, last_error
                )
                time.sleep(delay)
            try:
                return transport(request_body)
            except TransientTransportError as exc:
                last_error = exc
        raise GatewayUnavailableError(
            f"gateway unavailable after {len(RETRY_BACKOFF_SECONDS)} retries: "
            f"{last_error}"
        )

    def _answer(self, template: PromptTemplate, rendered: str, transcript_id: str) -> tuple[str, str, int]:
        """The response to ``rendered``, its mode and latency in ms: read from
        the cache in replay, else asked of the model, and cached in record.
        A record-mode cache entry is the one copy of the prompt that outlives
        the call; no transcript holds it."""
        if self.mode == MODE_REPLAY:
            return self._read_cache(transcript_id)["response"], "Replay", 0
        start = time.monotonic()
        response = self._live_response(rendered)
        latency_ms = int((time.monotonic() - start) * 1000)
        if self.mode == MODE_RECORD:
            self._write_cache(
                {
                    "transcript_id": transcript_id,
                    "template_id": template.template_id,
                    "stage": template.stage,
                    "model_id": self.params.model_id,
                    "params": self.params.decoding(),
                    "rendered_prompt": rendered,
                    "response": response,
                }
            )
        return response, "Live", latency_ms

    # -- public API ---------------------------------------------------------

    def complete(self, template_id: str, bindings: dict[str, str]) -> Transcript:
        """One gateway call; grounding is the caller's concern (see narrate)."""
        if self.mode == MODE_DISABLED:
            raise GatewayDisabledError("gateway is disabled by configuration")
        template = TEMPLATES.get(template_id)
        if template is None:
            raise ConfigInvalidError(f"unknown prompt template {template_id!r}")
        rendered = render(template, bindings)
        tid = transcript_id_for(template_id, rendered, self.params)
        response, mode, latency_ms = self._answer(template, rendered, tid)
        return Transcript(
            transcript_id=tid,
            stage=template.stage,
            template_id=template_id,
            response=response,
            mode=mode,
            latency_ms=latency_ms,
        )

    def narrate(self, template_id: str, bindings: dict[str, str], record_refs, clause_ids) -> NarrativeResult:
        """Grounded narration of a Request. The transcript is degraded when
        verdict finds a fault in the model's text, with a note naming the
        fault; a report then takes its narration site's deterministic
        fallback in its place. The prompt lists the scope (scoped)."""
        if self.mode == MODE_DISABLED:
            return NarrativeResult(
                degraded=True,
                transcript=None,
                note=f"gateway disabled; deterministic {template_id} text used",
            )
        transcript = self.complete(template_id, scoped(bindings, record_refs, clause_ids))
        report, fault = verdict(TEMPLATES[template_id], transcript.response, record_refs, clause_ids)
        transcript = dataclasses.replace(transcript, grounding=report, degraded=fault is not None)
        if fault is None:
            return NarrativeResult(degraded=False, transcript=transcript)
        return NarrativeResult(degraded=True, transcript=transcript, note=f"{fault}; deterministic text used")
