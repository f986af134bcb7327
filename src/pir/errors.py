"""Typed errors raised by the review pipeline.

Every failure mode that callers are expected to handle has its own class;
anything else is a plain bug and surfaces as a normal Python exception.
"""

from __future__ import annotations


class ReviewError(Exception):
    """Base class for all errors raised by this package."""


# --- evidence ingestion ---------------------------------------------------

class MalformedContainerError(ReviewError):
    """EVTX file header is too short or its magic bytes are wrong."""


class XmlSyntaxError(ReviewError):
    """Event XML is not well formed; message carries line/column."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column


class MissingSystemFieldError(ReviewError):
    """An Event element has no System section, holds another Event, or
    breaks the record rule: no usable EventID or TimeCreated."""


class CsvSchemaError(ReviewError):
    """Flattened-event CSV has an unexpected header or a bad cell value."""


class DuplicateRecordRefError(ReviewError):
    """Two evidence records share a record_ref, so a citation of it would be
    ambiguous."""

    def __init__(self, record_ref: str, first_source: str, second_source: str):
        super().__init__(
            f"record ref {record_ref!r} appears in {first_source} and again "
            f"in {second_source}"
        )
        self.record_ref = record_ref


# --- detection ------------------------------------------------------------

class UnsortedInputError(ReviewError):
    """Auth events were not sorted by (timestamp, record_ref)."""


# --- policy index ---------------------------------------------------------

class EmptyDocumentError(ReviewError):
    """Policy text contains no clauses after segmentation."""


class EmptyQueryError(ReviewError):
    """Retrieval query tokenizes to nothing (stop-words only)."""


# --- gap analysis ---------------------------------------------------------

class NoBaselineError(ReviewError):
    """Control comparison was attempted with an empty baseline."""


# --- LLM gateway ----------------------------------------------------------

class MissingPlaceholderError(ReviewError):
    """A required prompt placeholder was left unbound."""


class ReplayMissError(ReviewError):
    """Replay mode found no cached transcript for the computed key."""

    def __init__(self, transcript_id: str, cache_dir: str):
        super().__init__(
            f"no cached transcript {transcript_id} under {cache_dir}"
        )
        self.transcript_id = transcript_id


class GatewayUnavailableError(ReviewError):
    """Live endpoint unreachable after bounded retries."""


class GatewayDisabledError(ReviewError):
    """complete() was called on a gateway running in disabled mode."""


class ProviderError(ReviewError):
    """Provider returned a non-success status; passes the status through."""

    def __init__(self, status: int, detail: str = ""):
        super().__init__(f"provider returned status {status}: {detail}")
        self.status = status


# --- orchestration --------------------------------------------------------

class ConfigInvalidError(ReviewError):
    """Review configuration failed validation before any stage ran."""


class StageOrderViolationError(ReviewError):
    """A stage was invoked before its predecessors completed."""


class RecordsFileError(ReviewError):
    """A checkpoint's records file is missing or does not match its
    records_digest, or a state with records has no digest to save."""


class MalformedCheckpointError(ReviewError):
    """A checkpoint file does not decode into a review state."""


class StageFailureError(ReviewError):
    """A pipeline stage raised; carries the stage name, the cause, and the
    partial state accumulated up to the failure."""

    def __init__(self, stage: str, cause: BaseException, partial_state=None):
        super().__init__(f"stage {stage} failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.partial_state = partial_state


# --- reporting ------------------------------------------------------------

class UnresolvedReferenceError(ReviewError):
    """A citation in the review state does not resolve; reports hard-fail."""


class ReportMismatchError(ReviewError):
    """A re-read report.json does not match the report a fresh review of the
    config's files builds: its config digest, a cited row, a conclusion, a
    transcript or a narrated text."""
