"""Acceptance gate: nine offline criteria over the committed fixtures.

Each test prints one "criterion N (<label>): PASS|FAIL" line directly to the
terminal (bypassing capture) so a full run reads as a checklist.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from pir.config import ReviewConfig
from pir.detection import DetectorParams, detect_bruteforce, oracle_detect
from pir.errors import MalformedContainerError
from pir.log_ingest import flatten_to_csv, load_csv, load_evidence, validate_evtx_container
from pir.orchestrator import run_review
from pir.policy_index import (
    DOC_KIND_BASELINE,
    DOC_KIND_ORGANISATION,
    build_index,
    ingest_document,
    load_policy_documents,
    retrieve,
)
from pir.reporting import (
    appendix_closure,
    collect_citations,
    json_report_digest,
    verify_citation_closure,
)

from conftest import FIXTURES, evtx_bytes, make_auth, make_record, rewrite_checkpoint


@pytest.fixture
def criterion(capfd):
    @contextmanager
    def _criterion(number, label):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"criterion {number} ({label}): FAIL", flush=True)
            raise
        with capfd.disabled():
            print(f"criterion {number} ({label}): PASS", flush=True)

    return _criterion


def load_config(name, output_dir, **overrides):
    raw = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    overrides = {"output_dir": str(output_dir), **overrides}
    return ReviewConfig.from_dict(raw, FIXTURES, overrides=overrides)


# --- 1. fixture outcome ----------------------------------------------------------


def test_criterion_1_fixture_outcome(tmp_path, criterion):
    with criterion(1, "fixture replay outcome"):
        started = time.monotonic()
        config = load_config("review_config.json", tmp_path / "out")
        state = run_review(config)
        elapsed = time.monotonic() - started

        assert len(state.findings) == 1
        assert state.findings[0].kind == "BruteForceSuspected"
        assert len(state.mappings) == 1
        assert state.mappings[0].technique_id == "T1110"

        gaps = {g.control: g.gap_kind for g in state.gaps}
        assert gaps.get("LockoutThreshold") == "Insufficient"
        assert gaps.get("PasswordMaxAgeDays") == "Insufficient"
        assert elapsed < 10.0


# --- 2. detector-oracle equivalence ------------------------------------------------


def test_criterion_2_detector_oracle_equivalence(criterion):
    with criterion(2, "detector equals oracle on 1000 streams x 3x3 grid"):
        started = time.monotonic()
        rng = random.Random(20260814)
        accounts = ["alice", "bob", "carol", "dave", "eve"]
        grid = [
            DetectorParams(min_failures=mf, window_seconds=ws)
            for mf in (2, 3, 5)
            for ws in (30, 120, 600)
        ]
        for _stream in range(1000):
            n = rng.randint(0, 200)
            events = [
                make_auth(
                    i + 1,
                    account=rng.choice(accounts),
                    outcome="Failure" if rng.random() < 0.8 else "Success",
                    seconds=rng.randint(0, 3600),
                )
                for i in range(n)
            ]
            events.sort(key=lambda e: (e.timestamp_utc, e.record_ref))
            for params in grid:
                fast = [f.to_dict() for f in detect_bruteforce(events, params)]
                slow = [f.to_dict() for f in oracle_detect(events, params)]
                assert fast == slow
        assert time.monotonic() - started < 60.0


# --- 3. determinism -----------------------------------------------------------------


def test_criterion_3_replay_determinism(tmp_path, criterion):
    with criterion(3, "consecutive replay runs emit identical report.json"):
        config = load_config("review_config.json", tmp_path / "out")
        run_review(config)
        first = (tmp_path / "out" / "report.json").read_bytes()
        run_review(config)
        second = (tmp_path / "out" / "report.json").read_bytes()

        # byte identity is required outside the clock field, so compare the
        # bytes with only the generated_at value replaced; equal digests
        # (json_report_digest) mean equal documents, not equal bytes
        def masked(data: bytes) -> bytes:
            stamp = b'"generated_at":' + json.dumps(json.loads(data)["generated_at"]).encode()
            assert data.count(stamp) == 1
            return data.replace(stamp, b'"generated_at":null')

        assert masked(first) == masked(second)
        assert json_report_digest(first.decode()) == json_report_digest(second.decode())


# --- 4. grounding enforcement ---------------------------------------------------------


def test_criterion_4_grounding_enforcement(tmp_path, capfd, criterion):
    from pir.cli import main

    with criterion(4, "fabricated citations degrade or fail loudly"):
        # (a) poisoned replay cache: the affected narrative falls back,
        # degraded is recorded, and the run still succeeds
        config = load_config("review_config_bad_citation.json", tmp_path / "bad")
        state = run_review(config)
        degraded = [t for t in state.transcripts if t.degraded]
        assert len(degraded) == 1
        assert degraded[0].template_id == "gap_rationale"
        assert degraded[0].grounding.unresolved == ("[POL:org_policy:99-99]",)
        doc = json.loads((tmp_path / "bad" / "report.json").read_text(encoding="utf-8"))
        lockout = next(g for g in doc["gaps_section"] if g["control"] == "LockoutThreshold")
        assert lockout["rationale"].startswith("The organisation sets")
        assert state.degradation_notes
        assert (tmp_path / "bad" / "report.json").is_file()

        # (b) fabrication inside state itself: nonzero exit, no report; the
        # poisoned copy sits beside the records.json its checkpoint names
        # and the checkpoints of the stages before it
        checkpoint = tmp_path / "bad" / "state" / "GenerateReport.json"
        owner = checkpoint.with_name("ValidatePolicies.json")
        doc = json.loads(owner.read_text(encoding="utf-8"))
        doc["gaps"][0]["evidence_clauses"].append("org_policy:99-99")
        rewrite_checkpoint(owner, doc)
        poisoned = tmp_path / "bad" / "state" / "poisoned.json"
        poisoned.write_bytes(checkpoint.read_bytes())
        capfd.readouterr()
        code = main(
            [
                "render",
                "--state",
                str(poisoned),
                "--output",
                str(tmp_path / "rendered"),
            ]
        )
        assert code != 0
        assert not (tmp_path / "rendered" / "report.json").exists()
        err = capfd.readouterr().err
        assert "UnresolvedReferenceError" in err
        assert "org_policy:99-99" in err


# --- 5. citation closure ---------------------------------------------------------------


def test_criterion_5_citation_closure(tmp_path, criterion):
    with criterion(5, "every citation in report.json resolves"):
        config = load_config("review_config.json", tmp_path / "out")
        run_review(config)

        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        # the known refs and clauses come from the input files, not the report
        records = load_evidence(config.evidence_paths)
        known_refs = {record.record_ref for record in records}
        known_clauses = {
            clause.clause_id
            for document in load_policy_documents(
                config.org_policy_paths, config.baseline_policy_paths
            )
            for clause in document.clauses
        }

        refs, clauses = collect_citations(doc)
        assert refs and clauses  # the scan found citations to check
        assert verify_citation_closure(doc, known_refs, known_clauses) == []
        # and every citation has a row in the report's own appendices
        assert appendix_closure(doc) == []


# --- 6. ingestion fidelity ---------------------------------------------------------------


def random_record_list(rng):
    nasty = ["plain", "with,comma", 'with"quote', "line\nbreak", "tab\tsep", "héllo"]
    records = []
    for ordinal in range(rng.randint(0, 8)):
        fields = {
            rng.choice(["TargetUserName", "IpAddress", "Status", "Note"]): rng.choice(
                nasty
            )
            for _ in range(rng.randint(0, 4))
        }
        records.append(
            make_record(
                ordinal + 1,
                source=rng.choice(["srcA", "srcB"]),
                event_id=rng.choice([4624, 4625, 4688]),
                seconds=rng.randint(0, 10_000) + rng.choice([0, 0.25, 0.125]),
                channel=rng.choice(["Security", "System"]),
                fields=fields,
            )
        )
    return records


def test_criterion_6_ingestion_fidelity(criterion):
    with criterion(6, "CSV round-trip identity and EVTX framing checks"):
        rng = random.Random(6)
        for _case in range(500):
            records = random_record_list(rng)
            assert load_csv(flatten_to_csv(records)) == records

        valid = evtx_bytes(chunks=2, next_record_id=7)
        summary = validate_evtx_container(valid, "valid.evtx")
        assert summary.chunk_count == 2

        mutations = [
            b"",                            # empty file
            valid[:100],                    # header cut short
            valid[:4095],                   # one byte shy of a full header
            b"\x00" * len(valid),           # zeroed magic
            b"elffile\x00" + valid[8:],     # case-flipped magic
            b"ElfFilf\x00" + valid[8:],     # last magic byte flipped
            b"\xfflfFile\x00" + valid[8:],  # first magic byte flipped
            b"ElfChnk\x00" + valid[8:],     # chunk signature in file header
        ]
        assert len(mutations) == 8
        for i, corrupt in enumerate(mutations):
            with pytest.raises(MalformedContainerError):
                validate_evtx_container(corrupt, f"mutation-{i}.evtx")


# --- 7. retrieval correctness ---------------------------------------------------------------


def fixture_corpus():
    return [
        ingest_document(
            "org_policy",
            DOC_KIND_ORGANISATION,
            (FIXTURES / "policies" / "org_policy.md").read_text(encoding="utf-8"),
        ),
        ingest_document(
            "baseline_policy",
            DOC_KIND_BASELINE,
            (FIXTURES / "policies" / "baseline_policy.md").read_text(encoding="utf-8"),
        ),
    ]


def test_criterion_7_retrieval_correctness(criterion):
    with criterion(7, "BM25 ranks the lockout clause first at the pinned score"):
        docs = fixture_corpus()
        index = build_index(docs)
        hits = retrieve(index, "account lockout threshold", index.clause_count)

        top = hits[0]
        assert top.clause.clause_id == "org_policy:5-5"
        assert "lockout threshold" in top.clause.text

        # hand computation: N=12 clauses, dl=8, avgdl=7.5, tf=1 per term;
        # df(account)=df(threshold)=1 and df(lockout)=2, so with k1=1.2,
        # b=0.75: idf_1=ln(26/3), idf_2=ln(5.2), norm=1.2*(0.25+0.75*8/7.5)
        expected = (2 * math.log(26 / 3) + math.log(5.2)) * 2.2 / 2.26
        assert abs(top.score - expected) < 1e-6

        reference = [(h.clause.clause_id, h.score, h.rank) for h in hits]
        rng = random.Random(7)
        for _shuffle in range(5):
            shuffled = list(docs)
            rng.shuffle(shuffled)
            again = retrieve(
                build_index(shuffled), "account lockout threshold", index.clause_count
            )
            assert [(h.clause.clause_id, h.score, h.rank) for h in again] == reference


# --- 8. degraded-mode completeness ---------------------------------------------------------


def test_criterion_8_degraded_mode_completeness(tmp_path, criterion):
    with criterion(8, "disabled gateway completes with identical conclusions"):
        replay = run_review(load_config("review_config.json", tmp_path / "replay"))
        disabled = run_review(
            load_config(
                "review_config.json", tmp_path / "disabled", gateway_mode="disabled"
            )
        )

        assert (tmp_path / "disabled" / "report.json").is_file()
        assert (tmp_path / "disabled" / "report.md").is_file()
        assert disabled.transcripts == ()
        assert disabled.degradation_notes  # every narrative fell back

        # ledgers agree row for row (narratives are not part of the ledger)
        replay_doc = json.loads((tmp_path / "replay" / "report.json").read_text(encoding="utf-8"))
        disabled_doc = json.loads((tmp_path / "disabled" / "report.json").read_text(encoding="utf-8"))
        replay_rows = replay_doc["trace_ledger"]
        disabled_rows = disabled_doc["trace_ledger"]
        assert replay_rows == disabled_rows

        # gaps agree outside the narrative fields; no extraction here is
        # LLM-assisted, so assign_confidence yields the same grades too
        def comparable(gap):
            d = dict(gap)
            d.pop("rationale")
            d.pop("remediation")
            return d

        assert [comparable(g) for g in disabled_doc["gaps_section"]] == [
            comparable(g) for g in replay_doc["gaps_section"]
        ]
        assert [g.confidence for g in disabled.gaps] == [
            g.confidence for g in replay.gaps
        ]


# --- 9. no-gap identity -----------------------------------------------------------------------


def test_criterion_9_no_gap_identity(tmp_path, criterion):
    with criterion(9, "org equal to baseline yields zero gaps, stated explicitly"):
        config = load_config("review_config_nogap.json", tmp_path / "out")
        state = run_review(config)
        assert state.gaps == ()

        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["gaps_section"] == []
        assert "no gaps" in doc["incident_summary"].lower()
        md = (tmp_path / "out" / "report.md").read_text(encoding="utf-8")
        assert "No policy gaps identified against baseline." in md
