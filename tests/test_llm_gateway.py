import http.server
import json
import os
import socket
import threading

import pytest
from hypothesis import given, strategies as st

from pir.errors import (
    GatewayDisabledError,
    GatewayUnavailableError,
    MissingPlaceholderError,
    ProviderError,
    ReplayMissError,
)
from pir import llm_gateway
from pir.llm_gateway import (
    TEMPLATES,
    _PLACEHOLDER,
    Gateway,
    GenerationParams,
    PromptTemplate,
    TransientTransportError,
    http_transport,
    render,
    transcript_id_for,
    validate_grounding,
)

BINDINGS = {
    "account": "admin",
    "failure_count": "6",
    "window_start": "2026-06-01T12:00:00Z",
    "window_end": "2026-06-01T12:00:50Z",
    "success_line": "src#7 at 2026-06-01T12:00:55Z",
    "evidence_refs": "src#1, src#2",
}


def gateway(tmp_path, mode="record", transport=None):
    return Gateway(mode, GenerationParams(), tmp_path / "cache", transport=transport)


def echo_transport(request_body):
    return "All quiet [EVT:src#1]."


# --- templates and rendering -----------------------------------------------------


@pytest.mark.parametrize("template_id", sorted(TEMPLATES))
def test_every_template_renders_with_full_bindings(template_id):
    template = TEMPLATES[template_id]
    names = _PLACEHOLDER.findall(template.body)
    bindings = {p: f"<{p}>" for p in names}
    rendered = render(template, bindings)
    for p in names:
        assert f"<{p}>" in rendered
    assert "{{" not in rendered


def test_render_is_pure_substitution():
    template = TEMPLATES["finding_summary"]
    assert render(template, BINDINGS) == render(template, dict(BINDINGS))
    assert "admin" in render(template, BINDINGS)


@given(
    st.lists(st.text(alphabet="%(){}sdx ", max_size=8), min_size=2, max_size=2),
    st.text(alphabet="%(){}sdx a", max_size=12),
)
def test_render_puts_each_value_in_as_text(values, literal):
    # a % or a placeholder-shaped text, in a value or in the template's own
    # text, comes out as it went in
    template = PromptTemplate("t", "s", f"{literal}{{{{a}}}}{literal}{{{{b}}}}{{{{a}}}}")
    bindings = dict(zip("ab", values))
    expected = _PLACEHOLDER.sub(lambda m: bindings[m.group(1)], template.body)
    assert render(template, bindings) == expected


def test_missing_binding_is_an_error():
    template = TEMPLATES["finding_summary"]
    partial = {k: v for k, v in BINDINGS.items() if k != "account"}
    with pytest.raises(MissingPlaceholderError, match="account"):
        render(template, partial)


def test_generation_params_validated():
    with pytest.raises(ValueError):
        GenerationParams(temperature=1.5)
    with pytest.raises(ValueError):
        GenerationParams(top_p=0.0)
    with pytest.raises(ValueError):
        GenerationParams(max_tokens=0)


# --- transcript identity -----------------------------------------------------------


def test_transcript_id_depends_on_prompt_and_params():
    params = GenerationParams()
    a = transcript_id_for("finding_summary", "prompt", params)
    assert a == transcript_id_for("finding_summary", "prompt", params)
    assert a != transcript_id_for("finding_summary", "prompt2", params)
    assert a != transcript_id_for("mapping_justification", "prompt", params)
    assert a != transcript_id_for(
        "finding_summary", "prompt", GenerationParams(model_id="other")
    )
    assert a != transcript_id_for(
        "finding_summary", "prompt", GenerationParams(max_tokens=2048)
    )


def test_binding_insertion_order_does_not_change_identity(tmp_path):
    gw = gateway(tmp_path, transport=echo_transport)
    forward = gw.complete("finding_summary", dict(BINDINGS))
    backward = gw.complete(
        "finding_summary", dict(reversed(list(BINDINGS.items())))
    )
    assert forward.transcript_id == backward.transcript_id
    cache_files = list((tmp_path / "cache").glob("*.json"))
    assert len(cache_files) == 1


# --- record / replay ----------------------------------------------------------------


def test_record_then_replay_round_trip(tmp_path):
    recorded = gateway(tmp_path, transport=echo_transport).complete(
        "finding_summary", BINDINGS
    )
    assert recorded.mode == "Live"

    replayed = gateway(tmp_path, "replay").complete(
        "finding_summary", BINDINGS
    )
    assert replayed.mode == "Replay"
    assert replayed.latency_ms == 0
    assert replayed.transcript_id == recorded.transcript_id
    assert replayed.response == recorded.response


def test_replay_miss_names_the_transcript(tmp_path):
    gw = gateway(tmp_path, "replay")
    with pytest.raises(ReplayMissError) as err:
        gw.complete("finding_summary", BINDINGS)
    expected = transcript_id_for(
        "finding_summary",
        render(TEMPLATES["finding_summary"], BINDINGS),
        GenerationParams(),
    )
    assert expected in str(err.value)


def test_corrupt_cache_entry_is_a_replay_miss(tmp_path):
    gw = gateway(tmp_path, transport=echo_transport)
    transcript = gw.complete("finding_summary", BINDINGS)
    path = tmp_path / "cache" / f"{transcript.transcript_id}.json"
    path.write_text("{not json")
    with pytest.raises(ReplayMissError, match="corrupt"):
        gateway(tmp_path, "replay").complete(
            "finding_summary", BINDINGS
        )


@pytest.mark.parametrize(
    "entry",
    [{"response": None}, {"response": ["text"]}, {"response": 5}, ["response"], "response"],
    ids=["null", "list", "number", "array-entry", "string-entry"],
)
def test_cache_entry_without_a_string_response_is_a_replay_miss(tmp_path, entry):
    transcript = gateway(tmp_path, transport=echo_transport).complete("finding_summary", BINDINGS)
    (tmp_path / "cache" / f"{transcript.transcript_id}.json").write_text(json.dumps(entry))
    with pytest.raises(ReplayMissError, match="corrupt"):
        gateway(tmp_path, "replay").complete("finding_summary", BINDINGS)


def test_cache_entry_carries_reproduction_context(tmp_path):
    gw = gateway(tmp_path, transport=echo_transport)
    transcript = gw.complete("finding_summary", BINDINGS)
    entry = json.loads(
        (tmp_path / "cache" / f"{transcript.transcript_id}.json").read_text()
    )
    assert entry["template_id"] == "finding_summary"
    assert entry["model_id"] == "gpt-4o"
    assert transcript_id_for("finding_summary", entry["rendered_prompt"], gw.params) == transcript.transcript_id
    assert entry["response"] == transcript.response
    assert set(entry["params"]) == {"temperature", "max_tokens", "top_p"}


def test_two_threads_recording_one_transcript_keep_one_valid_entry(tmp_path, monkeypatch):
    gw = gateway(tmp_path, transport=echo_transport)
    entry = {"transcript_id": "t" * 64, "response": echo_transport({})}
    # both threads have written their temp file before either renames it
    barrier = threading.Barrier(2, timeout=10)
    replace = os.replace

    def replace_together(src, dst):
        barrier.wait()
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_together)
    errors = []

    def write():
        try:
            gw._write_cache(entry)
        except Exception as exc:  # collected for the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=write) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert os.listdir(tmp_path / "cache") == [f"{'t' * 64}.json"]
    assert json.loads((tmp_path / "cache" / f"{'t' * 64}.json").read_text()) == entry


# --- retries -------------------------------------------------------------------------


def flaky(failures):
    calls = {"n": 0}

    def transport(request_body):
        calls["n"] += 1
        if calls["n"] <= failures:
            raise TransientTransportError("connection reset")
        return "recovered [EVT:src#1]."

    return transport, calls


def test_transient_failures_are_retried_with_backoff(tmp_path, monkeypatch):
    delays = []
    monkeypatch.setattr("pir.llm_gateway.time.sleep", delays.append)
    transport, calls = flaky(failures=2)
    transcript = gateway(tmp_path, transport=transport).complete(
        "finding_summary", BINDINGS
    )
    assert transcript.response.startswith("recovered")
    assert calls["n"] == 3
    assert delays == [1.0, 4.0]


def test_persistent_failure_exhausts_retries(tmp_path, monkeypatch):
    delays = []
    monkeypatch.setattr("pir.llm_gateway.time.sleep", delays.append)
    transport, calls = flaky(failures=99)
    with pytest.raises(GatewayUnavailableError, match="after 2 retries"):
        gateway(tmp_path, transport=transport).complete(
            "finding_summary", BINDINGS
        )
    assert calls["n"] == 3
    assert delays == [1.0, 4.0]


def test_provider_errors_are_not_retried(tmp_path, monkeypatch):
    delays = []
    monkeypatch.setattr("pir.llm_gateway.time.sleep", delays.append)

    def transport(request_body):
        raise ProviderError(400, "bad request")

    with pytest.raises(ProviderError):
        gateway(tmp_path, transport=transport).complete(
            "finding_summary", BINDINGS
        )
    assert delays == []


def test_live_mode_without_endpoint_is_unavailable(tmp_path):
    gw = gateway(tmp_path, "live")
    with pytest.raises(GatewayUnavailableError, match="PIR_LLM_ENDPOINT"):
        gw.complete("finding_summary", BINDINGS)


def test_live_call_reads_provider_env_when_it_calls(tmp_path, monkeypatch):
    built = []

    def fake_http_transport(endpoint, api_key, timeout_seconds):
        built.append((endpoint, api_key, timeout_seconds))
        return echo_transport

    monkeypatch.setattr(llm_gateway, "http_transport", fake_http_transport)
    gw = gateway(tmp_path, "live")
    # set after the gateway is built: the call, not the constructor, reads them
    monkeypatch.setenv("PIR_LLM_ENDPOINT", "https://llm.example/v1/chat")
    monkeypatch.setenv("PIR_LLM_API_KEY", "sk-test")
    transcript = gw.complete("finding_summary", BINDINGS)
    assert built == [("https://llm.example/v1/chat", "sk-test", llm_gateway.HTTP_TIMEOUT_SECONDS)]
    assert transcript.response == echo_transport({})


# --- grounding ------------------------------------------------------------------------


def test_grounding_passes_when_all_markers_resolve():
    report = validate_grounding(
        "Burst seen [EVT:src#1] per policy [POL:org:5-5].",
        ["src#1"],
        ["org:5-5"],
    )
    assert report.passed is True
    assert report.unresolved == ()
    assert sorted(report.resolved) == ["[EVT:src#1]", "[POL:org:5-5]"]


def test_grounding_fails_on_fabricated_ref():
    report = validate_grounding(
        "Burst seen [EVT:src#1] per policy [POL:orgpolicy:999-1000].",
        ["src#1"],
        ["org:5-5"],
    )
    assert report.passed is False
    assert report.unresolved == ("[POL:orgpolicy:999-1000]",)


def test_grounding_fails_on_markerless_claims():
    assert validate_grounding("All good.", ["src#1"], []).passed is False


def test_duplicate_markers_counted_once():
    report = validate_grounding(
        "[EVT:src#1] and again [EVT:src#1].", ["src#1"], []
    )
    assert report.markers_found == ("[EVT:src#1]",)


# --- narrate --------------------------------------------------------------------------


def test_narrate_accepts_grounded_text(tmp_path):
    gw = gateway(tmp_path, transport=echo_transport)
    result = gw.narrate(
        "finding_summary",
        BINDINGS,
        record_refs=["src#1"],
        clause_ids=(),
    )
    assert result.degraded is False
    assert result.transcript.response == "All quiet [EVT:src#1]."
    assert result.transcript is not None
    assert result.transcript.grounding.passed is True


def test_narrate_falls_back_on_grounding_failure(tmp_path):
    def fabricator(request_body):
        return "Looks bad [EVT:ghost#9]."

    gw = gateway(tmp_path, transport=fabricator)
    result = gw.narrate(
        "finding_summary",
        BINDINGS,
        record_refs=["src#1"],
        clause_ids=(),
    )
    assert result.degraded is True
    # rejected output stays on the transcript for audit
    assert result.transcript.degraded is True
    assert result.transcript.response == "Looks bad [EVT:ghost#9]."
    assert result.transcript.grounding.unresolved == ("[EVT:ghost#9]",)
    assert "grounding" in result.note


GAP_BINDINGS = {
    "control": "LockoutThreshold",
    "gap_kind": "Insufficient",
    "org_summary": "10 attempts",
    "baseline_summary": "5 attempts",
}


@pytest.mark.parametrize(
    "response, degraded, note",
    [
        ("RATIONALE: lax [POL:pol:1-1].\n\nREMEDIATION: lower it [EVT:src#1].", False, None),
        # grounded, but without the paragraphs the template asks for
        (
            "Lax [POL:pol:1-1]; lower it [EVT:src#1].",
            True,
            "gap_rationale response lacked RATIONALE/REMEDIATION paragraphs; deterministic text used",
        ),
        # both faults: grounding is judged first, so its note is the one kept
        (
            "Lax [POL:ghost:9-9].",
            True,
            "grounding failed for gap_rationale (unresolved markers: [POL:ghost:9-9]); deterministic text used",
        ),
    ],
)
def test_narrate_judges_a_gap_rationale_by_its_template(tmp_path, response, degraded, note):
    gw = gateway(tmp_path, transport=lambda request_body: response)
    result = gw.narrate("gap_rationale", GAP_BINDINGS, ["src#1"], ["pol:1-1"])
    assert (result.degraded, result.transcript.degraded, result.note) == (degraded, degraded, note)
    assert result.transcript.response == response
    assert result.transcript.grounding.passed is ("ghost" not in response)


@pytest.mark.parametrize("template_id", sorted(TEMPLATES))
def test_verdict_asks_only_a_gap_rationale_for_paragraphs(template_id):
    template = TEMPLATES[template_id]
    report, fault = llm_gateway.verdict(template, "Lax [EVT:src#1].", ["src#1"], ())
    assert report.passed
    assert (fault is None) is (template_id != "gap_rationale")
    assert template.sections == (("RATIONALE", "REMEDIATION") if template_id == "gap_rationale" else ())


def test_sections_split_the_labelled_paragraphs():
    template = TEMPLATES["gap_rationale"]
    assert llm_gateway.sections(template, "Intro.\nRATIONALE:  lax\n\n REMEDIATION: fix it\n") == ("lax", "fix it\n")
    assert llm_gateway.sections(template, "REMEDIATION: fix it\n\nRATIONALE: lax") is None
    assert llm_gateway.sections(template, "RATIONALE: lax") is None


def test_disabled_mode_never_calls_out(tmp_path):
    gw = gateway(tmp_path, "disabled")
    with pytest.raises(GatewayDisabledError):
        gw.complete("finding_summary", BINDINGS)
    result = gw.narrate(
        "finding_summary",
        BINDINGS,
        record_refs=["src#1"],
        clause_ids=(),
    )
    assert result.degraded is True
    assert result.transcript is None
    assert not (tmp_path / "cache").exists()


def test_replay_works_with_sockets_blocked(tmp_path, monkeypatch):
    gateway(tmp_path, transport=echo_transport).complete(
        "finding_summary", BINDINGS
    )

    def no_network(*args, **kwargs):
        raise AssertionError("network touched during replay")

    monkeypatch.setattr(socket, "socket", no_network)
    monkeypatch.setattr(socket, "create_connection", no_network)
    replayed = gateway(tmp_path, "replay").complete(
        "finding_summary", BINDINGS
    )
    assert replayed.mode == "Replay"


# --- HTTP transport --------------------------------------------------------------------


class _Provider(http.server.BaseHTTPRequestHandler):
    behavior = "ok"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        assert request["messages"][0]["role"] == "user"
        if self.behavior == "ok":
            body = json.dumps(
                {"choices": [{"message": {"content": "provider says hi"}}]}
            ).encode()
            self.send_response(200)
        elif self.behavior == "null-content":
            body = json.dumps({"choices": [{"message": {"content": None}}]}).encode()
            self.send_response(200)
        elif self.behavior == "garbage":
            body = b"<html>oops</html>"
            self.send_response(200)
        elif self.behavior == "client-error":
            body = b'{"error": "bad model"}'
            self.send_response(404)
        else:
            body = b"upstream exploded"
            self.send_response(503)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def provider():
    server = http.server.HTTPServer(("127.0.0.1", 0), _Provider)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()


REQUEST = {
    "model": "gpt-4o",
    "messages": [{"role": "user", "content": "ping"}],
    "temperature": 0.0,
    "top_p": 1.0,
    "max_tokens": 16,
}


def test_http_transport_reads_chat_response(provider):
    _Provider.behavior = "ok"
    call = http_transport(provider, "sk-test", 5.0)
    assert call(REQUEST) == "provider says hi"


def test_http_transport_maps_client_errors(provider):
    _Provider.behavior = "client-error"
    with pytest.raises(ProviderError, match="404"):
        http_transport(provider, None, 5.0)(REQUEST)


def test_http_transport_maps_server_errors_as_transient(provider):
    _Provider.behavior = "server-error"
    with pytest.raises(TransientTransportError, match="503"):
        http_transport(provider, None, 5.0)(REQUEST)


def test_http_transport_rejects_unparseable_body(provider):
    _Provider.behavior = "garbage"
    with pytest.raises(ProviderError, match="unparseable"):
        http_transport(provider, None, 5.0)(REQUEST)


def test_http_transport_refuses_a_reply_without_text(provider):
    _Provider.behavior = "null-content"
    with pytest.raises(ProviderError, match="not a string"):
        http_transport(provider, None, 5.0)(REQUEST)


def test_connection_refused_is_transient():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    call = http_transport(f"http://127.0.0.1:{dead_port}/v1", None, 0.5)
    with pytest.raises(TransientTransportError):
        call(REQUEST)
