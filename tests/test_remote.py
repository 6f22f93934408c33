import json
import os
import subprocess
import sys
import textwrap
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import mergeforge
from mergeforge.generator import (
    EndpointConfig,
    GenerationSourceError,
    ProtocolError,
    PromptTemplate,
    remote_generate,
)


class _MockEndpoint:
    """Tiny chat-completions server driven by a scripted status sequence."""

    def __init__(self, script, completion="merge(models) = models[0]"):
        self.script = list(script)  # statuses to serve, then 200s forever
        self.requests = []
        self.completion = completion
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                outer.requests.append({
                    "body": body,
                    "auth": self.headers.get("Authorization"),
                })
                status = outer.script.pop(0) if outer.script else 200
                if status == -1:  # malformed 200 body
                    payload = b'{"unexpected": true}'
                    status = 200
                elif status == -2:  # 200 body that is not JSON
                    payload = b"<html>gateway says hello</html>"
                    status = 200
                elif status == -3:  # 200 body nested past the recursion limit
                    payload = b"[" * 200_000
                    status = 200
                else:
                    payload = json.dumps({
                        "choices": [{"message": {"content": outer.completion}}]
                    }).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server.server_port}/v1/chat/completions"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def endpoint():
    servers = []

    def make(script=(), **kwargs):
        server = _MockEndpoint(script, **kwargs)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()


def _config(server, **overrides):
    defaults = dict(url=server.url, model="test-model", max_retries=3, backoff_s=0.01)
    defaults.update(overrides)
    return EndpointConfig(**defaults)


def test_fixed_completion_returned_n_times(endpoint):
    server = endpoint()
    out = remote_generate(_config(server), PromptTemplate("write a program"), 0.9, 4)
    assert out == ["merge(models) = models[0]"] * 4
    assert len(server.requests) == 4
    body = server.requests[0]["body"]
    assert body["model"] == "test-model"
    assert body["temperature"] == 0.9
    assert body["messages"][0]["content"] == "write a program"
    assert "n" in body


def test_retries_after_transient_failures(endpoint, caplog):
    server = endpoint(script=[500, 500])
    with caplog.at_level("INFO", logger="mergeforge.generator.remote"):
        out = remote_generate(_config(server), PromptTemplate("p"), 1.0, 1)
    assert out == ["merge(models) = models[0]"]
    assert len(server.requests) == 3  # two failures, then success
    assert "after 2 retries" in caplog.text


def test_retries_exhausted_reports_statuses(endpoint):
    server = endpoint(script=[500, 500, 503, 503, 503])
    with pytest.raises(GenerationSourceError) as exc:
        remote_generate(_config(server, max_retries=2), PromptTemplate("p"), 1.0, 1)
    assert exc.value.statuses == [500, 500, 503]


def test_non_retryable_status_fails_fast(endpoint):
    server = endpoint(script=[401])
    with pytest.raises(GenerationSourceError):
        remote_generate(_config(server), PromptTemplate("p"), 1.0, 1)
    assert len(server.requests) == 1


def test_malformed_body_is_protocol_error(endpoint):
    server = endpoint(script=[-1])
    with pytest.raises(ProtocolError):
        remote_generate(_config(server), PromptTemplate("p"), 1.0, 1)


def test_non_json_body_is_protocol_error(endpoint):
    server = endpoint(script=[-2])
    with pytest.raises(ProtocolError, match="JSONDecodeError"):
        remote_generate(_config(server), PromptTemplate("p"), 1.0, 1)
    assert len(server.requests) == 1


def test_too_deep_json_body_is_protocol_error(endpoint):
    server = endpoint(script=[-3])
    with pytest.raises(ProtocolError, match="RecursionError"):
        remote_generate(_config(server), PromptTemplate("p"), 1.0, 1)
    assert len(server.requests) == 1


def test_zero_requests_rejected(endpoint):
    server = endpoint()
    with pytest.raises(ValueError):
        remote_generate(_config(server), PromptTemplate("p"), 1.0, 0)


def test_auth_token_header(endpoint, monkeypatch):
    server = endpoint()
    monkeypatch.setenv("MF_TEST_TOKEN", "sekrit")
    remote_generate(_config(server, auth_token_env="MF_TEST_TOKEN"), PromptTemplate("p"), 1.0, 1)
    assert server.requests[0]["auth"] == "Bearer sekrit"


def test_grammar_run_and_reports_load_no_http_stack(tmp_path):
    # pytest's own process may already hold these modules, so ask a fresh one.
    script = textwrap.dedent(f"""
        import sys
        from mergeforge import BenchmarkConfig, RunConfig, run
        from mergeforge.report import write_reports
        config = RunConfig(
            seed=3, iterations=2, candidates_per_iteration=20,
            benchmark=BenchmarkConfig(d=16, k=3, n_dev=20, n_test=20),
            output_dir={str(tmp_path / "run")!r},
        )
        run(config)
        write_reports(config.output_dir)
        print([m for m in ("requests", "urllib3", "http.client", "ssl") if m in sys.modules])
    """)
    src = str(Path(mergeforge.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
