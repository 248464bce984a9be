"""Wire-format tests for the HTTP backend using a stubbed session."""

import json

import pytest
import requests

from litrag.errors import AuthenticationError, GatewayError
from litrag.gateway import (
    ChatRequest,
    HttpBackend,
    LlmGateway,
    ModelEndpoint,
    TransientBackendError,
)

ENDPOINT = ModelEndpoint(
    name="Live Model",
    base_url="https://inference.example/v1/chat/completions",
    model_id="model-v1",
    api_key_env="EXAMPLE_API_KEY",
)


class StubResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class StubSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def completion(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


@pytest.fixture(autouse=True)
def api_key(monkeypatch):
    monkeypatch.setenv("EXAMPLE_API_KEY", "secret-key")


def test_request_body_and_headers():
    session = StubSession([StubResponse(payload=completion("hello"))])
    backend = HttpBackend(session=session)
    text, duration = backend.send(ENDPOINT, ChatRequest.create(ENDPOINT, "the prompt"))
    assert text == "hello"
    assert duration >= 0
    call = session.calls[0]
    assert call["url"] == ENDPOINT.base_url
    assert call["json"] == {
        "model": "model-v1",
        "messages": [{"role": "user", "content": "the prompt"}],
        "temperature": 0.0,
    }
    assert call["headers"]["Authorization"] == "Bearer secret-key"


def test_missing_api_key_is_fatal(monkeypatch):
    monkeypatch.delenv("EXAMPLE_API_KEY")
    backend = HttpBackend(session=StubSession([]))
    with pytest.raises(AuthenticationError):
        backend.send(ENDPOINT, ChatRequest.create(ENDPOINT, "p"))


def test_auth_rejection_is_fatal():
    backend = HttpBackend(session=StubSession([StubResponse(status_code=401)]))
    with pytest.raises(AuthenticationError):
        backend.send(ENDPOINT, ChatRequest.create(ENDPOINT, "p"))


@pytest.mark.parametrize("status", [429, 500, 503])
def test_retriable_statuses(status):
    backend = HttpBackend(session=StubSession([StubResponse(status_code=status)]))
    with pytest.raises(TransientBackendError):
        backend.send(ENDPOINT, ChatRequest.create(ENDPOINT, "p"))


def test_connection_problems_are_transient():
    backend = HttpBackend(session=StubSession([requests.ConnectionError("down")]))
    with pytest.raises(TransientBackendError):
        backend.send(ENDPOINT, ChatRequest.create(ENDPOINT, "p"))


def test_malformed_payload_is_fatal():
    backend = HttpBackend(session=StubSession([StubResponse(payload={"weird": []})]))
    with pytest.raises(GatewayError):
        backend.send(ENDPOINT, ChatRequest.create(ENDPOINT, "p"))


@pytest.mark.parametrize("content", [None, 123, ["a"]])
def test_non_string_content_is_a_malformed_payload(content):
    backend = HttpBackend(session=StubSession([StubResponse(payload=completion(content))]))
    with pytest.raises(GatewayError, match="malformed completion payload: "):
        backend.send(ENDPOINT, ChatRequest.create(ENDPOINT, "p"))


def test_gateway_retries_429_then_succeeds():
    session = StubSession([
        StubResponse(status_code=429),
        StubResponse(status_code=429),
        StubResponse(payload=completion("eventually")),
    ])
    gateway = LlmGateway(HttpBackend(session=session), sleep=lambda s: None)
    response = gateway.complete(ENDPOINT, ChatRequest.create(ENDPOINT, "p"))
    assert response.text == "eventually"
    assert response.attempt_count == 3
    assert len(session.calls) == 3
