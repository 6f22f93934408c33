"""Chat-completions HTTP client for sourcing candidates from a hosted model.

requests is imported only when a remote run sends its first request, so
grammar runs and the other commands never load the HTTP stack.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .prompt import PROMPT

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}


@dataclass(frozen=True)
class EndpointConfig:
    url: str
    model: str
    auth_token_env: str | None = None  # name of the env var holding the token
    timeout_s: float = 30.0
    max_retries: int = 3
    backoff_s: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.timeout_s < float("inf"):
            raise ValueError(f"timeout_s must be finite and > 0, got {self.timeout_s}")
        if not 0 <= self.backoff_s < float("inf"):
            raise ValueError(f"backoff_s must be finite and >= 0, got {self.backoff_s}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


class GenerationSourceError(RuntimeError):
    def __init__(self, message: str, statuses: list[int | None]):
        super().__init__(f"{message} (statuses: {statuses})")
        self.statuses = statuses


class ProtocolError(RuntimeError):
    """The endpoint answered, but not in chat-completions shape."""


def _headers(cfg: EndpointConfig) -> dict[str, str]:
    headers = {"Content-Type": "application/json"}
    if cfg.auth_token_env:
        token = os.environ.get(cfg.auth_token_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
    return headers


def _completion_text(resp: requests.Response) -> str:
    try:  # a body that is not JSON raises a ValueError (requests' JSONDecodeError) or RecursionError
        return str(resp.json()["choices"][0]["message"]["content"])
    except (ValueError, RecursionError, KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"response is not chat-completions JSON: {exc!r}") from exc


def _one_request(cfg: EndpointConfig, payload: dict) -> str:
    import requests

    statuses: list[int | None] = []
    delay = cfg.backoff_s
    for attempt in range(cfg.max_retries + 1):
        try:
            resp = requests.post(cfg.url, json=payload, headers=_headers(cfg), timeout=cfg.timeout_s)
            status = resp.status_code
        except requests.RequestException as exc:
            statuses.append(None)
            log.warning("request failed (%s), attempt %d", exc, attempt + 1)
        else:
            if status == 200:
                if statuses:
                    log.info("request succeeded after %d retries", len(statuses))
                return _completion_text(resp)
            statuses.append(status)
            if status not in _RETRYABLE_STATUS:
                raise GenerationSourceError(f"endpoint returned {status}", statuses)
            log.warning("endpoint returned %d, attempt %d", status, attempt + 1)
        if attempt < cfg.max_retries:
            time.sleep(delay)
            delay *= 2
    raise GenerationSourceError("retries exhausted", statuses)


def remote_generate(cfg: EndpointConfig, temp: float, n: int) -> list[str]:
    """Issue ``n`` requests for the fixed prompt at the given temperature, in order.

    Each request retries transient failures (connection errors, 429/5xx) with
    exponential backoff up to ``cfg.max_retries``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    payload = {
        "model": cfg.model,
        "messages": [{"role": "user", "content": PROMPT}],
        "temperature": float(temp),
        "n": 1,
    }
    return [_one_request(cfg, payload) for _ in range(n)]
