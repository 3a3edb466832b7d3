"""The HTTP generator: the text-mode route to an external model.

It lives apart from ``lag.backends`` so that an in-process run never loads
``urllib.request`` and, through it, ``http.client`` and ``ssl``.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request

from .backends import GeneratorBackend
from .datasets import is_unicode
from .errors import BackendError, ConfigurationError

RETRY_DELAY_S = 0.05  # first wait before a retry; doubles per retry
RETRY_DELAY_CAP_S = 1.0
MAX_TIMEOUT_S = 1e9  # socket.settimeout overflows near 9.2e9 s
MAX_TOKENS = 512


class HttpGeneratorBackend(GeneratorBackend):
    """POSTs {"messages": [...], "max_tokens": 512, "temperature": 0} and
    expects {"text": "<str>"} back. Other JSON, a text that is not valid
    Unicode and a 4xx other than 429 fail at once; connection errors,
    timeouts, 5xx, 429 and bad JSON are retried after a capped exponential
    backoff. Credentials come from LAG_API_KEY (sent as a bearer token),
    never from flags."""

    accepts_kv_prefix = False

    def __init__(self, endpoint: str, timeout: float = 30.0, retries: int = 2):
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if not 0 < timeout <= MAX_TIMEOUT_S:  # NaN and inf too
            raise ConfigurationError(
                f"timeout must be in (0, {MAX_TIMEOUT_S:g}] seconds, got {timeout}")
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self.api_key = os.environ.get("LAG_API_KEY")

    def generate(self, messages, kv_prefix=None, log_entries=None) -> str:
        if kv_prefix is not None:
            raise BackendError("HTTP generator cannot accept a KV prefix")
        body = json.dumps(
            {"messages": messages, "max_tokens": MAX_TOKENS, "temperature": 0}
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_err: Exception | None = None
        delay = RETRY_DELAY_S
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(delay)
                delay = min(2 * delay, RETRY_DELAY_CAP_S)
            req = urllib.request.Request(self.endpoint, data=body, headers=headers)
            try:
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    payload = json.loads(resp.read().decode("utf-8"))
            except urllib.error.HTTPError as err:
                err.close()  # the unread error response holds the connection
                if 400 <= err.code < 500 and err.code != 429:  # a resend fails alike
                    raise BackendError(f"generator endpoint refused the request: {err}") from err
                last_err = err
            except (OSError, json.JSONDecodeError) as err:  # URLError, timeouts, drops
                last_err = err
            else:
                if not isinstance(payload, dict) or not isinstance(payload.get("text"), str):
                    raise BackendError("generator response is not an object with a 'text' string")
                if not is_unicode(payload["text"]):
                    raise BackendError("generator response 'text' is not valid Unicode")
                return payload["text"]
        raise BackendError(f"generator endpoint failed: {last_err}")
