"""A small blocking HTTP client for the optimization service.

Stdlib-only (``http.client``); one connection per request except the
events feed, which holds its connection open and yields NDJSON progress
events as the server emits them.  This is what the serve tests and the
benchmark's ``serve`` workload drive; it is also a reasonable starting
point for real clients.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Iterator, Optional

from repro.errors import ServeError
from repro.serve.jobs import TERMINAL_STATES


class ServeClientError(ServeError):
    """A non-2xx response, carrying the structured error body."""

    def __init__(self, status: int, payload: dict):
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        code = error.get("code", "error")
        message = error.get("message", f"HTTP {status}")
        super().__init__(message, code=code, status=status)
        self.payload = payload


class ServeClient:
    """Talk to one ``powder serve`` instance."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
            return response.status, data
        finally:
            connection.close()

    def _json(self, method: str, path: str,
              body: Optional[dict] = None) -> dict:
        status, data = self._request(method, path, body)
        try:
            payload = json.loads(data) if data else {}
        except json.JSONDecodeError:
            payload = {"error": {"code": "bad-response",
                                 "message": data[:200].decode("latin-1")}}
        if status >= 400:
            raise ServeClientError(status, payload)
        return payload

    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def metrics(self) -> dict:
        return self._json("GET", "/metrics")

    def submit(self, blif: str, spec: Optional[str] = None,
               options: Optional[dict] = None, priority: int = 0,
               timeout: Optional[float] = None,
               use_cache: bool = True) -> dict:
        """Submit one optimization job; the acceptance view back."""
        payload: dict = {"blif": blif, "use_cache": use_cache}
        if spec is not None:
            payload["spec"] = spec
        if options is not None:
            payload["options"] = options
        if priority:
            payload["priority"] = priority
        if timeout is not None:
            payload["timeout"] = timeout
        return self._json("POST", "/jobs", payload)

    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/jobs/{job_id}")

    def jobs(self, state: Optional[str] = None) -> list[dict]:
        path = "/jobs" + (f"?state={state}" if state else "")
        return self._json("GET", path)["jobs"]

    def result_bytes(self, job_id: str) -> bytes:
        """The canonical result JSON exactly as the server stores it."""
        status, data = self._request("GET", f"/jobs/{job_id}/result")
        if status >= 400:
            raise ServeClientError(
                status, json.loads(data) if data else {}
            )
        return data

    def cancel(self, job_id: str) -> dict:
        return self._json("DELETE", f"/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: float = 0.05) -> dict:
        """Poll until the job is terminal; its final view."""
        deadline = time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if view["status"] in ("done", "failed", "cancelled", "timeout"):
                return view
            if time.monotonic() >= deadline:
                raise ServeClientError(408, {"error": {
                    "code": "client-timeout",
                    "message": (
                        f"job {job_id} still {view['status']} after "
                        f"{timeout:.1f}s"
                    ),
                }})
            time.sleep(poll)

    def events(self, job_id: str,
               include_pings: bool = False) -> Iterator[dict]:
        """Stream progress events until the job's terminal state event."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request("GET", f"/jobs/{job_id}/events")
            response = connection.getresponse()
            if response.status >= 400:
                data = response.read()
                raise ServeClientError(
                    response.status, json.loads(data) if data else {}
                )
            while True:
                line = response.readline()
                if not line:
                    return
                event = json.loads(line)
                if event.get("type") == "ping" and not include_pings:
                    continue
                yield event
                if (
                    event.get("type") == "state"
                    and event.get("status") in TERMINAL_STATES
                ):
                    return
        finally:
            connection.close()

    def lint(self, blif: str, select: Optional[list] = None,
             ignore: Optional[list] = None, patterns: int = 1024) -> dict:
        payload: dict = {"blif": blif, "patterns": patterns}
        if select is not None:
            payload["select"] = select
        if ignore is not None:
            payload["ignore"] = ignore
        return self._json("POST", "/lint", payload)

    def shutdown(self, drain: bool = True) -> dict:
        return self._json("POST", "/shutdown", {"drain": drain})

    # ------------------------------------------------------------------
    def run(self, blif: str, spec: Optional[str] = None,
            options: Optional[dict] = None, timeout: float = 120.0) -> dict:
        """Submit and wait; the completed job view (raises on failure)."""
        accepted = self.submit(blif, spec=spec, options=options)
        view = self.wait(accepted["job_id"], timeout=timeout)
        if view["status"] != "done":
            raise ServeClientError(500, {"error": view.get("error", {
                "code": view["status"],
                "message": f"job finished {view['status']}",
            })})
        return view
