"""HTTP transport for the audit service (stdlib ``http.server``).

:class:`AuditService` assembles the pieces — a
:class:`~repro.service.tenants.TenantManager` over a data dir, the
:class:`~repro.service.app.ServiceApp` with every resource router, and
a :class:`~http.server.ThreadingHTTPServer` — into one long-running
process::

    with AuditService("runs/service-data", port=8040) as service:
        service.serve_forever()        # Ctrl-C returns

Threading model: the server handles each request on its own daemon
thread; the app layer is stateless, and all shared mutable state lives
behind the :class:`TenantManager`'s per-tenant locks.  SQLite stores
are opened with cross-thread access enabled
(:mod:`repro.core.store.sqlite`) precisely because the tenant lock —
not thread affinity — is the serialization mechanism here.

``port=0`` binds an ephemeral port (tests); :attr:`AuditService.port`
reports the bound one either way.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.core.axioms import AxiomRegistry
from repro.service.app import Response, ServiceApp
from repro.service.routers import all_routers
from repro.service.tenants import TenantManager


def build_app(tenants: TenantManager) -> ServiceApp:
    """The complete service app over one tenant manager."""
    app = ServiceApp(tenants=tenants)
    for router in all_routers():
        app.include(router)
    return app


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Thin adapter: HTTP request in, ``ServiceApp.dispatch`` out.

    The app is reached through ``self.server.app`` (set by
    :class:`AuditHTTPServer`), so one handler class serves any app.
    """

    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; a service
    # hosting hundreds of tenants would drown the console.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _read_body(self) -> Any:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown: answer, then drop the
            # connection rather than read to EOF or misread the rest.
            self.close_connection = True
            return _BodyError(
                "Content-Length must be a non-negative integer, "
                f"got {declared!r}"
            )
        if length == 0:
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return _BodyError(f"request body is not valid JSON: {error}")

    def _respond(self, response: Response) -> None:
        body = response.encode()
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _handle(self, method: str) -> None:
        split = urlsplit(self.path)
        body = self._read_body()
        if isinstance(body, _BodyError):
            self._respond(Response(status=400, payload={"error": {
                "type": "BadRequestError",
                "message": str(body),
                "status": 400,
            }}))
            return
        response = self.server.app.dispatch(  # type: ignore[attr-defined]
            method,
            split.path,
            parse_qs(split.query, keep_blank_values=True),
            body,
        )
        try:
            self._respond(response)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response (watch timeouts do this);
            # nothing to clean up — state changes already committed.
            pass

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")

    def do_DELETE(self) -> None:
        self._handle("DELETE")


class _BodyError:
    def __init__(self, message: str) -> None:
        self.message = message

    def __str__(self) -> str:
        return self.message


class AuditHTTPServer(ThreadingHTTPServer):
    """Threading server carrying the app for its request handlers."""

    daemon_threads = True
    # The socketserver default backlog (5) drops connections the moment
    # ~100 tenant sessions connect at once — the exact regime the
    # concurrency bench gates on.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], app: ServiceApp) -> None:
        super().__init__(address, _ServiceRequestHandler)
        self.app = app


class AuditService:
    """One audit service process: tenants + app + HTTP server.

    ``data_dir=None`` hosts memory tenants only (handy in tests).
    :meth:`close` shuts the listener down and checkpoints/closes every
    tenant — the same path ``trace serve`` runs on SIGINT.
    """

    def __init__(
        self,
        data_dir: str | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        default_backend: str = "sqlite",
        default_audit_jobs: int = 1,
        registry: AxiomRegistry | None = None,
    ) -> None:
        self.tenants = TenantManager(
            data_dir,
            default_backend=default_backend,
            default_audit_jobs=default_audit_jobs,
            registry=registry,
        )
        self.app = build_app(self.tenants)
        self._server = AuditHTTPServer((host, port), self.app)
        self._thread: threading.Thread | None = None
        self._served = False
        self._closed = False

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (or Ctrl-C)."""
        self._served = True
        self._server.serve_forever(poll_interval=0.2)

    def start(self) -> "AuditService":
        """Serve on a background thread (tests, embedded use)."""
        if self._thread is None:
            self._served = True
            self._thread = threading.Thread(
                target=self.serve_forever,
                name="audit-service",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> dict:
        """Stop serving, then checkpoint and close every tenant.

        Idempotent.  Returns the :meth:`TenantManager.close_all`
        summary (``{"tenants": n, "checkpointed": m}``)."""
        if self._closed:
            return {"tenants": len(self.tenants.names()), "checkpointed": 0}
        self._closed = True
        # ``shutdown()`` waits for the serve loop to exit; calling it
        # when ``serve_forever`` never ran would wait forever.
        if self._served:
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        return self.tenants.close_all()

    def __enter__(self) -> "AuditService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
