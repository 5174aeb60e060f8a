"""Endpoint round trips over live HTTP, both disk backends included."""

import json
import socket
import urllib.request

import pytest

from repro.core.serialize import event_to_dict
from repro.errors import ServiceClientError
from repro.service import AuditService, ServiceClient
from repro.workloads.scenarios import all_scenarios


@pytest.fixture(scope="module")
def scenarios():
    return {s.name: s for s in all_scenarios(0)}


@pytest.fixture(scope="module")
def records(scenarios):
    return [event_to_dict(e) for e in scenarios["unequal_pay"].trace]


@pytest.fixture()
def service(tmp_path):
    with AuditService(str(tmp_path / "data"), port=0) as live:
        yield live


@pytest.fixture()
def client(service):
    return ServiceClient(service.url)


def expect_error(status, error_type, call):
    with pytest.raises(ServiceClientError) as caught:
        call()
    assert caught.value.status == status
    assert str(caught.value).startswith(error_type + ":")


class TestServiceInfo:
    def test_ping_describes_the_service(self, client, service):
        info = client.ping()
        assert info["service"] == "repro-audit"
        assert info["tenants"] == 0
        assert info["backends"] == ["memory", "persistent", "sqlite"]
        assert info["data_dir"] is not None
        assert info["axioms"]  # the shared registry's axiom ids

    def test_list_tenants_round_trip(self, client):
        assert client.list_tenants() == []
        client.create_tenant("acme", backend="memory")
        listed = client.list_tenants()
        assert [t["name"] for t in listed] == ["acme"]


@pytest.mark.parametrize("backend", ["persistent", "sqlite"])
class TestDiskRoundTrips:
    def test_full_round_trip(self, client, backend, records):
        created = client.create_tenant("acme", backend=backend)
        assert created["open"] is True and created["backend"] == backend

        appended = client.append("acme", records)
        assert appended == {
            "appended": len(records), "revision": len(records),
        }

        verdict = client.run_audit("acme")
        assert verdict["passed"] is False
        assert verdict["total_violations"] > 0
        assert len(verdict["new_violations"]) == verdict["total_violations"]

        # Paged export: reassembling every page gives the input back.
        collected, cursor = [], 0
        while True:
            page = client.events("acme", start=cursor, limit=7)
            if not page["events"]:
                break
            collected.extend(page["events"])
            cursor = page["next"]
        assert collected == records

        assert client.query("acme", count=True)["count"] == len(records)
        histogram = client.query("acme", count_by_kind=True)["count_by_kind"]
        assert sum(histogram.values()) == len(records)

        stats = client.stats("acme")
        assert stats["events"] == len(records)
        info = client.info("acme")
        assert info["events"] == len(records)
        assert info["backend"] == backend

        report = client.report("acme", format="md")
        assert report.startswith("# Fairness audit report")
        assert "acme" in report

    def test_shutdown_checkpoints_and_restart_resumes(
        self, tmp_path, backend, records
    ):
        data_dir = str(tmp_path / "srv")
        with AuditService(data_dir, port=0) as service:
            client = ServiceClient(service.url)
            client.create_tenant("acme", backend=backend)
            client.append("acme", records)
            summary = service.close()
            assert summary == {"tenants": 1, "checkpointed": 1}
        with AuditService(data_dir, port=0) as reborn:
            client = ServiceClient(reborn.url)
            described = client.tenant("acme")
            assert described["open"] is True
            assert described["events"] == len(records)
            assert client.query("acme", count=True)["count"] == len(records)


class TestErrorContract:
    def test_unknown_tenant_is_404(self, client):
        for call in (
            lambda: client.tenant("ghost"),
            lambda: client.append("ghost", []),
            lambda: client.run_audit("ghost"),
            lambda: client.query("ghost", count=True),
            lambda: client.report("ghost"),
        ):
            expect_error(404, "UnknownTenantError", call)

    def test_duplicate_tenant_is_409(self, client):
        client.create_tenant("acme", backend="memory")
        expect_error(
            409, "TenantExistsError",
            lambda: client.create_tenant("acme", backend="memory"),
        )

    def test_closed_tenant_is_409(self, client, records):
        client.create_tenant("acme", backend="memory")
        client.close_tenant("acme")
        expect_error(
            409, "TenantClosedError",
            lambda: client.append("acme", records[:1]),
        )

    def test_malformed_requests_are_400(self, client, records):
        client.create_tenant("acme", backend="memory")
        for call in (
            # body problems
            lambda: client.create_tenant(7),
            lambda: client.create_tenant("x", backend="parquet"),
            lambda: client.request("POST", "/tenants", body=["not-an-object"]),
            lambda: client.request("POST", "/tenants/acme/events", body={}),
            lambda: client.request(
                "POST", "/tenants/acme/events", body={"events": [7]}
            ),
            lambda: client.append("acme", [{"kind": "no_such_kind"}]),
            # query problems
            lambda: client.query("acme", entity_kind="worker"),
            lambda: client.query("acme", since=1, round_tick=2),
            lambda: client.query("acme", count=True, count_by_kind=True),
            lambda: client.request(
                "GET", "/tenants/acme/query", params={"limit": "many"}
            ),
            lambda: client.events("acme", start=-1),
            lambda: client.events("acme", limit=0),
            # report problems
            lambda: client.report("acme"),  # never audited
        ):
            with pytest.raises(ServiceClientError) as caught:
                call()
            assert caught.value.status == 400, str(caught.value)

    def test_unknown_report_format_is_400(self, client, records):
        client.create_tenant("acme", backend="memory")
        client.append("acme", records)
        client.run_audit("acme")
        expect_error(
            400, "ReportError", lambda: client.report("acme", format="pdf")
        )

    def test_non_json_body_is_400(self, service):
        request = urllib.request.Request(
            service.url + "/tenants",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        assert caught.value.code == 400
        body = json.loads(caught.value.read().decode("utf-8"))
        assert "not valid JSON" in body["error"]["message"]

    @pytest.mark.parametrize("declared", ["abc", "-1"])
    def test_bad_content_length_is_400(self, service, declared):
        request = (
            "POST /tenants HTTP/1.1\r\n"
            f"Host: {service.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {declared}\r\n\r\n"
        ).encode("ascii")
        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as conn:
            conn.sendall(request)
            raw = b""
            while chunk := conn.recv(65536):  # the server closes
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), raw
        error = json.loads(body.decode("utf-8"))["error"]
        assert error["type"] == "BadRequestError"
        assert error["status"] == 400
        assert "Content-Length" in error["message"]

    def test_unrouted_path_and_method(self, client):
        expect_error(
            404, "NotFound", lambda: client.request("GET", "/nowhere")
        )
        expect_error(
            405, "MethodNotAllowed",
            lambda: client.request("DELETE", "/tenants"),
        )

    def test_client_reports_unreachable_servers(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceClientError) as caught:
            client.ping()
        assert caught.value.status == 0


class TestWatch:
    def test_watch_cursor_advances(self, client, records):
        client.create_tenant("acme", backend="memory")
        client.append("acme", records)
        client.run_audit("acme")
        first = client.watch("acme", after=0, timeout=0.1)
        assert first["timed_out"] is False
        assert first["next"] == 1
        assert len(first["audits"]) == 1
        again = client.watch("acme", after=first["next"], timeout=0.1)
        assert again == {"audits": [], "next": 1, "timed_out": True}

    def test_audit_history_pages(self, client, records):
        client.create_tenant("acme", backend="memory")
        client.append("acme", records)
        client.run_audit("acme")
        client.run_audit("acme")
        everything = client.audits("acme")
        assert [r["audit"] for r in everything["audits"]] == [0, 1]
        assert everything["total"] == 2
        tail = client.audits("acme", after=1)
        assert [r["audit"] for r in tail["audits"]] == [1]
