"""Tests for the sweep service: job specs, rate limiting, scheduler, HTTP.

The HTTP tests run a real :class:`SweepService` on an ephemeral port
inside an event loop, with the blocking :class:`ServiceClient` driven
from a worker thread — the same split a production deployment has.
"""

import asyncio
import http.client
import json
import socket
import sys
import threading
import time

import pytest

from repro.core.accord import AccordDesign
from repro.errors import ConfigError, ExecutionError
from repro.exec import Executor, JobKey, ResultStore, SweepJournal
from repro.exec.faults import FAULT_PLAN_ENV
from repro.exec.jobs import RESULT_SCHEMA_VERSION
from repro.experiments.common import Settings
from repro.service.client import ServiceClient, ServiceError
from repro.exec.jobs import QUICK_ACCESSES, QUICK_SUITE
from repro.service.jobspec import expand_spec, key_from_canonical
from repro.service.ratelimit import RateLimiter, TokenBucket
from repro.service.scheduler import JobManager, Overloaded, etag_for
from repro.service.server import ServiceConfig, SweepService

ACCESSES = 3000


def spec_for(**overrides):
    spec = {
        "designs": "direct,accord:2",
        "workloads": "soplex,libq",
        "accesses": ACCESSES,
    }
    spec.update(overrides)
    return spec


def serve(config, body):
    """Run a service, drive blocking ``body(client, service)`` from a
    thread, and return its result after a clean shutdown."""

    async def main():
        service = SweepService(config)
        await service.start()
        client = ServiceClient(port=service.port, timeout=120)
        try:
            return await asyncio.get_running_loop().run_in_executor(
                None, body, client, service
            )
        finally:
            client.close()
            await service.close()

    return asyncio.run(main())


class TestJobSpec:
    def test_expands_the_cli_grid_in_order(self):
        keys, labels, workloads = expand_spec(spec_for(seed=9))
        assert labels == ["direct-1way", "ACCORD 2-way"]
        assert workloads == ["soplex", "libq"]
        expected = [
            JobKey(design=design, workload=workload,
                   num_accesses=ACCESSES, warmup=0.5, seed=9,
                   scale=1.0 / 128.0)
            for design in (AccordDesign(kind="direct", ways=1),
                           AccordDesign(kind="accord", ways=2))
            for workload in ("soplex", "libq")
        ]
        assert [k.digest() for k in keys] == [k.digest() for k in expected]

    def test_defaults_mirror_cli_settings(self, monkeypatch):
        # An experiment's matrix, `repro sweep` and a job spec name one
        # grid with the same keys, in the same order, under the default
        # and the --quick knobs: served jobs are the CLI's jobs.
        from repro.__main__ import EXIT_EXECUTION, main
        from repro.errors import ExecutionError
        from repro.exec import Executor, parse_design_specs
        from repro.experiments.common import run_matrix

        grids = []

        def capture(self, keys):
            grids.append([key.digest() for key in keys])
            raise ExecutionError("grid captured")

        monkeypatch.setattr(Executor, "run", capture)
        designs, labels = parse_design_specs(["direct", "accord:2"])
        for quick in (False, True):
            settings = Settings().quick() if quick else Settings()
            with pytest.raises(ExecutionError):
                run_matrix(settings, dict(zip(labels, designs)))
            argv = ["sweep", "--designs", "direct,accord:2",
                    "--no-journal", "--no-store"]
            assert main(argv + ["--quick"] * quick) == EXIT_EXECUTION
            keys, _, workloads = expand_spec(
                {"designs": "direct,accord:2", "quick": quick}
            )
            assert workloads == settings.suite
            assert grids[-2] == grids[-1] == [k.digest() for k in keys]

    def test_quick_spec(self):
        keys, _, workloads = expand_spec({"designs": "direct", "quick": True})
        assert workloads == list(QUICK_SUITE)
        assert all(k.num_accesses == QUICK_ACCESSES for k in keys)

    def test_run_kind_takes_one_cell(self):
        keys, _, _ = expand_spec(
            {"kind": "run", "designs": "accord:2", "workloads": "soplex"}
        )
        assert len(keys) == 1
        with pytest.raises(ConfigError):
            expand_spec({"kind": "run", "designs": "direct,accord:2",
                         "workloads": "soplex"})

    @pytest.mark.parametrize("bad", [
        "not a dict",
        {"designs": "direct", "bogus_field": 1},
        {"designs": ""},
        {"designs": []},
        {"designs": "direct,direct"},
        {"designs": "pws:2:pip=0.6,pws:2:pip=0.60"},
        {"designs": "direct", "kind": "teleport"},
        {"designs": "direct", "workloads": "soplex,soplex"},
        {"designs": "direct", "workloads": "no_such_workload"},
        {"designs": "direct", "accesses": "many"},
        {"designs": "direct", "seed": True},
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            expand_spec(bad)

    def test_one_knob_sweep_is_labelled_by_spec_text(self):
        keys, labels, _ = expand_spec(
            spec_for(designs="pws:2:pip=0.6, pws:2:pip=0.8,accord:2")
        )
        assert labels == ["pws:2:pip=0.6", "pws:2:pip=0.8", "ACCORD 2-way"]
        assert len({key.digest() for key in keys}) == len(keys)

    def test_canonical_round_trip(self):
        keys, _, _ = expand_spec(spec_for(epoch=500))
        for key in keys:
            clone = key_from_canonical(
                json.loads(json.dumps(key.canonical()))
            )
            assert clone.digest() == key.digest()
            assert clone.epoch == key.epoch

    def test_canonical_rejects_stale_schema(self):
        data = expand_spec(spec_for())[0][0].canonical()
        data["schema"] = RESULT_SCHEMA_VERSION - 1
        with pytest.raises(ConfigError):
            key_from_canonical(data)
        with pytest.raises(ConfigError):
            key_from_canonical("nope")


class TestRateLimit:
    def test_bucket_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)
        now[0] += 0.5  # one token refilled
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_bucket_never_exceeds_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=lambda: now[0])
        now[0] += 60.0
        for _ in range(3):
            assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_limiter_isolates_clients(self):
        now = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=lambda: now[0])
        assert limiter.check("alice") == (True, 0.0)
        allowed, wait = limiter.check("alice")
        assert not allowed and wait > 0.0
        assert limiter.check("bob")[0]  # separate bucket

    def test_limiter_bounds_tracked_clients(self):
        now = [0.0]
        limiter = RateLimiter(
            rate=1.0, burst=1.0, max_clients=2, clock=lambda: now[0]
        )
        limiter.check("a")
        limiter.check("b")
        limiter.check("c")  # evicts "a", the least recently seen
        assert len(limiter._buckets) == 2
        assert limiter.check("a")[0]  # fresh bucket: allowed again

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ConfigError):
            TokenBucket(rate=1.0, burst=0.5)
        with pytest.raises(ConfigError):
            RateLimiter(rate=1.0, burst=1.0, max_clients=0)


def drain(sub):
    """Collect a subscription's events until its ``None`` sentinel."""

    async def inner():
        events = []
        while True:
            event = await asyncio.wait_for(sub.queue.get(), timeout=60)
            if event is None:
                return events
            events.append(event)

    return inner()


class TestJobManager:
    def test_duplicate_concurrent_submissions_execute_once(self, tmp_path):
        async def scenario():
            manager = JobManager(Executor(jobs=1), store=None)
            keys = expand_spec(spec_for())[0]
            try:
                # Submit twice before the dispatcher exists: the second
                # submission must ride the first's in-flight entries.
                first = manager.submit(keys)
                second = manager.submit(keys)
                assert first.counts["scheduled"] == len(keys)
                assert second.counts["deduped"] == len(keys)
                assert second.counts["scheduled"] == 0
                assert len(manager._inflight) == len(keys)
                manager.start()
                events_a, events_b = await asyncio.gather(
                    drain(first), drain(second)
                )
            finally:
                await manager.close()
            results_a = [e for e in events_a if e["event"] == "result"]
            results_b = [e for e in events_b if e["event"] == "result"]
            assert len(results_a) == len(results_b) == len(keys)
            by_key = {e["key"]: e for e in results_a}
            for event in results_b:
                # One computation, N subscribers: identical payloads.
                assert event["result"] == by_key[event["key"]]["result"]
                assert event["etag"] == etag_for(event["key"])
            assert manager.counters["executed"] == len(keys)
            assert manager.counters["deduped"] == len(keys)

        asyncio.run(scenario())

    def test_overload_sheds_whole_request(self):
        async def scenario():
            manager = JobManager(
                Executor(jobs=1), store=None, max_pending=1,
            )
            try:
                keys = expand_spec(spec_for())[0]  # 4 cold keys > bound 1
                with pytest.raises(Overloaded) as excinfo:
                    manager.submit(keys)
                assert excinfo.value.retry_after > 0
                # Shed whole: nothing was registered or queued.
                assert not manager._inflight
                assert not manager._queue
                assert manager.counters["shed_queue_full"] == 1
                # A request that fits is still admitted afterwards.
                sub = manager.submit(keys[:1])
                assert sub.counts["scheduled"] == 1
                manager.start()
                events = await drain(sub)
                assert events[-1]["event"] == "result"
            finally:
                await manager.close()

        asyncio.run(scenario())

    def test_resume_pending_finishes_previous_daemons_batch(self, tmp_path):
        keys = expand_spec(spec_for())[0]
        done_key, undone = keys[0], keys[1:]
        store = ResultStore(tmp_path)
        service_dir = tmp_path / "service"
        service_dir.mkdir()
        journal = SweepJournal(service_dir / "batch-dead.journal.jsonl")
        journal.begin(keys, meta={
            "service": True,
            "keys": [key.canonical() for key in keys],
        })
        journal.record_done(done_key, Executor(jobs=1).run([done_key])[done_key])
        # A stale journal from another schema must be skipped, not crash.
        bad = dict(keys[0].canonical(), schema=RESULT_SCHEMA_VERSION - 1)
        stale = SweepJournal(service_dir / "batch-stale.journal.jsonl")
        stale.begin(keys[:1], meta={"service": True, "keys": [bad]})

        async def scenario():
            manager = JobManager(Executor(jobs=1, store=store), store=store)
            try:
                manager.start()
                with pytest.warns(RuntimeWarning, match="stale"):
                    pending = manager.resume_pending()
                assert pending == len(undone)
                for _ in range(600):
                    if not manager._inflight:
                        break
                    await asyncio.sleep(0.1)
                assert not manager._inflight
            finally:
                await manager.close()
            # The journaled job replayed; only the remainder executed.
            assert manager.counters["resumed"] == 1
            assert manager.counters["executed"] == len(undone)
            for key in keys:
                assert store.get(key) is not None
            assert not list(service_dir.glob("batch-*.journal.jsonl"))

        asyncio.run(scenario())


class TestWarmAnswers:
    """Warm events reuse the digest the store verified, nothing else."""

    def warm_events(self, store, keys):
        async def scenario():
            manager = JobManager(Executor(jobs=1, store=store), store=store)
            try:
                events = await drain(manager.submit(keys))
            finally:
                await manager.close()
            assert manager.counters["store_hits"] == len(keys)
            return [e for e in events if e["event"] == "result"]

        return asyncio.run(scenario())

    def test_warm_event_bytes_match_a_recomputed_digest(
        self, tmp_path, monkeypatch
    ):
        import repro.sim.system as system

        keys = expand_spec(spec_for())[0]
        store = ResultStore(tmp_path)
        Executor(jobs=1, store=store).run(keys)
        expected = {
            key.digest(): JobManager._result_event(
                key, store.get(key), "cached"
            )
            for key in keys
        }
        recomputed = []
        real = system.payload_digest
        monkeypatch.setattr(
            system, "payload_digest",
            lambda *args: recomputed.append(1) or real(*args),
        )
        events = self.warm_events(store, keys)
        assert not recomputed  # to_dict reused the verified digest
        assert len(events) == len(keys)
        for event in events:
            assert json.dumps(event, sort_keys=True) == json.dumps(
                expected[event["key"]], sort_keys=True
            )

    def test_hand_edited_hit_rate_is_recomputed(self, tmp_path):
        key = expand_spec(spec_for())[0][0]
        store = ResultStore(tmp_path)
        true_rate = Executor(jobs=1, store=store).run([key])[key].hit_rate
        path = store.path_for(key)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["result"]["hit_rate"] = 0.123
        path.write_text(json.dumps(record), encoding="utf-8")
        (event,) = self.warm_events(store, [key])
        assert event["source"] == "cached"
        assert event["result"]["hit_rate"] == true_rate != 0.123


class TestServiceHTTP:
    def config(self, tmp_path, **overrides):
        kwargs = dict(
            port=0, results_dir=str(tmp_path / "store"),
            rate=1000.0, burst=1000.0,
        )
        kwargs.update(overrides)
        return ServiceConfig(**kwargs)

    def test_round_trip_bit_identical_to_cli_executor(self, tmp_path):
        spec = spec_for()
        keys = expand_spec(spec)[0]
        reference = Executor(jobs=1).run(keys)

        def body(client, service):
            events = []
            results = client.submit(spec, on_event=lambda e: events.append(e))
            kinds = [e.get("event") for e in events]
            assert kinds[0] == "accepted"
            assert kinds[-1] == "done"
            assert kinds.count("result") == len(keys)
            return results

        results = serve(self.config(tmp_path), body)
        for key in keys:
            event = results[key.digest()]
            assert event["source"] == "run"
            assert event["etag"] == etag_for(key.digest())
            assert event["result"] == reference[key].to_dict()

    def test_warm_resubmit_is_served_from_store(self, tmp_path):
        spec = spec_for()

        def body(client, service):
            first = client.submit(spec)
            assert all(e["source"] == "run" for e in first.values())
            scheduled = service.manager.counters["scheduled"]
            second = client.submit(spec)
            assert all(e["source"] == "cached" for e in second.values())
            # Nothing new was scheduled: answered straight from the store.
            assert service.manager.counters["scheduled"] == scheduled
            assert service.manager.counters["store_hits"] == len(second)
            for digest, event in first.items():
                assert second[digest]["result"] == event["result"]

        serve(self.config(tmp_path), body)

    def test_rate_limit_answers_429(self, tmp_path):
        def body(client, service):
            client._get_json("/healthz")  # health is never rate limited
            assert len(client.submit(spec_for(workloads="soplex"))) == 2
            with pytest.raises(ServiceError) as excinfo:
                client.submit(spec_for(workloads="libq"))
            err = excinfo.value
            assert err.status == 429
            assert err.retry_after is not None and err.retry_after > 0
            assert err.exit_code == 3
            assert err.payload["error"]["retryable"] is True
            assert service.manager.counters["shed_rate_limited"] == 1

        serve(self.config(tmp_path, rate=0.001, burst=1.0), body)

    def test_queue_overflow_answers_503(self, tmp_path):
        def body(client, service):
            with pytest.raises(ServiceError) as excinfo:
                client.submit(spec_for())  # 4 cold keys > max_pending 1
            err = excinfo.value
            assert err.status == 503
            assert err.retry_after is not None and err.retry_after > 0
            assert err.payload["error"]["kind"] == "execution"
            assert err.payload["error"]["retryable"] is True
            # A request that fits the bound still goes through.
            results = client.submit(
                spec_for(designs="direct", workloads="soplex")
            )
            assert len(results) == 1

        serve(self.config(tmp_path, max_pending=1), body)

    def test_bad_spec_answers_400_config(self, tmp_path):
        def body(client, service):
            with pytest.raises(ServiceError) as excinfo:
                list(client.stream_job({"designs": "direct", "bogus": 1}))
            err = excinfo.value
            assert err.status == 400
            assert err.exit_code == 2
            assert err.payload["error"]["kind"] == "config"
            assert err.payload["error"]["retryable"] is False

        serve(self.config(tmp_path), body)

    def test_health_metrics_and_unknown_endpoint(self, tmp_path):
        def body(client, service):
            health = client._get_json("/healthz")
            assert health["status"] == "ok"
            assert health["schema_version"] == RESULT_SCHEMA_VERSION
            client.submit(spec_for(designs="direct", workloads="soplex"))
            metrics = client.metrics()
            assert metrics["counters"]["completed"] == 1
            assert metrics["store"]["lookups"] >= 1
            with pytest.raises(ServiceError) as excinfo:
                client._get_json("/no/such/endpoint")
            assert excinfo.value.status == 404

        serve(self.config(tmp_path), body)

    def test_phase_events_stream_per_epoch(self, tmp_path):
        spec = spec_for(designs="accord:2", workloads="soplex", epoch=500)
        key = expand_spec(spec)[0][0]
        reference = Executor(jobs=1).run([key])[key]

        def body(client, service):
            events = []
            client.submit(spec, on_event=lambda e: events.append(e))
            return events

        events = serve(self.config(tmp_path), body)
        phases = [e for e in events if e["event"] == "phase"]
        assert phases, "epoch specs must stream phase events"
        assert [p["sample"]["index"] for p in phases] == \
            [s.index for s in reference.phases]
        assert [p["sample"]["hits"] for p in phases] == \
            [s.hits for s in reference.phases]
        # Phases arrive before the result they belong to.
        kinds = [e["event"] for e in events]
        assert kinds.index("phase") < kinds.index("result")


class TestServiceChaos:
    def config(self, tmp_path, **overrides):
        kwargs = dict(
            port=0, results_dir=str(tmp_path / "store"),
            rate=1000.0, burst=1000.0,
        )
        kwargs.update(overrides)
        return ServiceConfig(**kwargs)

    def test_transient_faults_retry_to_completion(
        self, tmp_path, monkeypatch
    ):
        spec = spec_for()
        keys = expand_spec(spec)[0]
        reference = Executor(jobs=1).run(keys)
        monkeypatch.setenv(
            FAULT_PLAN_ENV,
            f"seed=13;os_error=2;dir={tmp_path / 'ledger'}",
        )

        def body(client, service):
            return client.submit(spec)

        results = serve(self.config(tmp_path, retries=3), body)
        for key in keys:
            assert results[key.digest()]["result"] == reference[key].to_dict()

    def test_exhausted_faults_end_in_clean_retryable_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            FAULT_PLAN_ENV,
            f"seed=13;os_error=99;dir={tmp_path / 'ledger2'}",
        )

        def body(client, service):
            events = list(client.stream_job(spec_for()))
            # The stream terminated cleanly (stream_job raises if the
            # 'done' line never arrives), and every failed key carries
            # the documented execution-error payload.
            assert events[-1]["event"] == "done"
            errors = [e for e in events if e["event"] == "error"]
            assert errors
            for event in errors:
                assert event["error"]["kind"] == "execution"
                assert event["error"]["exit_code"] == 3
                assert event["error"]["retryable"] is True
            # submit() surfaces the failure as ExecutionError.
            with pytest.raises(ExecutionError):
                client.submit(spec_for(seed=11))
            return events

        serve(self.config(tmp_path, retries=0), body)


def read_raw_request(conn):
    """Read one HTTP request off a raw socket; False on EOF."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(4096)
        if not chunk:
            return False
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        body += conn.recv(4096)
    return True


def json_response(payload=b'{"status": "ok"}\n', length=None):
    return (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n"
        % (len(payload) if length is None else length)
    ) + payload


class ScriptedServer:
    """A raw TCP server: its i-th accepted connection runs ``scripts[i]``.

    Counts accepted connections, so a test can tell whether a client
    opened a second one.
    """

    def __init__(self, scripts):
        self.scripts = scripts
        self.accepted = 0
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        for script in self.scripts:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return  # closed by the test
            self.accepted += 1
            with conn:
                script(conn)

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept()
        except OSError:
            pass
        self.sock.close()
        self.thread.join(timeout=10)


def raw_exchange(port, request):
    """Send raw request bytes; return everything read until EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        data = b""
        while True:
            chunk = sock.recv(65536)  # socket.timeout: never closed
            if not chunk:
                return data
            data += chunk


class TestKeepAlive:
    config = TestServiceHTTP.config

    WARM = {"kind": "run", "designs": "direct", "workloads": "soplex",
            "accesses": ACCESSES}

    def test_warm_submissions_share_one_connection(self, tmp_path):
        def body(client, service):
            ServiceClient(port=service.port).submit(self.WARM)  # cold
            counters = service.manager.counters
            before = dict(counters)
            for _ in range(20):
                results = client.submit(self.WARM)
                assert [e["source"] for e in results.values()] == ["cached"]
            metrics = client.metrics()["counters"]
            assert metrics["connections"] - before["connections"] == 1
            assert metrics["requests"] - before["requests"] == 21
            assert metrics["store_hits"] - before["store_hits"] == 20

        serve(self.config(tmp_path), body)

    def test_cold_then_warm_opens_two_connections(self, tmp_path):
        def body(client, service):
            assert client.submit(self.WARM)  # cold: streamed, then closed
            assert not client._idle
            client.submit(self.WARM)  # warm: a new, pooled connection
            assert len(client._idle) == 1
            client.submit(self.WARM)
            assert service.manager.counters["connections"] == 2
            assert service.manager.counters["requests"] == 3

        serve(self.config(tmp_path), body)

    def test_warm_answer_is_one_content_length_body(self, tmp_path):
        spec = json.dumps(spec_for()).encode()

        def body(client, service):
            streamed = list(client.stream_job(spec_for()))  # cold
            conn = http.client.HTTPConnection("127.0.0.1", service.port)
            try:
                conn.request("POST", "/v1/jobs", body=spec)
                response = conn.getresponse()
                assert response.getheader("Connection") == "keep-alive"
                length = int(response.getheader("Content-Length"))
                raw = response.read()
                assert len(raw) == length
                events = [json.loads(line) for line in raw.splitlines()]
                kinds = [e["event"] for e in events]
                assert kinds == ["accepted"] + ["result"] * 4 + ["done"]
                assert events[-1]["counts"]["cached"] == 4
                # The same connection serves the next request.
                conn.request("GET", "/healthz")
                assert conn.getresponse().read()
            finally:
                conn.close()
            cold_results = {
                e["key"]: e["result"] for e in streamed
                if e["event"] == "result"
            }
            assert {e["key"]: e["result"] for e in events[1:-1]} == \
                cold_results
            assert service.manager.counters["connections"] == 2

        serve(self.config(tmp_path), body)

    def test_connection_close_and_http10_close(self, tmp_path):
        def body(client, service):
            for request in (
                b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
                b"GET /healthz HTTP/1.0\r\n\r\n",
            ):
                # raw_exchange reads to EOF, so the server must close.
                answer = raw_exchange(service.port, request)
                assert answer.startswith(b"HTTP/1.1 200 OK")
                assert b"Connection: close\r\n" in answer
                assert b"Content-Length: " in answer

        serve(self.config(tmp_path), body)

    def test_malformed_request_closes_the_connection(self, tmp_path):
        def body(client, service):
            answer = raw_exchange(
                service.port,
                b"GET /healthz HTTP/1.1\r\n\r\nnot an http request\r\n\r\n",
            )
            first, _, second = answer.partition(b"HTTP/1.1 400")
            assert b"Connection: keep-alive" in first
            assert b"Connection: close" in second

        serve(self.config(tmp_path), body)

    def test_streamed_responses_close(self, tmp_path):
        def body(client, service):
            client.submit(self.WARM)  # cold: close-delimited stream
            assert not client._idle
            client._get_json("/healthz")
            assert service.manager.counters["connections"] == 2
            # SSE always streams, even when every key is warm.
            answer = raw_exchange(
                service.port,
                b"POST /v1/jobs HTTP/1.1\r\n"
                b"Accept: text/event-stream\r\n"
                b"Content-Length: %d\r\n\r\n%s"
                % (len(json.dumps(self.WARM)), json.dumps(self.WARM).encode()),
            )
            head, _, events = answer.partition(b"\r\n\r\n")
            assert b"Connection: close" in head
            assert b"Content-Length" not in head
            assert events.count(b"data: ") == 3
            client._get_json("/healthz")  # the pooled connection is still good
            assert service.manager.counters["connections"] == 3

        serve(self.config(tmp_path), body)

    def test_retries_once_when_an_idle_connection_was_dropped(self, tmp_path):
        async def main():
            service = SweepService(self.config(tmp_path))
            await service.start()
            loop = asyncio.get_running_loop()
            client = ServiceClient(port=service.port, timeout=60)

            async def drop_idle():
                (writer,) = service._idle
                writer.close()
                await writer.wait_closed()

            def body():
                client._get_json("/healthz")
                assert len(client._idle) == 1
                # The daemon drops the idle connection under the client.
                asyncio.run_coroutine_threadsafe(drop_idle(), loop).result(10)
                assert client._get_json("/healthz")["status"] == "ok"

            try:
                await loop.run_in_executor(None, body)
            finally:
                client.close()
                await service.close()
            assert service.manager.counters["connections"] == 2
            assert service.manager.counters["requests"] == 2

        asyncio.run(main())

    def test_retry_against_a_server_that_drops_idle_connections(self):
        def answer_then_drop(conn):
            assert read_raw_request(conn)
            conn.sendall(json_response())

        def answer(conn):
            assert read_raw_request(conn)
            conn.sendall(json_response())

        server = ScriptedServer([answer_then_drop, answer])
        client = ServiceClient(port=server.port, timeout=10)
        try:
            assert client._get_json("/healthz") == {"status": "ok"}
            assert client._get_json("/healthz") == {"status": "ok"}
            assert server.accepted == 2
        finally:
            client.close()
            server.close()

    def test_no_retry_after_a_response_has_begun(self):
        def answer_then_truncate(conn):
            assert read_raw_request(conn)
            conn.sendall(json_response())
            assert read_raw_request(conn)
            conn.sendall(json_response(b"{}\n", length=500))

        def count_only(conn):
            pass

        server = ScriptedServer([answer_then_truncate, count_only])
        client = ServiceClient(port=server.port, timeout=10)
        try:
            client._get_json("/healthz")
            with pytest.raises(ServiceError, match="mid-response"):
                client._get_json("/healthz")  # short body: IncompleteRead
            assert server.accepted == 1
        finally:
            client.close()
            server.close()

    def test_truncated_warm_body_raises_without_retry(self):
        def answer_then_truncate(conn):
            assert read_raw_request(conn)
            conn.sendall(json_response())
            assert read_raw_request(conn)
            conn.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
                b"Content-Length: 500\r\nConnection: keep-alive\r\n\r\n"
                b'{"event": "accepted"}\n'
            )

        def count_only(conn):
            pass

        server = ScriptedServer([answer_then_truncate, count_only])
        client = ServiceClient(port=server.port, timeout=10)
        try:
            client._get_json("/healthz")
            with pytest.raises(ServiceError, match="'done' event"):
                list(client.stream_job(self.WARM))
            assert server.accepted == 1
        finally:
            client.close()
            server.close()

    def test_close_does_not_wait_on_idle_pooled_connections(self, tmp_path):
        async def main():
            service = SweepService(self.config(tmp_path))
            await service.start()
            client = ServiceClient(port=service.port, timeout=60)
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, client._get_json, "/healthz")
            (conn,) = client._idle  # held open by the client
            started = time.monotonic()
            await asyncio.wait_for(service.close(), timeout=2)
            assert time.monotonic() - started < 2
            # The daemon closed its end: the pooled socket reads EOF.
            conn.sock.settimeout(5)
            assert await loop.run_in_executor(None, conn.sock.recv, 1) == b""
            client.close()

        asyncio.run(main())

    def test_threads_share_the_pool(self, tmp_path):
        threads, per_thread = 6, 15

        def body(client, service):
            expected = client.submit(self.WARM)  # cold
            before = dict(service.manager.counters)
            errors = []

            def hammer():
                try:
                    for _ in range(per_thread):
                        assert client.submit(self.WARM).keys() == \
                            expected.keys()
                except Exception as exc:  # reported below
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                workers = [
                    threading.Thread(target=hammer) for _ in range(threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=120)
                assert not any(worker.is_alive() for worker in workers)
            finally:
                sys.setswitchinterval(interval)
            assert errors == []
            counters = service.manager.counters
            assert counters["requests"] - before["requests"] == \
                threads * per_thread
            # A connection serves one thread at a time, and idle ones
            # are reused: never more connections than threads.
            assert counters["connections"] - before["connections"] <= threads
            assert len(client._idle) <= threads

        serve(self.config(tmp_path), body)
