"""SessionManager: multiplexing, parity, suspend/resume, backpressure."""

import asyncio

import pytest

from repro.core.config import ZEC12_CONFIG_2
from repro.engine.simulator import simulate
from repro.sampling import CheckpointStore, load_state, save_state
from repro.service.protocol import ServiceError, ServiceLimits
from repro.service.session import SessionManager
from repro.workloads.catalog import workload_by_name

LIMITS = ServiceLimits(chunk_records=512, sweep_interval=0.05)


def _trace(scale=0.01):
    return workload_by_name("Informix").trace(scale=scale)


def _expected(records):
    return simulate(records, config=ZEC12_CONFIG_2).counters.state_dict()


def _run(body, *, backend="serial", limits=LIMITS, store=None, jobs=2):
    """Run ``body(manager)`` inside a fresh event loop + manager."""
    async def main():
        manager = SessionManager(limits=limits, backend=backend, jobs=jobs,
                                 store=store)
        manager.start()
        try:
            return await body(manager)
        finally:
            await manager.stop(drain=False)

    return asyncio.run(main())


async def _feed_and_close(manager, records, **create_kwargs):
    session = manager.create(**create_kwargs)
    await manager.enqueue(session, records, wait=True)
    return await manager.close(session)


class TestParity:
    """The tentpole gate: service counters == ``simulate`` counters."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_streamed_counters_are_bit_identical(self, backend):
        records = _trace()

        async def body(manager):
            return await _feed_and_close(manager, records)

        result = _run(body, backend=backend)
        assert result["counters"] == _expected(records)

    def test_many_sessions_multiplex_independently(self):
        records = _trace()

        async def body(manager):
            sessions = [manager.create(label=f"s{i}") for i in range(4)]
            for session in sessions:
                await manager.enqueue(session, records, wait=True)
            return [await manager.close(s) for s in sessions]

        expected = _expected(records)
        for result in _run(body, backend="thread"):
            assert result["counters"] == expected


class TestSuspendResume:
    def test_mid_trace_suspend_resume_is_exact(self, tmp_path):
        """Suspend -> resume mid-stream reproduces the uninterrupted run."""
        records = _trace()
        half = len(records) // 2
        store = CheckpointStore(tmp_path)

        async def body(manager):
            session = manager.create()
            await manager.enqueue(session, records[:half], wait=True)
            saved = await manager.suspend(session)
            assert session.state == "suspended"
            assert session.sim is None  # memory released
            assert saved["checkpoint"]
            await manager.resume(session)
            assert session.state == "active"
            await manager.enqueue(session, records[half:], wait=True)
            return await manager.close(session)

        result = _run(body, store=store)
        assert result["counters"] == _expected(records)

    def test_process_backend_suspend_resume_is_exact(self, tmp_path):
        records = _trace()
        third = len(records) // 3
        store = CheckpointStore(tmp_path)

        async def body(manager):
            session = manager.create()
            await manager.enqueue(session, records[:third], wait=True)
            await manager.suspend(session)
            await manager.resume(session)
            await manager.enqueue(session, records[third:], wait=True)
            return await manager.close(session)

        result = _run(body, backend="process", store=store)
        assert result["counters"] == _expected(records)

    def test_suspend_without_spool_is_typed_409(self):
        async def body(manager):
            session = manager.create()
            with pytest.raises(ServiceError) as excinfo:
                await manager.suspend(session)
            assert excinfo.value.code == "invalid_state"
            assert session.state == "active"

        _run(body, store=None)

    def test_resume_before_suspend_is_typed_409(self, tmp_path):
        async def body(manager):
            session = manager.create()
            with pytest.raises(ServiceError) as excinfo:
                await manager.resume(session)
            assert excinfo.value.code == "invalid_state"

        _run(body, store=CheckpointStore(tmp_path))

    def test_resume_with_pruned_checkpoint_is_typed_409(self, tmp_path):
        store = CheckpointStore(tmp_path)

        async def body(manager):
            session = manager.create()
            await manager.suspend(session)
            store.clear()  # the spool was pruned behind our back
            with pytest.raises(ServiceError) as excinfo:
                await manager.resume(session)
            assert excinfo.value.code == "invalid_state"
            assert "checkpoint" in excinfo.value.message

        _run(body, store=store)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_resume_refuses_a_stale_spooled_state(self, tmp_path, backend):
        """Every backend checks the spooled state at resume, so a stale
        one is refused there and not on the session's next chunk."""
        records = _trace(scale=0.002)
        store = CheckpointStore(tmp_path)

        async def body(manager):
            session = manager.create()
            await manager.enqueue(session, records, wait=True)
            await manager.suspend(session)
            (path,) = store.entries()
            state = load_state(path)
            state["version"] = 99
            save_state(path, state)
            with pytest.raises(ServiceError) as excinfo:
                await manager.resume(session)
            assert excinfo.value.code == "invalid_state"
            assert "schema version 99" in excinfo.value.message
            assert session.state == "suspended"

        _run(body, backend=backend, store=store)

    def test_close_auto_resumes_a_suspended_session(self, tmp_path):
        records = _trace()
        store = CheckpointStore(tmp_path)

        async def body(manager):
            session = manager.create()
            await manager.enqueue(session, records, wait=True)
            await manager.suspend(session)
            return await manager.close(session)

        result = _run(body, store=store)
        assert result["counters"] == _expected(records)

    def test_restart_recreate_then_resume(self, tmp_path):
        """A new manager (daemon restart) resumes from the shared spool."""
        records = _trace()
        half = len(records) // 2
        store = CheckpointStore(tmp_path)
        sid_holder = {}

        async def first(manager):
            session = manager.create()
            sid_holder["id"] = session.id
            await manager.enqueue(session, records[:half], wait=True)
            await manager.suspend(session)

        _run(first, store=store)

        async def second(manager):
            session = manager.create(session_id=sid_holder["id"],
                                     resume=True)
            assert session.state == "suspended"
            await manager.resume(session)
            await manager.enqueue(session, records[half:], wait=True)
            return await manager.close(session)

        result = _run(second, store=store)
        assert result["counters"] == _expected(records)


class TestLifecycleErrors:
    def test_ingest_after_close_is_typed_409(self):
        records = _trace(scale=0.002)

        async def body(manager):
            session = manager.create()
            await manager.enqueue(session, records, wait=True)
            await manager.close(session)
            with pytest.raises(ServiceError) as excinfo:
                await manager.enqueue(session, records, wait=False)
            assert excinfo.value.code == "invalid_state"
            # Closing twice is equally deterministic.
            with pytest.raises(ServiceError) as again:
                await manager.close(session)
            assert again.value.code == "invalid_state"

        _run(body)

    def test_unknown_session_is_typed_404(self):
        async def body(manager):
            with pytest.raises(ServiceError) as excinfo:
                manager.get("nope")
            assert excinfo.value.code == "unknown_session"

        _run(body)

    def test_bad_config_and_engine_are_typed_400(self):
        async def body(manager):
            with pytest.raises(ServiceError) as excinfo:
                manager.create(config_key="9")
            assert excinfo.value.code == "bad_request"
            for unknown in ("warp", "batched"):
                with pytest.raises(ServiceError) as excinfo:
                    manager.create(engine_mode=unknown)
                assert excinfo.value.code == "bad_request"

        _run(body)

    def test_session_table_cap_is_429(self):
        limits = ServiceLimits(chunk_records=512, max_sessions=2)

        async def body(manager):
            manager.create()
            manager.create()
            with pytest.raises(ServiceError) as excinfo:
                manager.create()
            assert excinfo.value.code == "saturated"
            assert excinfo.value.retry_after is not None

        _run(body, limits=limits)

    def test_duplicate_session_id_is_typed_409(self):
        async def body(manager):
            session = manager.create()
            with pytest.raises(ServiceError) as excinfo:
                manager.create(session_id=session.id)
            assert excinfo.value.code == "invalid_state"

        _run(body)

    def test_chunk_crash_fails_the_session_not_the_daemon(self, monkeypatch):
        import repro.service.session as session_module

        records = _trace(scale=0.002)
        original = session_module._advance_chunk

        def exploding(task):
            return session_module._ChunkOutcome(
                session_id=task.session_id, records=len(task.records),
                error="RuntimeError: engine exploded")

        monkeypatch.setattr(session_module, "_advance_chunk", exploding)

        async def body(manager):
            doomed = manager.create()
            await manager.enqueue(doomed, records, wait=True)
            await manager._wait_drained(doomed)
            assert doomed.state == "failed"
            assert "exploded" in doomed.error
            with pytest.raises(ServiceError) as excinfo:
                await manager.close(doomed)
            assert excinfo.value.status in (409, 500)
            # The daemon itself is healthy: a new session still works.
            monkeypatch.setattr(session_module, "_advance_chunk", original)
            healthy = manager.create()
            await manager.enqueue(healthy, records, wait=True)
            return await manager.close(healthy)

        result = _run(body)
        assert result["counters"] == _expected(records)


class TestBackpressure:
    def test_one_shot_overflow_is_429_with_retry_after(self):
        limits = ServiceLimits(queue_records=64, chunk_records=16)
        records = _trace(scale=0.002)

        async def body(manager):
            session = manager.create()
            with pytest.raises(ServiceError) as excinfo:
                await manager.enqueue(session, records, wait=False)
            error = excinfo.value
            assert error.code == "saturated"
            assert error.status == 429
            assert error.retry_after > 0
            # Nothing was half-ingested: a retry cannot double-count.
            assert session.ingested == 0

        _run(body, limits=limits)

    def test_streaming_ingest_blocks_instead_of_failing(self):
        """wait=True rides the dispatcher: a tiny queue still drains all."""
        limits = ServiceLimits(queue_records=64, chunk_records=16,
                               sweep_interval=0.05)
        records = _trace(scale=0.005)

        async def body(manager):
            session = manager.create()
            await manager.enqueue(session, records, wait=True)
            return await manager.close(session)

        result = _run(body, limits=limits)
        assert result["counters"] == _expected(records)


class TestHousekeeping:
    def test_idle_session_is_evicted_to_the_spool(self, tmp_path):
        limits = ServiceLimits(chunk_records=512, idle_timeout=0.05,
                               sweep_interval=0.05)
        records = _trace(scale=0.002)
        store = CheckpointStore(tmp_path)

        async def body(manager):
            session = manager.create()
            await manager.enqueue(session, records, wait=True)
            await manager._wait_drained(session)
            deadline = asyncio.get_running_loop().time() + 5.0
            while session.state != "suspended":
                assert asyncio.get_running_loop().time() < deadline, \
                    "idle session was never evicted"
                await asyncio.sleep(0.05)
            assert session.evictions == 1
            # Eviction is transparent: resume + close still finishes.
            await manager.resume(session)
            return await manager.close(session)

        result = _run(body, limits=limits, store=store)
        assert result["counters"] == _expected(records)

    def test_reports_expose_chunk_progress(self):
        records = _trace(scale=0.005)

        async def body(manager):
            session = manager.create()
            await manager.enqueue(session, records, wait=True)
            await manager._wait_drained(session)
            first = manager.poll_reports(session)
            assert first["reports"]
            assert sum(r["records"] for r in first["reports"]) \
                == len(records)
            assert all(r["cpi"] > 0 for r in first["reports"])
            # ``since`` filters strictly-after.
            last_seq = first["reports"][-1]["seq"]
            assert manager.poll_reports(session, since=last_seq)["reports"] \
                == []
            return await manager.close(session)

        _run(body)

    def test_suspend_during_failed_drain_is_typed_error(self, monkeypatch,
                                                        tmp_path):
        """A chunk crashing during the suspending drain must surface as a
        typed error and a failed session — never a snapshot of the
        corrupted mid-chunk state presented as 'suspended'."""
        import repro.service.session as session_module

        records = _trace(scale=0.002)

        def exploding(task):
            return session_module._ChunkOutcome(
                session_id=task.session_id, records=len(task.records),
                error="RuntimeError: engine exploded")

        monkeypatch.setattr(session_module, "_advance_chunk", exploding)
        store = CheckpointStore(tmp_path)

        async def body(manager):
            session = manager.create()
            await manager.enqueue(session, records, wait=True)
            with pytest.raises(ServiceError) as excinfo:
                await manager.suspend(session)
            assert excinfo.value.code == "invalid_state"
            assert session.state == "failed"
            assert "exploded" in session.error
            # No corrupt checkpoint was spooled: resume has nothing.
            with pytest.raises(ServiceError):
                await manager.resume(session)

        _run(body, store=store)

    def test_stop_drains_despite_live_streaming_ingest(self, tmp_path):
        """Graceful drain must not deadlock under a kept-open stream: the
        feeder gets a typed 503 and stop() completes with everything
        already accepted simulated and suspended."""
        records = _trace(scale=0.005)
        store = CheckpointStore(tmp_path)
        limits = ServiceLimits(queue_records=64, chunk_records=16,
                               sweep_interval=0.05)

        async def body():
            manager = SessionManager(limits=limits, backend="serial",
                                     jobs=2, store=store)
            manager.start()
            session = manager.create()
            outcome = {}

            async def feeder():
                try:
                    while True:
                        await manager.enqueue(session, records[:32],
                                              wait=True)
                except ServiceError as error:
                    outcome["code"] = error.code

            task = asyncio.get_running_loop().create_task(feeder())
            await asyncio.sleep(0.2)  # let the stream saturate the queue
            await asyncio.wait_for(manager.stop(drain=True), timeout=60)
            await asyncio.wait_for(task, timeout=10)
            assert outcome["code"] == "draining"
            assert session.state == "suspended"
            assert session.processed == session.ingested
            # New ingest is refused outright while stopped.
            with pytest.raises(ServiceError) as excinfo:
                await manager.enqueue(session, records[:1], wait=False)
            assert excinfo.value.code == "draining"

        asyncio.run(body())

    def test_wait_drained_fails_fast_without_a_dispatcher(self):
        """A drain that nothing can service raises instead of hanging."""
        records = _trace(scale=0.002)

        async def body():
            manager = SessionManager(limits=LIMITS, backend="serial",
                                     jobs=1)
            # Dispatcher never started; queued records will never move.
            session = manager.create()
            await manager.enqueue(session, records, wait=True)
            with pytest.raises(ServiceError) as excinfo:
                await asyncio.wait_for(manager._wait_drained(session),
                                       timeout=10)
            assert excinfo.value.code == "internal"

        asyncio.run(body())

    def test_graceful_stop_drains_and_suspends(self, tmp_path):
        """stop(drain=True): queued records simulate, state hits the spool."""
        records = _trace(scale=0.005)
        store = CheckpointStore(tmp_path)
        sid_holder = {}

        async def body():
            manager = SessionManager(limits=LIMITS, backend="serial",
                                     jobs=2, store=store)
            manager.start()
            session = manager.create()
            sid_holder["id"] = session.id
            await manager.enqueue(session, records, wait=True)
            await manager.stop(drain=True)
            assert session.processed == len(records)
            assert session.state == "suspended"

        asyncio.run(body())

        # The spool outlives the manager: a fresh one resumes and closes.
        async def after():
            manager = SessionManager(limits=LIMITS, backend="serial",
                                     jobs=2, store=store)
            manager.start()
            try:
                session = manager.create(session_id=sid_holder["id"],
                                         resume=True)
                await manager.resume(session)
                return await manager.close(session)
            finally:
                await manager.stop(drain=False)

        result = asyncio.run(after())
        assert result["counters"] == _expected(records)
