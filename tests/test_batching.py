"""Batched sweep execution: packing, sharing, and per-job guarantees.

The batching layer packs same-trace jobs into shared-trace worker
tasks (fused multi-config kernel where signatures allow) while keeping
every caller-visible artifact — results, store entries, journal lines,
progress — at per-:class:`JobKey` granularity. These tests pin both
halves: bit-identical results across the batched and per-job paths
over the full heterogeneous :data:`BENCH_DESIGNS` grid, and the
resource story (one step-plan build and one split per trace, and no
trace built by the dispatching process).

Every executor job runs as a :class:`BatchTask` (``batch=False`` only
chunks groups into ones), so the reference for bit-identity is
:func:`run_design` — a plain :class:`~repro.sim.system.Simulator` run
outside the executor.
"""

import pytest

from repro.core.accord import AccordDesign
from repro.exec import BackoffPolicy, Executor, JobKey, SweepJournal
from repro.exec.batching import (
    BatchTask,
    batch_group,
    plan_batches,
)
from repro.exec.faults import FAULT_PLAN_ENV
from repro.exec.jobs import execute_job, resolve_job_engine
from repro.params.system import scaled_system
from repro.sim.bench import BENCH_DESIGNS
from repro.sim.runner import TraceFactory, run_design

ACCESSES = 3000

SWEEP = tuple(
    AccordDesign(kind="pws", ways=2, pip=0.2 + 0.05 * i) for i in range(12)
)


def sweep_keys(num=12, workload="soplex", **kwargs):
    return [
        JobKey(
            design=design, workload=workload, num_accesses=ACCESSES,
            warmup=0.3, seed=7, **kwargs,
        )
        for design in SWEEP[:num]
    ]


def bench_keys(workload="soplex"):
    return [
        JobKey(
            design=design, workload=workload, num_accesses=ACCESSES,
            warmup=0.3, seed=7,
        )
        for design in BENCH_DESIGNS
    ]


def fast_backoff():
    return BackoffPolicy(base=0.01, max_delay=0.05)


def reference(key):
    """``key``'s result from :func:`run_design`, outside the executor."""
    traces = TraceFactory(
        scaled_system(ways=1, scale=key.scale), key.num_accesses, key.seed,
        footprint_scale=key.footprint_scale,
    )
    return run_design(
        key.design, key.workload,
        config=scaled_system(ways=key.design.ways, scale=key.scale),
        traces=traces, num_accesses=key.num_accesses, warmup=key.warmup,
        seed=key.seed, epoch=key.epoch, engine=key.engine,
    )


def reference_dicts(keys):
    return {key: reference(key).to_dict() for key in keys}


class TestBatchPlanner:
    def test_same_trace_same_geometry_packs(self):
        items = plan_batches(sweep_keys(12))
        assert len(items) == 1
        (task,) = items
        assert isinstance(task, BatchTask)
        assert len(task.jobs) == 12

    def test_chunking_respects_batch_size(self):
        items = plan_batches(sweep_keys(12), batch_size=8)
        sizes = sorted(len(t.jobs) for t in items)
        assert sizes == [4, 8]

    def test_singleton_group_is_one_member_task(self):
        keys = sweep_keys(2) + [
            JobKey(
                design=SWEEP[0], workload="mcf", num_accesses=ACCESSES,
                warmup=0.3, seed=7,
            )
        ]
        pair, single = plan_batches(keys)
        assert isinstance(single, BatchTask)
        assert len(pair.jobs) == 2 and pair.digest().startswith("batch-")
        (job,) = single.jobs
        assert job.workload == "mcf"
        assert single.digest() == job.digest()
        assert single.display == job.display

    def test_batch_size_one_gives_a_task_per_job(self):
        keys = sweep_keys(3)
        items = plan_batches(keys, batch_size=1)
        assert [task.jobs for task in items] == [(key,) for key in keys]
        assert [task.digest() for task in items] == [
            key.digest() for key in keys
        ]

    def test_group_splits_on_trace_and_geometry(self):
        base = dict(num_accesses=ACCESSES, warmup=0.3, seed=7)
        same = JobKey(design=SWEEP[0], workload="soplex", **base)
        twin = JobKey(design=SWEEP[1], workload="soplex", **base)
        other_trace = JobKey(design=SWEEP[0], workload="mcf", **base)
        other_ways = JobKey(
            design=AccordDesign(kind="unbiased", ways=4),
            workload="soplex", **base,
        )
        other_epoch = JobKey(
            design=SWEEP[0], workload="soplex", epoch=500, **base
        )
        assert batch_group(same) == batch_group(twin)
        assert batch_group(same) != batch_group(other_trace)
        assert batch_group(same) != batch_group(other_ways)
        assert batch_group(same) != batch_group(other_epoch)


class TestBatchedEquivalence:
    """The acceptance property: batching changes wall-clock only."""

    @pytest.fixture(scope="class")
    def per_job(self):
        return reference_dicts(bench_keys())

    def test_all_bench_designs_bit_identical_serial(self, per_job):
        ex = Executor(jobs=1, batch=True)
        resolved = ex.run(bench_keys())
        assert {k: r.to_dict() for k, r in resolved.items()} == per_job
        assert ex.stats.batches >= 1

    def test_all_bench_designs_bit_identical_parallel(self, per_job):
        ex = Executor(jobs=2, batch=True, backoff=fast_backoff())
        resolved = ex.run(bench_keys())
        assert {k: r.to_dict() for k, r in resolved.items()} == per_job
        assert ex.stats.batches >= 1

    def test_no_batch_bit_identical(self, per_job):
        ex = Executor(jobs=1, batch=False)
        resolved = ex.run(bench_keys())
        assert {k: r.to_dict() for k, r in resolved.items()} == per_job
        assert ex.stats.batches == 0  # one-member tasks are not batches

    def test_phase_metrics_bit_identical(self):
        keys = sweep_keys(6, epoch=500)
        batched = Executor(jobs=1, batch=True).run(keys)
        for key in keys:
            solo = reference(key)
            assert batched[key].to_dict() == solo.to_dict()
            assert batched[key].phases.to_dict() == solo.phases.to_dict()

    def test_store_entries_byte_identical(self, tmp_path, per_job):
        from repro.exec import ResultStore

        batched_store = ResultStore(tmp_path / "batched")
        solo_store = ResultStore(tmp_path / "solo")
        keys = bench_keys()
        Executor(jobs=1, batch=True, store=batched_store).run(keys)
        for key in keys:
            solo_store.put(key, reference(key))
        for key in keys:
            a = batched_store.path_for(key)
            b = solo_store.path_for(key)
            assert a.read_bytes() == b.read_bytes()


class TestExecuteJob:
    """``execute_job`` is a one-member batch; it must still equal a plain
    :func:`run_design` of the key on every kind of engine."""

    @pytest.mark.parametrize("spec, engine, resolved", [
        (AccordDesign(kind="pws", ways=2), "auto", "vector"),
        (AccordDesign(kind="accord", ways=2), "auto", "replay"),
        (AccordDesign(kind="accord", ways=2), "loop", "loop"),
    ], ids=["pws:2-vector", "accord:2-replay", "accord:2-loop"])
    def test_matches_run_design(self, spec, engine, resolved):
        key = JobKey(
            design=spec, workload="soplex", num_accesses=ACCESSES,
            warmup=0.3, seed=7, engine=engine,
        )
        assert resolve_job_engine(key) == resolved
        assert execute_job(key).to_dict() == reference(key).to_dict()


class TestPlanMemoReuse:
    def test_one_plan_build_per_trace(self):
        from repro.sim.engines import vector

        keys = sweep_keys(12, workload="sphinx")
        Executor(jobs=1, batch=True).run(keys)  # warm the trace memo
        before = vector.plan_build_count()
        Executor(jobs=1, batch=True).run(keys)
        assert vector.plan_build_count() == before  # memo hit, zero builds

    def test_fused_pass_covers_the_batch(self):
        from repro.sim.engines import multi

        keys = sweep_keys(12)
        passes, configs = multi.fused_pass_count()
        Executor(jobs=1, batch=True).run(keys)
        after_passes, after_configs = multi.fused_pass_count()
        assert after_passes == passes + 1
        assert after_configs == configs + 12

    def test_one_split_per_task(self, monkeypatch):
        from repro.exec.batching import execute_batch
        from repro.exec.jobs import parse_design_spec
        from repro.sim.trace import Trace

        keys = tuple(
            JobKey(
                design=parse_design_spec(f"gws:2:replacement={policy}"),
                workload="soplex", num_accesses=ACCESSES, warmup=0.3, seed=7,
            )
            for policy in ("lru", "nru", "rrip")
        )
        assert {resolve_job_engine(key) for key in keys} == {"stream"}
        splits = []
        split_columns = Trace.split_columns

        def counting(trace, geometry):
            splits.append(geometry)
            return split_columns(trace, geometry)

        monkeypatch.setattr(Trace, "split_columns", counting)
        results = execute_batch(BatchTask(jobs=keys))
        assert len(splits) == 1
        for key, result in zip(keys, results):
            assert result.to_dict() == reference(key).to_dict()


class TestTraceTransport:
    def test_dispatching_process_builds_no_trace(
        self, tmp_path, monkeypatch
    ):
        """Workers build or read every trace; the parent only dispatches.

        The counter lives in this process: forked workers inherit the
        patched method but count into their own copies of the list.
        """
        from repro.workloads.synthetic import SyntheticWorkload

        traces = tmp_path / "traces"
        monkeypatch.setenv("REPRO_TRACE_DIR", str(traces))
        calls = []
        generate = SyntheticWorkload.generate

        def counting(self, *args, **kwargs):
            calls.append(self)
            return generate(self, *args, **kwargs)

        monkeypatch.setattr(SyntheticWorkload, "generate", counting)
        # A seed no other test uses: no factory memo here holds it.
        keys = [
            JobKey(
                design=design, workload="soplex", num_accesses=ACCESSES,
                warmup=0.3, seed=31,
            )
            for design in SWEEP[:4]
        ]
        ex = Executor(jobs=2, batch=True, backoff=fast_backoff())
        results = ex.run(keys)
        assert len(results) == ex.stats.executed == len(keys)
        assert ex.stats.batches == 1
        assert calls == []
        assert list(traces.glob("*/*.npz"))  # a worker built the trace


class TestProgressGranularity:
    def test_progress_counts_jobkeys_not_tasks(self):
        events = []
        keys = sweep_keys(12)
        ex = Executor(
            jobs=1, batch=True,
            progress=lambda done, total, key, source: events.append(
                (done, total, key, source)
            ),
        )
        ex.run(keys)
        assert len(events) == len(keys)
        assert [e[0] for e in events] == list(range(1, len(keys) + 1))
        assert all(e[1] == len(keys) for e in events)
        assert {e[2] for e in events} == set(keys)
        assert all(e[3] == "run" for e in events)


class TestResumeMidBatch:
    def test_crash_mid_batch_keeps_per_job_journal(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            FAULT_PLAN_ENV, f"crash=1;dir={tmp_path / 'ledger'}"
        )
        keys = sweep_keys(12)
        path = tmp_path / "sweep.journal.jsonl"
        journal = SweepJournal(path)
        journal.begin(keys)
        ex = Executor(
            jobs=2, batch=True, retries=3, journal=journal,
            backoff=fast_backoff(),
        )
        resolved = ex.run(keys)
        assert ex.stats.pool_breaks >= 1

        # The journal recorded every job individually; a resume replays
        # all of them and executes nothing.
        reloaded = SweepJournal(path)
        assert reloaded.load() == len(keys)
        resume = Executor(jobs=1, batch=True, journal=reloaded)
        replayed = resume.run(keys)
        assert resume.stats.resumed == len(keys)
        assert resume.stats.executed == 0
        assert {k: r.to_dict() for k, r in replayed.items()} == {
            k: r.to_dict() for k, r in resolved.items()
        }

    def test_interrupted_batched_sweep_resumes_the_rest(self, tmp_path):
        keys = sweep_keys(12)
        path = tmp_path / "sweep.journal.jsonl"
        first = SweepJournal(path)
        first.begin(keys)
        Executor(jobs=1, batch=True, journal=first).run(keys[:5])

        second = SweepJournal(path)
        assert second.load() == 5
        ex = Executor(jobs=1, batch=True, journal=second)
        resolved = ex.run(keys)
        assert ex.stats.resumed == 5
        assert ex.stats.executed == len(keys) - 5
        assert {
            k: r.to_dict() for k, r in resolved.items()
        } == reference_dicts(keys)
