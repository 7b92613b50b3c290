"""The persistent cross-process memo store (``repro.cache.store``)."""

from __future__ import annotations

import multiprocessing
import sqlite3

import numpy as np
import pytest

from repro.cache.store import (
    STORE_VERSION,
    MemoStore,
    active_memo_store,
    configure_memo_store,
)
from repro.errors import MemoStoreError


@pytest.fixture
def store(tmp_path) -> MemoStore:
    return MemoStore(tmp_path / "memo")


def _matrix(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 100, size=(4, 4)).astype(np.int64)
    return raw + raw.T


class TestRoundTrips:
    def test_cell_roundtrip(self, store):
        payload = {"key": "a|b", "seconds": 0.25, "hits": 3}
        assert store.get_cell("k1") is None
        store.put_cell("k1", payload)
        assert store.get_cell("k1") == payload

    def test_sharing_roundtrip(self, store):
        matrix = np.arange(9, dtype=np.int64).reshape(3, 3)
        matrix = matrix + matrix.T
        store.put_sharing("s1", ("a", "b", "c"), matrix)
        pids, loaded = store.get_sharing("s1")
        assert pids == ("a", "b", "c")
        assert np.array_equal(loaded, matrix)

    def test_put_is_idempotent_first_writer_wins(self, store):
        store.put_cell("k", {"v": 1})
        store.put_cell("k", {"v": 2})  # INSERT OR IGNORE: no overwrite
        assert store.get_cell("k") == {"v": 1}

    def test_stats_and_clear(self, store):
        store.put_sharing("s", ("a", "b", "c", "d"), _matrix())
        store.put_cell("c", {"v": 1})
        stats = store.stats()
        assert stats["entries"] == {"cell": 1, "sharing": 1}
        assert stats["version"] == STORE_VERSION
        store.clear()
        assert store.counts() == {}


def _writer(root: str, seed: int, barrier) -> None:
    store = MemoStore(root)
    matrix = _matrix(0)  # every writer computes the same content
    barrier.wait()  # maximize overlap between the racing writers
    for _ in range(50):
        store.put_sharing("shared-matrix", ("a", "b", "c", "d"), matrix)
        store.put_cell("shared-cell", {"writer": seed})


class TestConcurrency:
    def test_two_writers_same_fingerprint(self, tmp_path):
        """Two processes racing identical keys: no errors, one row."""
        root = str(tmp_path / "memo")
        barrier = multiprocessing.Barrier(2)
        workers = [
            multiprocessing.Process(target=_writer, args=(root, seed, barrier))
            for seed in (1, 2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        store = MemoStore(root)
        assert store.counts() == {"cell": 1, "sharing": 1}
        pids, loaded = store.get_sharing("shared-matrix")
        assert pids == ("a", "b", "c", "d")
        assert np.array_equal(loaded, _matrix(0))
        # One of two identical-key writers won; either value is valid.
        assert store.get_cell("shared-cell")["writer"] in (1, 2)


class TestModesAndVersioning:
    def test_read_only_missing_store_reads_empty(self, tmp_path):
        store = MemoStore(tmp_path / "nope", mode="ro")
        assert store.get_cell("k") is None
        assert store.counts() == {}

    def test_read_only_never_writes(self, tmp_path):
        rw = MemoStore(tmp_path / "memo")
        rw.put_cell("k", {"v": 1})
        ro = MemoStore(tmp_path / "memo", mode="ro")
        ro.put_cell("k2", {"v": 2})  # silently ignored
        assert ro.get_cell("k") == {"v": 1}
        assert rw.get_cell("k2") is None
        with pytest.raises(MemoStoreError):
            ro.clear()

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(MemoStoreError):
            MemoStore(tmp_path, mode="append")

    def test_version_mismatch_drops_store(self, tmp_path):
        root = tmp_path / "memo"
        first = MemoStore(root)
        first.put_cell("k", {"v": 1})
        first.close()
        with sqlite3.connect(root / "memo.sqlite") as conn:
            conn.execute("UPDATE meta SET value='ancient' WHERE key='version'")
            conn.commit()
        reopened = MemoStore(root)
        assert reopened.get_cell("k") is None  # dropped, not trusted
        assert reopened.stats()["version"] == STORE_VERSION

    def test_version_mismatch_read_only_reads_empty(self, tmp_path):
        root = tmp_path / "memo"
        first = MemoStore(root)
        first.put_cell("k", {"v": 1})
        first.close()
        with sqlite3.connect(root / "memo.sqlite") as conn:
            conn.execute("UPDATE meta SET value='ancient' WHERE key='version'")
            conn.commit()
        ro = MemoStore(root, mode="ro")
        assert ro.get_cell("k") is None

    def test_v2_store_holding_analyses_is_rebuilt(self, tmp_path):
        """A store written before whole traces ran on the compiled kernel
        (version v2, with persisted trace analyses) is dropped on a
        read-write attach and rebuilt empty at the current version."""
        root = tmp_path / "memo"
        first = MemoStore(root)
        first.put_cell("k", {"v": 1})
        first.close()
        with sqlite3.connect(root / "memo.sqlite") as conn:
            conn.execute("UPDATE meta SET value='v2' WHERE key='version'")
            conn.execute(
                "INSERT INTO memo VALUES ('analysis', '16/2/00', x'00')"
            )
            conn.commit()
        assert MemoStore(root, mode="ro").counts() == {}  # ignored, not read
        reopened = MemoStore(root)
        assert reopened.counts() == {}
        assert reopened.get_cell("k") is None
        assert reopened.stats()["version"] == STORE_VERSION == "v3"
        reopened.put_cell("k", {"v": 2})
        assert reopened.counts() == {"cell": 1}

    def test_corrupt_sharing_row_reads_as_miss(self, store):
        store._put("sharing", "s", b"not a pickle")
        assert store.get_sharing("s") is None


class TestProcessWideActivation:
    def test_configure_and_deactivate(self, tmp_path):
        previous = active_memo_store()
        try:
            installed = configure_memo_store(tmp_path / "memo")
            assert active_memo_store() is installed
            assert configure_memo_store(None) is None
            assert active_memo_store() is None
        finally:
            configure_memo_store(
                previous.root if previous is not None else None
            )

    def test_sharing_matrix_comes_from_store(self, tmp_path, monkeypatch):
        """A fresh process reads a campaign workload's sharing matrix
        back from the persistent store instead of recomputing it."""
        import weakref

        import repro.sharing.matrix as matrix_module
        from repro.campaign.spec import build_campaign_workload

        previous = active_memo_store()
        try:
            configure_memo_store(tmp_path / "memo")
            epg = build_campaign_workload("mix:2", scale=0.25, seed=0)
            # An empty in-process memo stands in for a fresh process.
            monkeypatch.setattr(
                matrix_module, "_MATRIX_CACHE", weakref.WeakKeyDictionary()
            )
            first = matrix_module.sharing_matrix_for(epg)
            assert active_memo_store().counts().get("sharing", 0) >= 1
            monkeypatch.setattr(
                matrix_module, "_MATRIX_CACHE", weakref.WeakKeyDictionary()
            )

            def boom(*args, **kwargs):
                raise AssertionError("the matrix should come from the store")

            monkeypatch.setattr(matrix_module, "compute_sharing_matrix", boom)
            second = matrix_module.sharing_matrix_for(epg)
            assert second.pids == first.pids
            assert np.array_equal(second.matrix, first.matrix)
        finally:
            configure_memo_store(
                previous.root if previous is not None else None
            )


class TestExecutorCellPersistence:
    def test_seed_invariant_cell_loads_from_store(self, tmp_path):
        from repro.campaign.executor import clear_cell_memo, execute_run
        from repro.campaign.spec import MachineVariant, RunSpec, SchedulerSpec

        previous = active_memo_store()
        try:
            configure_memo_store(tmp_path / "memo")
            run = RunSpec(
                workload="MxM",
                machine=MachineVariant(),
                scheduler=SchedulerSpec("LS"),
                seed=0,
                scale=0.25,
            )
            clear_cell_memo()
            first = execute_run(run)
            assert active_memo_store().counts().get("cell", 0) >= 1
            clear_cell_memo()  # a "new process"
            import repro.experiments.runner as runner_module

            original = runner_module.run_comparison

            def boom(*args, **kwargs):
                raise AssertionError("cell should come from the store")

            runner_module.run_comparison = boom
            try:
                second = execute_run(run)
            finally:
                runner_module.run_comparison = original
            assert second.to_dict() == first.to_dict()
            # A different seed of the same deterministic cell re-badges
            # the persisted simulation.
            clear_cell_memo()
            third = execute_run(
                RunSpec(
                    workload="MxM",
                    machine=run.machine,
                    scheduler=SchedulerSpec("LS"),
                    seed=9,
                    scale=0.25,
                )
            )
            assert third.seed == 9
            assert third.makespan_cycles == first.makespan_cycles
        finally:
            clear_cell_memo()
            configure_memo_store(
                previous.root if previous is not None else None
            )


class TestPluginPersistenceRestriction:
    def test_plugin_scheduler_cells_never_persist(self, tmp_path):
        """Plugin code can change between sessions without changing its
        registered name, so nothing derived from it may enter the store."""
        from repro.api.registries import SCHEDULERS
        from repro.campaign.executor import clear_cell_memo, execute_run
        from repro.campaign.spec import MachineVariant, RunSpec, SchedulerSpec
        from repro.sched.locality import LocalityScheduler

        previous = active_memo_store()
        SCHEDULERS.register(
            "store-test-ls",
            lambda seed, **params: LocalityScheduler(),
            description="persistence restriction test",
        )
        try:
            configure_memo_store(tmp_path / "memo")
            clear_cell_memo()
            execute_run(
                RunSpec(
                    workload="MxM",
                    machine=MachineVariant(),
                    scheduler=SchedulerSpec("store-test-ls"),
                    seed=0,
                    scale=0.25,
                )
            )
            assert active_memo_store().counts().get("cell", 0) == 0
        finally:
            clear_cell_memo()
            SCHEDULERS.unregister("store-test-ls")
            configure_memo_store(
                previous.root if previous is not None else None
            )


class TestMemoCli:
    def test_stats_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        store = MemoStore(tmp_path / "memo")
        store.put_cell("k", {"v": 1})
        store.close()
        assert main(["memo", "stats", "--memo-dir", str(tmp_path / "memo")]) == 0
        out = capsys.readouterr().out
        assert "seed-invariant cells: 1" in out
        assert main(["memo", "clear", "--memo-dir", str(tmp_path / "memo")]) == 0
        assert main(["memo", "stats", "--memo-dir", str(tmp_path / "memo")]) == 0
        out = capsys.readouterr().out
        assert "seed-invariant cells: 0" in out
