"""Checkpoint serialization: round trips, byte stability, tolerant loads."""

import copy

import pytest

from repro.core.config import ZEC12_CONFIG_2
from repro.engine.simulator import Simulator
from repro.sampling import CheckpointStore, load_state, save_state
from repro.workloads.catalog import workload_by_name


def _warmed_state():
    trace = workload_by_name("Informix").trace(scale=0.05)
    sim = Simulator(config=ZEC12_CONFIG_2)
    sim.warm_run(iter(trace))
    return sim.state_dict()


def test_save_load_round_trip(tmp_path):
    state = _warmed_state()
    path = tmp_path / "state.json.gz"
    save_state(path, state)
    assert load_state(path) == state


def test_saves_are_byte_stable(tmp_path):
    state = _warmed_state()
    save_state(tmp_path / "a.gz", state)
    save_state(tmp_path / "b.gz", state)
    assert (tmp_path / "a.gz").read_bytes() == (tmp_path / "b.gz").read_bytes()


#: Keys of a BTB entry in schema v1, which stored entries as objects.
V1_ENTRY_KEYS = ("address", "target", "kind", "counter", "use_pht",
                 "use_ctb", "ctb_confidence", "bimodal_misses",
                 "target_misses")


def _as_v1(state):
    """``state`` laid out as schema v1 wrote it: keyed-object entries."""
    old = copy.deepcopy(state)
    old["version"] = 1
    for table in (old["hierarchy"]["btb1"], old["hierarchy"]["btbp"],
                  old["btb2"]):
        table["rows"] = [
            [index, [dict(zip(V1_ENTRY_KEYS, row)) for row in ways]]
            for index, ways in table["rows"]
        ]
    return old


def test_schema_v1_state_is_refused_with_the_version_message():
    v1 = _as_v1(_warmed_state())
    assert v1["hierarchy"]["btb1"]["rows"] and v1["btb2"]["rows"]
    with pytest.raises(ValueError,
                       match=r"schema version 1 != supported 2"):
        Simulator(config=ZEC12_CONFIG_2).load_state_dict(v1)


def test_store_keys_on_full_provenance(tmp_path):
    store = CheckpointStore(tmp_path)
    identities = [
        ("model-a", "trace-a", ("stratified", 1), 0),
        ("model-b", "trace-a", ("stratified", 1), 0),
        ("model-a", "trace-b", ("stratified", 1), 0),
        ("model-a", "trace-a", ("stratified", 2), 0),
        ("model-a", "trace-a", ("stratified", 1), 1),
    ]
    paths = {store.path_for(*identity) for identity in identities}
    assert len(paths) == len(identities)


def test_store_load_is_tolerant(tmp_path):
    store = CheckpointStore(tmp_path)
    identity = ("model", "trace", ("plan",), 0)
    # Absent -> None, not an error.
    assert store.load(*identity) is None
    # Corrupt bytes on disk -> None (recompute), never a crash.
    store.path_for(*identity).parent.mkdir(parents=True, exist_ok=True)
    store.path_for(*identity).write_bytes(b"not gzip at all")
    assert store.load(*identity) is None


def test_restore_counts_a_hit_only_once_the_model_accepts(tmp_path):
    """``restore`` loads into the simulator, and only an accepted state is a
    hit; a refused one is ``refused`` and a skip-ledger entry."""
    from repro.telemetry.metrics import REGISTRY

    def counts():
        metric = REGISTRY.get("repro_checkpoint_store_total")
        return [metric.value(result=result) if metric else 0.0
                for result in ("hit", "refused", "miss")]

    store = CheckpointStore(tmp_path)
    sim = Simulator(config=ZEC12_CONFIG_2)
    identity = ("trace", ("plan",), 0)
    state = _warmed_state()
    path = store.save(sim.model_fingerprint(), *identity, state)
    before = counts()
    assert store.restore(sim, *identity) == state
    assert sim.state_dict() == state
    assert store.restore(sim, "other-trace", ("plan",), 0) is None
    stale = dict(state, version=99)
    save_state(path, stale)
    fresh = Simulator(config=ZEC12_CONFIG_2)
    assert store.restore(fresh, *identity) is None
    assert fresh.state_dict() == Simulator(config=ZEC12_CONFIG_2).state_dict()
    assert [now - then for now, then in zip(counts(), before)] == [1, 1, 1]
    assert store.skipped == [
        (path, "ValueError: checkpoint schema version 99 != supported 2")]


def test_store_save_load_entries_clear(tmp_path):
    store = CheckpointStore(tmp_path)
    state = {"version": 1, "payload": [1, 2, 3]}
    store.save("m", "t", ("p",), 0, state)
    store.save("m", "t", ("p",), 1, state)
    assert store.load("m", "t", ("p",), 0) == state
    assert store.load("m", "t", ("p",), 1) == state
    assert len(store.entries()) == 2
    assert store.clear() == 2
    assert store.entries() == []


def test_crash_mid_write_checkpoint_is_skipped_and_reported(tmp_path):
    """A gzip stream cut mid-member must degrade to a recompute.

    Truncation reproduces a crash (or copy) that bypassed the atomic
    rename: gzip raises ``EOFError``/``zlib.error`` there, which escaped
    the original ``(OSError, ValueError)`` tolerance net and crashed the
    loading run instead of recomputing.
    """
    store = CheckpointStore(tmp_path)
    state = _warmed_state()
    identity = ("m", "t", ("p",), 0)
    path = store.save(*identity, state)
    intact = path.read_bytes()
    assert store.load(*identity) == state
    # Cut the member mid-stream: valid gzip magic, truncated payload.
    path.write_bytes(intact[: len(intact) // 2])
    assert store.load(*identity) is None
    # Skip-and-report: the degradation is visible, not silent.
    assert len(store.skipped) == 1
    skipped_path, reason = store.skipped[0]
    assert skipped_path == path
    assert reason  # names the exception


def test_truncated_tail_checkpoint_is_skipped(tmp_path):
    """Losing only the gzip trailer (last few bytes) is also tolerated."""
    store = CheckpointStore(tmp_path)
    identity = ("m", "t", ("p",), 1)
    path = store.save(*identity, _warmed_state())
    intact = path.read_bytes()
    path.write_bytes(intact[:-4])  # drop the ISIZE trailer
    assert store.load(*identity) is None
    assert store.skipped


def test_checkpoint_holding_non_object_json_is_rejected(tmp_path):
    """Bytes that gunzip and parse but aren't a state dict are garbage."""
    import gzip
    import json

    store = CheckpointStore(tmp_path)
    identity = ("m", "t", ("p",), 2)
    path = store.path_for(*identity)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(gzip.compress(json.dumps([1, 2, 3]).encode()))
    assert store.load(*identity) is None
    assert store.skipped


def test_entries_and_clear_tolerate_missing_directory():
    store = CheckpointStore("/nonexistent/definitely/missing")
    assert store.entries() == []
    assert store.clear() == 0


def test_clear_tolerates_losing_the_unlink_race(tmp_path, monkeypatch):
    """A concurrent deleter removing files mid-clear is not an error."""
    store = CheckpointStore(tmp_path)
    for index in range(3):
        store.save("m", "t", ("p",), index, {"version": 1})
    paths = store.entries()
    assert len(paths) == 3
    # Simulate the race: another process already unlinked one entry
    # between the listing and our unlink.
    original_entries = CheckpointStore.entries

    def racing_entries(self):
        listed = original_entries(self)
        listed[1].unlink()  # the "other process"
        return listed

    monkeypatch.setattr(CheckpointStore, "entries", racing_entries)
    assert store.clear() == 2  # counts only what *this* call removed
    monkeypatch.undo()
    assert store.entries() == []


class TestPrune:
    """``prune(max_entries)``: bounding long-lived stores."""

    def _aged_store(self, tmp_path):
        """A store with entries whose mtimes step 100s apart."""
        store = CheckpointStore(tmp_path)
        import os

        for index in range(5):
            path = store.save("m", "t", ("p",), index, {"version": 1})
            os.utime(path, (1000.0 + index * 100, 1000.0 + index * 100))
        return store

    def test_noop_without_limits(self, tmp_path):
        store = self._aged_store(tmp_path)
        assert store.prune() == 0
        assert len(store.entries()) == 5

    def test_max_entries_keeps_the_newest(self, tmp_path):
        import os

        store = self._aged_store(tmp_path)
        assert store.prune(max_entries=2) == 3
        survivors = sorted(os.path.getmtime(p) for p in store.entries())
        assert survivors == [1300.0, 1400.0]

    def test_negative_limits_are_rejected(self, tmp_path):
        import pytest

        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            store.prune(max_entries=-1)

    def test_prune_tolerates_the_unlink_race(self, tmp_path, monkeypatch):
        """A file vanishing between listing and unlink is not counted."""
        store = self._aged_store(tmp_path)
        original_entries = CheckpointStore.entries

        def racing_entries(self):
            listed = original_entries(self)
            listed[0].unlink()  # the "other process" wins the oldest
            return listed

        monkeypatch.setattr(CheckpointStore, "entries", racing_entries)
        assert store.prune(max_entries=0) == 4
        monkeypatch.undo()
        assert store.entries() == []


def _racing_writer(args):
    """Worker: hammer one store key with saves tagged by writer id."""
    directory, writer, rounds = args
    store = CheckpointStore(directory)
    identity = ("m", "race", ("p",), 0)
    for round_index in range(rounds):
        store.save(*identity, {"version": 1, "writer": writer,
                               "round": round_index,
                               "payload": list(range(200))})
    return store.load(*identity)


def test_concurrent_writers_racing_one_key(tmp_path):
    """Two processes hammering the same key never corrupt the entry.

    The atomic ``os.replace`` protocol means every read observes some
    writer's *complete* state — a torn or interleaved file would either
    fail to gunzip (load -> ``None``) or decode to a mixed payload,
    and both are asserted against here.
    """
    import multiprocessing

    rounds = 25
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        finals = pool.map(
            _racing_writer,
            [(str(tmp_path), "a", rounds), (str(tmp_path), "b", rounds)])
    store = CheckpointStore(tmp_path)
    state = store.load("m", "race", ("p",), 0)
    for observed in [*finals, state]:
        assert observed is not None, "a read saw a torn checkpoint"
        assert observed["version"] == 1
        assert observed["writer"] in ("a", "b")
        assert observed["payload"] == list(range(200))
    assert store.skipped == []
    assert len(store.entries()) == 1
