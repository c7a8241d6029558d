"""Checkpoint serialization: round trips, byte stability, tolerant loads,
the sectioned payload codec and atomic publication."""

import copy
import gzip
import json
import os
import struct
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.btb.entry import KINDS
from repro.core.config import ZEC12_CONFIG_2
from repro.engine.simulator import Simulator
from repro.sampling import CheckpointStore, checkpoint, load_state, save_state
from repro.sampling.checkpoint import SECTION_KEY, decode_state, encode_state
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

#: Where the PHT, CTB and surprise BHT keep their v3 columns (``key``),
#: and the value columns that v2 wrote after the index in each row.
V2_TABLE_COLUMNS = {("hierarchy", "pht"): ("table", ("tag", "counter")),
                    ("hierarchy", "ctb"): ("table", ("tag", "target")),
                    ("hierarchy", "surprise_bht"): ("bits", ("bit",))}


def _btb_tables(state):
    return (state["hierarchy"]["btb1"], state["hierarchy"]["btbp"],
            state["btb2"])


def _as_v2(state):
    """``state`` laid out as schema v2 wrote it: positional entry rows."""
    old = copy.deepcopy(state)
    old["version"] = 2
    for table in _btb_tables(old):
        rows = iter(zip(*table.pop("entries").values()))
        table["rows"] = [
            [index, [list(next(rows)) for _ in range(count)]]
            for index, count in zip(table["rows"], table.pop("ways"))]
    for (parent, name), (key, values) in V2_TABLE_COLUMNS.items():
        columns = old[parent][name][key]
        old[parent][name][key] = [
            list(row) for row in zip(columns["index"],
                                     *(columns[value] for value in values))]
    return old


def _as_v1(state):
    """``state`` laid out as schema v1 wrote it: keyed-object entries."""
    old = _as_v2(state)
    old["version"] = 1
    for table in _btb_tables(old):
        table["rows"] = [
            [index, [dict(zip(V1_ENTRY_KEYS, row)) for row in ways]]
            for index, ways in table["rows"]
        ]
    return old


def test_schema_v1_state_is_refused_with_the_version_message():
    v1 = _as_v1(_warmed_state())
    assert v1["hierarchy"]["btb1"]["rows"] and v1["btb2"]["rows"]
    with pytest.raises(ValueError,
                       match=r"schema version 1 != supported 3"):
        Simulator(config=ZEC12_CONFIG_2).load_state_dict(v1)


def test_a_v2_store_decodes_and_is_refused_then_recomputed(tmp_path):
    """A schema v2 file (plain gzip JSON) is ``refused``, never ``skipped``.

    v2 wrote compact JSON with no section marker, so its payload decodes
    as a header without sections; the model then refuses it by its
    version, and the caller recomputes the state.
    """
    from repro.telemetry.metrics import REGISTRY

    store = CheckpointStore(tmp_path)
    sim = Simulator(config=ZEC12_CONFIG_2)
    identity = ("trace", ("plan",), 0)
    state = _warmed_state()
    v2 = _as_v2(state)
    assert v2["hierarchy"]["btb1"]["rows"][0][1][0][2] in KINDS
    path = store.path_for(sim.model_fingerprint(), *identity)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(gzip.compress(
        json.dumps(v2, separators=(",", ":")).encode(), mtime=0))
    assert load_state(path) == v2
    refused = REGISTRY.counter("repro_checkpoint_store_total", "",
                               ("result",))
    before = refused.value(result="refused")
    assert store.restore(sim, *identity) is None
    assert refused.value(result="refused") == before + 1
    assert store.skipped == [
        (path, "ValueError: checkpoint schema version 2 != supported 3")]
    # Recomputed: the fresh state saves over the stale file and restores.
    store.save(sim.model_fingerprint(), *identity, state)
    assert store.restore(sim, *identity) == state


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
        (path, "ValueError: checkpoint schema version 99 != supported 3")]


@pytest.mark.parametrize("table, column, value", [
    (("hierarchy", "btb1", "entries"), "target", 0),
    (("hierarchy", "btbp", "entries"), "address", 0),
    (("hierarchy", "pht", "table"), "tag", 0),
    (("hierarchy", "ctb", "table"), "target", 0),
    (("hierarchy", "surprise_bht", "bits"), "bit", True),
    (("btb2", "entries"), "kind", "COND"),
], ids=["btb1", "btbp", "pht", "ctb", "surprise-bht", "btb2"])
def test_a_state_whose_columns_disagree_is_refused_untouched(
        tmp_path, table, column, value):
    """A column one value too long is refused before anything is loaded.

    The checks run before the first assignment, so the refused restore
    leaves the simulator exactly as it was, and the caller recomputes from
    there.
    """
    store = CheckpointStore(tmp_path)
    sim = Simulator(config=ZEC12_CONFIG_2)
    sim.warm_run(iter(workload_by_name("TPF").trace(scale=0.02)))
    before = sim.state_dict()
    damaged = _warmed_state()
    columns = damaged
    for key in table:
        columns = columns[key]
    columns[column].append(value)
    identity = ("trace", ("plan",), 0)
    path = store.save(sim.model_fingerprint(), *identity, damaged)
    assert store.restore(sim, *identity) is None
    assert [skipped for skipped, _ in store.skipped] == [path]
    assert sim.state_dict() == before


def _three_item_warm_block(state):
    state["warm_blocks"].append([0x10000, 1, 1])


def _unknown_btb_kind(state):
    state["hierarchy"]["btb1"]["entries"]["kind"][0] = "NOT_A_KIND"


def _pht_slot(index):
    def tamper(state):
        table = state["hierarchy"]["pht"]["table"]
        table["index"].append(index)
        table["tag"].append(1)
        table["counter"].append(1)
    return tamper


def _surprise_bht_slot(index):
    def tamper(state):
        bits = state["hierarchy"]["surprise_bht"]["bits"]
        bits["index"].append(index)
        bits["bit"].append(True)
    return tamper


@pytest.mark.parametrize("tamper", [
    _three_item_warm_block,
    _unknown_btb_kind,
    _pht_slot(ZEC12_CONFIG_2.pht_entries),
    _pht_slot(-1),
    _surprise_bht_slot(-3),
], ids=["warm-block-triple", "unknown-kind", "pht-past-end", "pht-negative",
        "surprise-bht-negative"])
def test_a_malformed_state_is_refused_untouched(tmp_path, tamper):
    """Content no restore can reproduce is refused before anything loads.

    Each state passes the version, fingerprint and column-length checks,
    so only the simulator's own field reads and the tables' kind and index
    checks stand between it and a half-restored (or silently different)
    simulator.
    """
    from repro.telemetry.metrics import REGISTRY

    def refused():
        metric = REGISTRY.get("repro_checkpoint_store_total")
        return metric.value(result="refused") if metric else 0.0

    store = CheckpointStore(tmp_path)
    sim = Simulator(config=ZEC12_CONFIG_2)
    sim.warm_run(iter(workload_by_name("TPF").trace(scale=0.02)))
    before = sim.state_dict()
    damaged = _warmed_state()
    tamper(damaged)
    identity = ("trace", ("plan",), 0)
    path = store.save(sim.model_fingerprint(), *identity, damaged)
    count = refused()
    assert store.restore(sim, *identity) is None
    assert refused() - count == 1
    assert [skipped for skipped, _ in store.skipped] == [path]
    assert sim.state_dict() == before


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


# -- the payload codec --------------------------------------------------------

#: JSON scalars, with ints on both sides of every section bound.
JSON_SCALARS = (st.none() | st.booleans() | st.text(max_size=6)
                | st.floats(allow_nan=False)
                | st.integers(-2**64, 2**65)
                | st.sampled_from((-2**63, 2**63 - 1, 2**63, 2**64 - 1,
                                   2**64)))

#: Int lists around :data:`SECTION_MIN`, some that fit a section and some
#: that do not (a bool, a value past 64 bits, signs and widths mixed).
INT_LISTS = st.one_of(
    st.lists(st.integers(-2**63, 2**63 - 1), min_size=60, max_size=70),
    st.lists(st.integers(0, 2**64 - 1), min_size=60, max_size=70),
    st.lists(st.integers(-2**64, 2**65) | st.booleans(), min_size=60,
             max_size=70),
)

JSON_KEYS = st.text(max_size=6) | st.sampled_from(("#section", "items"))


def json_containers(children):
    """Lists and objects of ``children``."""
    return (st.lists(children, max_size=4)
            | st.dictionaries(JSON_KEYS, children, max_size=4))


JSON_TREES = st.recursive(JSON_SCALARS | INT_LISTS, json_containers,
                          max_leaves=12)


def typed(tree):
    """``tree`` with every scalar tagged by its type, dicts in key order."""
    if isinstance(tree, dict):
        return ["dict", [(key, typed(value)) for key, value in tree.items()]]
    if isinstance(tree, list):
        return ["list", [typed(value) for value in tree]]
    return [type(tree).__name__, repr(tree)]


class TestCodec:
    @given(st.dictionaries(JSON_KEYS, JSON_TREES, max_size=5))
    def test_json_trees_come_back_exactly(self, state):
        assert typed(decode_state(encode_state(state))) == typed(state)

    @pytest.mark.parametrize("values, typecode", [
        (list(range(63)), None),
        (list(range(64)), "q"),
        ([True, False] * 32, None),
        (list(range(63)) + [True], None),
        (list(range(-64, 0)), "q"),
        ([2**63 + n for n in range(64)], "Q"),
        ([2**64 - 1] * 64, "Q"),
        (list(range(63)) + [2**64], None),
        ([-1] * 32 + [2**63] * 32, None),
    ], ids=["63-ints", "64-ints", "bools", "one-bool", "negative",
            "past-2^63", "2^64-1", "past-2^64", "both-signs-wide"])
    def test_which_int_lists_become_sections(self, values, typecode):
        state = {"values": values, "tail": "x"}
        payload = encode_state(state)
        header, newline, body = payload.partition(b"\n")
        if typecode is None:
            assert not newline
            assert payload == json.dumps(state, separators=(",", ":")).encode()
        else:
            marker = {SECTION_KEY: [typecode, len(values)]}
            assert json.loads(header) == {"values": marker, "tail": "x"}
            assert body == struct.pack(f"<{len(values)}{typecode}", *values)
        assert typed(decode_state(payload)) == typed(state)

    def test_objects_with_the_marker_key_are_escaped(self):
        state = {"real": {SECTION_KEY: ["q", 64]}, "long": list(range(64)),
                 "escape": {SECTION_KEY: None, "items": [["a", 1]]}}
        payload = encode_state(state)
        assert b"\n" in payload
        assert decode_state(payload) == state

    def test_the_state_is_not_mutated(self):
        state = {"a": [list(range(70))], "b": {"c": list(range(80))}}
        before = copy.deepcopy(state)
        encode_state(state)
        assert state == before

    def test_a_warmed_state_is_mostly_sections(self):
        payload = encode_state(_warmed_state())
        header, newline, body = payload.partition(b"\n")
        assert newline and len(body) > len(header)

    def test_the_byte_swap_path_is_what_a_big_endian_host_runs(
            self, monkeypatch):
        """Sections are little-endian on any host.

        Forcing the swap on this host reverses every word the host would
        write natively, and the reader reverses it back: on a big-endian
        host that same path turns native words into little-endian ones.
        """
        values = [-2**63, -1, 0, 1, 2**62 + 3] + list(range(59))
        state = {"values": values, "wide": [2**64 - 1] * 64}
        native = encode_state(state).partition(b"\n")[2]
        assert native == (struct.pack(f"<{len(values)}q", *values)
                          + struct.pack("<64Q", *[2**64 - 1] * 64))
        monkeypatch.setattr(checkpoint, "_SWAP", not checkpoint._SWAP)
        swapped = encode_state(state).partition(b"\n")[2]
        words = [native[at:at + 8] for at in range(0, len(native), 8)]
        assert swapped == b"".join(word[::-1] for word in words)
        assert decode_state(encode_state(state)) == state


#: A valid header with one 64-value section, and its section.
GOOD_HEADER = b'{"a":{"#section":["q",64]}}'
GOOD_SECTION = struct.pack("<64q", *range(64))


class TestMalformedPayloads:
    @pytest.mark.parametrize("payload", [
        b'{"a":{"#section":["d",64]}}\n' + GOOD_SECTION,
        GOOD_HEADER + b"\n" + GOOD_SECTION[:-8],
        GOOD_HEADER + b"\n" + GOOD_SECTION + struct.pack("<q", 64),
        GOOD_HEADER + b"\n",
        GOOD_HEADER + b"\n" + GOOD_SECTION + b"\0",
        b'{"a":{"#section":["q",64.0]}}\n' + GOOD_SECTION,
        b'{"a":{"#section":["q","64"]}}\n' + GOOD_SECTION,
        b'{"a":{"#section":["q",true]}}\n' + GOOD_SECTION,
        b'{"a":{"#section":["q",-1]}}\n' + GOOD_SECTION,
        b'{"a":{"#section":["q"]}}\n' + GOOD_SECTION,
        b'{"a":{"#section":["q",64],"b":1}}\n' + GOOD_SECTION,
        b'{"a":{"#section":null,"items":[[1,2]]}}\n',
        b'{"a":{"#section":null,"items":5}}\n',
        b'[{"#section":["q",64]}]\n' + GOOD_SECTION,
        b"[1,2,3]",
        b'{"a":1}\n' + GOOD_SECTION,
        b'{"a":\xff}\n' + GOOD_SECTION,
    ], ids=["unknown-typecode", "short-section", "long-section",
            "missing-section", "trailing-bytes", "float-count",
            "string-count", "bool-count", "negative-count", "no-count",
            "extra-marker-key", "escaped-int-key", "escaped-non-list",
            "list-header", "plain-list", "sections-without-markers",
            "bad-utf8"])
    def test_is_a_value_error_and_a_skipped_store_entry(self, payload,
                                                        tmp_path):
        with pytest.raises(ValueError):
            decode_state(payload)
        store = CheckpointStore(tmp_path)
        identity = ("m", "t", ("p",), 0)
        path = store.path_for(*identity)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(gzip.compress(payload))
        assert store.load(*identity) is None
        assert [skipped for skipped, _ in store.skipped] == [path]

    def test_the_good_payload_decodes(self):
        assert decode_state(GOOD_HEADER + b"\n" + GOOD_SECTION) == {
            "a": list(range(64))}


# -- atomic publication -------------------------------------------------------


def test_two_threads_saving_one_path_both_publish(tmp_path, monkeypatch):
    """Two threads that write and then rename one checkpoint both succeed.

    A barrier holds each writer between its write and its rename, so both
    scratch files exist at once: a scratch name shared by the two threads
    (one per process) would let the first rename move the second writer's
    file and the second rename fail with ``FileNotFoundError``.
    """
    path = tmp_path / "ckpt-race.json.gz"
    both_written = threading.Barrier(2, timeout=30)
    real_replace = os.replace

    def replace_after_both_wrote(source, target):
        both_written.wait()
        real_replace(source, target)

    monkeypatch.setattr(os, "replace", replace_after_both_wrote)
    states = [{"writer": writer, "payload": list(range(200))}
              for writer in ("a", "b")]
    errors = []

    def save(state):
        try:
            save_state(path, state)
        except Exception as problem:  # reported below, not lost in a thread
            errors.append(problem)

    threads = [threading.Thread(target=save, args=(state,))
               for state in states]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert load_state(path) in states
    assert [entry.name for entry in tmp_path.iterdir()] == [path.name]
