"""Per-layer tracing: wrappers patched around each layer's public functions.

A layer is a ``repro`` module (or a group of them).  :func:`install`
replaces the listed class attributes and module globals with wrappers that
record, per layer, the call count, the busy time (outermost calls only)
and the self time: a span's duration minus the time its child spans
cover.  Every thread keeps its own span stack and totals, so the daemon's
worker threads never share a counter; :meth:`Recorder.totals` merges them.

A root span (:meth:`Recorder.span`) marks one op.  Its self time is the
part of the op no layer claimed, so layer self times plus that remainder
add up to the op's duration by construction; :func:`per_op` reports both.

Nothing here changes program behaviour: each wrapper calls the original
and returns its result.  Only the benchmark installs them, and only in a
traced run.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time

_perf = time.perf_counter

#: (module, class or None, attribute names, layer).  Checkpoint
#: ``state_dict``/``load_state_dict`` methods of the structures are left
#: unwrapped on purpose: their cost belongs to the checkpoint layer.
LAYERS: tuple[tuple[str, str | None, tuple[str, ...], str], ...] = (
    ("repro.experiments", None, ("run_workload",), "experiments"),
    ("repro.sampling", None, ("run_sampled",), "sampling"),
    ("repro.workloads.catalog", None, ("load_trace",), "trace.decode"),
    ("repro.engine.simulator", "Simulator", ("run", "finish"), "engine.run"),
    ("repro.engine.simulator", "Simulator", ("step",), "engine.step"),
    ("repro.engine.simulator", "Simulator", ("warm_step",), "engine.warm"),
    ("repro.sampling.checkpoint", None, ("load_state",), "sampling.ckpt_load"),
    ("repro.engine.simulator", "Simulator", ("state_dict",),
     "sampling.state_dict"),
    ("repro.engine.simulator", "Simulator", ("load_state_dict",),
     "sampling.load_state_dict"),
    ("repro.core.search", "LookaheadSearch",
     ("restart", "run_ahead"), "core.search"),
    ("repro.core.hierarchy", "FirstLevelPredictor",
     ("hits_in_row", "first_hit_in_row", "resolve_content", "use_prediction",
      "surprise_install", "software_preload", "preload_write", "train",
      "record_resolved_branch", "probe_level"), "btb"),
    ("repro.btb.storage", "BranchTargetBuffer",
     ("search_row", "lookup", "is_mru", "row_ways", "install", "install_lru",
      "touch", "demote", "remove"), "btb"),
    ("repro.btb.btb2", "BTB2",
     ("transfer_row", "transfer_span", "transfer_block", "write_victim",
      "write_surprise"), "btb"),
    ("repro.btb.btbp", "BTBP", ("write",), "btb"),
    ("repro.btb.pht", "PHT", ("predict", "update"), "btb"),
    ("repro.btb.ctb", "CTB", ("predict", "peek", "update"), "btb"),
    ("repro.btb.fit", "FIT", ("probe", "train"), "btb"),
    ("repro.btb.surprise", "SurpriseBHT",
     ("guess", "update", "record_outcome"), "btb"),
    ("repro.btb.history", "PathHistory",
     ("record", "pht_index", "ctb_index", "snapshot", "restore"), "btb"),
    ("repro.caches.icache", "ICache",
     ("prefetch", "contains", "recent_miss_in_block"), "caches"),
    ("repro.caches.setassoc", "SetAssociativeCache",
     ("contains", "access", "install"), "caches"),
    ("repro.preload.engine", "PreloadEngine",
     ("report_btb1_miss", "report_icache_miss", "report_decode_miss",
      "observe_completion", "advance", "flush"), "preload.engine"),
    ("repro.preload.tracker", "TrackerFile", ("find", "allocate"),
     "preload.engine"),
    ("repro.preload.transfer", "TransferEngine",
     ("enqueue_sector", "drain"), "preload.transfer"),
    ("repro.preload.ordering", "OrderingTable", ("lookup", "store"),
     "preload.ordering"),
    ("repro.preload.ordering", "OrderingTracker", ("observe", "flush"),
     "preload.ordering"),
    ("repro.preload.ordering", "OrderingEntry",
     ("mark_sector", "sector_active", "mark_reference", "referenced_from",
      "merge", "copy"), "preload.ordering"),
    ("repro.preload.engine", None, ("classify_sectors",), "preload.ordering"),
    ("repro.service.session", None, ("_advance_chunk",), "service.chunk"),
)

#: Self-time metric -> layer, for every layer the traced run reports.
SELF_METRICS = {
    "trace.decode_s": "trace.decode",
    "trace.seek_decode_s": "trace.seek_decode",
    "experiments.self_s": "experiments",
    "sampling.self_s": "sampling",
    "engine.run.self_s": "engine.run",
    "engine.step.self_s": "engine.step",
    "engine.warm.self_s": "engine.warm",
    "engine.batched.self_s": "engine.batched",
    "core.search.self_s": "core.search",
    "btb.self_s": "btb",
    "caches.self_s": "caches",
    "preload.engine.self_s": "preload.engine",
    "preload.transfer.self_s": "preload.transfer",
    "preload.ordering.self_s": "preload.ordering",
}


class _ThreadState:
    """One thread's span stack and per-layer totals."""

    def __init__(self) -> None:
        #: Child time accumulated by each open span; index 0 is the base.
        self.stack = [0.0]
        #: layer -> [calls, self seconds, busy seconds, open depth].
        self.layers: dict[str, list] = {}
        #: Named counts recorded by the observing wrappers.
        self.counts: dict[str, float] = {}

    def layer(self, name: str) -> list:
        slot = self.layers.get(name)
        if slot is None:
            slot = self.layers[name] = [0, 0.0, 0.0, 0]
        return slot


class Recorder:
    """In-memory per-layer totals plus op/chunk spans with parent ids."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Op- and chunk-level spans: dicts with id, parent, name, start, end.
        self.spans: list[dict] = []
        self._next_span = 0

    # -- per-thread state ---------------------------------------------------

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def reset(self) -> None:
        """Drop every total and span recorded so far (all threads)."""
        with self._lock:
            for state in self._states:
                state.layers.clear()
                state.counts.clear()
                state.stack[0] = 0.0
            self.spans.clear()

    def count(self, name: str, amount: float = 1) -> None:
        counts = self.state().counts
        counts[name] = counts.get(name, 0) + amount

    def totals(self) -> tuple[dict[str, list], dict[str, float], float]:
        """Per-layer ``[calls, self_s, busy_s]``, counts, and covered time.

        Covered time is what the outermost spans of every thread lasted:
        the layer self times (roots included) must add up to it.
        """
        layers: dict[str, list] = {}
        counts: dict[str, float] = {}
        covered = 0.0
        with self._lock:
            for state in self._states:
                covered += state.stack[0]
                for name, (calls, self_s, busy, _) in state.layers.items():
                    slot = layers.setdefault(name, [0, 0.0, 0.0])
                    slot[0] += calls
                    slot[1] += self_s
                    slot[2] += busy
                for name, value in state.counts.items():
                    counts[name] = counts.get(name, 0) + value
        return layers, counts, covered

    # -- spans ----------------------------------------------------------------

    def new_span_id(self) -> int:
        with self._lock:
            self._next_span += 1
            return self._next_span

    def add_span(self, name: str, start: float, end: float,
                 parent: int | None = None, span_id: int | None = None,
                 **fields) -> int:
        """Record a finished op- or chunk-level span; returns its id."""
        span_id = self.new_span_id() if span_id is None else span_id
        with self._lock:
            self.spans.append({"id": span_id, "parent": parent, "name": name,
                               "start": start, "end": end, **fields})
        return span_id

    def span(self, name: str, parent: int | None = None, **fields):
        """Context manager timing a root span (one op) on this thread."""
        return _RootSpan(self, name, parent, fields)

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, layer: str, before=None, after=None):
        """A wrapper charging ``fn``'s calls to ``layer``.

        ``before(args)`` returns ``(args, token)``: the positional arguments
        to call with and a value handed on to ``after(args, result, token)``,
        which sees the result.  Neither runs inside the timed span.
        """
        state_of = self.state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            slot = state.layer(layer)
            token = None
            if before is not None:
                args, token = before(args)
            stack = state.stack
            stack.append(0.0)
            slot[3] += 1
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                child = stack.pop()
                stack[-1] += elapsed
                slot[0] += 1
                slot[1] += elapsed - child
                slot[3] -= 1
                if not slot[3]:
                    slot[2] += elapsed
            if after is not None:
                after(args, result, token)
            return result

        return wrapper

    def wrap_generator(self, fn, layer: str):
        """Charge the time spent producing each item of a generator."""
        state_of = self.state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed():
                state = state_of()
                slot = state.layer(layer)
                stack = state.stack
                while True:
                    start = _perf()
                    try:
                        item = next(inner)
                    except StopIteration:
                        item = _DONE
                    elapsed = _perf() - start
                    stack[-1] += elapsed
                    slot[0] += 1
                    slot[1] += elapsed
                    slot[2] += elapsed
                    if item is _DONE:
                        return
                    yield item

            return timed()

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _RootSpan:
    def __init__(self, recorder: Recorder, name: str, parent, fields) -> None:
        self.recorder = recorder
        self.name = name
        self.parent = parent
        self.fields = fields
        self.id = recorder.new_span_id()

    def __enter__(self) -> "_RootSpan":
        state = self.recorder.state()
        state.stack.append(0.0)
        self.start = _perf()
        return self

    def __exit__(self, *exc) -> None:
        end = _perf()
        state = self.recorder.state()
        child = state.stack.pop()
        state.stack[-1] += end - self.start
        slot = state.layer("op")
        slot[0] += 1
        slot[1] += (end - self.start) - child
        slot[2] += end - self.start
        self.recorder.add_span(self.name, self.start, end, self.parent,
                               span_id=self.id, **self.fields)


_DONE = object()


def install(recorder: Recorder) -> Recorder:
    """Patch every layer of :data:`LAYERS` plus the observing wrappers."""
    wrap = recorder.wrap
    for module_name, class_name, attrs, layer in LAYERS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        for attr in attrs:
            recorder.patch(owner, attr, wrap(owner.__dict__[attr], layer))

    from repro.engine import batched
    from repro.engine.simulator import Simulator
    from repro.core.search import LookaheadSearch
    from repro.caches.icache import ICache
    from repro.preload.transfer import TransferEngine
    from repro.sampling import checkpoint
    from repro.trace.reader import TraceFile

    count = recorder.count

    def counted(records):
        for record in records:
            count("engine.warm.records")
            yield record

    recorder.patch(Simulator, "warm_run", wrap(
        Simulator.__dict__["warm_run"], "engine.warm",
        before=lambda args: ((args[0], counted(args[1])) + args[2:], None)))

    def before_feed(args):
        escapes = sum(args[0].escape_counts.values())
        return args, escapes

    def after_feed(args, result, escapes_before):
        count("engine.batched.records", len(args[1]))
        count("engine.batched.escapes",
              sum(args[0].escape_counts.values()) - escapes_before)

    recorder.patch(batched.BatchedSimulator, "feed", wrap(
        batched.BatchedSimulator.__dict__["feed"], "engine.batched",
        before=before_feed, after=after_feed))

    def after_search(args, outcome, token):
        count("core.search.branches")
        if outcome.prediction is None:
            count("core.search.no_prediction")

    recorder.patch(LookaheadSearch, "advance_to_branch", wrap(
        LookaheadSearch.__dict__["advance_to_branch"], "core.search",
        after=after_search))

    def after_fetch(args, hit, token):
        count("caches.icache_fetches")
        if not hit:
            count("caches.icache_misses")

    recorder.patch(ICache, "fetch", wrap(
        ICache.__dict__["fetch"], "caches", after=after_fetch))

    def before_advance(args):
        engine = args[0]
        count("preload.transfer.advances")
        if not engine.pending_rows and not engine.inflight_rows:
            count("preload.transfer.idle_calls")
        return args, (engine.rows_read, engine.entries_transferred)

    def after_advance(args, result, before):
        engine = args[0]
        count("preload.transfer.rows_read", engine.rows_read - before[0])
        count("preload.transfer.entries",
              engine.entries_transferred - before[1])

    recorder.patch(TransferEngine, "advance", wrap(
        TransferEngine.__dict__["advance"], "preload.transfer",
        before=before_advance, after=after_advance))

    def after_save(args, result, token):
        count("sampling.ckpt_bytes", os.path.getsize(args[0]))

    recorder.patch(checkpoint, "save_state", wrap(
        checkpoint.__dict__["save_state"], "sampling.ckpt_save",
        after=after_save))

    recorder.patch(TraceFile, "iter_from", recorder.wrap_generator(
        TraceFile.__dict__["iter_from"], "trace.seek_decode"))
    return recorder


#: Root spans: whatever of them no layer claimed is unattributed time.
ROOT_LAYERS = ("op", "service.chunk")


def attribution_gap(totals) -> float:
    """|layer self times, roots included, − covered time| in seconds."""
    layers, _, covered = totals
    return abs(sum(slot[1] for slot in layers.values()) - covered)


def per_op(totals, ops: float) -> dict[str, float]:
    """Per-layer metrics from :meth:`Recorder.totals`, normalised per op.

    ``ops`` is how many ops (or op equivalents) the traced phase
    completed; times and call counts are per op, ratios and per-call
    means are not normalised.
    """
    layers, counts, covered = totals
    ops = ops or 1.0
    empty = [0, 0.0, 0.0]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def calls(name: str) -> int:
        return layers.get(name, empty)[0]

    def mean_ms(name: str) -> float:
        slot = layers.get(name, empty)
        return ratio(slot[2] * 1000.0, slot[0])

    values = {metric: layers.get(layer, empty)[1] / ops
              for metric, layer in SELF_METRICS.items()}
    values.update({
        "engine.step.calls": calls("engine.step") / ops,
        "engine.warm.records": counts.get("engine.warm.records", 0) / ops,
        "engine.batched.escape_frac": ratio(
            counts.get("engine.batched.escapes", 0),
            counts.get("engine.batched.records", 0)),
        "core.search.calls": calls("core.search") / ops,
        "core.search.no_prediction_frac": ratio(
            counts.get("core.search.no_prediction", 0),
            counts.get("core.search.branches", 0)),
        "btb.calls": calls("btb") / ops,
        "caches.icache_miss_rate": ratio(
            counts.get("caches.icache_misses", 0),
            counts.get("caches.icache_fetches", 0)),
        "preload.transfer.calls": calls("preload.transfer") / ops,
        "preload.transfer.idle_frac": ratio(
            counts.get("preload.transfer.idle_calls", 0),
            counts.get("preload.transfer.advances", 0)),
        "preload.entries_per_row": ratio(
            counts.get("preload.transfer.entries", 0),
            counts.get("preload.transfer.rows_read", 0)),
        "sampling.state_dict_ms": mean_ms("sampling.state_dict"),
        "sampling.ckpt_save_ms": mean_ms("sampling.ckpt_save"),
        "sampling.ckpt_bytes": ratio(counts.get("sampling.ckpt_bytes", 0),
                                     calls("sampling.ckpt_save")),
        "sampling.ckpt_load_ms": mean_ms("sampling.ckpt_load"),
        "sampling.load_state_dict_ms": mean_ms("sampling.load_state_dict"),
        "tracing.op_s": covered / ops,
        "tracing.unattributed_s": sum(
            layers.get(name, empty)[1] for name in ROOT_LAYERS) / ops,
    })
    return values
