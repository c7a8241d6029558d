"""Telemetry off-path guarantees.

Two properties pin the "zero-cost when off" contract:

* every hook site in the instrumented modules is a bare attribute guard
  (``if self.telemetry is not None``) — no closures, wrappers, or partials
  are allocated per event on the hot path, the same pattern the auditor
  uses;
* a run with telemetry fully enabled produces byte-identical scientific
  results to a run with telemetry off.
"""

import ast
from pathlib import Path

from repro.core.config import PredictorConfig
from repro.engine.simulator import Simulator, simulate
from repro.telemetry import Telemetry
from tests.conftest import loop_trace

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Every module that carries telemetry hook sites.
INSTRUMENTED = [
    SRC / "engine" / "simulator.py",
    SRC / "core" / "search.py",
    SRC / "preload" / "engine.py",
    SRC / "preload" / "transfer.py",
    SRC / "btb" / "storage.py",
]


def small_config(**overrides):
    defaults = dict(
        btb1_rows=16, btb1_ways=2, btbp_rows=8, btbp_ways=2,
        btb2_rows=64, btb2_ways=2, pht_entries=64, ctb_entries=64,
        fit_entries=4, surprise_bht_entries=64,
        ordering_table_sets=16, ordering_table_ways=2,
    )
    defaults.update(overrides)
    return PredictorConfig(**defaults)


def _is_self_telemetry(node: ast.AST) -> bool:
    """True for the expression ``self.telemetry``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "telemetry"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _is_guard(test: ast.AST) -> bool:
    """True for a test containing ``self.telemetry is not None``."""
    for node in ast.walk(test):
        if (
            isinstance(node, ast.Compare)
            and _is_self_telemetry(node.left)
            and len(node.ops) == 1
            and isinstance(node.ops[0], ast.IsNot)
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None
        ):
            return True
    return False


def _hook_calls_with_guards(path: Path):
    """Yield (lineno, guarded) for every ``self.telemetry.<hook>(...)``."""
    tree = ast.parse(path.read_text())
    parents = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent

    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and _is_self_telemetry(node.func.value)
        ):
            continue
        guarded = False
        cursor = node
        while cursor in parents:
            cursor = parents[cursor]
            if isinstance(cursor, ast.If) and _is_guard(cursor.test):
                guarded = True
                break
        yield node.lineno, guarded


#: Distributed-observability modules: file -> the local observer names
#: whose every method call must sit under an ``if <name> is not None``.
DISTRIBUTED_INSTRUMENTED = {
    SRC / "sampling" / "parallel.py": ("telemetry", "board", "session"),
    SRC / "experiments" / "common.py": ("telemetry", "board", "session"),
    SRC / "experiments" / "pool.py": ("board",),
}


def _root_name(node: ast.AST) -> str | None:
    """The bare name at the root of an attribute chain, if any."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _is_name_guard(test: ast.AST, name: str) -> bool:
    """True for a test containing ``<name> is not None``."""
    for node in ast.walk(test):
        if (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Name)
            and node.left.id == name
            and len(node.ops) == 1
            and isinstance(node.ops[0], ast.IsNot)
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None
        ):
            return True
    return False


def _local_hook_calls(path: Path, names: tuple[str, ...]):
    """Yield (lineno, name, guarded) per call on a tracked local observer."""
    tree = ast.parse(path.read_text())
    parents = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent

    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        root = _root_name(node.func.value)
        if root not in names:
            continue
        guarded = False
        cursor = node
        while cursor in parents:
            cursor = parents[cursor]
            if isinstance(cursor, ast.If) and _is_name_guard(cursor.test, root):
                guarded = True
                break
        yield node.lineno, root, guarded


class TestHookGuards:
    def test_every_hook_site_is_attribute_guarded(self):
        total = 0
        for path in INSTRUMENTED:
            for lineno, guarded in _hook_calls_with_guards(path):
                total += 1
                assert guarded, (
                    f"{path.name}:{lineno} calls self.telemetry.* outside an "
                    f"'if self.telemetry is not None' guard — the off path "
                    f"must stay a single attribute test"
                )
        # The wiring spans the whole lifecycle; a low count means hook
        # sites were removed (or the scan broke) — both worth failing on.
        assert total >= 15

    def test_every_distributed_hook_site_is_guarded(self):
        """Relay/status hook sites obey the same bare-guard contract.

        The distributed layer threads its observers as locals rather than
        attributes — ``telemetry`` (the relayed hub), ``board`` (the
        status heartbeat), ``session`` (the worker shard) — so the scan
        here checks every call on those bare names sits under an
        ``if <name> is not None`` guard.  ``relay`` is excluded: it is
        touched once per run at orchestration boundaries, never on a
        per-record path.
        """
        total = 0
        for path, names in DISTRIBUTED_INSTRUMENTED.items():
            for lineno, name, guarded in _local_hook_calls(path, names):
                total += 1
                assert guarded, (
                    f"{path.name}:{lineno} calls {name}.* outside an "
                    f"'if {name} is not None' guard — the off path must "
                    f"stay a single None test"
                )
        # Heartbeats and relay attach/close span the whole fan-out
        # lifecycle; a shrinking count means hook sites disappeared.
        # Exact and sampled slice workers share one telemetry attach and
        # one start heartbeat, which puts the count at 19.
        assert total >= 19

    def test_default_telemetry_is_none_everywhere(self):
        simulator = Simulator(config=small_config())
        assert simulator.telemetry is None
        assert simulator.search.telemetry is None
        assert simulator.hierarchy.btb1.telemetry is None
        assert simulator.hierarchy.btbp.telemetry is None
        assert simulator.btb2.telemetry is None
        assert simulator.preload.telemetry is None
        assert simulator.preload.transfer.telemetry is None


class TestResultParity:
    def test_results_byte_identical_with_telemetry_on_vs_off(self):
        trace = loop_trace(150)
        plain = simulate(trace, config=small_config())
        traced = simulate(trace, config=small_config(),
                          telemetry=Telemetry.full(sample_interval=32))
        assert repr(traced) == repr(plain)
        assert traced.counters.cycles == plain.counters.cycles
        assert traced.counters.outcomes == plain.counters.outcomes
        assert (traced.counters.penalty_cycles
                == plain.counters.penalty_cycles)

    def test_parity_holds_with_preload_disabled(self):
        trace = loop_trace(60)
        config = small_config(btb2_enabled=False)
        plain = simulate(trace, config=config)
        traced = simulate(trace, config=config, telemetry=Telemetry.full())
        assert repr(traced) == repr(plain)
