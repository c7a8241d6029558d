"""The engine-mode argument the benchmark entry points still accept.

The simulator has one detailed engine, :meth:`Simulator.step
<repro.engine.simulator.Simulator.step>`, which :meth:`Simulator.feed
<repro.engine.simulator.Simulator.feed>` runs over every record.  Three
entry points keep accepting an engine mode so that the benchmark harness
in ``perfbench/`` runs unchanged: ``run_workload(..., engine_mode=...)``,
``run_sampled(..., engine_mode=...)`` and the service's session create
(``ServiceClient.create_session(engine=...)``).  Each refuses a name
outside :data:`ENGINE_MODES` and otherwise ignores the value: every mode
runs the same engine.  docs/PERFORMANCE.md ("Engine modes") records why
the second engine was deleted.
"""

from __future__ import annotations

#: The engine-mode names the entry points accept; each selects the one
#: engine.
ENGINE_MODES = ("object", "auto")


def validate_engine_mode(mode: str) -> str:
    """Return ``mode`` if it is a known engine mode, else raise ValueError."""
    if mode not in ENGINE_MODES:
        raise ValueError(
            f"unknown engine_mode {mode!r}; expected one of {ENGINE_MODES}"
        )
    return mode


class BatchedSimulator:
    """Name kept for the benchmark's layer table; never instantiated.

    ``perfbench/layers.py`` (``install``) patches
    ``BatchedSimulator.__dict__["feed"]`` as the ``engine.batched`` layer,
    and ``perfbench/workloads.py`` passes ``engine_mode="object"`` to
    ``run_workload``, ``engine_mode="auto"`` to ``run_sampled`` and
    ``engine="auto"`` to ``ServiceClient.create_session``.  This class, the
    ``engine_mode`` arguments and this module go once the benchmark stops
    naming them.
    """

    def feed(self, records) -> None:
        """Refuse: the batched engine core was deleted."""
        raise NotImplementedError("the batched engine core was deleted; "
                                  "Simulator.feed steps every record")
