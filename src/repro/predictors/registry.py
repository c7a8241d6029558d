"""Registry of named predictor implementations.

Every implementation registers here under a stable name; the CLI
(``simulate --predictor``, ``verify --predictor``, ``repro ablation``), the
experiments layer (``RunSpec.predictor``), and the conformance suite all
resolve predictors exclusively through this registry — which is what makes
"adding a predictor without tests" impossible: the conformance battery is
parametrized over :func:`predictor_names`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.config import PredictorConfig, ZEC12_CONFIG_2
from repro.engine.params import DEFAULT_TIMING, TimingParams
from repro.engine.predictor import Predictor
from repro.engine.simulator import Simulator
from repro.predictors.bullseye import BullseyePredictor
from repro.predictors.ldbp import LdbpPredictor
from repro.predictors.tage import TagePredictor

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.telemetry.hub import Telemetry

#: The predictor every historical surface implies when none is named.
DEFAULT_PREDICTOR = "paper"


@dataclass(frozen=True)
class PredictorInfo:
    """One registry entry: name, one-line summary, and factory."""

    name: str
    summary: str
    factory: Callable[..., Predictor]


_REGISTRY: dict[str, PredictorInfo] = {}


def register_predictor(name: str, summary: str,
                       factory: Callable[..., Predictor]) -> None:
    """Register ``factory`` under ``name`` (refusing duplicates)."""
    if name in _REGISTRY:
        raise ValueError(f"predictor {name!r} is already registered")
    _REGISTRY[name] = PredictorInfo(name, summary, factory)


def predictor_names() -> tuple[str, ...]:
    """All registered predictor names, sorted."""
    return tuple(sorted(_REGISTRY))


def predictor_info(name: str) -> PredictorInfo:
    """The registry entry for ``name`` (``ValueError`` listing valid names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown predictor {name!r}; registered: "
            f"{', '.join(predictor_names())}") from None


def create_predictor(
    name: str = DEFAULT_PREDICTOR,
    config: PredictorConfig = ZEC12_CONFIG_2,
    timing: TimingParams = DEFAULT_TIMING,
    *,
    audit: bool = False,
    telemetry: "Telemetry | None" = None,
    engine_mode: str = "object",
) -> Predictor:
    """Instantiate the registered predictor ``name``.

    ``engine_mode`` only influences the paper stack (the zoo has a single
    engine); ``audit`` enables the runtime auditor on the paper stack and
    the counter-conservation self-check on the zoo.
    """
    return predictor_info(name).factory(
        config, timing, audit=audit, telemetry=telemetry,
        engine_mode=engine_mode)


def _paper_factory(config, timing, *, audit=False, telemetry=None,
                   engine_mode="object") -> Simulator:
    from repro.audit.auditor import Auditor

    return Simulator(config, timing, audit=Auditor() if audit else None,
                     telemetry=telemetry, engine_mode=engine_mode)


def _zoo_factory(cls: type) -> Callable[..., Predictor]:
    def factory(config, timing, *, audit=False, telemetry=None,
                engine_mode="object"):
        del engine_mode  # the zoo engine has no alternate modes
        return cls(config, timing, audit=audit, telemetry=telemetry)

    return factory


register_predictor(
    "paper",
    "two-level bulk-preload stack (BTB1/BTBP/BTB2, the reproduced design)",
    _paper_factory,
)
register_predictor(
    "tage",
    "TAGE-like conditional baseline (bimodal + 4 tagged geometric tables)",
    _zoo_factory(TagePredictor),
)
register_predictor(
    "ldbp",
    "LDBP-style load/loop-driven predictor (trip-count loop exits)",
    _zoo_factory(LdbpPredictor),
)
register_predictor(
    "bullseye",
    "Bullseye-style hard-to-predict-branch specialist (bounded H2P file)",
    _zoo_factory(BullseyePredictor),
)
