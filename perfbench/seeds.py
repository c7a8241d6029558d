"""The catalog trace behind each benchmark workload, regenerated per seed."""

from __future__ import annotations

from dataclasses import replace

#: workload -> (catalog workload name, trace scale).
TRACES = {
    "detail-btb2": ("Z/OS DayTrader DBServ", 0.3),
    "sampled-ckpt": ("TPF airline reservations", 0.3),
    "service": ("zLinux Informix", 0.3),
}

#: The seed whose traces are the catalog's own, checked against pinned digests.
DEFAULT_SEED = 0

#: Each seed shifts every generator seed of the spec by this much.
SEED_STRIDE = 1000


def seeded_spec(workload: str, seed: int):
    """The catalog spec of ``workload`` with its generator seeds moved by ``seed``.

    Seed 0 is the catalog entry itself.  Any other seed regenerates the same
    program shape and walk profile from other random streams, so trace
    length and footprint class stay those of the catalog workload.
    """
    from repro.workloads.catalog import workload_by_name

    spec = workload_by_name(TRACES[workload][0])
    if seed == DEFAULT_SEED:
        return spec
    shift = SEED_STRIDE * seed
    return replace(
        spec,
        shape=replace(spec.shape, seed=spec.shape.seed + shift),
        profile=replace(spec.profile, seed=spec.profile.seed + shift),
    )
