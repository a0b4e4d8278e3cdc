"""Workload definitions: which instances a run resolves, and how.

Every workload is a list of slots.  A slot names the generator instances it
may draw from (size and generator seed, all with the same minimum-cover size
m) and how many placements ``resolve`` evaluates on it.  The workload seed
picks one candidate per slot.  The timed workloads have one candidate per
slot, so their work does not change with the seed: generator instances of
the same size and m differ by up to 40% in solve time and far more in the
latency of single evaluations (README.md).  The seed varies the instances of
the untimed order check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Slot:
    n_targets: int
    gen_seeds: tuple[int, ...]  # candidates
    m: int
    placements: int


@dataclass(frozen=True)
class Workload:
    name: str
    oracles: tuple[str, ...]
    slots: tuple[Slot, ...]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fc-exact", ("FC",), (
            Slot(40, (7,), 3, 4),
            Slot(60, (1,), 2, 4),
            Slot(70, (1,), 2, 4),
            Slot(80, (0,), 2, 4),
            Slot(80, (3,), 2, 4),
        )),
        Workload("sweep-large", ("PC", "NC"), (
            Slot(150, (11,), 2, 6),
            Slot(100, (42,), 2, 6),
        )),
    )
}


# FC + PC + NC on small instances whose three values differ, resolved once
# per run before the timed passes: the timed workloads run FC alone or PC +
# NC, so only here is the full per-signal order FC >= PC >= NC checked.
ORDER_CHECK = Workload("order-check", ("FC", "PC", "NC"), (
    Slot(25, (0, 2), 2, 3),
    Slot(30, (0, 2), 2, 3),
))


@dataclass(frozen=True)
class Instance:
    label: str
    m: int
    placements: int
    setting: object
    alarm: object


def build(ap, workload: Workload, seed: int) -> list[Instance]:
    """Generate the seed's instances with the freshly imported package ``ap``."""
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    out = []
    for slot in workload.slots:
        n, gen_seed = slot.n_targets, rng.choice(slot.gen_seeds)
        setting, alarm = ap.generate_instance(ap.GeneratorParams(n_targets=n, seed=gen_seed))
        out.append(Instance(f"{n}/s{gen_seed}", slot.m, slot.placements, setting, alarm))
    return out
