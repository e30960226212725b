"""Core-allocation strategies: *clustered* vs *spreaded* threads (Fig. 2).

The paper studies two ways of placing N threads on a chip whose cores come
in pairs (PMDs):

* **clustered** — threads fill consecutive cores, occupying both cores of
  each PMD before touching the next one, so N threads utilize ceil(N/2)
  PMDs;
* **spreaded** — threads land on separate PMDs (one thread per PMD) as
  long as free PMDs exist, so N threads utilize min(N, n_pmds) PMDs.

Utilized-PMD count is the knob that matters for the voltage-droop
magnitude and therefore for the safe Vmin (Table II), while the choice
also changes L2 sharing inside a PMD, which is what makes clustered vs
spreaded a *workload-dependent* energy trade-off (Fig. 7).
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Iterable, List, Sequence, Tuple

from .errors import ConfigurationError, PlacementError
from .platform.specs import ChipSpec


class Allocation(enum.Enum):
    """Thread-to-core allocation strategy (paper Fig. 2)."""

    CLUSTERED = "clustered"
    SPREADED = "spreaded"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def clustered_cores(spec: ChipSpec, nthreads: int) -> Tuple[int, ...]:
    """First ``nthreads`` cores in consecutive order (clustered, Fig. 2)."""
    _check_nthreads(spec, nthreads)
    return tuple(range(nthreads))


def spreaded_cores(spec: ChipSpec, nthreads: int) -> Tuple[int, ...]:
    """One thread per PMD while possible, then second cores (spreaded).

    With ``nthreads <= n_pmds`` every thread gets its own PMD (the paper's
    spreaded configuration). Beyond that, remaining threads fill the
    second core of each PMD in order, converging to the same full-chip
    placement as clustered when every core is needed.
    """
    _check_nthreads(spec, nthreads)
    first_cores = [spec.cores_of_pmd(p)[0] for p in range(spec.n_pmds)]
    second_cores = [
        core
        for p in range(spec.n_pmds)
        for core in spec.cores_of_pmd(p)[1:]
    ]
    return tuple((first_cores + second_cores)[:nthreads])


def cores_for(
    spec: ChipSpec, nthreads: int, allocation: Allocation
) -> Tuple[int, ...]:
    """Core ids for ``nthreads`` under the given allocation strategy."""
    if allocation is Allocation.CLUSTERED:
        return clustered_cores(spec, nthreads)
    if allocation is Allocation.SPREADED:
        return spreaded_cores(spec, nthreads)
    raise ConfigurationError(f"unknown allocation {allocation!r}")


def utilized_pmds(spec: ChipSpec, cores: Iterable[int]) -> Tuple[int, ...]:
    """Sorted PMD ids touched by the given cores."""
    return tuple(sorted({spec.pmd_of_core(c) for c in cores}))


def utilized_pmd_count(
    spec: ChipSpec, nthreads: int, allocation: Allocation
) -> int:
    """Number of PMDs utilized by ``nthreads`` under a strategy.

    Clustered: ceil(N / cores_per_pmd). Spreaded: min(N, n_pmds).
    """
    _check_nthreads(spec, nthreads)
    if allocation is Allocation.CLUSTERED:
        return math.ceil(nthreads / spec.cores_per_pmd)
    return min(nthreads, spec.n_pmds)


def pick_free_cores(
    spec: ChipSpec,
    free_cores: Sequence[int],
    nthreads: int,
    allocation: Allocation,
) -> Tuple[int, ...]:
    """Choose ``nthreads`` cores out of ``free_cores`` under a strategy.

    Unlike :func:`cores_for`, this works on a partially-occupied chip:

    * clustered prefers cores on PMDs that already have a chosen/busy
      sibling, minimising newly-utilized PMDs;
    * spreaded prefers cores on entirely-free PMDs, maximising PMD
      isolation for the placed threads.

    Raises :class:`PlacementError` when not enough cores are free.
    """
    free = tuple(sorted(set(free_cores)))
    if len(free) < nthreads:
        raise PlacementError(
            f"need {nthreads} cores but only {len(free)} free"
        )
    return _pick_free_cores(spec, free, nthreads, allocation)


@functools.lru_cache(maxsize=4096)
def _pick_free_cores(
    spec: ChipSpec,
    free: Tuple[int, ...],
    nthreads: int,
    allocation: Allocation,
) -> Tuple[int, ...]:
    """The greedy choice for one canonical (sorted, distinct) free set.

    A pure function of its arguments, memoized because the daemon's
    re-plan after every arrival and exit revisits the same free sets.
    """
    free_set = set(free)
    siblings = _sibling_map(spec)
    chosen: List[int] = []
    for _ in range(nthreads):
        if allocation is Allocation.CLUSTERED:
            core = _best_clustered_core(spec, siblings, free_set, chosen)
        else:
            core = _best_spreaded_core(spec, siblings, free_set, chosen)
        chosen.append(core)
        free_set.remove(core)
    return tuple(chosen)


def _siblings(spec: ChipSpec, core: int) -> Tuple[int, ...]:
    pmd = spec.pmd_of_core(core)
    return tuple(c for c in spec.cores_of_pmd(pmd) if c != core)


@functools.lru_cache(maxsize=16)
def _sibling_map(spec: ChipSpec) -> Tuple[Tuple[int, ...], ...]:
    """core id -> the other cores of its PMD, for every core.

    The greedy placement ranks every free core once per placed thread,
    so the sibling lookup sits on the daemon's replanning hot path;
    the map is a pure function of the (immutable, hashable) spec.
    """
    return tuple(_siblings(spec, c) for c in range(spec.n_cores))


def _best_clustered_core(spec, siblings, free_set, chosen) -> int:
    # Prefer a free core whose sibling is already busy or chosen (its PMD
    # is utilized anyway), then the lowest-numbered free core.
    def rank(core: int) -> Tuple[int, int]:
        sibling_free = all(s in free_set for s in siblings[core])
        return (1 if sibling_free else 0, core)

    return min(free_set, key=rank)


def _best_spreaded_core(spec, siblings, free_set, chosen) -> int:
    # Prefer a free core on a PMD whose siblings are all free and not
    # already chosen (a fresh PMD), then the lowest-numbered free core.
    chosen_pmds = {spec.pmd_of_core(c) for c in chosen}

    def rank(core: int) -> Tuple[int, int]:
        pmd = spec.pmd_of_core(core)
        fresh = (
            pmd not in chosen_pmds
            and all(s in free_set for s in siblings[core])
        )
        return (0 if fresh else 1, core)

    return min(free_set, key=rank)


def _check_nthreads(spec: ChipSpec, nthreads: int) -> None:
    if not 1 <= nthreads <= spec.n_cores:
        raise ConfigurationError(
            f"{spec.name}: cannot place {nthreads} threads on "
            f"{spec.n_cores} cores"
        )
