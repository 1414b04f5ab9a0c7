"""The benchmark's named workloads and how their study is built.

Every workload runs the registered Fig. 7 study through the public study
path (``Study(spec).plan()`` then ``StudyPlan.execute(...)`` writing a
results file); they differ only in the executor.  The benchmark
generates the spec from the study seed and hands the program nothing
else.

This module imports nothing from the program at import time, so the
runner can list workloads without loading the package.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional

#: Faulty runs per Fig. 7 cell (18 cells, so 72 runs per round).
FIG7_RUNS_PER_CELL = 4

#: The seed the registered figure7 study builder defaults to.
REGISTERED_SEED = 1

#: Study seeds whose reference digests ``digests.json`` records.
SEED_POOL = range(32)


def round_seeds(seed: Optional[int],
                costs: Mapping[str, float]) -> Iterator[int]:
    """The study seed of each round of a run with workload seed *seed*.

    A fig7 study's cost depends on its seed: how many of its QMC runs
    must re-run the DMC step (~0.6 s each, against a few ms for a run
    spliced past it) is binomial in the seed.  Rounds therefore come in
    antithetic pairs: the pool sorted by each seed's recorded execute
    time (*costs*, from ``costs.json``), the i-th cheapest paired with
    the i-th dearest.  A run takes whole pairs, in an order drawn from
    *seed*: its inputs differ from seed to seed, its total work hardly.
    Without a workload seed every round runs the registered seed.
    """
    if seed is None:
        return itertools.repeat(REGISTERED_SEED)
    ranked = sorted(SEED_POOL, key=lambda s: (costs.get(str(s), 0.0), s))
    pairs = [(ranked[i], ranked[-1 - i]) for i in range(len(ranked) // 2)]
    rng = random.Random(seed)
    rng.shuffle(pairs)
    return itertools.cycle([s for pair in pairs for s in rng.sample(pair, 2)])


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int = 1
    hosts: int = 1

    @property
    def parallel(self) -> int:
        """Processes that execute faulty runs."""
        return max(self.workers, self.hosts)


#: Why each workload exists: ``BENCHMARK.json`` and the README.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fig7-serial", workers=1),
    Workload("fig7-pool", workers=2),
    Workload("fig7-fleet", hosts=2),
)}

#: The study and its sizing: reference digests and costs are kept per
#: key, so resizing the study can never match a stale digest.
SPEC_KEY = f"figure7/runs={FIG7_RUNS_PER_CELL}"


def build_spec(seed: int):
    """The Fig. 7 study spec at *seed* (imports the program)."""
    from repro.study.registry import figure7_spec

    return figure7_spec(n_runs=FIG7_RUNS_PER_CELL, seed=seed)
