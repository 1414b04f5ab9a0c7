"""Record reference digests and costs of the benchmark's study seeds.

    python3 perfbench/record_digests.py

For every seed of the pool the rounds draw from:

* one serial cold round (``REPRO_NO_REPLAY=1``, the engine's reference
  path) writes the results file; its SHA-256 lands in
  ``perfbench/digests.json`` under the study's sizing key;
* two serial rounds on the default (replay) path must reproduce that
  digest; the faster one's execute time lands in ``perfbench/costs.json``,
  which only pairs cheap with dear seeds (``workloads.round_seeds``).

Entries already recorded are kept, never recomputed.  Re-run after
resizing the study (the key changes) or after a change that is meant
to alter the records.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import SEED_POOL, SPEC_KEY

#: Digests and costs belong to the study's records, whichever workload
#: runs them; the serial one is the reference.
WORKLOAD = "fig7-serial"


def _save(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def main() -> int:
    digests = run._load(run.DIGESTS).setdefault(SPEC_KEY, {})
    costs = run._load(run.COSTS).setdefault(SPEC_KEY, {})
    for seed in map(str, SEED_POOL):
        if seed not in digests:
            out = run.run_round(WORKLOAD, int(seed), reference=True)
            if out["failed"] or not out["digest"]:
                print(f"seed {seed}: reference round failed", file=sys.stderr)
                return 1
            digests[seed] = out["digest"]
            _save(run.DIGESTS, {SPEC_KEY: digests})
        if seed not in costs:
            rounds = [run.run_round(WORKLOAD, int(seed)) for _ in range(2)]
            if any(r["digest"] != digests[seed] for r in rounds):
                print(f"seed {seed}: replay digest differs from the cold "
                      "reference", file=sys.stderr)
                return 1
            costs[seed] = min(r["execute_s"] for r in rounds)
            _save(run.COSTS, {SPEC_KEY: costs})
        print(f"{SPEC_KEY} seed {seed}: {digests[seed][:16]} "
              f"{costs[seed]:.3f}s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
