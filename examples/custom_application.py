#!/usr/bin/env python
"""Characterizing *your own* application with FFIS.

The framework is application-agnostic (the paper's requirement R1/R2):
anything that performs its I/O through a mounted FFIS file system can be
characterized.  This example wraps a small log-structured key-value
store -- an application the paper never studied -- and runs the same
three fault models against it.
"""

import json
from typing import Dict, List, Tuple

from repro import Campaign, CampaignConfig, Outcome
from repro.apps.base import GoldenRecord, HpcApplication
from repro.fusefs.mount import MountPoint

DB_PATH = "/kv/store.log"
CHECK_PATH = "/kv/checksums.json"


class TinyKvStore(HpcApplication):
    """Append-only KV store with a record-level checksum side file.

    The store detects torn/corrupt records via per-record checksums --
    so unlike Nyx/QMCPACK/Montage it has *explicit* integrity checking,
    and the campaign shows how that shifts SDC into detected.
    """

    name = "tiny-kv"

    def __init__(self, n_records: int = 200) -> None:
        super().__init__()
        self.n_records = n_records
        self.records = [(f"key{i:04d}", f"value-{i * 7919 % 1000:03d}" * 4)
                        for i in range(n_records)]

    def run(self, mp: MountPoint) -> None:
        mp.makedirs("/kv")
        with self.phase("log-append"):
            payload = "".join(f"{k}={v}\n" for k, v in self.records).encode()
            mp.write_file(DB_PATH, payload, block_size=1024)
        with self.phase("checksums"):
            sums = {k: sum(v.encode()) % 65536 for k, v in self.records}
            mp.write_file(CHECK_PATH, json.dumps(sums).encode(),
                          block_size=1024)

    def output_paths(self) -> List[str]:
        return [DB_PATH, CHECK_PATH]

    def _verify(self, mp: MountPoint) -> Tuple[Dict[str, str], int]:
        sums = json.loads(mp.read_file(CHECK_PATH).decode("ascii"))
        table: Dict[str, str] = {}
        bad = 0
        for line in mp.read_file(DB_PATH).decode("ascii", "replace").splitlines():
            if "=" not in line:
                bad += 1
                continue
            key, value = line.split("=", 1)
            if key not in sums or sum(value.encode()) % 65536 != sums[key]:
                bad += 1
                continue
            table[key] = value
        return table, bad

    def analyze(self, mp: MountPoint) -> Dict[str, object]:
        table, bad = self._verify(mp)
        return {"table": table, "bad_records": bad}

    def classify(self, golden: GoldenRecord, mp: MountPoint) -> Tuple[Outcome, str]:
        if self.outputs_identical(golden, mp):
            return Outcome.BENIGN, "log and checksum file identical"
        table, bad = self._verify(mp)
        if bad:
            return Outcome.DETECTED, f"{bad} records failed checksum"
        if table != golden.analysis["table"]:
            return Outcome.SDC, "table differs but every checksum passed"
        return Outcome.BENIGN, "files differ only in dead bytes"


def main(n_runs: int = 150, n_records: int = 200) -> None:
    app = TinyKvStore(n_records)
    print("characterizing a checksummed KV store (not in the paper):\n")
    for fault_model in ("BF", "SW", "DW"):
        config = CampaignConfig(fault_model=fault_model, n_runs=n_runs, seed=5)
        result = Campaign(app, config).run()
        print(f"  {result.summary()}")
    print("\nNote the contrast with the paper's apps: explicit per-record")
    print("checksums convert nearly all would-be SDCs into detected.")


if __name__ == "__main__":
    main()
