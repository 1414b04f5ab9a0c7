"""Campaign benchmark: run a workload's rounds, check them, report.

    python3 perfbench/run.py --workload fig7-serial --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each round is a fresh interpreter (``round.py``) timing the public study
path on the workload's generated spec, at the next study seed the
workload seed picks (``workloads.round_seeds``).  Rounds repeat, in whole
pairs, until half of another pair would overrun ``--seconds``.  Every round's results file
must hash to the reference digest for its (study, seed): the one kept
in ``perfbench/digests.json``, or else one computed by a serial cold
run under ``REPRO_NO_REPLAY=1`` and cached in ``.perfbench/``.  A
mismatch or a missing run discards the round's numbers and fails the
command.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` pairs each
untraced round with a traced one on the same study seed and reports the
per-layer metrics plus the tracing overhead.  The metric names and
units come from ``BENCHMARK.json``.  The last line of standard output is
one JSON object; the lines above it are the human-readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from workloads import SPEC_KEY, WORKLOADS, round_seeds  # noqa: E402

#: Recorded reference digests, ``{spec key: {seed: sha256}}``.
DIGESTS = os.path.join(HERE, "digests.json")
#: Recorded serial execute seconds, ``{spec key: {seed: s}}``: they only
#: pair cheap with dear seeds (see ``workloads.round_seeds``).
COSTS = os.path.join(HERE, "costs.json")
#: Digests this checkout computed for seeds with no recorded one.
DIGEST_CACHE = os.path.join(WORK, "digests.json")
ROUND_TIMEOUT_S = 150


class RoundError(RuntimeError):
    pass


def run_round(workload: str, seed: int, *, trace: bool = False,
              reference: bool = False) -> dict:
    """One round in a fresh interpreter; its temp dir is removed after."""
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="round-", dir=WORK)
    env = dict(os.environ, TMPDIR=tmp)
    env.pop("REPRO_NO_REPLAY", None)
    if reference:
        env["REPRO_NO_REPLAY"] = "1"
    cmd = [sys.executable, os.path.join(HERE, "round.py"),
           "--workload", workload, "--seed", str(seed), "--tmp", tmp]
    if trace:
        cmd.append("--trace")
    if reference:
        cmd.append("--reference")
    # Its own session, so a timed-out round is killed with its workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundError(f"round {workload} seed {seed} timed out") from None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RoundError(f"round {workload} seed {seed} exited "
                         f"{proc.returncode} without a result") from None
    if out.get("error"):
        print(out["error"], file=sys.stderr)
    return out


def _load(path: str) -> Dict[str, Dict[str, object]]:
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def reference_digest(workload: str, seed: int) -> str:
    key = SPEC_KEY
    for path in (DIGESTS, DIGEST_CACHE):
        digest = _load(path).get(key, {}).get(str(seed))
        if digest:
            return digest
    out = run_round(workload, seed, reference=True)
    if out["failed"] or not out["digest"]:
        raise RoundError(f"reference round for {key} seed {seed} failed")
    cache = _load(DIGEST_CACHE)
    cache.setdefault(key, {})[str(seed)] = out["digest"]
    with open(DIGEST_CACHE, "w", encoding="utf-8") as f:
        json.dump(cache, f, indent=1, sort_keys=True)
    return out["digest"]


def run_value(name: str, rounds: List[dict]) -> float:
    """A run's value of the end-to-end metric *name* over its rounds.

    Throughput and wall time are means: ``runs_per_s`` pools all runs
    over all execute time, ``study_s`` averages the rounds.  A round's
    speed is bimodal (see README), and the median of a few rounds jumps
    between the modes where the mean converges on the expected cost.
    Set-up time and memory are medians.
    """
    if name == "runs_per_s":
        return (sum(r["planned"] for r in rounds)
                / sum(r["execute_s"] for r in rounds))
    values = [r[name] for r in rounds]
    if name == "study_s":
        return statistics.fmean(values)
    return statistics.median(values)


def _table(title: str, rows: Dict[str, List[float]],
           units: Dict[str, str], values: Dict[str, float]) -> None:
    print(title)
    print(f"  {'metric':<26} {'unit':<9} {'value':>12} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>3}")
    for name, v in rows.items():
        q1 = median = q3 = v[0]
        if len(v) > 1:
            q1, median, q3 = statistics.quantiles(v, n=4)
        print(f"  {name:<26} {units[name]:<9} {values[name]:>12.6g} "
              f"{median:>12.6g} {q1:>12.6g} {q3:>12.6g} {len(v):>3}")


def bench_workload(workload: str, seed: Optional[int], seconds: float,
                   trace: bool, declared: dict) -> dict:
    """Run one workload's rounds and summarise them."""
    seeds = round_seeds(seed, _load(COSTS).get(SPEC_KEY, {}))
    # Seeds come in pairs, and a trace run runs each seed twice.
    whole = 4 if trace else 2
    rounds: List[dict] = []
    measured = 0.0
    durations: List[float] = []
    correct = True
    good: List[dict] = []
    while True:
        # Trace runs pair each untraced round with a traced one on the
        # same study seed, so the tracing overhead compares like inputs.
        traced = trace and len(rounds) % 2 == 1
        if not traced:
            study_seed = next(seeds)
            # A seed with no recorded digest pays a cold reference
            # round here, outside the measured time.
            expected = reference_digest(workload, study_seed)
        t0 = time.monotonic()
        r = run_round(workload, study_seed, trace=traced)
        took = time.monotonic() - t0
        rounds.append(r)
        if r["digest"] == expected and not r["failed"] and not r["error"]:
            good.append(r)
        else:
            correct = False
            print(f"# round discarded: seed {study_seed} digest "
                  f"{r['digest']} (expected {expected}), {r['failed']} of "
                  f"{r['planned']} runs missing", file=sys.stderr)
        measured += took
        durations.append(took)
        # Stop on a whole pair, unless half of another one still fits.
        if len(rounds) % whole == 0 and \
                measured + whole / 2 * statistics.median(durations) > seconds:
            break
    attempted = sum(r["planned"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    env = rounds[0]["env"]
    print(f"# {workload} seed={seed} rounds={len(rounds)} study seeds="
          f"{','.join(str(r['seed']) for r in rounds)} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"threads/process={env['threads_per_process']}")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in declared["per_layer"]})
    units["failed_frac"] = "fraction"
    plain = [r for r in good if "layers" not in r]
    values: Dict[str, float] = {}
    if plain:
        rows = {m["name"]: [r[m["name"]] for r in plain]
                for m in declared["end_to_end"]}
        values = {name: run_value(name, plain) for name in rows}
        rows["failed_frac"] = [r["failed"] / r["planned"] for r in rounds]
        values["failed_frac"] = failed / attempted
        _table("end to end (untraced rounds)", rows, units, values)
        del values["failed_frac"]
    if trace:
        with_layers = [r for r in good if "layers" in r]
        values = {}
        if with_layers and plain:
            rows = {m["name"]: [r["layers"].get(m["name"])
                                for r in with_layers]
                    for m in declared["per_layer"]
                    if m["name"] != "trace_overhead"}
            missing = [name for name, v in rows.items() if None in v]
            if missing:
                raise RoundError(f"trace did not report {missing}")
            base = statistics.median(r["study_s"] for r in plain)
            rows["trace_overhead"] = [
                statistics.median(r["study_s"] for r in with_layers) / base
                - 1]
            values = {name: statistics.median(v) for name, v in rows.items()}
            _table("per layer (traced rounds, medians)", rows, units, values)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    return {"correct": correct and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help=f"one of {list(WORKLOADS)} or 'all'")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed: picks the study seeds the "
                             "rounds run (default: every round runs the "
                             "registered study's own seed)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to benchmark: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")

    results = {}
    for name in names:
        try:
            results[name] = bench_workload(name, args.seed, args.seconds,
                                           bool(args.trace), declared)
        except RoundError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] and not summary["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
