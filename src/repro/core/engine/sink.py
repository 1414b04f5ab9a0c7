"""Streaming result sinks: tally, JSONL persistence, checkpoint/resume.

Records leave the executor one at a time; sinks consume them as a
stream so a million-run campaign never needs its records resident to be
tabulated or persisted.  The JSONL schema (one record per line, schema
version stamped on every line) is the stable on-disk contract: a
checkpointed campaign resumes by reading the completed run indices back
out of the file and executing only the remainder.
"""

from __future__ import annotations

import json
import os
from abc import ABC, abstractmethod
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.outcomes import Outcome, OutcomeTally, RunRecord
from repro.errors import FFISError

#: Bump when a RunRecord field changes meaning; readers reject newer
#: schemas instead of misinterpreting them.  v1 is the single-fault
#: schema; v2 adds the multi-fault ``scenario``/``instances`` stamp.
SCHEMA_VERSION = 2

_RECORD_KEYS = ("v", "run_index", "outcome", "target_instance", "phase",
                "detail", "byte_offset", "bit_index", "field_name",
                "fault_fired", "instances", "scenario")


def record_to_json(record: RunRecord) -> Dict[str, Any]:
    """The stable JSONL representation of one run record.

    Each line is stamped with the *minimal* schema version able to
    represent it: legacy single-fault records keep the exact v1 layout
    (byte-identical to pre-scenario checkpoints, which is what lets the
    golden-fixture compatibility tests compare whole files), and only
    scenario-stamped records carry the v2 keys.
    """
    raw = {
        "v": 1,
        "run_index": record.run_index,
        "outcome": record.outcome.value,
        "target_instance": record.target_instance,
        "phase": record.phase,
        "detail": record.detail,
        "byte_offset": record.byte_offset,
        "bit_index": record.bit_index,
        "field_name": record.field_name,
        "fault_fired": record.fault_fired,
    }
    if record.scenario is not None or record.instances is not None:
        raw["v"] = 2
        raw["scenario"] = record.scenario
        raw["instances"] = (None if record.instances is None
                            else list(record.instances))
    return raw


def format_stamped_line(record: RunRecord,
                        campaign_id: Optional[str]) -> str:
    """The canonical JSONL line for one (record, campaign stamp) pair.

    Every writer -- the sweep's checkpoint sink and the distributed
    workers' segment files -- formats lines through this one function,
    which is what makes "distributed output is byte-identical to serial
    output" a property of construction rather than of luck.
    """
    raw = record_to_json(record)
    if campaign_id is not None:
        raw["campaign"] = campaign_id
    return json.dumps(raw, sort_keys=True) + "\n"


def record_from_json(raw: Dict[str, Any]) -> RunRecord:
    version = raw.get("v", SCHEMA_VERSION)
    if version > SCHEMA_VERSION:
        raise FFISError(
            f"results file uses schema v{version}; this build reads up to "
            f"v{SCHEMA_VERSION}")
    instances = raw.get("instances")
    return RunRecord(
        run_index=int(raw["run_index"]),
        outcome=Outcome(raw["outcome"]),
        target_instance=int(raw.get("target_instance", -1)),
        phase=raw.get("phase"),
        detail=raw.get("detail", ""),
        byte_offset=raw.get("byte_offset"),
        bit_index=raw.get("bit_index"),
        field_name=raw.get("field_name"),
        fault_fired=bool(raw.get("fault_fired", True)),
        instances=None if instances is None
        else tuple(int(i) for i in instances),
        scenario=raw.get("scenario"),
    )


def iter_stamped_records(path: str) -> Iterator[Tuple[int, Optional[str], RunRecord]]:
    """Yield ``(lineno, campaign_stamp, record)`` for every results line.

    The file is streamed line by line -- this is the module's O(1)-in-
    file-size contract, and what keeps million-run resumes (and shard
    merges, and both ``load_records`` variants) from loading a whole
    checkpoint into memory at once.

    A truncated final line is dropped only when the file lacks a
    trailing newline -- that is the one case where the writer was
    provably killed mid-``emit``.  Iterating the file in binary mode
    makes that rule local: every line except possibly the last carries
    its own ``\\n``, so an unterminated line *is* the final line.  A
    final line that is newline-terminated was fully written, so failing
    to decode it means the checkpoint is genuinely corrupt: that
    raises, like corruption anywhere else, instead of silently
    shrinking a resumed campaign.
    """
    with open(path, "rb") as f:
        for lineno, raw_line in enumerate(f):
            terminated = raw_line.endswith(b"\n")
            if not raw_line.strip():
                continue
            try:
                raw = json.loads(raw_line.decode("utf-8"))
                record = record_from_json(raw)
            except (json.JSONDecodeError, KeyError, ValueError,
                    UnicodeDecodeError) as exc:
                if not terminated:
                    break  # partial final write from a killed campaign
                raise FFISError(
                    f"{path}:{lineno + 1}: undecodable results line: {exc}"
                ) from exc
            yield lineno, raw.get("campaign"), record


def load_records(path: str, campaign_id: Optional[str] = None) -> List[RunRecord]:
    """Read a JSONL results file back into records.

    An unterminated final line (the run in flight when a campaign was
    killed) is silently dropped; corruption anywhere else is an error.
    When *campaign_id* is given, any line stamped with a *different*
    campaign identity is rejected -- resuming run 17 of a BF campaign
    from a DW checkpoint would silently merge unrelated science.
    Unstamped lines (written by bare sinks) are accepted as-is.
    """
    records: List[RunRecord] = []
    for lineno, stamped, record in iter_stamped_records(path):
        if campaign_id is not None and stamped is not None \
                and stamped != campaign_id:
            raise FFISError(
                f"{path}:{lineno + 1}: checkpoint belongs to campaign "
                f"{stamped!r}, not {campaign_id!r}; refusing to merge "
                "unrelated results (use a different --out file)")
        records.append(record)
    return records


def load_records_by_campaign(path: str) -> Dict[Optional[str], List[RunRecord]]:
    """Records of a multiplexed sweep checkpoint, grouped by their
    per-line campaign stamp (``None`` groups unstamped legacy lines)."""
    groups: Dict[Optional[str], List[RunRecord]] = {}
    for _, stamped, record in iter_stamped_records(path):
        groups.setdefault(stamped, []).append(record)
    return groups


def merge_shard_records(
    paths: Sequence[str],
) -> Tuple[Dict[Optional[str], Dict[int, RunRecord]], int]:
    """Merge per-worker shard checkpoints, deduplicating re-executions.

    A lease re-assigned after a worker died mid-range is re-executed
    whole, so two shards can legitimately both carry the same
    ``(campaign stamp, run index)`` pair; runs are deterministic in
    their spec, so the copies are identical and the *first* one (in
    sorted shard order, for stable merges) is kept.  Returns the merged
    ``{stamp: {run_index: record}}`` groups plus the number of
    duplicate lines dropped.  Each shard is streamed line by line; a
    shard file that was never created (its worker claimed no lease) is
    skipped.
    """
    groups: Dict[Optional[str], Dict[int, RunRecord]] = {}
    duplicates = 0
    for path in sorted(paths):
        if not os.path.exists(path):
            continue
        for _, stamped, record in iter_stamped_records(path):
            cell = groups.setdefault(stamped, {})
            if record.run_index in cell:
                duplicates += 1
            else:
                cell[record.run_index] = record
    return groups, duplicates


def refuse_overwrite(results_path: Optional[str], resume: bool) -> None:
    """Refuse, before any run executes, to start a campaign over a
    results file that holds runs: writing it would silently discard
    paid-for runs.  Only a missing or empty file may be (re)started in
    place; a populated one must be resumed."""
    if results_path is not None and not resume and \
            os.path.exists(results_path) and os.path.getsize(results_path):
        raise FFISError(
            f"{results_path} already contains results; resume it "
            "(--resume / resume=True) or write to a fresh --out path "
            "instead of overwriting completed runs")


def _trim_partial_tail(path: str) -> None:
    """Drop an unterminated final line before appending to a checkpoint.

    A campaign killed mid-``emit`` leaves a partial record with no
    trailing newline; appending straight after it would weld two records
    onto one undecodable line and poison every later resume.  The
    partial record is the run that was in flight -- re-executing it is
    exactly what resume does anyway.

    The scan works backwards from the end of the file in bounded
    chunks, so the cost is O(partial line), not O(checkpoint) -- part
    of the module's contract that resuming a million-run campaign never
    loads its checkpoint into memory.
    """
    try:
        f = open(path, "rb+")
    except FileNotFoundError:
        return
    with f:
        pos = f.seek(0, os.SEEK_END)
        if pos == 0:
            return
        f.seek(pos - 1)
        if f.read(1) == b"\n":
            return
        chunk = 4096
        while pos > 0:
            step = min(chunk, pos)
            pos -= step
            f.seek(pos)
            data = f.read(step)
            cut = data.rfind(b"\n")
            if cut != -1:
                f.truncate(pos + cut + 1)
                return
        f.truncate(0)


class ResultSink(ABC):
    """Consumer of the executor's record stream."""

    @abstractmethod
    def emit(self, record: RunRecord) -> None:
        """Consume one completed record."""

    def close(self) -> None:
        """Flush/release resources; called exactly once by the engine."""


class TallySink(ResultSink):
    """Streaming outcome tally -- statistics without retaining records."""

    def __init__(self) -> None:
        self.tally = OutcomeTally()

    def emit(self, record: RunRecord) -> None:
        self.tally.add_record(record)


class JsonlSink(ResultSink):
    """Appends each record to a JSONL file the moment it completes.

    Every line is flushed immediately: the file is the campaign's
    checkpoint, so durability per record matters more than throughput
    (the application runs dwarf the write cost).
    """

    def __init__(self, path: str, append: bool = False,
                 campaign_id: Optional[str] = None) -> None:
        self.path = path
        self.campaign_id = campaign_id
        if append:
            _trim_partial_tail(path)
        self._f = open(path, "a" if append else "w", encoding="utf-8")

    def emit(self, record: RunRecord) -> None:
        self.emit_stamped(record, self.campaign_id)

    def emit_stamped(self, record: RunRecord,
                     campaign_id: Optional[str]) -> None:
        """Append one record under an explicit per-record stamp.

        This is the multiplexing primitive: a fused sweep writes every
        cell's records to one file, each line stamped with its own
        campaign identity, so resume can split the stream back apart.
        """
        self._f.write(format_stamped_line(record, campaign_id))
        self._f.flush()

    def close(self) -> None:
        if not self._f.closed:
            self._f.close()
