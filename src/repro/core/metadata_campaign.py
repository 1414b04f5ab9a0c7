"""Byte-by-byte HDF5-metadata fault injection (paper Sec. IV-D).

The paper keys on how the HDF5 library creates a file: raw data writes
first, then one packed metadata write (the **penultimate** ``fwrite``),
then the close/unlock.  The campaign:

1. reads the penultimate ``ffis_write`` and its buffer extent off the
   golden capture's write log (the one fault-free run every campaign
   kind plans from; see :attr:`repro.apps.base.GoldenRecord.writes`),
2. for every byte offset in that buffer (from the write's file offset to
   the end of the buffer), runs the application with exactly that byte
   corrupted (one bit flipped, or every bit in ``all-bits`` mode),
3. classifies each run and annotates it with the metadata field owning
   the byte (via the writer's :class:`FieldMap`), reproducing Table III
   and the per-field symptom analysis of Table IV.

Like :class:`repro.core.campaign.Campaign`, this is a *planner* over the
campaign engine: the byte/bit sweep becomes a declarative spec list, so
the exhaustive ~2,500-run Table III sweep parallelizes across worker
processes and checkpoints to a resumable JSONL file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.base import GoldenRecord, HpcApplication
from repro.core.engine import (
    ExecutionContext,
    ProfileGoldenCache,
    RunPlan,
    RunSpec,
    SweepCell,
    capture_golden,
    execute_plan,
    execute_run_spec,
    golden_digest,
)
from repro.core.outcomes import Outcome, OutcomeTally, RunRecord
from repro.errors import FFISError
from repro.fusefs.interposer import PrimitiveCall
from repro.fusefs.vfs import FFISFileSystem
from repro.mhdf5.fieldmap import FieldMap
from repro.util.bitops import flip_bit
from repro.util.rngstream import RngStream

FsFactory = Callable[[], FFISFileSystem]


@dataclass(frozen=True)
class MetadataWriteInfo:
    """Location of the metadata blob write in the dynamic write sequence."""

    write_index: int      # dynamic seqno of the penultimate ffis_write
    file_offset: int
    size: int


class _ByteCorruptionHook:
    """Flips one bit of one byte of one specific write."""

    def __init__(self, write_index: int, byte_offset: int, bit: int) -> None:
        self.write_index = write_index
        self.byte_offset = byte_offset
        self.bit = bit
        self.fired = False
        self.note = ""

    def __call__(self, call: PrimitiveCall) -> None:
        if call.primitive != "ffis_write" or call.seqno != self.write_index:
            return None
        buf = bytes(call.args["buf"])
        if self.byte_offset >= len(buf):
            return None
        self.fired = True
        call.args["buf"] = flip_bit(buf, 8 * self.byte_offset + self.bit)
        return None


class ByteCorruptionContext(ExecutionContext):
    """Arms the single-byte corruption named by the spec."""

    not_fired_note = "[warning: corruption never applied]"

    def __init__(self, app: HpcApplication, golden: GoldenRecord,
                 write_index: int,
                 fs_factory: FsFactory = FFISFileSystem) -> None:
        super().__init__(app, golden, fs_factory)
        self.write_index = write_index

    def arm(self, fs: FFISFileSystem, spec: RunSpec) -> _ByteCorruptionHook:
        hook = _ByteCorruptionHook(self.write_index, spec.byte_offset,
                                   spec.bit_index)
        fs.interposer.add_hook("ffis_write", hook)
        return hook

    def replay_constraint(self, spec: RunSpec):
        from repro.core.engine.replay import ReplayConstraint

        return ReplayConstraint(primitive="ffis_write",
                                points=(self.write_index,))


@dataclass
class MetadataCampaignResult:
    app_name: str
    mode: str
    records: List[RunRecord] = field(default_factory=list)
    metadata: Optional[MetadataWriteInfo] = None
    fieldmap: Optional[FieldMap] = None
    elapsed_seconds: float = 0.0

    @property
    def tally(self) -> OutcomeTally:
        return OutcomeTally.from_records(self.records)

    def summary(self) -> str:
        return (f"{self.app_name}/metadata[{self.mode}]: {self.tally} "
                f"({len(self.records)} runs)")

    def fields_by_outcome(self) -> Dict[Outcome, List[str]]:
        """Distinct field names observed per outcome, in frequency order
        (Table III's 'Example Metadata Fields' column)."""
        buckets: Dict[Outcome, Dict[str, int]] = {o: {} for o in Outcome}
        for record in self.records:
            name = record.field_name or "?"
            counts = buckets[record.outcome]
            counts[name] = counts.get(name, 0) + 1
        return {o: [name for name, _ in
                    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
                for o, counts in buckets.items()}

    def records_for_field(self, substring: str) -> List[RunRecord]:
        return [r for r in self.records
                if r.field_name and substring in r.field_name]


class MetadataCampaign:
    """Exhaustive per-byte corruption of an app's HDF5 metadata write."""

    def __init__(self, app: HpcApplication, fieldmap: Optional[FieldMap] = None,
                 fs_factory: FsFactory = FFISFileSystem, seed: int = 0,
                 mode: str = "random-bit", workers: int = 1) -> None:
        if mode not in ("random-bit", "all-bits", "targeted"):
            raise FFISError(f"unknown metadata campaign mode {mode!r}")
        if workers < 1:
            raise FFISError(f"workers must be >= 1, got {workers}")
        self.app = app
        self.fieldmap = fieldmap
        self.fs_factory = fs_factory
        self.seed = seed
        self.mode = mode
        self.workers = workers

    # -- discovery ---------------------------------------------------------------

    def site_from_golden(self, golden: GoldenRecord) -> MetadataWriteInfo:
        """The penultimate fault-free write, read off *golden*'s write
        log: the metadata site costs no run beyond the golden capture."""
        if len(golden.writes) < 2:
            raise FFISError(
                f"{self.app.name} performed {len(golden.writes)} writes; "
                "the penultimate-write heuristic needs at least 2")
        index = len(golden.writes) - 2
        offset, size = golden.writes[index]
        return MetadataWriteInfo(write_index=index, file_offset=offset,
                                 size=size)

    def locate_metadata_write(self) -> Tuple[MetadataWriteInfo, GoldenRecord]:
        """Capture the golden record and locate the penultimate write in
        it (see :meth:`site_from_golden`)."""
        golden = capture_golden(self.app, self.fs_factory)
        return self.site_from_golden(golden), golden

    # -- one case ---------------------------------------------------------------

    def _spec(self, info: MetadataWriteInfo, byte_offset: int, bit: int,
              run_index: int) -> RunSpec:
        field_name: Optional[str] = None
        if self.fieldmap is not None:
            span = self.fieldmap.field_at(info.file_offset + byte_offset)
            field_name = span.qualified_name if span else "unmapped"
        return RunSpec(run_index=run_index, target_instance=info.write_index,
                       byte_offset=byte_offset, bit_index=bit,
                       field_name=field_name)

    def run_case(self, info: MetadataWriteInfo, golden: GoldenRecord,
                 byte_offset: int, bit: int, run_index: int) -> RunRecord:
        context = ByteCorruptionContext(self.app, golden, info.write_index,
                                        self.fs_factory)
        return execute_run_spec(
            context, self._spec(info, byte_offset, bit, run_index))

    # -- planning ---------------------------------------------------------------

    def plan(self, byte_stride: int = 1,
             located: Optional[Tuple[MetadataWriteInfo, GoldenRecord]] = None,
             ) -> RunPlan:
        """The sweep as a declarative spec list (every ``byte_stride``-th
        byte; one seed-derived bit per byte in ``random-bit`` mode, all 8
        in ``all-bits``)."""
        if self.mode == "targeted":
            raise FFISError(
                "a targeted campaign names its own (field, byte, bit) "
                "sites; plan it with plan_targets, not a byte sweep")
        info, golden = located if located is not None \
            else self.locate_metadata_write()
        stream = RngStream(self.seed, "metadata", self.app.name)
        specs: List[RunSpec] = []
        for byte_offset in range(0, info.size, byte_stride):
            if self.mode == "all-bits":
                bits = range(8)
            else:
                bits = [int(stream.child(byte_offset).generator()
                            .integers(0, 8))]
            for bit in bits:
                specs.append(self._spec(info, byte_offset, bit, len(specs)))
        context = ByteCorruptionContext(self.app, golden, info.write_index,
                                        self.fs_factory)
        return RunPlan(context=context, specs=tuple(specs))

    def plan_targets(self, targets,
                     located: Optional[Tuple[MetadataWriteInfo, GoldenRecord]] = None,
                     ) -> RunPlan:
        """Targeted per-field corruption (Table IV's study shape): one
        spec per ``(field-substring, byte-in-field, bit)`` triplet,
        resolved against the writer's field map."""
        if self.fieldmap is None:
            raise FFISError("targeted metadata planning needs a field map")
        info, golden = located if located is not None \
            else self.locate_metadata_write()
        specs: List[RunSpec] = []
        for substring, byte_in_field, bit in targets:
            spans = [s for s in self.fieldmap if substring in s.name]
            if not spans:
                raise FFISError(f"field {substring!r} not found in field map")
            byte_offset = spans[0].start + byte_in_field - info.file_offset
            specs.append(self._spec(info, byte_offset, bit, len(specs)))
        context = ByteCorruptionContext(self.app, golden, info.write_index,
                                        self.fs_factory)
        return RunPlan(context=context, specs=tuple(specs))

    def targeted_campaign_id(self, targets, golden: GoldenRecord) -> str:
        """Checkpoint identity of a targeted per-field plan (run index
        *i* names a different field under a different target list)."""
        stamp = ",".join(f"{name}+{byte}:{bit}"
                         for name, byte, bit in targets)
        return (f"{self.app.name}/metadata[targeted]"
                f"/bits={stamp}/seed={self.seed}"
                f"/golden={golden_digest(golden)}")

    def campaign_id(self, byte_stride: int, golden: GoldenRecord) -> str:
        """Identity stamped on checkpoint lines; includes the stride
        (run index *i* names a different byte under a different stride)
        and the golden-output digest (the app name can't distinguish two
        differently-configured instances)."""
        return (f"{self.app.name}/metadata[{self.mode}]"
                f"/stride={byte_stride}/seed={self.seed}"
                f"/golden={golden_digest(golden)}")

    def plan_cell(self, key: str, cache: ProfileGoldenCache,
                  byte_stride: int = 1, targets=()) -> SweepCell:
        """This campaign as one cell of a fused multi-campaign sweep.

        The golden record comes from the sweep's shared cache and the
        metadata-write site is derived from it, so many cells over the
        same application -- different modes or strides, or alongside
        instance-targeted campaign cells, in either order -- share one
        fault-free capture.  A ``targeted`` campaign plans ``targets``
        (see :meth:`plan_targets`); the other modes sweep every
        ``byte_stride``-th byte (see :meth:`plan`).
        """
        golden = cache.golden(self.app, self.fs_factory,
                              lambda: capture_golden(self.app, self.fs_factory))
        located = (self.site_from_golden(golden), golden)
        if self.mode == "targeted":
            return SweepCell(key=key,
                             plan=self.plan_targets(targets, located=located),
                             campaign_id=self.targeted_campaign_id(targets,
                                                                   golden))
        return SweepCell(key=key, plan=self.plan(byte_stride, located=located),
                         campaign_id=self.campaign_id(byte_stride, golden))

    # -- the sweep -----------------------------------------------------------------

    def run(self, byte_stride: int = 1,
            progress: Optional[Callable[[int, int], None]] = None,
            workers: Optional[int] = None,
            results_path: Optional[str] = None,
            resume: bool = False,
            located: Optional[Tuple[MetadataWriteInfo, GoldenRecord]] = None,
            ) -> MetadataCampaignResult:
        """Sweep the metadata bytes (every ``byte_stride``-th byte).

        ``random-bit`` flips one seed-derived bit per byte (one case per
        byte, the paper's case count); ``all-bits`` runs all 8 bits.
        Pass ``located`` to reuse an earlier :meth:`locate_metadata_write`
        (e.g. after harvesting the writer's field map from that run)
        instead of capturing the golden record again.
        """
        # repro: allow[R001] elapsed_seconds is reporting-only, never recorded
        start = time.perf_counter()
        info, golden = located if located is not None \
            else self.locate_metadata_write()
        plan = self.plan(byte_stride, located=(info, golden))
        records = execute_plan(
            plan,
            workers=self.workers if workers is None else workers,
            results_path=results_path,
            resume=resume,
            campaign_id=self.campaign_id(byte_stride, golden),
            progress=progress)
        result = MetadataCampaignResult(app_name=self.app.name, mode=self.mode,
                                        records=records,
                                        metadata=info, fieldmap=self.fieldmap)
        # repro: allow[R001] elapsed_seconds is reporting-only, never recorded
        result.elapsed_seconds = time.perf_counter() - start
        return result
