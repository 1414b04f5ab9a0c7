"""Compiling a :class:`StudySpec` onto the campaign engine.

``Study.plan()`` turns the declarative grid into the existing fused-sweep
machinery -- one :class:`~repro.core.engine.SweepPlan` whose cells share
a :class:`~repro.core.engine.ProfileGoldenCache` (each distinct
application runs fault-free exactly once per study, whatever kinds of
cell plan from it) -- and
``StudyPlan.execute()`` runs it to a uniform
:class:`~repro.study.resultset.ResultSet`.  Every driver-level surface
(the CLI ``study``/``sweep``/``campaign`` subcommands, the registered
paper studies) is a thin layer over this path, so checkpoints, resume,
and parallel execution behave identically everywhere.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.campaign import Campaign, CampaignResult
from repro.core.config import CampaignConfig
from repro.core.engine import (
    ProfileGoldenCache,
    SweepCell,
    SweepPlan,
    SweepResult,
    capture_golden,
    execute_sweep,
)
from repro.core.metadata_campaign import MetadataCampaign
from repro.errors import ConfigError
from repro.fusefs.vfs import FFISFileSystem
from repro.study.apps import resolve_app_factory
from repro.study.resultset import CellInfo, ResultSet
from repro.study.spec import CellSpec, StudySpec

FsFactory = Callable[[], FFISFileSystem]
Planner = Union[Campaign, MetadataCampaign]


@dataclass(frozen=True)
class CompiledCell:
    """One planned cell: its spec, planner, and engine cell."""

    spec: CellSpec
    planner: Planner
    cell: SweepCell

    @property
    def key(self) -> str:
        return self.cell.key


@dataclass
class StudyPlan:
    """A compiled study, ready to execute (or inspect) as one sweep."""

    spec: StudySpec
    sweep: SweepPlan
    cells: Tuple[CompiledCell, ...]
    cache: ProfileGoldenCache
    apps: Dict[str, object]

    def __len__(self) -> int:
        return len(self.sweep)

    def cell_info(self) -> Dict[str, CellInfo]:
        infos: Dict[str, CellInfo] = {}
        for compiled in self.cells:
            planner = compiled.planner
            if isinstance(planner, Campaign):
                infos[compiled.key] = CellInfo(
                    key=compiled.key,
                    campaign_id=compiled.cell.campaign_id,
                    app_name=planner.app.name,
                    signature=str(planner.signature),
                    phase=planner.config.phase,
                    scenario=None if planner.scenario.legacy
                    else planner.scenario.stamp(),
                    kind="fault")
            else:
                infos[compiled.key] = CellInfo(
                    key=compiled.key,
                    campaign_id=compiled.cell.campaign_id,
                    app_name=planner.app.name,
                    signature=f"metadata[{planner.mode}]",
                    kind="metadata")
        return infos

    def execute(self, workers: Optional[int] = None,
                results_path: Optional[str] = None,
                resume: Optional[bool] = None,
                progress: Optional[Callable[[int, int], None]] = None,
                hosts: Optional[int] = None,
                queue_root: Optional[str] = None,
                quarantine_after: Optional[int] = None) -> ResultSet:
        """Run the study through one fused sweep execution.

        Keyword arguments override the spec's engine knobs; the study
        checkpoints to one multiplexed JSONL file and resumes by
        re-executing only the missing (cell, run index) pairs.

        ``hosts > 1`` runs the sweep on the lease-queue fleet
        (:class:`~repro.core.engine.dist.FleetExecutor`): the plan is
        sharded into leases, drained by ``hosts`` forked worker
        processes through the queue directory at ``queue_root``, and
        merged back into records the sweep writes, orders and resumes
        as it does for serial execution -- the checkpoint is
        byte-identical to serial.  ``resume`` also re-opens the queue
        at ``queue_root``.  Fallbacks the fleet took are reported on
        ``result.degradation``.  ``progress(completed, total)`` is
        called once per emitted record with every backend; the
        fleet's records are emitted after it settles.  Without
        ``queue_root`` the queue is a throwaway temporary directory:
        it is removed when the call returns, and kept (for a resume
        with an explicit ``queue_root``) when the call raises.  A knob
        that does not apply -- ``workers`` with ``hosts > 1``,
        ``queue_root`` or ``quarantine_after`` without -- raises
        :class:`ConfigError`.
        """
        spec = self.spec
        results_path = spec.out if results_path is None else results_path
        resume = spec.resume if resume is None else resume
        distributed = hosts is not None and hosts > 1
        if distributed and workers is not None:
            raise ConfigError("workers (--workers) does not apply with "
                              "hosts > 1: the fleet forks one worker per host")
        for knob, value in (("queue_root (--queue)", queue_root),
                            ("quarantine_after (--quarantine-after)",
                             quarantine_after)):
            if value is not None and not distributed:
                raise ConfigError(f"{knob} applies only with hosts > 1")
        executor = None
        throwaway = distributed and queue_root is None
        if distributed:
            from repro.core.engine.dist import (
                DEFAULT_QUARANTINE_AFTER,
                FleetExecutor,
            )

            if throwaway:
                queue_root = tempfile.mkdtemp(prefix="repro-queue-")
            executor = FleetExecutor(
                queue_root, workers=hosts, resume=resume,
                quarantine_after=DEFAULT_QUARANTINE_AFTER
                if quarantine_after is None else quarantine_after)
        sweep = execute_sweep(
            self.sweep, executor=executor,
            workers=spec.workers if workers is None else workers,
            results_path=results_path, resume=resume, progress=progress)
        if throwaway:
            shutil.rmtree(queue_root)
        return self.result_set(sweep)

    def result_set(self, sweep: SweepResult) -> ResultSet:
        """The study's view of one execution's records and bookkeeping."""
        return ResultSet(
            {cell.key: sweep.records[cell.key] for cell in self.cells},
            info=self.cell_info(),
            fault_free_runs=self.cache.fault_free_runs(),
            executed=sweep.executed,
            elapsed_seconds=sweep.elapsed_seconds,
            degradation=sweep.degradation)

    def campaign_results(self, results: ResultSet) -> Dict[str, CampaignResult]:
        """Adapt a result set to per-cell :class:`CampaignResult`\\ s
        (fault cells only), pulling each cell's golden from the study
        cache -- a hit, since planning already paid for it -- and
        deriving its profile from that record."""
        out: Dict[str, CampaignResult] = {}
        for compiled in self.cells:
            campaign = compiled.planner
            if not isinstance(campaign, Campaign):
                continue
            golden = self.cache.golden(
                campaign.app, campaign.fs_factory, campaign.capture_golden)
            out[compiled.key] = CampaignResult(
                app_name=campaign.app.name,
                signature=str(campaign.signature),
                phase=campaign.config.phase,
                records=results.cell(compiled.key),
                profile=campaign.profile_from_golden(golden), golden=golden,
                scenario=None if campaign.scenario.legacy
                else campaign.scenario.stamp())
        return out

    def describe(self) -> str:
        """The spec's cell listing plus this plan's realized run count
        (planning already resolved apps, so the total is exact here;
        for a listing that executes nothing, use ``spec.describe()``)."""
        return (self.spec.describe()
                + f"planned: {len(self.sweep)} runs\n")


class Study:
    """Binds a spec to concrete applications and compiles it to a plan.

    ``apps`` overrides the application registry per id (an instance or a
    zero-argument factory) -- studies over custom applications stay
    declarative, only the binding is code.  Every target naming the same
    app id shares one application instance, which is what lets the
    profile/golden cache amortize their fault-free work.
    """

    def __init__(self, spec: StudySpec,
                 apps: Optional[Mapping[str, object]] = None,
                 fs_factory: FsFactory = FFISFileSystem) -> None:
        self.spec = spec
        self.fs_factory = fs_factory
        self.cache = ProfileGoldenCache()
        self._overrides = dict(apps or {})

    # -- binding ----------------------------------------------------------------

    def _resolve_app(self, app_id: str) -> object:
        override = self._overrides.get(app_id)
        if override is not None:
            return override() if callable(override) else override
        return resolve_app_factory(app_id)()

    def resolve_apps(self) -> Dict[str, object]:
        """One application instance per distinct app id of the spec."""
        return {app_id: self._resolve_app(app_id)
                for app_id in self.spec.app_ids()}

    # -- compilation ------------------------------------------------------------

    def _runs(self) -> int:
        if self.spec.runs is not None:
            return self.spec.runs
        from repro.experiments.params import default_runs

        return default_runs()

    def _compile_fault_cell(self, cell: CellSpec, app) -> CompiledCell:
        config = CampaignConfig(
            fault_model=cell.model.model,
            model_params=cell.model.params_dict,
            n_runs=self._runs(),
            seed=self.spec.seed,
            phase=cell.target.phase,
            scenario=cell.scenario.scenario)
        campaign = Campaign(app, config, self.fs_factory)
        return CompiledCell(spec=cell, planner=campaign,
                            cell=campaign.plan_cell(cell.key, self.cache))

    def _compile_metadata_cell(self, cell: CellSpec, app) -> CompiledCell:
        target = cell.target
        campaign = MetadataCampaign(app, seed=self.spec.seed,
                                    mode=target.mode,
                                    fs_factory=self.fs_factory)
        # The golden capture doubles as the field-map harvest: writers
        # that publish one (mini-HDF5) expose it afterwards, apps
        # without one sweep unannotated.
        self.cache.golden(
            app, self.fs_factory, lambda: capture_golden(app, self.fs_factory))
        write_result = getattr(app, "last_write_result", None)
        campaign.fieldmap = getattr(write_result, "fieldmap", None)
        return CompiledCell(
            spec=cell, planner=campaign,
            cell=campaign.plan_cell(cell.key, self.cache, target.stride,
                                    target.bits))

    def plan(self) -> StudyPlan:
        """Compile the grid: resolve apps, plan every cell against the
        shared cache, and fuse the cells into one sweep plan."""
        apps = self.resolve_apps()
        compiled: List[CompiledCell] = []
        for cell in self.spec.cells():
            app = apps[cell.target.app]
            if cell.target.kind == "metadata":
                compiled.append(self._compile_metadata_cell(cell, app))
            else:
                compiled.append(self._compile_fault_cell(cell, app))
        sweep = SweepPlan(cells=tuple(c.cell for c in compiled))
        return StudyPlan(spec=self.spec, sweep=sweep, cells=tuple(compiled),
                         cache=self.cache, apps=apps)

    # -- convenience ------------------------------------------------------------

    def run(self, workers: Optional[int] = None,
            results_path: Optional[str] = None,
            resume: Optional[bool] = None,
            progress: Optional[Callable[[int, int], None]] = None,
            hosts: Optional[int] = None,
            queue_root: Optional[str] = None,
            quarantine_after: Optional[int] = None) -> ResultSet:
        """``plan().execute(...)`` in one call."""
        return self.plan().execute(workers=workers, results_path=results_path,
                                   resume=resume, progress=progress,
                                   hosts=hosts, queue_root=queue_root,
                                   quarantine_after=quarantine_after)


def run_study(spec: StudySpec, apps: Optional[Mapping[str, object]] = None,
              **knobs) -> ResultSet:
    """Run a spec end to end (the one-liner form of :class:`Study`)."""
    return Study(spec, apps=apps).run(**knobs)
