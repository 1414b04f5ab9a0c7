"""Compiling a :class:`StudySpec` onto the campaign engine.

``Study.plan()`` turns the declarative grid into the existing fused-sweep
machinery -- one :class:`~repro.core.engine.SweepPlan` whose cells share
a :class:`~repro.core.engine.ProfileGoldenCache` (each distinct
application's fault-free work runs exactly once per study) -- and
``StudyPlan.execute()`` runs it to a uniform
:class:`~repro.study.resultset.ResultSet`.  Every driver-level surface
(the CLI ``study``/``sweep``/``campaign`` subcommands, the registered
paper studies) is a thin layer over this path, so checkpoints, resume,
and parallel execution behave identically everywhere.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.campaign import Campaign, CampaignResult
from repro.core.config import CampaignConfig
from repro.core.engine import (
    ProfileGoldenCache,
    SweepCell,
    SweepPlan,
    SweepResult,
    execute_sweep,
)
from repro.core.metadata_campaign import MetadataCampaign, MetadataWriteInfo
from repro.errors import FFISError
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
    #: Metadata cells: where the swept write lives (``None`` otherwise).
    metadata: Optional[MetadataWriteInfo] = None

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
    campaigns: Dict[str, Planner] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.campaigns:
            self.campaigns = {cell.key: cell.planner for cell in self.cells}

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
                lease_runs: Optional[int] = None,
                lease_ttl: float = 30.0,
                quarantine_after: Optional[int] = None) -> ResultSet:
        """Run the study through one fused sweep execution.

        Keyword arguments override the spec's engine knobs; the study
        checkpoints to one multiplexed JSONL file and resumes by
        re-executing only the missing (cell, run index) pairs.

        ``hosts > 1`` switches to the lease-queue distributed engine
        (:func:`~repro.core.engine.dist.execute_distributed`): the plan
        is sharded into leases, drained by ``hosts`` forked worker
        processes through the queue directory at ``queue_root`` (a
        throwaway default, so resuming needs an explicit one), and
        merged back into a result -- and checkpoint -- byte-identical
        to serial execution.  Fallbacks the fleet took are reported on
        ``result.degradation``.
        """
        spec = self.spec
        results_path = spec.out if results_path is None else results_path
        resume = spec.resume if resume is None else resume
        if hosts is not None and hosts > 1:
            from repro.core.engine.dist import (
                DEFAULT_QUARANTINE_AFTER,
                execute_distributed,
            )

            if queue_root is None:
                if resume:
                    raise FFISError(
                        "resume=True needs the queue_root of the "
                        "interrupted campaign; a fresh throwaway queue "
                        "has nothing to resume")
                queue_root = tempfile.mkdtemp(prefix="repro-queue-")
            sweep = execute_distributed(
                self.sweep, queue_root, workers=hosts,
                lease_runs=lease_runs, lease_ttl=lease_ttl,
                results_path=results_path, resume=resume,
                quarantine_after=DEFAULT_QUARANTINE_AFTER
                if quarantine_after is None else quarantine_after)
        else:
            sweep = execute_sweep(
                self.sweep,
                workers=spec.workers if workers is None else workers,
                results_path=results_path, resume=resume,
                progress=progress)
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
        (fault cells only), pulling each cell's profile/golden from the
        study cache -- hits, since planning already paid for them."""
        out: Dict[str, CampaignResult] = {}
        for compiled in self.cells:
            campaign = compiled.planner
            if not isinstance(campaign, Campaign):
                continue
            golden = self.cache.golden(
                campaign.app, campaign.fs_factory, campaign.capture_golden)
            profile = self.cache.derived_profile(
                campaign.app, campaign.fs_factory,
                campaign.signature.primitive,
                lambda: campaign.profile_from_golden(golden))
            out[compiled.key] = CampaignResult(
                app_name=campaign.app.name,
                signature=str(campaign.signature),
                phase=campaign.config.phase,
                records=results.cell(compiled.key),
                profile=profile, golden=golden,
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
                 fs_factory: FsFactory = FFISFileSystem,
                 cache: Optional[ProfileGoldenCache] = None) -> None:
        self.spec = spec
        self.fs_factory = fs_factory
        self.cache = cache if cache is not None else ProfileGoldenCache()
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
        info, golden = self.cache.locate(app, self.fs_factory,
                                         campaign.locate_metadata_write)
        # The locate trace doubles as the field-map harvest: writers
        # that publish one (mini-HDF5) expose it afterwards, apps
        # without one sweep unannotated.
        write_result = getattr(app, "last_write_result", None)
        campaign.fieldmap = getattr(write_result, "fieldmap", None)
        if target.mode == "targeted":
            plan = campaign.plan_targets(target.bits, located=(info, golden))
            campaign_id = campaign.targeted_campaign_id(target.bits, golden)
        else:
            plan = campaign.plan(target.stride, located=(info, golden))
            campaign_id = campaign.campaign_id(target.stride, golden)
        return CompiledCell(
            spec=cell, planner=campaign, metadata=info,
            cell=SweepCell(key=cell.key, plan=plan, campaign_id=campaign_id))

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
