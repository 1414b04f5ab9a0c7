"""The statistical fault-injection campaign planner (paper Fig. 4).

For each run: pick a uniformly random dynamic instance of the target
primitive (within the whole run or one named application phase), mount a
fresh file system, execute the application with a one-shot injection hook
armed, unmount, and classify the outcome against the golden record.  The
mount/unmount-per-run discipline matches the paper's protocol.

The per-run loop body lives in the campaign engine
(:mod:`repro.core.engine`); :class:`Campaign` is a *planner* that turns
its configuration into a declarative :class:`RunPlan` and hands it to an
executor, so the same campaign runs serially or across worker processes
with record-for-record identical results, optionally checkpointed to a
resumable JSONL file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.apps.base import GoldenRecord, HpcApplication
from repro.core.config import CampaignConfig
from repro.core.engine import (
    ArmedHook,
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
from repro.core.generator import FaultGenerator
from repro.core.outcomes import Outcome, OutcomeTally, RunRecord
from repro.core.profiler import IOProfiler, ProfileResult
from repro.core.scenario import FaultScenario, SingleFault, as_scenario
from repro.core.signature import FaultSignature
from repro.errors import FFISError
from repro.fusefs.vfs import FFISFileSystem
from repro.util.rngstream import RngStream

FsFactory = Callable[[], FFISFileSystem]


class InjectionContext(ExecutionContext):
    """Arms the scenario's fault-model hook(s) at the spec's points.

    With the default :class:`SingleFault` scenario this is exactly the
    classic one-shot hook at ``spec.target_instance`` -- same RNG
    stream, same hook, same records as the pre-scenario engine.
    """

    not_fired_note = "[warning: fault never fired]"

    def __init__(self, app: HpcApplication, golden: GoldenRecord,
                 signature: FaultSignature,
                 fs_factory: FsFactory = FFISFileSystem,
                 scenario: Optional[FaultScenario] = None,
                 replay: Optional[bool] = None) -> None:
        super().__init__(app, golden, fs_factory)
        self.signature = signature
        self.scenario = scenario if scenario is not None else SingleFault()
        self.replay = replay

    def arm(self, fs: FFISFileSystem, spec: RunSpec) -> ArmedHook:
        return self.scenario.arm(fs, self.signature, spec)

    def replay_constraint(self, spec: RunSpec):
        return self.scenario.replay_constraint(self.signature, spec)


@dataclass
class CampaignResult:
    """Everything a campaign produced, ready for tabulation."""

    app_name: str
    signature: str
    phase: Optional[str]
    records: List[RunRecord] = field(default_factory=list)
    profile: Optional[ProfileResult] = None
    golden: Optional[GoldenRecord] = None
    #: Scenario stamp for non-legacy scenarios (``None`` == single fault).
    scenario: Optional[str] = None
    elapsed_seconds: float = 0.0

    @property
    def tally(self) -> OutcomeTally:
        return OutcomeTally.from_records(self.records)

    def rate(self, outcome: Outcome) -> float:
        return self.tally.rate(outcome)

    def summary(self) -> str:
        label = f"{self.app_name}/{self.signature}"
        if self.scenario:
            label += f" <{self.scenario}>"
        if self.phase:
            label += f" [{self.phase}]"
        return f"{label}: {self.tally} ({len(self.records)} runs)"


class Campaign:
    """Plans the generator → profiler → injector runs for one app/config."""

    def __init__(self, app: HpcApplication, config: CampaignConfig,
                 fs_factory: FsFactory = FFISFileSystem) -> None:
        self.app = app
        self.config = config
        self.fs_factory = fs_factory
        self.signature: FaultSignature = FaultGenerator().generate(config)
        self.scenario: FaultScenario = as_scenario(config.scenario)

    # -- pieces -----------------------------------------------------------------

    def profile(self) -> ProfileResult:
        return IOProfiler(self.fs_factory).profile(self.app, self.signature)

    def profile_from_golden(self, golden: GoldenRecord) -> ProfileResult:
        """The I/O profile derived from a golden capture -- no extra run.

        :meth:`HpcApplication.capture_golden` snapshots every
        primitive's fault-free dynamic count (and the write volume)
        before its own output reads, so the profile a separate
        :class:`IOProfiler` run would measure is already on the golden
        record; one fault-free execution serves both.
        """
        primitive = self.signature.primitive
        count = golden.primitive_counts.get(primitive, 0)
        if count == 0:
            raise FFISError(
                f"{self.app.name} never executed {primitive}; "
                "nothing to inject into")
        return ProfileResult(
            primitive=primitive,
            total_count=count,
            bytes_written=(golden.bytes_written
                           if primitive == "ffis_write" else 0),
            phases=list(golden.phases))

    def capture_golden(self) -> GoldenRecord:
        return capture_golden(self.app, self.fs_factory)

    def run_once(self, instance: int, run_rng_seed: int,
                 run_index: int, golden: GoldenRecord) -> RunRecord:
        """One injection run at a fixed instance (exposed for tests)."""
        context = InjectionContext(self.app, golden, self.signature,
                                   self.fs_factory,
                                   replay=self.config.replay)
        spec = RunSpec(run_index=run_index, seed=run_rng_seed,
                       target_instance=instance, phase=self.config.phase)
        return execute_run_spec(context, spec)

    # -- planning ---------------------------------------------------------------

    def plan(self, n_runs: Optional[int] = None,
             profile: Optional[ProfileResult] = None,
             golden: Optional[GoldenRecord] = None) -> RunPlan:
        """The declarative run plan: instance picks and per-run seeds.

        Instance selection draws from one named stream in run order and
        every run's private seed is derived by name, so the plan -- and
        therefore the records, under any executor -- depends only on the
        configuration.
        """
        n = n_runs if n_runs is not None else self.config.n_runs
        golden = golden if golden is not None else self.capture_golden()
        profile = profile if profile is not None \
            else self.profile_from_golden(golden)
        scenario = self.scenario
        window = profile.window(self.config.phase)
        if len(window) == 0 and scenario.needs_window:
            raise FFISError(
                f"phase {self.config.phase!r} executed no "
                f"{self.signature.primitive} calls")
        stream = RngStream(self.config.seed, self.app.name,
                           self.signature.model.name, self.config.phase or "all")
        picker = stream.child("instances").generator()
        specs = []
        for i in range(n):
            points = scenario.pick(picker, window)
            common = dict(run_index=i, seed=stream.child("run", i).seed,
                          target_instance=points[0] if points else -1,
                          phase=self.config.phase)
            if scenario.legacy:
                # Legacy single-fault specs carry no scenario stamp, so
                # records and checkpoint lines stay bit-identical to the
                # pre-scenario engine.
                specs.append(RunSpec(**common))
            else:
                specs.append(RunSpec(instances=points,
                                     scenario=scenario.stamp(), **common))
        context = InjectionContext(self.app, golden, self.signature,
                                   self.fs_factory, scenario,
                                   replay=self.config.replay)
        return RunPlan(context=context, specs=tuple(specs))

    def campaign_id(self, golden: GoldenRecord) -> str:
        """Identity stamped on checkpoint lines so a resume can refuse a
        results file that belongs to a different campaign.  Includes a
        digest of the golden outputs: the app *name* can't distinguish
        two differently-configured instances of the same application.
        Non-legacy scenarios append their stamp (run index *i* plans
        different injection points under a different scenario); the
        legacy single-fault identity is unchanged, so PR 2-era
        checkpoints resume under this loader."""
        base = (f"{self.app.name}/{self.signature}"
                f"/phase={self.config.phase or 'all'}"
                f"/seed={self.config.seed}"
                f"/golden={golden_digest(golden)}")
        if self.scenario.legacy:
            return base
        return f"{base}/scenario={self.scenario.stamp()}"

    def plan_cell(self, key: str, cache: ProfileGoldenCache,
                  n_runs: Optional[int] = None) -> SweepCell:
        """This campaign as one cell of a fused sweep.

        Plans against the sweep's shared golden cache, so however many
        cells target the same application instance, its fault-free
        capture runs exactly once per sweep -- and the I/O profile is
        derived from that same capture, not paid for separately.
        """
        golden = cache.golden(self.app, self.fs_factory, self.capture_golden)
        plan = self.plan(n_runs, golden=golden)
        return SweepCell(key=key, plan=plan,
                         campaign_id=self.campaign_id(golden))

    # -- the campaign -----------------------------------------------------------------

    def run(self, n_runs: Optional[int] = None,
            progress: Optional[Callable[[int, int], None]] = None,
            workers: Optional[int] = None,
            results_path: Optional[str] = None,
            resume: Optional[bool] = None) -> CampaignResult:
        """Execute the plan; keyword arguments override the config knobs."""
        # repro: allow[R001] elapsed_seconds is reporting-only, never recorded
        start = time.perf_counter()
        golden = self.capture_golden()
        profile = self.profile_from_golden(golden)
        plan = self.plan(n_runs, profile=profile, golden=golden)
        records = execute_plan(
            plan,
            workers=self.config.workers if workers is None else workers,
            chunk_size=self.config.chunk_size,
            results_path=(self.config.results_path if results_path is None
                          else results_path),
            resume=self.config.resume if resume is None else resume,
            campaign_id=self.campaign_id(golden),
            progress=progress)
        result = CampaignResult(app_name=self.app.name,
                                signature=str(self.signature),
                                phase=self.config.phase,
                                records=records,
                                profile=profile, golden=golden,
                                scenario=None if self.scenario.legacy
                                else self.scenario.stamp())
        # repro: allow[R001] elapsed_seconds is reporting-only, never recorded
        result.elapsed_seconds = time.perf_counter() - start
        return result
