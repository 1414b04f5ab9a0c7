"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``experiments``                   -- list the paper's tables/figures
* ``run <experiment-id>``           -- run one paper table/figure
* ``study run|plan|describe``       -- declarative studies: registered
  ids (``figure7``, ``multifault``, ...), a TOML spec file, or inline
  ``--app/--model/--scenario`` axes
* ``study serve --queue DIR``       -- coordinate a distributed fleet:
  post the study's leases and merge the workers' shards when done
* ``worker --queue DIR``            -- attach to a served queue, rebuild
  the study from its spec, and execute leases until released
* ``campaign --app X --model Y``    -- run a custom campaign
* ``campaign --app X --metadata-mode M`` -- per-byte metadata sweep
* ``sweep --app X --app Y --model M ...`` -- fused multi-campaign grid
* ``project --app X --model Y --uber U`` -- system-level rate projection
* ``lint [PATH...]``                -- stdlib-only static analysis of the
  repo's determinism/fork-safety/replay-soundness invariants

``study``, ``sweep``, and ``campaign`` all compile onto the same
declarative Study path (one :class:`~repro.study.StudySpec` executed as
one fused sweep), so the engine knobs behave identically everywhere:
``--workers N`` fans runs out over a process pool (bit-identical to
serial), ``--out F`` streams each record to a JSONL checkpoint, and
``--resume`` continues an interrupted execution from that file.  ``run``
executes the grid experiments (``figure7``, ``multifault``, ``table3``)
as their registered studies, with the same knobs (e.g. ``repro run
figure7 --workers 4 --out sweep.jsonl --resume``).

Imports are deferred into the command handlers so ``repro --version``
and ``--help`` never pay for numpy or the application stack.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.devtools.lint.cli import add_arguments as _add_lint_arguments
from repro.devtools.lint.cli import run as _run_lint
from repro.errors import ConfigError
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.study.apps import app_ids

FAULT_MODEL_CHOICES = ["BF", "SW", "DW", "RC"]

SCENARIO_GRAMMAR = ("single | k=K[,window=W] | burst=N | "
                    "decay[:bytes=N][,region=LO-HI][,after=PHASE]")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_replay_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-replay", action="store_true",
                        help="disable prefix replay: execute every run cold "
                             "from an empty file system (records are "
                             "byte-identical either way; equivalent to "
                             "setting REPRO_NO_REPLAY=1)")


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="worker processes (1 = serial; results are "
                             "identical either way)")
    parser.add_argument("--out", default=None, metavar="RESULTS.jsonl",
                        help="stream every run record to this JSONL file")
    parser.add_argument("--resume", action="store_true",
                        help="skip run indices already present in --out")
    _add_replay_option(parser)


def _add_axis_options(parser: argparse.ArgumentParser,
                      required: bool = True) -> None:
    """The study grid axes shared by ``sweep`` and inline ``study``."""
    parser.add_argument("--app", action="append", required=required,
                        choices=app_ids(), metavar="APP",
                        help="application under test (repeatable)")
    parser.add_argument("--model", action="append",
                        required=required, choices=FAULT_MODEL_CHOICES,
                        metavar="MODEL",
                        help="fault model (repeatable)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--phase", default=None,
                        help="restrict every cell's injection to one "
                             "app phase (e.g. mAdd)")
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="SPEC",
                        help="fault scenario axis of the grid (repeatable; "
                             f"{SCENARIO_GRAMMAR}; default single)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FFIS reproduction: storage-fault injection for HPC apps")
    from repro import __version__

    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list the reproducible tables/figures")

    studies = ", ".join(exp.id for exp in EXPERIMENTS.values() if exp.study)
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS),
                     help="experiment id (e.g. table3, figure7)")
    run.add_argument("--workers", type=_positive_int, default=1,
                     help=f"worker processes for the {studies} studies "
                          "(results are identical either way); the other "
                          "experiments run serially and ignore it")
    run.add_argument("--out", default=None, metavar="RESULTS.jsonl",
                     help="checkpoint the study's sweep to this JSONL "
                          f"file ({studies} only)")
    run.add_argument("--resume", action="store_true",
                     help="re-execute only the (cell, run) pairs missing "
                          "from --out")
    _add_replay_option(run)

    study = sub.add_parser(
        "study", help="declarative studies: one serializable spec per grid")
    ssub = study.add_subparsers(dest="study_command", required=True)
    study_help = {
        "run": "execute a study and print its report",
        "plan": "list a study's cells without executing anything",
        "describe": "print a study's canonical TOML spec",
        "serve": "coordinate a distributed fleet: post the study's "
                 "leases to a shared queue directory, reassign expired "
                 "claims, and merge the workers' shards when done",
    }
    for name in ("run", "plan", "describe", "serve"):
        p = ssub.add_parser(name, help=study_help[name])
        p.add_argument("study", nargs="?", default=None, metavar="STUDY",
                       help="registered study id (see `repro study list`)")
        p.add_argument("--file", default=None, metavar="SPEC.toml",
                       help="load the study spec from a TOML file")
        _add_axis_options(p, required=False)
        p.add_argument("--runs", type=_positive_int, default=None,
                       help="runs per cell (default: the spec's, or the "
                            "REPRO_FI_RUNS-scaled experiment default)")
        if name == "run":
            p.add_argument("--workers", type=_positive_int, default=None,
                           help="worker processes (default: the spec's)")
            p.add_argument("--hosts", type=_positive_int, default=None,
                           help="> 1 runs the study through the lease-queue "
                                "distributed engine with this many forked "
                                "workers (results byte-identical to serial)")
            p.add_argument("--queue", default=None, metavar="DIR",
                           help="queue directory for --hosts (default: a "
                                "throwaway; name one to survive coordinator "
                                "crashes)")
            p.add_argument("--quarantine-after", type=_positive_int,
                           default=None, metavar="N",
                           help="attempts before a repeatedly failing "
                                "lease is quarantined instead of "
                                "reassigned (default 3); the campaign "
                                "then completes around the hole and "
                                "reports it")
        if name in ("run", "serve"):
            p.add_argument("--out", default=None, metavar="RESULTS.jsonl",
                           help="stream every run record to this JSONL file")
            p.add_argument("--resume", action="store_true",
                           help="skip (cell, run) pairs already in --out")
            _add_replay_option(p)
        if name == "serve":
            p.add_argument("--queue", required=True, metavar="DIR",
                           help="shared queue directory workers attach to "
                                "(`repro worker --queue DIR`)")
            p.add_argument("--hosts", type=_positive_int, default=2,
                           help="expected fleet size (sizes the default "
                                "lease granularity; workers may be fewer "
                                "or more)")
            p.add_argument("--lease-runs", type=_positive_int, default=None,
                           help="runs per lease (default: adaptive)")
            p.add_argument("--lease-ttl", type=float, default=30.0,
                           help="seconds without a heartbeat before a "
                                "claimed lease is reassigned (default 30)")
            p.add_argument("--timeout", type=float, default=None,
                           help="abort (resumably) if the campaign is "
                                "still incomplete after this many seconds")
            p.add_argument("--quarantine-after", type=_positive_int,
                           default=None, metavar="N",
                           help="attempts before a repeatedly failing "
                                "lease is quarantined instead of "
                                "reassigned (default 3); the campaign "
                                "then completes around the hole and "
                                "reports it")
    ssub.add_parser("list", help="list the registered studies")

    worker = sub.add_parser(
        "worker", help="attach to a served queue: rebuild the study from "
                       "its spec, verify it against the queue manifest, "
                       "and execute leases until the coordinator finishes")
    worker.add_argument("--queue", required=True, metavar="DIR",
                        help="the coordinator's queue directory")
    worker.add_argument("study", nargs="?", default=None, metavar="STUDY",
                        help="registered study id the coordinator is serving")
    worker.add_argument("--file", default=None, metavar="SPEC.toml",
                        help="load the study spec from a TOML file")
    _add_axis_options(worker, required=False)
    worker.add_argument("--runs", type=_positive_int, default=None,
                        help="runs per cell (must match the served study; "
                             "the queue manifest verifies it)")
    worker.add_argument("--id", default=None, metavar="WORKER_ID",
                        help="stable worker identity (default host<pid>); "
                             "reusing an id after a crash appends to the "
                             "same shard")
    worker.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                        help="idle poll interval (default 0.5)")
    worker.add_argument("--reclaim-ttl", type=float, default=None,
                        metavar="SECONDS",
                        help="let idle workers expire peers' stale claims "
                             "themselves (coordinator-less fleets)")
    worker.add_argument("--max-idle-polls", type=_positive_int, default=None,
                        help="exit after this many consecutive empty polls "
                             "(default: poll until the coordinator finishes)")
    _add_replay_option(worker)

    sweep = sub.add_parser(
        "sweep", help="run a fused sweep: a grid of apps x fault models "
                      "sharing one profile/golden cache and worker pool")
    _add_axis_options(sweep, required=True)
    sweep.add_argument("--runs", type=_positive_int, default=100,
                       help="runs per cell (default 100)")
    _add_engine_options(sweep)

    campaign = sub.add_parser("campaign", help="run a fault-injection campaign")
    campaign.add_argument("--app", choices=app_ids(), required=True)
    campaign.add_argument("--model", choices=FAULT_MODEL_CHOICES,
                          help="fault model for an instance-targeted campaign")
    # Defaults resolved in _cmd_campaign so flags that don't apply to the
    # chosen campaign style are rejected instead of silently ignored.
    campaign.add_argument("--runs", type=int, default=None,
                          help="campaign size (default 100; --model only)")
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--phase", default=None,
                          help="restrict injection to one app phase "
                               "(e.g. mProjExec; --model only)")
    campaign.add_argument("--scenario", default=None, metavar="SPEC",
                          help=f"fault scenario ({SCENARIO_GRAMMAR}; "
                               "e.g. --scenario k=3,window=8; "
                               "--model campaigns only)")
    campaign.add_argument("--metadata-mode", choices=["random-bit", "all-bits"],
                          default=None,
                          help="run a per-byte metadata sweep instead of an "
                               "instance-targeted campaign")
    campaign.add_argument("--stride", type=_positive_int, default=None,
                          help="metadata sweep: corrupt every Nth byte "
                               "(default 1; --metadata-mode only)")
    _add_engine_options(campaign)

    lint = sub.add_parser(
        "lint", help="static analysis: determinism, fork-safety, and "
                     "replay-soundness rules (stdlib-only, runs before "
                     "any dependency install)")
    _add_lint_arguments(lint)

    project = sub.add_parser(
        "project", help="project campaign rates to system scale")
    project.add_argument("--app", choices=app_ids(), required=True)
    project.add_argument("--model", choices=FAULT_MODEL_CHOICES, required=True)
    project.add_argument("--runs", type=int, default=100)
    project.add_argument("--seed", type=int, default=0)
    project.add_argument("--phase", default=None)
    project.add_argument("--uber", type=float, default=None,
                         help="device uncorrectable bit error rate "
                              "(default: the field-study upper bound 1e-9)")
    project.add_argument("--nodes", type=int, default=1000)
    project.add_argument("--runs-per-day", type=float, default=24.0)
    _add_engine_options(project)
    return parser


def _cmd_experiments(out) -> int:
    for exp in EXPERIMENTS.values():
        print(f"{exp.id:<9} {exp.description}  [{exp.bench}]", file=out)
    return 0


def _cmd_run(args, parser, out) -> int:
    experiment = get_experiment(args.experiment)
    if args.resume and args.out is None:
        parser.error("--resume requires --out")
    if args.out is not None and not experiment.study:
        parser.error(f"{experiment.id} runs no campaign sweep; "
                     "--out/--resume do not apply")
    print(f"running {experiment.id}: {experiment.description}", file=out)
    if not experiment.study:
        print(experiment.resolve()().render(), file=out)
        return 0
    from repro.study import Study, get_study

    definition = get_study(experiment.study)
    spec = definition.build().with_knobs(
        workers=args.workers, out=args.out,
        resume=True if args.resume else None)
    print(definition.render(Study(spec).run()), file=out)
    return 0


# -- the declarative study path -------------------------------------------------


def _inline_spec(args, parser):
    """A StudySpec from inline ``--app/--model/--scenario`` axes."""
    from repro.study import ModelSpec, ScenarioSpec, StudySpec, TargetSpec

    if not args.app or not args.model:
        parser.error("an inline study needs --app and --model "
                     "(or name a registered study / pass --file)")
    try:
        return StudySpec(
            name="cli",
            targets=tuple(TargetSpec(app=name, phase=args.phase)
                          for name in dict.fromkeys(args.app)),
            models=tuple(ModelSpec(model=m)
                         for m in dict.fromkeys(args.model)),
            scenarios=tuple(
                ScenarioSpec(scenario=s)
                for s in dict.fromkeys(args.scenario or ["single"])),
            seed=args.seed if args.seed is not None else 0)
    except ConfigError as exc:
        parser.error(str(exc))


def _resolve_study(args, parser):
    """(spec, render) from a registered id, a TOML file, or inline axes."""
    from repro.study import get_study, load_spec

    sources = sum(1 for given in (args.study, args.file, args.app) if given)
    if sources != 1:
        parser.error("give exactly one study source: a registered id, "
                     "--file SPEC.toml, or inline --app/--model axes")
    if args.study or args.file:
        # Axis flags only shape inline specs; silently ignoring them
        # against a registered/file study would misreport the grid.
        for flag, given in (("--model", args.model),
                            ("--scenario", args.scenario),
                            ("--phase", args.phase)):
            if given:
                parser.error(f"{flag} applies to inline --app studies; "
                             "edit the spec (or `repro study describe` it "
                             "to TOML) to change a named study's axes")
    render = None
    if args.study is not None:
        try:
            definition = get_study(args.study)
        except KeyError as exc:
            parser.error(str(exc.args[0]))
        spec = definition.build()
        render = definition.render
    elif args.file is not None:
        try:
            spec = load_spec(args.file)
        except (OSError, ConfigError) as exc:
            parser.error(f"--file: {exc}")
    else:
        spec = _inline_spec(args, parser)
    if args.runs is not None and not any(t.kind == "fault"
                                         for t in spec.targets):
        parser.error("--runs applies to fault campaigns; a metadata "
                     "sweep's size is the blob size / stride")
    try:
        spec = spec.with_knobs(
            runs=args.runs, seed=args.seed,
            workers=getattr(args, "workers", None),
            out=getattr(args, "out", None),
            resume=True if getattr(args, "resume", False) else None)
    except ConfigError as exc:
        parser.error(str(exc))
    return spec, render


def _cmd_study(args, parser, out) -> int:
    if args.study_command == "list":
        from repro.study import STUDIES

        for definition in sorted(STUDIES.values(), key=lambda d: d.id):
            print(f"{definition.id:<11} {definition.description}", file=out)
        return 0
    spec, render = _resolve_study(args, parser)
    if args.study_command == "describe":
        print(spec.to_toml(), file=out, end="")
        return 0
    if args.study_command == "plan":
        print(spec.describe(), file=out)
        return 0
    from repro.study import Study

    if args.study_command == "serve":
        from repro.study import serve_study

        def _report(counts):
            quarantined = counts.get("quarantined", 0)
            parked = f", {quarantined} quarantined" if quarantined else ""
            print(f"leases: {counts['done']}/{counts['total']} done, "
                  f"{counts['leased']} leased, {counts['pending']} pending"
                  f"{parked}",
                  file=out)

        try:
            plan = Study(spec).plan()
        except ConfigError as exc:
            parser.error(str(exc))
        print(f"serving {len(plan)} runs at {args.queue}; attach workers "
              f"with: repro worker --queue {args.queue} ...", file=out)
        serve_knobs = {}
        if args.quarantine_after is not None:
            serve_knobs["quarantine_after"] = args.quarantine_after
        results = serve_study(
            plan, args.queue, lease_runs=args.lease_runs,
            lease_ttl=args.lease_ttl, hosts=args.hosts,
            results_path=spec.out, resume=bool(spec.resume),
            timeout=args.timeout, progress=_changed_only(_report),
            **serve_knobs)
        print(render(results) if render is not None else results.render(),
              file=out)
        print(results.footer(), file=out)
        return 0
    try:
        results = Study(spec).run(workers=args.workers, hosts=args.hosts,
                                  queue_root=args.queue,
                                  quarantine_after=args.quarantine_after)
    except ConfigError as exc:
        parser.error(str(exc))
    print(render(results) if render is not None else results.render(),
          file=out)
    print(results.footer(), file=out)
    return 0


def _changed_only(report):
    """Wrap a progress callback to fire only when the counts change."""
    last = {}

    def _maybe(counts):
        nonlocal last
        if counts != last:
            last = counts
            report(counts)
    return _maybe


def _cmd_worker(args, parser, out) -> int:
    spec, _ = _resolve_study(args, parser)
    from repro.study import run_study_worker

    stats = run_study_worker(
        args.queue, spec, worker_id=args.id, poll_interval=args.poll,
        reclaim_ttl=args.reclaim_ttl, max_idle_polls=args.max_idle_polls)
    retried = f", {stats.retries} reassigned" if stats.retries else ""
    failed = f", {stats.failures} failed back" if stats.failures else ""
    print(f"worker {stats.worker_id}: {stats.leases} leases, "
          f"{stats.runs} runs{retried}{failed}", file=out)
    return 0


def _cmd_sweep(args, parser, out) -> int:
    if args.resume and args.out is None:
        parser.error("--resume requires --out")
    from repro.study import Study

    spec = _inline_spec(args, parser).with_knobs(
        runs=args.runs, workers=args.workers, out=args.out,
        resume=True if args.resume else None)
    results = Study(spec).run()
    print(results.summary(), file=out)
    return 0


def _run_campaign_study(args, parser):
    """One instance-targeted campaign through the Study path; returns
    the classic :class:`CampaignResult` (summary/profile included)."""
    from repro.study import (
        ModelSpec,
        ScenarioSpec,
        Study,
        StudySpec,
        TargetSpec,
    )

    try:
        spec = StudySpec(
            name="campaign",
            targets=(TargetSpec(app=args.app, phase=args.phase),),
            models=(ModelSpec(model=args.model),),
            scenarios=(ScenarioSpec(scenario=args.scenario or "single"),),
            runs=args.runs, seed=args.seed)
    except ConfigError as exc:
        parser.error(str(exc))
    plan = Study(spec).plan()
    results = plan.execute(workers=args.workers, results_path=args.out,
                           resume=args.resume)
    (result,) = plan.campaign_results(results).values()
    result.elapsed_seconds = results.elapsed_seconds
    return result


def _print_error_bars(tally, out) -> None:
    from repro.analysis.stats import campaign_error_bars

    for outcome, estimate in campaign_error_bars(tally).items():
        if tally.counts[outcome]:
            print(f"  {outcome.value:<9} {estimate}", file=out)


def _run_metadata_campaign(args, parser, out) -> int:
    from repro.core.metadata_campaign import MetadataCampaignResult
    from repro.study import Study, StudySpec, TargetSpec

    try:
        spec = StudySpec(
            name="campaign",
            targets=(TargetSpec(app=args.app, kind="metadata",
                                mode=args.metadata_mode,
                                stride=args.stride),),
            seed=args.seed)
    except ConfigError as exc:
        parser.error(str(exc))
    plan = Study(spec).plan()
    results = plan.execute(workers=args.workers, results_path=args.out,
                           resume=args.resume)
    (cell,) = plan.cells
    result = MetadataCampaignResult(
        app_name=cell.planner.app.name, mode=cell.planner.mode,
        records=results.cell(cell.key), metadata=cell.metadata,
        fieldmap=cell.planner.fieldmap,
        elapsed_seconds=results.elapsed_seconds)
    print(result.summary(), file=out)
    _print_error_bars(result.tally, out)
    return 0


def _cmd_campaign(args, parser, out) -> int:
    if args.resume and args.out is None:
        parser.error("--resume requires --out")
    if args.metadata_mode is not None:
        if args.model is not None:
            parser.error("--model and --metadata-mode are mutually exclusive")
        if args.runs is not None:
            parser.error("--runs applies to --model campaigns; a metadata "
                         "sweep's size is the blob size / --stride")
        if args.phase is not None:
            parser.error("--phase applies to --model campaigns")
        if args.scenario is not None:
            parser.error("--scenario applies to --model campaigns")
        if args.stride is None:
            args.stride = 1
        return _run_metadata_campaign(args, parser, out)
    if args.model is None:
        parser.error("one of --model or --metadata-mode is required")
    if args.stride is not None:
        parser.error("--stride requires --metadata-mode")
    if args.runs is None:
        args.runs = 100
    result = _run_campaign_study(args, parser)
    print(result.summary(), file=out)
    _print_error_bars(result.tally, out)
    return 0


def _cmd_project(args, parser, out) -> int:
    if args.resume and args.out is None:
        parser.error("--resume requires --out")
    from repro.analysis.projection import (
        DeviceModel,
        FIELD_STUDY_UBER_RANGE,
        project_run,
        system_sdc_rate,
    )
    from repro.core.outcomes import Outcome

    args.scenario = None
    result = _run_campaign_study(args, parser)
    uber = args.uber if args.uber is not None else FIELD_STUDY_UBER_RANGE[1]
    device = DeviceModel(uber=uber)
    projection = project_run(result, device)
    print(f"{result.summary()}", file=out)
    print(f"device UBER            : {uber:.3g}", file=out)
    print(f"bytes written per run  : {result.profile.bytes_written}", file=out)
    print(f"P(fault per run)       : {projection.fault_probability:.3g}", file=out)
    print(f"P(SDC per run)         : {projection.probability(Outcome.SDC):.3g}",
          file=out)
    print(f"mean runs between SDCs : {projection.runs_per_sdc():.3g}", file=out)
    daily = system_sdc_rate(projection, args.runs_per_day, args.nodes)
    print(f"expected SDCs per day on {args.nodes} nodes x "
          f"{args.runs_per_day:g} runs/day: {daily:.3g}", file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    no_replay = getattr(args, "no_replay", False)
    previous = os.environ.get("REPRO_NO_REPLAY")
    if no_replay:
        # The universal escape hatch: every execution path (and every
        # forked worker) consults this before restoring a snapshot.
        # Restored afterwards so one --no-replay invocation does not
        # disable replay for the rest of an embedding process.
        os.environ["REPRO_NO_REPLAY"] = "1"
    try:
        if args.command == "experiments":
            return _cmd_experiments(out)
        if args.command == "run":
            return _cmd_run(args, parser, out)
        if args.command == "study":
            return _cmd_study(args, parser, out)
        if args.command == "worker":
            return _cmd_worker(args, parser, out)
        if args.command == "lint":
            return _run_lint(args, out)
        if args.command == "sweep":
            return _cmd_sweep(args, parser, out)
        if args.command == "campaign":
            return _cmd_campaign(args, parser, out)
        if args.command == "project":
            return _cmd_project(args, parser, out)
        raise AssertionError(f"unhandled command {args.command!r}")
    finally:
        if no_replay:
            if previous is None:
                os.environ.pop("REPRO_NO_REPLAY", None)
            else:
                os.environ["REPRO_NO_REPLAY"] = previous


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
