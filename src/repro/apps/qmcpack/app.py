"""The QMCPACK application-under-test: He-atom VMC → DMC with restart I/O.

Workload structure (mirrors the paper's description in Sec. IV-C.2):

1. **VMC series (s000)** equilibrates a walker population, writes
   ``He.s000.scalar.dat`` and -- crucially -- the walker configuration
   file ``He.s000.config.h5`` (mini-HDF5).
2. **DMC series (s001)** *reads the walker file back from the file
   system* and projects toward the ground state, writing
   ``He.s001.scalar.dat``.

The restart read is the fault-propagation channel: corrupted walker bytes
silently perturb the DMC trajectory, which is why QMCPACK shows the
highest SDC rates in the paper's Fig. 7.

Outcome classification follows the paper: compare ``He.s001.scalar.dat``
bit-wise (benign); otherwise run the qmca reanalysis and call the run SDC
if the energy still lands in the plausible window [-2.91, -2.90] Ha,
detected otherwise; analysis failures and library errors are crashes.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from repro.apps.base import GoldenRecord, HpcApplication, Park, RunStep, Window
from repro.apps.qmcpack.dmc import (
    DmcParams,
    Mark,
    Trajectory,
    initial_population,
    run_dmc,
    run_dmc_batch,
)
from repro.apps.qmcpack.qmca import EnergyEstimate, analyze_file
from repro.apps.qmcpack.scalars import write_scalars
from repro.apps.qmcpack.vmc import VmcParams, run_vmc
from repro.apps.qmcpack.wavefunction import HeliumWavefunction
from repro.core.outcomes import Outcome
from repro.fusefs.mount import MountPoint
from repro.mhdf5.api import File
from repro.mhdf5.reader import Hdf5Reader
from repro.util.rngstream import RngStream

RUN_DIR = "/qmc"
S000_SCALARS = f"{RUN_DIR}/He.s000.scalar.dat"
CONFIG_FILE = f"{RUN_DIR}/He.s000.config.h5"
LOG_FILE = f"{RUN_DIR}/He.out"
S001_SCALARS = f"{RUN_DIR}/He.s001.scalar.dat"
WALKER_DATASET = "walkers"

#: The exact non-relativistic He ground-state energy the paper quotes.
HE_EXACT_ENERGY = -2.90372

#: The paper's SDC window: an energy inside it is physically plausible,
#: so a differing file whose reanalysis stays inside is *silent*.
SDC_WINDOW = (-2.91, -2.90)

#: Text files are flushed in stdio-sized chunks.
TEXT_BLOCK = 2048


class QmcpackApplication(HpcApplication):
    """He-atom VMC+DMC with restart-file fault propagation.

    Seed, wavefunction and parameters are fixed per instance, so both
    Monte Carlo series are pure functions of their inputs: VMC has none
    and runs once at construction; DMC's only input is the decoded
    walker array.  The golden capture keeps its projection's
    :class:`~repro.apps.qmcpack.dmc.Trajectory` -- its rows, its final
    walkers and one 40-byte mark per block -- on the replay image
    (:meth:`keep_golden`).  A replayed run projects while following
    it, and stops at the first block end where its state equals
    golden's, taking golden's later rows (see
    :mod:`repro.apps.qmcpack.dmc` for why that is exact); walkers equal
    to golden's rejoin at the first block end.  Forked pool and fleet
    workers inherit the trajectory with the golden record.  Like prefix
    replay, the reuse stands on golden work, so cold execution
    (:meth:`execute`, which ``--no-replay`` forces) always projects to
    the end without following: it stays the from-scratch reference
    replayed records are checked against.

    Inside an execution window
    (:func:`~repro.core.engine.runner.execute_window`) a replayed run
    that reaches a live ``dmc_compute`` parks there in the window's
    first pass.  In its second pass the first parked run projects every
    walker set the window parked as one batch
    (:func:`~repro.apps.qmcpack.dmc.run_dmc_batch`), and each parked
    run takes its own set's projection, which equals the one it would
    have made alone.  Cold runs and the golden capture never park.
    """

    name = "qmcpack"

    def __init__(self, seed: int = 2021,
                 wavefunction: HeliumWavefunction = HeliumWavefunction(),
                 vmc_params: VmcParams = VmcParams(),
                 dmc_params: DmcParams = DmcParams(),
                 equilibration: int = 20) -> None:
        super().__init__()
        self.seed = seed
        self.wf = wavefunction
        self.vmc_params = vmc_params
        self.dmc_params = dmc_params
        self.equilibration = equilibration

        # VMC has no file inputs, so its products are deterministic and
        # computed once (the per-run cost is DMC only).
        vmc_rng = RngStream(seed, "qmcpack", "vmc").generator()
        self._vmc_walkers, self._vmc_rows = run_vmc(self.wf, vmc_params, vmc_rng)

    # -- lifecycle ---------------------------------------------------------------

    def prepare(self, mp: MountPoint, carry) -> None:
        mp.makedirs(RUN_DIR)

    def steps(self):
        """vmc, then dmc split at its compute/write seam.

        The split changes no phase window (``dmc_compute`` performs no
        writes) but gives the replay engine a snapshot boundary between
        the expensive DMC projection and the cheap scalar writes it
        feeds: a fault targeting an ``s001`` write restores the
        post-compute boundary and re-executes only the writes, and a
        fault that never touched the walker file fast-forwards past the
        projection entirely.  A fault that touched the walker file
        re-executes ``dmc_compute``, which stops projecting where it
        rejoins the golden trajectory.
        """
        return (RunStep("vmc", "vmc", self._step_vmc),
                RunStep("dmc_compute", "dmc", self._step_dmc_compute),
                RunStep("dmc_write", "dmc", self._step_dmc_write))

    def _step_vmc(self, mp: MountPoint, carry) -> None:
        write_scalars(mp, S000_SCALARS, self._vmc_rows, block_size=TEXT_BLOCK)
        with File(mp, CONFIG_FILE, "w") as f:
            f.create_dataset(WALKER_DATASET, self._vmc_walkers)
        log = self._render_log()
        mp.write_file(LOG_FILE, log.encode("ascii"), block_size=TEXT_BLOCK)

    def _step_dmc_compute(self, mp: MountPoint, carry) -> None:
        """Read the walker file back and project it.

        The read always happens, so file-system operations and decode
        failures are those of a fresh projection.  The golden capture
        records one mark per block and keeps the trajectory; a replayed
        run follows it and stops where it rejoins it, and inside an
        execution window it projects in its window's batch; a cold run
        does neither.
        """
        walkers = Hdf5Reader(mp, CONFIG_FILE).read(WALKER_DATASET)
        follow = self.golden_memo("dmc")
        if follow is not None and self.window is not None:
            carry["dmc_rows"] = self._windowed_rows(self.window, walkers,
                                                    follow)
            return
        marks: Optional[List[Mark]] = [] if self.capturing_golden else None
        final, rows = run_dmc(self.wf, walkers, self.dmc_params,
                              self._dmc_rng(), follow=follow, marks=marks)
        if marks is not None:
            self.keep_golden("dmc", Trajectory(final, tuple(rows), tuple(marks)))
        carry["dmc_rows"] = rows

    def _dmc_rng(self) -> np.random.Generator:
        return RngStream(self.seed, "qmcpack", "dmc").generator()

    def _windowed_rows(self, window: Window, walkers: np.ndarray,
                       follow: Trajectory) -> list:
        """A replayed run's rows inside an execution window: park in its
        first pass; in its second, take this walker set's projection
        from the window's batch (the first run to ask projects every
        parked set).  A set the window never parked projects alone."""
        key = (walkers.dtype.str, walkers.shape, walkers.tobytes())
        if window.parking:
            window.parked[key] = (walkers, follow)
            raise Park("dmc_compute")
        if window.parked and not window.results:
            window.results.update(self._project_parked(window.parked))
        result = window.results.get(key)
        if result is None:
            return run_dmc(self.wf, walkers, self.dmc_params,
                           self._dmc_rng(), follow=follow)[1]
        if isinstance(result, Exception):
            raise result
        return result[1]

    def _project_parked(self, parked: Mapping[Hashable, tuple]
                        ) -> Dict[Hashable, object]:
        """Every parked walker set's projection, or the exception its
        own projection raises; sets of one shape that follow one
        trajectory share a batch."""
        results: Dict[Hashable, object] = {}
        batches: Dict[tuple, List[Tuple[Hashable, np.ndarray]]] = {}
        for key, (walkers, follow) in parked.items():
            try:
                population = initial_population(walkers)
            except ValueError as exc:
                results[key] = exc
                continue
            batches.setdefault((population.shape, follow), []).append(
                (key, population))
        for (_, follow), members in batches.items():
            projections = run_dmc_batch(
                self.wf, [population for _, population in members],
                self.dmc_params, self._dmc_rng(), follow=follow)
            results.update(zip([key for key, _ in members], projections))
        return results

    def _step_dmc_write(self, mp: MountPoint, carry) -> None:
        write_scalars(mp, S001_SCALARS, carry["dmc_rows"],
                      block_size=TEXT_BLOCK)

    def _render_log(self) -> str:
        lines = [
            "  Entering He run",
            f"  seed            = {self.seed}",
            f"  trial function  = Slater-Jastrow (a={self.wf.jastrow_a}, "
            f"b={self.wf.jastrow_b}, zeta={self.wf.zeta})",
            f"  VMC walkers     = {self.vmc_params.n_walkers}",
            f"  VMC blocks      = {self.vmc_params.n_blocks}",
            f"  DMC target pop  = {self.dmc_params.target_walkers}",
            f"  DMC blocks      = {self.dmc_params.n_blocks}",
            f"  DMC tau         = {self.dmc_params.tau}",
            "  ========================================",
        ]
        # Pad the log so it presents a realistic write surface.
        lines += [f"  status block {i:03d}: ok" for i in range(40)]
        return "\n".join(lines) + "\n"

    def output_paths(self) -> List[str]:
        return [S000_SCALARS, CONFIG_FILE, LOG_FILE, S001_SCALARS]

    # -- post-analysis ---------------------------------------------------------------

    def analyze(self, mp: MountPoint) -> Dict[str, object]:
        estimate = analyze_file(mp, S001_SCALARS, equilibration=self.equilibration)
        return {
            "energy": estimate.mean,
            "error": estimate.error,
            "s001_text": mp.read_file(S001_SCALARS),
        }

    def energy(self, mp: MountPoint) -> EnergyEstimate:
        return analyze_file(mp, S001_SCALARS, equilibration=self.equilibration)

    # -- classification ---------------------------------------------------------------

    def classify(self, golden: GoldenRecord, mp: MountPoint) -> Tuple[Outcome, str]:
        if not mp.exists(S001_SCALARS):
            return Outcome.CRASH, "He.s001.scalar.dat was not created"
        faulty = mp.read_file(S001_SCALARS)
        if faulty == golden.analysis["s001_text"]:
            return Outcome.BENIGN, "He.s001.scalar.dat bit-wise identical"
        estimate = self.energy(mp)           # AnalysisError → CRASH upstream
        lo, hi = SDC_WINDOW
        if lo <= estimate.mean <= hi:
            return Outcome.SDC, f"energy {estimate.mean:.5f} inside plausible window"
        return Outcome.DETECTED, f"energy {estimate.mean:.5f} outside [{lo}, {hi}]"
