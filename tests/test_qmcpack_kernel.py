"""Bit-identity of the one-pass QMCPACK kernel against the three-pass one.

The reference below is the wavefunction, VMC and DMC code as it stood
before the kernel evaluated each walker set once (three geometry passes
per DMC step: ``log_psi``, ``quantum_force`` and ``local_energy`` each
measured the distances again).  It is kept verbatim, apart from names,
so the fused kernel is checked against the code whose outputs the
committed fixtures pin: walker bytes and the ``repr`` of every scalar
row must be equal, and corrupted restarts must fail the same way.  A
projection that follows a recorded trajectory and stops where it rejoins
it must equal the reference too, and so must each walker set of a batch
projected together.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import List, Tuple

import numpy as np
import pytest

from repro.apps.qmcpack.dmc import (
    ENERGY_CLAMP,
    WEIGHT_CLIP,
    DmcParams,
    PopulationCollapse,
    Trajectory,
    run_dmc,
    run_dmc_batch,
)
from repro.apps.qmcpack.scalars import ScalarRow
from repro.apps.qmcpack.vmc import VmcParams, run_vmc
from repro.apps.qmcpack.wavefunction import (
    R_EPS,
    HeliumWavefunction,
    to_components,
    to_walkers,
)
from repro.util.rngstream import RngStream

# -- the three-pass reference ------------------------------------------------


@dataclass(frozen=True)
class ReferenceWavefunction(HeliumWavefunction):
    """The three-pass evaluation: every method measures the distances."""

    # -- geometry helpers -------------------------------------------------------

    @staticmethod
    def _distances(walkers: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(r1, r2, r12) magnitudes for a (N, 2, 3) walker array."""
        r1 = np.maximum(np.linalg.norm(walkers[:, 0, :], axis=1), R_EPS)
        r2 = np.maximum(np.linalg.norm(walkers[:, 1, :], axis=1), R_EPS)
        r12 = np.maximum(np.linalg.norm(walkers[:, 0, :] - walkers[:, 1, :], axis=1),
                         R_EPS)
        return r1, r2, r12

    # -- wavefunction ------------------------------------------------------------

    def log_psi(self, walkers: np.ndarray) -> np.ndarray:
        r1, r2, r12 = self._distances(walkers)
        u = self.jastrow_b * r12 / (1.0 + self.jastrow_a * r12)
        return -self.zeta * (r1 + r2) + u

    def grad_log_psi(self, walkers: np.ndarray) -> np.ndarray:
        """Gradient of ln psi wrt both electrons: shape (N, 2, 3)."""
        r1, r2, r12 = self._distances(walkers)
        e1 = walkers[:, 0, :] / r1[:, None]
        e2 = walkers[:, 1, :] / r2[:, None]
        e12 = (walkers[:, 0, :] - walkers[:, 1, :]) / r12[:, None]
        du = self.jastrow_b / (1.0 + self.jastrow_a * r12) ** 2
        grad = np.empty_like(walkers)
        grad[:, 0, :] = -self.zeta * e1 + du[:, None] * e12
        grad[:, 1, :] = -self.zeta * e2 - du[:, None] * e12
        return grad

    def local_energy(self, walkers: np.ndarray) -> np.ndarray:
        """E_L = (H psi)/psi, vectorized over walkers.

        Overflow in the Jastrow denominators (corrupted walkers flung to
        astronomical radii) saturates to zero derivatives, which is the
        correct r -> infinity limit.
        """
        r1, r2, r12 = self._distances(walkers)
        a, b, z = self.jastrow_a, self.jastrow_b, self.zeta

        with np.errstate(over="ignore"):
            one_plus = 1.0 + a * r12
            du = b / one_plus ** 2                    # u'(r12)
            d2u = -2.0 * a * b / one_plus ** 3        # u''(r12)
        du = np.nan_to_num(du, posinf=0.0, neginf=0.0)
        d2u = np.nan_to_num(d2u, posinf=0.0, neginf=0.0)

        # Laplacians of ln psi per electron:
        #   lap_i(-Z r_i) = -2Z / r_i
        #   lap_i(u(r12)) = u'' + 2 u'/r12
        lap = (-2.0 * z / r1) + (-2.0 * z / r2) + 2.0 * (d2u + 2.0 * du / r12)

        # |grad_i ln psi|^2 summed over electrons.
        e1 = walkers[:, 0, :] / r1[:, None]
        e2 = walkers[:, 1, :] / r2[:, None]
        e12 = (walkers[:, 0, :] - walkers[:, 1, :]) / r12[:, None]
        g1 = -z * e1 + du[:, None] * e12
        g2 = -z * e2 - du[:, None] * e12
        grad_sq = (g1 * g1).sum(axis=1) + (g2 * g2).sum(axis=1)

        kinetic = -0.5 * (lap + grad_sq)
        potential = -2.0 / r1 - 2.0 / r2 + 1.0 / r12
        return kinetic + potential

    def quantum_force(self, walkers: np.ndarray) -> np.ndarray:
        """Drift velocity F = 2 grad ln psi used by DMC."""
        return 2.0 * self.grad_log_psi(walkers)


def reference_limited_force(wf: HeliumWavefunction, walkers: np.ndarray,
                            tau: float) -> np.ndarray:
    """Quantum force with the standard norm limiter for finite tau."""
    force = wf.quantum_force(walkers)
    n = len(walkers)
    fmag = np.linalg.norm(force.reshape(n, -1), axis=1)[:, None, None]
    return force / np.maximum(1.0, 0.5 * tau * fmag)


def reference_systematic_resample(weights: np.ndarray, n_out: int,
                                  rng: np.random.Generator) -> np.ndarray:
    """Systematic (comb) resampling: indices drawn with one uniform."""
    total = weights.sum()
    positions = (rng.random() + np.arange(n_out)) / n_out * total
    cumulative = np.cumsum(weights)
    return np.searchsorted(cumulative, positions, side="right").clip(0, len(weights) - 1)


def reference_run_dmc(wf: HeliumWavefunction, walkers: np.ndarray,
                      params: DmcParams, rng: np.random.Generator
                      ) -> Tuple[np.ndarray, List[ScalarRow]]:
    """Run DMC from an initial population; returns (walkers, scalar rows)."""
    walkers = np.array(walkers, dtype=np.float64, copy=True)
    if walkers.ndim != 3 or walkers.shape[1:] != (2, 3):
        raise ValueError(f"walkers must have shape (N, 2, 3), got {walkers.shape}")
    if not np.all(np.isfinite(walkers)):
        # A corrupted restart can carry inf/NaN coordinates; the real code
        # faults in its distance tables.  Pin them at the origin region and
        # let the energy clamp make the damage visible downstream.
        walkers = np.nan_to_num(walkers, nan=0.0, posinf=0.0, neginf=0.0)

    n = len(walkers)
    tau = params.tau
    sqrt_tau = np.sqrt(tau)
    weights = np.ones(n, dtype=np.float64)
    e_local = np.clip(wf.local_energy(walkers), -ENERGY_CLAMP, ENERGY_CLAMP)
    e_trial = float(np.average(e_local, weights=weights))
    log_psi = wf.log_psi(walkers)
    force = reference_limited_force(wf, walkers, tau)

    rows: List[ScalarRow] = []
    step_count = 0
    for block in range(params.n_blocks):
        block_energy = 0.0
        block_energy_sq = 0.0
        block_weight = 0.0
        for _ in range(params.steps_per_block):
            step_count += 1
            proposal = (walkers + 0.5 * tau * force
                        + sqrt_tau * rng.standard_normal(walkers.shape))
            log_psi_new = wf.log_psi(proposal)
            force_new = reference_limited_force(wf, proposal, tau)

            def log_green(to: np.ndarray, frm: np.ndarray,
                          drift: np.ndarray) -> np.ndarray:
                diff = to - frm - 0.5 * tau * drift
                return -(diff * diff).sum(axis=(1, 2)) / (2.0 * tau)

            log_ratio = (2.0 * (log_psi_new - log_psi)
                         + log_green(walkers, proposal, force_new)
                         - log_green(proposal, walkers, force))
            accept = np.log(rng.random(n)) < log_ratio
            walkers[accept] = proposal[accept]
            log_psi[accept] = log_psi_new[accept]
            force[accept] = force_new[accept]

            e_new = np.clip(wf.local_energy(walkers), -ENERGY_CLAMP, ENERGY_CLAMP)
            weights *= np.exp(-tau * (0.5 * (e_local + e_new) - e_trial))
            np.clip(weights, *WEIGHT_CLIP, out=weights)
            e_local = e_new

            total_weight = float(weights.sum())
            if total_weight < params.min_total_weight:
                raise PopulationCollapse(
                    f"population weight collapsed to {total_weight:.3g}")

            block_energy += float((weights * e_local).sum())
            block_energy_sq += float((weights * e_local ** 2).sum())
            block_weight += total_weight

            # Trial-energy feedback keeps total weight near the target.
            e_trial = (float(np.average(e_local, weights=weights))
                       - params.feedback / tau * np.log(total_weight / n))

            if step_count % params.reconfigure_every == 0:
                idx = reference_systematic_resample(weights, n, rng)
                walkers = walkers[idx]
                e_local = e_local[idx]
                log_psi = log_psi[idx]
                force = force[idx]
                weights = np.full(n, 1.0)

        mean = block_energy / block_weight
        var = block_energy_sq / block_weight - mean * mean
        rows.append(ScalarRow(index=block, local_energy=mean,
                              variance=max(var, 0.0), weight=block_weight))
    return walkers, rows


def reference_run_vmc(wf: HeliumWavefunction, params: VmcParams,
                      rng: np.random.Generator
                      ) -> Tuple[np.ndarray, List[ScalarRow]]:
    """Run VMC; returns (final walker population, per-block scalar rows).

    Walkers start from a gaussian cloud around the nucleus and are warmed
    up for ``warmup_blocks`` before statistics are recorded.
    """
    n = params.n_walkers
    walkers = rng.normal(scale=0.7, size=(n, 2, 3))
    log_psi = wf.log_psi(walkers)

    rows: List[ScalarRow] = []
    for block in range(params.warmup_blocks + params.n_blocks):
        block_energies = np.empty((params.steps_per_block, n))
        for step in range(params.steps_per_block):
            proposal = walkers + rng.normal(scale=params.step_size,
                                            size=walkers.shape)
            log_psi_new = wf.log_psi(proposal)
            accept = (np.log(rng.random(n)) <
                      2.0 * (log_psi_new - log_psi))
            walkers[accept] = proposal[accept]
            log_psi[accept] = log_psi_new[accept]
            block_energies[step] = wf.local_energy(walkers)
        if block >= params.warmup_blocks:
            energies = block_energies.ravel()
            rows.append(ScalarRow(
                index=block - params.warmup_blocks,
                local_energy=float(energies.mean()),
                variance=float(energies.var()),
                weight=float(n),
            ))
    return walkers, rows


# -- the comparison ------------------------------------------------------------


def evaluate(wf: HeliumWavefunction, walkers: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel on a ``(N, 2, 3)`` walker set: ``(ln psi, grad ln psi,
    E_L)``, the gradient in the walkers' shape."""
    log_psi, grad, e_local = wf.evaluate_components(to_components(walkers))
    return log_psi, to_walkers(grad), e_local


WF = HeliumWavefunction()
REF = ReferenceWavefunction()

#: Small enough for the fast lane; the shapes of the replay guard's QMC app.
VMC = VmcParams(n_walkers=24, n_blocks=12, warmup_blocks=2)
DMC = DmcParams(target_walkers=24, n_blocks=14)
SEED = 21


def vmc_rng(seed: int = SEED) -> np.random.Generator:
    return RngStream(seed, "qmcpack", "vmc").generator()


def dmc_rng(seed: int = SEED) -> np.random.Generator:
    return RngStream(seed, "qmcpack", "dmc").generator()


def golden_walkers() -> np.ndarray:
    walkers, _ = reference_run_vmc(REF, VMC, vmc_rng())
    return walkers


def flipped(walkers: np.ndarray, seed: int, bits: int = 6) -> np.ndarray:
    """*bits* seeded bit flips anywhere in the float64 payload."""
    raw = bytearray(walkers.tobytes())
    rng = RngStream(seed, "kernel", "flips").generator()
    for pos in rng.choice(len(raw) * 8, size=bits, replace=False):
        raw[int(pos) // 8] ^= 1 << (int(pos) % 8)
    return np.frombuffer(bytes(raw), dtype=np.float64).reshape(walkers.shape)


def walker_sets() -> List[Tuple[str, np.ndarray]]:
    golden = golden_walkers()
    sets = [("golden", golden)]
    sets += [(f"flips-{seed}", flipped(golden, seed)) for seed in range(6)]
    # Every float64 exponent bit of one coordinate: tiny, huge, inf, NaN.
    exponent = golden.copy()
    raw = exponent.view(np.uint64)
    for bit in range(52, 63):
        raw[bit - 52, 0, 0] ^= np.uint64(1) << np.uint64(bit)
    sets.append(("exponent-bits", exponent))
    zeroed = golden.copy()
    zeroed[:6] = 0.0
    zeroed[6:9, 0] = 0.0
    zeroed[9] = zeroed[9, 0]          # both electrons on one point
    sets.append(("zeroed", zeroed))
    huge = golden.copy()
    huge[:4] = 1e300
    huge[4:8] = -1e300
    huge[8, 0], huge[8, 1] = 1e300, -1e300
    huge[9, 0], huge[9, 1] = 1e308, -1e308   # x1 - x2 overflows to inf
    sets.append(("huge", huge))
    nonfinite = golden.copy()
    nonfinite[:4] = np.nan
    nonfinite[4:6] = np.inf
    nonfinite[6:8] = -np.inf
    nonfinite[8, 0, 1] = np.nan
    nonfinite[9, 1] = np.inf
    # NaNs of both signs next to a finite electron: NaN propagation then
    # shows which operands each formula combined.
    nonfinite[10] = [[np.nan, -np.nan, 0.0], [0.5, 0.5, 0.5]]
    sets.append(("nonfinite", nonfinite))
    return sets


SETS = walker_sets()
IDS = [name for name, _ in SETS]


def outcome(run, *args):
    """Walker bytes plus row reprs, or the exception type and message."""
    try:
        walkers, rows = run(*args)
    except Exception as err:  # compared, never swallowed
        return ("raised", type(err), str(err))
    return ("ok", walkers.tobytes(), [repr(row) for row in rows])


def test_vmc_matches_reference():
    for seed in (SEED, 5):
        assert outcome(run_vmc, WF, VMC, vmc_rng(seed)) == \
            outcome(reference_run_vmc, REF, VMC, vmc_rng(seed))


@pytest.mark.parametrize("name,walkers", SETS, ids=IDS)
def test_dmc_matches_reference(name, walkers):
    with np.errstate(all="ignore"):
        got = outcome(run_dmc, WF, walkers, DMC, dmc_rng())
        want = outcome(reference_run_dmc, REF, walkers, DMC, dmc_rng())
    assert got == want


def test_population_collapse_raises_identically():
    """Without the nuclear cusp (zeta != Z) two walkers packed onto the
    nucleus start at the energy clamp; their weights die within the run,
    which must fail the same way, with the same message."""
    walkers = dict(SETS)["golden"][:2] * 0.01
    params = DmcParams(target_walkers=2, n_blocks=14)
    with np.errstate(all="ignore"):
        got = outcome(run_dmc, HeliumWavefunction(zeta=1.0), walkers,
                      params, dmc_rng())
        want = outcome(reference_run_dmc, ReferenceWavefunction(zeta=1.0),
                       walkers, params, dmc_rng())
    assert want[:2] == ("raised", PopulationCollapse)
    assert got == want


@pytest.mark.parametrize("name,walkers", SETS, ids=IDS)
def test_evaluate_matches_three_pass_methods(name, walkers):
    with np.errstate(all="ignore"):
        log_psi, grad, e_local = evaluate(WF, walkers)
        want = (REF.log_psi(walkers), REF.grad_log_psi(walkers),
                REF.local_energy(walkers), REF.quantum_force(walkers))
        got = (log_psi, grad, e_local, 2.0 * grad)
    assert [a.tobytes() for a in (log_psi, grad, e_local)] == \
        [b.tobytes() for b in want[:3]]
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def test_evaluate_matches_at_a_jastrow_pole():
    """With a < 0 the Pade Jastrow has a pole at r12 = -1/a, where u' is
    infinite; the energy zeroes it, the gradient keeps it."""
    wf = HeliumWavefunction(jastrow_a=-0.5)
    ref = ReferenceWavefunction(jastrow_a=-0.5)
    walkers = dict(SETS)["golden"][:4].copy()
    walkers[0] = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]    # r12 = 2 exactly
    with np.errstate(all="ignore"):
        got = evaluate(wf, walkers)
        want = (ref.log_psi(walkers), ref.grad_log_psi(walkers),
                ref.local_energy(walkers))
    assert not np.isfinite(want[1][0]).all()
    assert np.isfinite(want[2][0])
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


#: The sets that overflow, carry NaN or inf, or put electrons on the
#: nucleus or on each other.
CORRUPTED = ["exponent-bits", "zeroed", "huge", "nonfinite"]


@pytest.mark.parametrize("name", CORRUPTED)
def test_corrupted_walkers_saturate_silently(name):
    """Saturation is the kernel's intended limit, so projecting or
    evaluating corrupted walkers raises no floating-point warning."""
    walkers = dict(SETS)[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluate(WF, walkers)
        got = outcome(run_dmc, WF, walkers, DMC, dmc_rng())
    assert got[0] == "ok", got


#: The seed QmcpackApplication runs with by default, and so every
#: Fig. 7 QMC run.
APP_SEED = 2021


def test_production_size_matches_reference():
    """The default VmcParams()/DmcParams() sizes every Fig. 7 QMC run
    uses (256 walkers, 1000 DMC steps), from the app's golden walkers
    and from one seeded 2-bit flip of them."""
    golden, rows = reference_run_vmc(REF, VmcParams(), vmc_rng(APP_SEED))
    assert outcome(run_vmc, WF, VmcParams(), vmc_rng(APP_SEED)) == \
        ("ok", golden.tobytes(), [repr(row) for row in rows])
    for walkers in (golden, flipped(golden, 3, bits=2)):
        with np.errstate(all="ignore"):
            got = outcome(run_dmc, WF, walkers, DmcParams(), dmc_rng(APP_SEED))
            want = outcome(reference_run_dmc, REF, walkers, DmcParams(),
                           dmc_rng(APP_SEED))
        assert got == want


# -- following a recorded trajectory -------------------------------------------


@dataclass(frozen=True)
class CountingWavefunction(HeliumWavefunction):
    """The kernel, counting its calls: a projection that runs to the end
    evaluates ``1 + n_blocks * steps_per_block`` walker sets."""

    calls: List[int] = field(default_factory=list, compare=False, repr=False)

    def evaluate_into(self, *args) -> None:
        self.calls.append(1)
        super().evaluate_into(*args)


def full_calls(params: DmcParams) -> int:
    return 1 + params.n_blocks * params.steps_per_block


def record(walkers: np.ndarray, params: DmcParams,
           rng: np.random.Generator) -> Trajectory:
    marks: list = []
    final, rows = run_dmc(WF, walkers, params, rng, marks=marks)
    return Trajectory(final, tuple(rows), tuple(marks))


def single_bit_flips(walkers: np.ndarray, seed: int,
                     per_class: int) -> List[np.ndarray]:
    """*per_class* seeded flips each of a sign, an exponent and a
    mantissa bit, one bit of one coordinate per set."""
    rng = RngStream(seed, "kernel", "single-flips").generator()
    sets = []
    for lo, hi in ((63, 64), (52, 63), (0, 52)):
        for _ in range(per_class):
            walker_set = walkers.copy()
            raw = walker_set.reshape(-1).view(np.uint64)
            raw[rng.integers(raw.size)] ^= \
                np.uint64(1) << np.uint64(rng.integers(lo, hi))
            sets.append(walker_set)
    return sets


def follow_sweep(golden: np.ndarray, params: DmcParams, seed: int,
                 sets: List[np.ndarray]) -> Tuple[int, int]:
    """Follow golden's trajectory from each set; every outcome must equal
    the reference's.  Returns (runs that stopped early, runs that did not)."""
    trajectory = record(golden, params, dmc_rng(seed))
    stopped = ran_on = 0
    for walkers in sets:
        wf = CountingWavefunction()
        with np.errstate(all="ignore"):
            got = outcome(partial(run_dmc, follow=trajectory), wf, walkers,
                          params, dmc_rng(seed))
            want = outcome(reference_run_dmc, REF, walkers, params,
                           dmc_rng(seed))
        assert got == want
        if len(wf.calls) < full_calls(params):
            stopped += 1
        else:
            ran_on += 1
    return stopped, ran_on


def test_following_its_own_trajectory_stops_at_the_first_block():
    golden = dict(SETS)["golden"]
    wf = CountingWavefunction()
    got = outcome(partial(run_dmc, follow=record(golden, DMC, dmc_rng())),
                  wf, golden, DMC, dmc_rng())
    assert len(wf.calls) == 1 + DMC.steps_per_block
    assert got == outcome(reference_run_dmc, REF, golden, DMC, dmc_rng())


def test_following_golden_matches_reference():
    """Single-bit flips of the test-size golden walkers: some rejoin the
    golden trajectory and stop early, some never do."""
    golden = dict(SETS)["golden"]
    stopped, ran_on = follow_sweep(golden, DMC, SEED,
                                   single_bit_flips(golden, 1, 18))
    assert stopped and ran_on


@pytest.mark.parametrize("every,seed,per_class", [(3, 2, 6), (7, 5, 30)])
def test_following_golden_checks_the_weights(every, seed, per_class):
    """Reconfiguring every 3 or 7 steps leaves most block ends between
    reconfigurations, so their weights are not all ones.  Two of the
    second sweep's flips end a block on golden's state and ``e_trial``
    but not on its weights: a mark that left them out would stop there."""
    params = DmcParams(target_walkers=24, n_blocks=14, reconfigure_every=every)
    golden = dict(SETS)["golden"]
    stopped, ran_on = follow_sweep(golden, params, SEED,
                                   single_bit_flips(golden, seed, per_class))
    assert stopped and ran_on


@pytest.mark.slow
def test_following_golden_at_production_size():
    golden, _ = reference_run_vmc(REF, VmcParams(), vmc_rng(APP_SEED))
    stopped, ran_on = follow_sweep(golden, DmcParams(), APP_SEED,
                                   single_bit_flips(golden, 3, 21))
    assert stopped and ran_on


def test_trajectory_of_another_walker_count_is_not_followed():
    """A trajectory recorded from 12 walkers is not followed from 24, nor
    one whose final walkers claim another count though its marks are
    those of the 12 walkers' own projection."""
    golden = dict(SETS)["golden"]
    twelve = DmcParams(target_walkers=12, n_blocks=14)
    recorded = record(golden[:12], twelve, dmc_rng())
    relabelled = Trajectory(golden[:6].copy(), recorded.rows, recorded.marks)
    for walkers, params, trajectory in ((golden, DMC, recorded),
                                        (golden[:12], twelve, relabelled)):
        wf = CountingWavefunction()
        got = outcome(partial(run_dmc, follow=trajectory), wf, walkers,
                      params, dmc_rng())
        assert len(wf.calls) == full_calls(params)
        assert got == outcome(reference_run_dmc, REF, walkers, params,
                              dmc_rng())


# -- projecting walker sets as one batch ---------------------------------------


def batch_outcomes(wf: HeliumWavefunction, walker_sets: List[np.ndarray],
                   params: DmcParams, **kwargs) -> list:
    """:func:`outcome` of every set of one batch projection."""
    with np.errstate(all="ignore"):
        projections = run_dmc_batch(wf, walker_sets, params, dmc_rng(),
                                    **kwargs)
    return [outcome(lambda: projection) if isinstance(projection, tuple)
            else ("raised", type(projection), str(projection))
            for projection in projections]


#: Every kernel set, plus one duplicate: golden walkers (they rejoin a
#: golden trajectory at block 0), bit flips, exponent flips, zeroed
#: spans, and NaN, inf and 1e300 coordinates.
BATCH_SETS = [walkers for _, walkers in SETS] + [dict(SETS)["flips-2"]]


@pytest.mark.parametrize("followed", [False, True],
                         ids=["unfollowed", "followed"])
@pytest.mark.parametrize("k", [2, 3, 8])
def test_batch_is_k_separate_projections(k, followed):
    """Each set of a batch projects to its own run_dmc's walkers and
    rows, the batch sharing every draw, followed or not."""
    kwargs = {"follow": record(dict(SETS)["golden"], DMC, dmc_rng())} \
        if followed else {}
    with np.errstate(all="ignore"):
        want = [outcome(partial(run_dmc, **kwargs), WF, walkers, DMC,
                        dmc_rng())
                for walkers in BATCH_SETS]
    for start in range(0, len(BATCH_SETS), k):
        assert batch_outcomes(WF, BATCH_SETS[start:start + k], DMC,
                              **kwargs) == want[start:start + k]


def test_collapsed_set_leaves_the_batch():
    """The collapsing two-walker set of
    test_population_collapse_raises_identically, batched between healthy
    sets of its walker count: it gets its own collapse back, message and
    all, and the others project as they would alone."""
    wf = HeliumWavefunction(zeta=1.0)
    params = DmcParams(target_walkers=2, n_blocks=14)
    golden = dict(SETS)["golden"]
    sets = [golden[2:4], golden[:2] * 0.01, golden[4:6], golden[6:8]]
    with np.errstate(all="ignore"):
        want = [outcome(run_dmc, wf, walkers, params, dmc_rng())
                for walkers in sets]
    assert want[1][:2] == ("raised", PopulationCollapse)
    assert [status for status, *_ in want] == ["ok", "raised", "ok", "ok"]
    assert batch_outcomes(wf, sets, params) == want


def test_sets_of_different_walker_counts_never_share_a_batch():
    golden = dict(SETS)["golden"]
    with pytest.raises(ValueError, match="one shape"):
        run_dmc_batch(WF, [golden, golden[:12]], DMC, dmc_rng())
    with pytest.raises(ValueError, match="one walker set"):
        run_dmc_batch(WF, [golden, golden], DMC, dmc_rng(), marks=[])
