"""Diffusion Monte Carlo with importance sampling and weight carrying.

Standard projector Monte Carlo: drift-diffusion moves with the quantum
force, Metropolis rejection against the Green's-function ratio, and
continuous branching weights ``exp(-tau * ((E_L + E_L') / 2 - E_T))``.
Instead of noisy integer birth/death, walkers carry weights that are
periodically flattened by *systematic reconfiguration* (resampling N
walkers with probability proportional to weight using a single uniform
comb) -- the low-variance population control used by production codes.

The mixed estimator converges to the He ground state (-2.90372 Ha) up to
timestep bias and statistics.  Local energies are clamped so corrupted
restart walkers (e.g. zeroed coordinates from a dropped write) produce
*visible* energy excursions instead of numerical explosions.

Layout.  :func:`run_dmc` converts the ``(N, 2, 3)`` population to the
kernel's component-major ``(6, N)`` array once on entry and back once on
return (see :mod:`repro.apps.qmcpack.wavefunction`).  Positions, forces
and their norms and Green's functions work down axis 0; accepting a move
and resampling the population select columns.  The result is bit for
bit that of the per-walker ``(N, 2, 3)`` loop: the adds down axis 0 fold
a walker's six squares left to right, as numpy's row sum does, every
other operation has the same operands in the same order, and the noise
is drawn by the same call with the same ``(N, 2, 3)`` shape and only
viewed transposed, so the random stream is consumed identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.apps.qmcpack.scalars import ScalarRow
from repro.apps.qmcpack.wavefunction import (
    SATURATE,
    HeliumWavefunction,
    to_components,
    to_walkers,
)

ENERGY_CLAMP = 100.0    # |E_L| clamp guarding corrupted-restart pathologies
WEIGHT_CLIP = (0.1, 10.0)


@dataclass(frozen=True)
class DmcParams:
    target_walkers: int = 256
    n_blocks: int = 100
    steps_per_block: int = 10
    tau: float = 0.02                # imaginary timestep
    feedback: float = 0.1            # trial-energy population feedback gain
    reconfigure_every: int = 5       # steps between reconfigurations
    min_total_weight: float = 1.0    # below this the run aborts


class PopulationCollapse(RuntimeError):
    """The walker population's weight died out (corrupted restarts)."""


def _limited_force(grad: np.ndarray, tau: float) -> np.ndarray:
    """Quantum force F = 2 grad ln psi with the standard norm limiter for
    finite tau; component-major ``(6, N)`` in and out."""
    force = 2.0 * grad
    fmag = np.sqrt(np.add.reduce(force * force, axis=0))
    return force / np.maximum(1.0, 0.5 * tau * fmag)


def _log_green(to: np.ndarray, frm: np.ndarray, drift: np.ndarray,
               tau: float) -> np.ndarray:
    """ln of the drift-diffusion Green's function from *frm* to *to*,
    per column of component-major ``(6, N)`` arrays."""
    diff = to - frm - 0.5 * tau * drift
    return -np.add.reduce(diff * diff, axis=0) / (2.0 * tau)


def _systematic_resample(weights: np.ndarray, n_out: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Systematic (comb) resampling: indices drawn with one uniform."""
    total = weights.sum()
    positions = (rng.random() + np.arange(n_out)) / n_out * total
    cumulative = np.cumsum(weights)
    return np.searchsorted(cumulative, positions, side="right").clip(0, len(weights) - 1)


@np.errstate(**SATURATE)
def run_dmc(wf: HeliumWavefunction, walkers: np.ndarray, params: DmcParams,
            rng: np.random.Generator) -> Tuple[np.ndarray, List[ScalarRow]]:
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
    x = to_components(walkers)
    tau = params.tau
    sqrt_tau = np.sqrt(tau)
    weights = np.ones(n, dtype=np.float64)
    log_psi, grad, e_local = wf.evaluate_components(x)
    e_local = np.clip(e_local, -ENERGY_CLAMP, ENERGY_CLAMP)
    e_trial = float(np.average(e_local, weights=weights))
    force = _limited_force(grad, tau)

    rows: List[ScalarRow] = []
    step_count = 0
    for block in range(params.n_blocks):
        block_energy = 0.0
        block_energy_sq = 0.0
        block_weight = 0.0
        for _ in range(params.steps_per_block):
            step_count += 1
            noise = rng.standard_normal(walkers.shape).reshape(n, 6).T
            proposal = x + 0.5 * tau * force + sqrt_tau * noise
            log_psi_new, grad_new, e_prop = wf.evaluate_components(proposal)
            force_new = _limited_force(grad_new, tau)

            log_ratio = (2.0 * (log_psi_new - log_psi)
                         + _log_green(x, proposal, force_new, tau)
                         - _log_green(proposal, x, force, tau))
            accept = np.log(rng.random(n)) < log_ratio
            np.copyto(x, proposal, where=accept)
            np.copyto(log_psi, log_psi_new, where=accept)
            np.copyto(force, force_new, where=accept)

            # Each walker's energy is its own: the carried value for a
            # rejected move, the proposal's for an accepted one.
            e_new = np.where(accept,
                             np.clip(e_prop, -ENERGY_CLAMP, ENERGY_CLAMP),
                             e_local)
            weights *= np.exp(-tau * (0.5 * (e_local + e_new) - e_trial))
            np.clip(weights, *WEIGHT_CLIP, out=weights)
            e_local = e_new

            total_weight = float(weights.sum())
            if total_weight < params.min_total_weight:
                raise PopulationCollapse(
                    f"population weight collapsed to {total_weight:.3g}")

            step_energy = float((weights * e_local).sum())
            block_energy += step_energy
            block_energy_sq += float((weights * e_local ** 2).sum())
            block_weight += total_weight

            # Trial-energy feedback keeps total weight near the target;
            # the first term is the weighted average of e_local.
            e_trial = (step_energy / total_weight
                       - params.feedback / tau * np.log(total_weight / n))

            if step_count % params.reconfigure_every == 0:
                idx = _systematic_resample(weights, n, rng)
                # take() keeps the columns C-contiguous; x[:, idx] would
                # hand back a Fortran-ordered array and stride every
                # later row operation.
                x = x.take(idx, axis=1)
                e_local = e_local[idx]
                log_psi = log_psi[idx]
                force = force.take(idx, axis=1)
                weights = np.full(n, 1.0)

        mean = block_energy / block_weight
        var = block_energy_sq / block_weight - mean * mean
        rows.append(ScalarRow(index=block, local_energy=mean,
                              variance=max(var, 0.0), weight=block_weight))
    return to_walkers(x), rows
