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

Layout.  :func:`run_dmc` keeps the walkers, the drift ``0.5 tau F`` of
their quantum force F, ln psi and E_L in one component-major ``(14, N)``
state (rows :data:`X`, :data:`DRIFT`, :data:`LOG_PSI` and
:data:`E_LOCAL`; the walker rows are those of
:mod:`repro.apps.qmcpack.wavefunction`).  The kernel writes a proposal
into the rows of a fresh ``(14, N)`` buffer, one ``np.where`` over the
acceptance mask takes the accepted columns (a masked ``copyto`` of the
same columns runs over twice as long at N = 256), and one ``take``
resamples the population.

Why the bits are those of the per-walker ``(N, 2, 3)`` loop.  Every
IEEE operation keeps its operands and their order, or changes them only
where round-to-nearest gives the same result:

* the adds down axis 0 fold a walker's six squares left to right, as
  numpy's row sum does, and the noise is drawn by the same call with the
  same ``(N, 2, 3)`` shape and only viewed transposed, so the random
  stream is consumed identically;
* ``where`` and ``take`` copy values and compute none;
* both log-Green terms come from one ``(2, 6, N)`` buffer built from one
  ``d = x' - x``: ``x - x' == -d`` and ``-d - f == -(d + f)`` hold
  exactly, so ``ln G(x <- x')`` squares ``d + 0.5 tau F'`` (and
  ``(-g)**2 == g**2``); with ``(-S)/c == -(S/c)`` the ratio
  ``A + (-S)/c - (-S')/c`` is exactly ``A - S/c + S'/c``.  Only the
  acceptance test reads these terms, so not even a NaN's sign matters;
* the weight sum and the two weighted energy sums are the rows of one
  ``(3, N)`` reduction along its contiguous axis, which runs the same
  pairwise sum per row as a 1-D ``sum``;
* a product with a constant that is never NaN commutes
  (``2.0 * g == g * 2.0``), NaN payloads included.

``tests/test_qmcpack_kernel.py`` checks walker bytes and every row's
``repr`` against the per-walker code kept there.

Rejoining a trajectory.  Every projection of an application instance
draws the same random stream: the same named substream, and the same
calls with the same sizes (``standard_normal((N, 2, 3))`` and
``random(N)`` per step, one ``random()`` per reconfiguration), none of
which depends on a walker value.  What a step reads besides its draws
is the state, the weights and ``e_trial`` (the step count is fixed by
the block).  So two projections with the same N whose state, weights
and ``e_trial`` agree byte for byte at the end of block b make the same
rows after b and end on the same walkers.  A projection records one
:data:`Mark` per block: ``e_trial``'s 8 bytes and a 256-bit blake2b
digest of the state's and the weights' bytes.  One that follows a
:class:`Trajectory` of its own N compares ``e_trial`` at each block end
and hashes the state only when those bytes match; on a match it takes
the trajectory's later rows and final walkers.  A digest rather than the
states themselves: 100 block states of 256 walkers are ~3 MB per
golden record (and every forked worker would inherit them), their marks
~4 KB, and a false match needs a blake2b collision.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

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

#: Rows of the ``(14, N)`` step state: walkers, the drift 0.5 tau F of
#: the quantum force F, ln psi and E_L.
X, DRIFT, LOG_PSI, E_LOCAL = slice(0, 6), slice(6, 12), 12, 13

#: One block end of a projection: ``e_trial``'s bytes and the 256-bit
#: blake2b digest of the state's and the weights' bytes.
Mark = Tuple[bytes, bytes]


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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A finished projection, as another projection with the same
    walker count, wavefunction, parameters and random stream can rejoin
    it: its final walkers, its rows and one :data:`Mark` per block."""

    walkers: np.ndarray
    rows: Tuple[ScalarRow, ...]
    marks: Tuple[Mark, ...]


def _limited_force(grad: np.ndarray, tau: float,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Quantum force F = 2 grad ln psi with the standard norm limiter for
    finite tau; component-major ``(6, N)`` in and out (*out* may be
    *grad*)."""
    force = np.multiply(grad, 2.0, out=out)
    limit = np.add.reduce(force * force, axis=0)
    np.sqrt(limit, out=limit)
    limit *= 0.5 * tau
    return np.divide(force, np.maximum(1.0, limit, out=limit), out=force)


def _systematic_resample(weights: np.ndarray, total: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Systematic (comb) resampling of ``weights`` (summing to *total*):
    indices drawn with one uniform."""
    n = len(weights)
    positions = (rng.random() + np.arange(n, dtype=np.float64)) / n * total
    idx = np.searchsorted(np.cumsum(weights), positions, side="right")
    return np.minimum(idx, n - 1, out=idx)


def _digest(state: np.ndarray, weights: np.ndarray) -> bytes:
    digest = hashlib.blake2b(state, digest_size=32)
    digest.update(weights)
    return digest.digest()


@np.errstate(**SATURATE)
def run_dmc(wf: HeliumWavefunction, walkers: np.ndarray, params: DmcParams,
            rng: np.random.Generator, *, follow: Optional[Trajectory] = None,
            marks: Optional[List[Mark]] = None
            ) -> Tuple[np.ndarray, List[ScalarRow]]:
    """Run DMC from an initial population; returns (walkers, scalar rows).

    *marks*, if given, receives one :data:`Mark` per block.  With
    *follow*, a :class:`Trajectory` recorded from the same walker count,
    wavefunction, parameters and random stream, the projection stops at
    the first block end whose mark equals the trajectory's and finishes
    with the trajectory's later rows and final walkers.
    """
    walkers = np.array(walkers, dtype=np.float64, copy=True)
    if walkers.ndim != 3 or walkers.shape[1:] != (2, 3):
        raise ValueError(f"walkers must have shape (N, 2, 3), got {walkers.shape}")
    if not np.all(np.isfinite(walkers)):
        # A corrupted restart can carry inf/NaN coordinates; the real code
        # faults in its distance tables.  Pin them at the origin region and
        # let the energy clamp make the damage visible downstream.
        walkers = np.nan_to_num(walkers, nan=0.0, posinf=0.0, neginf=0.0)

    n = len(walkers)
    if follow is not None and follow.walkers.shape != walkers.shape:
        follow = None
    tau = params.tau
    half_tau = 0.5 * tau
    sqrt_tau = np.sqrt(tau)
    gain = params.feedback / tau
    state = np.empty((14, n))
    state[X] = to_components(walkers)
    wf.evaluate_into(state[X], state[LOG_PSI], state[DRIFT], state[E_LOCAL])
    _limited_force(state[DRIFT], tau, out=state[DRIFT])
    state[DRIFT] *= half_tau
    state[E_LOCAL].clip(-ENERGY_CLAMP, ENERGY_CLAMP, out=state[E_LOCAL])
    # The weights and the two weighted energies, summed in one reduction.
    weighted = np.empty((3, n))
    weights = weighted[0]
    weights.fill(1.0)
    e_trial = float(np.average(state[E_LOCAL], weights=weights))

    rows: List[ScalarRow] = []
    step_count = 0
    for block in range(params.n_blocks):
        block_energy = 0.0
        block_energy_sq = 0.0
        block_weight = 0.0
        for _ in range(params.steps_per_block):
            step_count += 1
            noise = rng.standard_normal(walkers.shape)
            noise *= sqrt_tau
            proposal = np.empty((14, n))
            np.add(state[X], state[DRIFT], out=proposal[X])
            proposal[X] += noise.reshape(n, 6).T
            wf.evaluate_into(proposal[X], proposal[LOG_PSI], proposal[DRIFT],
                             proposal[E_LOCAL])
            _limited_force(proposal[DRIFT], tau, out=proposal[DRIFT])
            proposal[DRIFT] *= half_tau
            proposal[E_LOCAL].clip(-ENERGY_CLAMP, ENERGY_CLAMP,
                                   out=proposal[E_LOCAL])

            # ln G(x <- x') and ln G(x' <- x) from one d = x' - x: the
            # first's difference is -(d + drift'), the second's d - drift.
            move = proposal[X] - state[X]
            green = np.empty((2, 6, n))
            np.add(move, proposal[DRIFT], out=green[0])
            np.subtract(move, state[DRIFT], out=green[1])
            green *= green
            norms = np.add.reduce(green, axis=1)
            norms /= 2.0 * tau
            log_ratio = proposal[LOG_PSI] - state[LOG_PSI]
            log_ratio *= 2.0
            log_ratio -= norms[0]
            log_ratio += norms[1]
            accept = np.log(rng.random(n)) < log_ratio
            previous, state = state, np.where(accept, proposal, state)

            # Each walker's energy is its own: the carried value for a
            # rejected move, the proposal's for an accepted one.
            e_local = state[E_LOCAL]
            weights *= np.exp(-tau * (0.5 * (previous[E_LOCAL] + e_local)
                                      - e_trial))
            weights.clip(*WEIGHT_CLIP, out=weights)
            np.multiply(weights, e_local, out=weighted[1])
            np.square(e_local, out=weighted[2])
            np.multiply(weights, weighted[2], out=weighted[2])
            total_weight, step_energy, step_energy_sq = \
                np.add.reduce(weighted, axis=1).tolist()
            if total_weight < params.min_total_weight:
                raise PopulationCollapse(
                    f"population weight collapsed to {total_weight:.3g}")

            block_energy += step_energy
            block_energy_sq += step_energy_sq
            block_weight += total_weight

            # Trial-energy feedback keeps total weight near the target;
            # the first term is the weighted average of e_local.
            e_trial = (step_energy / total_weight
                       - gain * np.log(total_weight / n))

            if step_count % params.reconfigure_every == 0:
                idx = _systematic_resample(weights, total_weight, rng)
                state = state.take(idx, axis=1)
                weights.fill(1.0)

        mean = block_energy / block_weight
        var = block_energy_sq / block_weight - mean * mean
        rows.append(ScalarRow(index=block, local_energy=mean,
                              variance=max(var, 0.0), weight=block_weight))
        if marks is not None or follow is not None:
            trial = np.float64(e_trial).tobytes()
            if marks is not None:
                marks.append((trial, _digest(state, weights)))
            elif trial == follow.marks[block][0] \
                    and _digest(state, weights) == follow.marks[block][1]:
                rows += [replace(row) for row in follow.rows[block + 1:]]
                return follow.walkers.copy(), rows
    return to_walkers(state[X]), rows
