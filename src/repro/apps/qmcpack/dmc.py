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

Layout.  :func:`run_dmc_batch` projects K walker sets of N walkers at
once (:func:`run_dmc` is its K = 1 call).  It keeps the walkers, the
drift ``0.5 tau F`` of their quantum force F, ln psi and E_L in one
component-major ``(14, K*N)`` state (rows :data:`X`, :data:`DRIFT`,
:data:`LOG_PSI` and :data:`E_LOCAL`; the walker rows are those of
:mod:`repro.apps.qmcpack.wavefunction`), whose columns are the sets laid
end to end: viewed as ``(14, K, N)``, column block k is set k's
``(14, N)`` state.  The kernel writes a proposal into the rows of a
fresh state buffer, one ``np.where`` over the acceptance mask takes the
accepted columns (a masked ``copyto`` of the same columns runs over
twice as long at N = 256), and one ``take`` resamples every population.

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

Batching.  A batch's sets share every draw: each step draws one
``standard_normal((N, 2, 3))`` and one ``random(N)``, and each
reconfiguration one ``random()``, exactly as one set's projection does,
and none of them depends on a walker value (the rejoining argument
above), so the noise and the acceptance uniforms broadcast over the
sets as a ``(6, 1, N)`` and a ``(1, N)`` view.  What keeps every set's
bits those of its own K = 1 projection:

* the kernel, the force limiter, the Green's terms, the acceptance
  test and the weight update run on flat ``(rows, K*N)`` arrays, and
  every term is computed per column (numpy's vector loops give an
  element the same bits wherever it sits in the array); the weight
  update subtracts each set's ``e_trial`` from its own N columns, and
  the kernel's one batch-wide test (whether any Jastrow derivative is
  non-finite) takes a branch that leaves finite columns as they are;
* each set's weight and energy sums are rows of one ``(3, K, N)``
  reduction along its contiguous axis: the same pairwise sum per row
  as the ``(3, N)`` reduction;
* ``e_trial``, the block sums, the collapse check and its message, and
  the rows stay Python floats per set, computed by the same
  expressions;
* a reconfiguration scales the one shared comb by each set's own total
  and searches each set's own ``cumsum``; one flat ``take`` with row
  offsets ``k*N`` then copies values only;
* a set leaves the batch when its population collapses (its result is
  the :class:`PopulationCollapse`) or, following a trajectory, when its
  block-end mark matches (the digest covers that set's contiguous
  ``(14, N)`` state and its weights row); the draws of the sets that
  remain do not change.

Marks are recorded from one set only (the golden capture), and only
sets of one shape that follow one trajectory share a batch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.apps.qmcpack.scalars import ScalarRow
from repro.apps.qmcpack.wavefunction import (
    SATURATE,
    HeliumWavefunction,
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


#: One walker set's outcome in a batch: its final walkers and rows, or
#: the :class:`PopulationCollapse` that ended its projection.
Projection = Union[Tuple[np.ndarray, List[ScalarRow]], PopulationCollapse]


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


def _systematic_resample(weights: np.ndarray, totals: Sequence[float],
                         rng: np.random.Generator) -> np.ndarray:
    """Systematic (comb) resampling of each row of the ``(K, N)``
    ``weights`` (row k summing to ``totals[k]``), every row with the one
    uniform drawn here: indices into the rows laid end to end."""
    k, n = weights.shape
    comb = (rng.random() + np.arange(n, dtype=np.float64)) / n
    idx = np.concatenate([
        np.searchsorted(np.cumsum(row), comb * total, side="right")
        for row, total in zip(weights, totals)])
    np.minimum(idx, n - 1, out=idx)
    if k > 1:
        idx += np.repeat(np.arange(0, k * n, n), n)
    return idx


def _digest(state: np.ndarray, weights: np.ndarray) -> bytes:
    digest = hashlib.blake2b(state, digest_size=32)
    digest.update(weights)
    return digest.digest()


def initial_population(walkers: np.ndarray) -> np.ndarray:
    """A restart's walkers as the float64 ``(N, 2, 3)`` population a
    projection starts from (a copy); any other shape is a
    :class:`ValueError`."""
    walkers = np.array(walkers, dtype=np.float64, copy=True)
    if walkers.ndim != 3 or walkers.shape[1:] != (2, 3):
        raise ValueError(f"walkers must have shape (N, 2, 3), got {walkers.shape}")
    if not np.all(np.isfinite(walkers)):
        # A corrupted restart can carry inf/NaN coordinates; the real code
        # faults in its distance tables.  Pin them at the origin region and
        # let the energy clamp make the damage visible downstream.
        walkers = np.nan_to_num(walkers, nan=0.0, posinf=0.0, neginf=0.0)
    return walkers


def run_dmc(wf: HeliumWavefunction, walkers: np.ndarray, params: DmcParams,
            rng: np.random.Generator, *, follow: Optional[Trajectory] = None,
            marks: Optional[List[Mark]] = None
            ) -> Tuple[np.ndarray, List[ScalarRow]]:
    """Run DMC from an initial population; returns (walkers, scalar rows).

    *marks*, if given, receives one :data:`Mark` per block.  With
    *follow*, a :class:`Trajectory` recorded from the same walker count,
    wavefunction, parameters and random stream, the projection stops at
    the first block end whose mark equals the trajectory's and finishes
    with the trajectory's later rows and final walkers.  A population
    whose weight dies out raises :class:`PopulationCollapse`.  This is
    :func:`run_dmc_batch` of one walker set.
    """
    (result,) = run_dmc_batch(wf, [walkers], params, rng, follow=follow,
                              marks=marks)
    if isinstance(result, PopulationCollapse):
        raise result
    return result


class _Run:
    """One projection of a batch: its set's index and its scalars."""

    __slots__ = ("index", "e_trial", "rows", "total", "energy", "energy_sq",
                 "weight")

    def __init__(self, index: int, e_trial: float) -> None:
        self.index = index
        self.e_trial = e_trial
        self.rows: List[ScalarRow] = []


@np.errstate(**SATURATE)
def run_dmc_batch(wf: HeliumWavefunction, walker_sets: Sequence[np.ndarray],
                  params: DmcParams, rng: np.random.Generator, *,
                  follow: Optional[Trajectory] = None,
                  marks: Optional[List[Mark]] = None) -> List[Projection]:
    """Project K walker sets of one shape as one batch that shares every
    draw of *rng*; returns each set's :data:`Projection`, in order.

    Each set's walkers and rows are those of its own :func:`run_dmc`
    (see the module docstring's "Batching").  A set whose population
    collapses gets its :class:`PopulationCollapse` back and leaves the
    batch; with *follow*, a set leaves it where it rejoins the
    trajectory.  *marks* is recorded for a batch of one set only.
    """
    populations = [initial_population(walkers) for walkers in walker_sets]
    shape = populations[0].shape
    if any(population.shape != shape for population in populations):
        raise ValueError("a batch takes walker sets of one shape, got "
                         f"{sorted({p.shape for p in populations})}")
    if marks is not None and len(populations) != 1:
        raise ValueError("marks are recorded from one walker set only")
    if follow is not None and follow.walkers.shape != shape:
        follow = None
    k, n = len(populations), shape[0]
    tau = params.tau
    half_tau = 0.5 * tau
    sqrt_tau = np.sqrt(tau)
    gain = params.feedback / tau
    state = np.empty((14, k * n))
    walkers_by_set = state[X].reshape(6, k, n)
    for j, population in enumerate(populations):
        walkers_by_set[:, j] = population.reshape(n, 6).T
    wf.evaluate_into(state[X], state[LOG_PSI], state[DRIFT], state[E_LOCAL])
    _limited_force(state[DRIFT], tau, out=state[DRIFT])
    state[DRIFT] *= half_tau
    state[E_LOCAL].clip(-ENERGY_CLAMP, ENERGY_CLAMP, out=state[E_LOCAL])
    # Each set's weights and two weighted energies, summed in one
    # reduction.
    weighted = np.empty((3, k * n))
    weights = weighted[0]
    weights.fill(1.0)
    runs = [_Run(j, float(np.average(e_local, weights=w)))
            for j, (e_local, w) in enumerate(
                zip(state[E_LOCAL].reshape(k, n), weights.reshape(k, n)))]
    trial = np.repeat([run.e_trial for run in runs], n)
    trial_rows = trial.reshape(k, n)
    results: List[Optional[Projection]] = [None] * k

    def keep(kept: List[int]) -> None:
        """Drop every batch column but *kept* (runs that left)."""
        nonlocal state, weighted, weights, trial, trial_rows, runs
        state = state.reshape(14, len(runs), n)[:, kept].reshape(14, -1)
        weighted = weighted.reshape(3, len(runs), n)[:, kept].reshape(3, -1)
        weights = weighted[0]
        trial_rows = trial_rows[kept]
        trial = trial_rows.reshape(-1)
        runs = [runs[j] for j in kept]

    step_count = 0
    for block in range(params.n_blocks):
        for run in runs:
            run.energy = run.energy_sq = run.weight = 0.0
        for _ in range(params.steps_per_block):
            step_count += 1
            k = len(runs)
            noise = rng.standard_normal(shape)
            noise *= sqrt_tau
            proposal = np.empty((14, k * n))
            np.add(state[X], state[DRIFT], out=proposal[X])
            moved = proposal[X].reshape(6, k, n)
            moved += noise.reshape(n, 6).T[:, None]
            wf.evaluate_into(proposal[X], proposal[LOG_PSI], proposal[DRIFT],
                             proposal[E_LOCAL])
            _limited_force(proposal[DRIFT], tau, out=proposal[DRIFT])
            proposal[DRIFT] *= half_tau
            proposal[E_LOCAL].clip(-ENERGY_CLAMP, ENERGY_CLAMP,
                                   out=proposal[E_LOCAL])

            # ln G(x <- x') and ln G(x' <- x) from one d = x' - x: the
            # first's difference is -(d + drift'), the second's d - drift.
            move = proposal[X] - state[X]
            green = np.empty((2, 6, k * n))
            np.add(move, proposal[DRIFT], out=green[0])
            np.subtract(move, state[DRIFT], out=green[1])
            green *= green
            norms = np.add.reduce(green, axis=1)
            norms /= 2.0 * tau
            log_ratio = proposal[LOG_PSI] - state[LOG_PSI]
            log_ratio *= 2.0
            log_ratio -= norms[0]
            log_ratio += norms[1]
            accept = np.log(rng.random(n)).reshape(1, n) \
                < log_ratio.reshape(k, n)
            previous, state = state, np.where(accept.reshape(-1), proposal,
                                              state)

            # Each walker's energy is its own: the carried value for a
            # rejected move, the proposal's for an accepted one.
            e_local = state[E_LOCAL]
            weights *= np.exp(-tau * (0.5 * (previous[E_LOCAL] + e_local)
                                      - trial))
            weights.clip(*WEIGHT_CLIP, out=weights)
            np.multiply(weights, e_local, out=weighted[1])
            np.square(e_local, out=weighted[2])
            np.multiply(weights, weighted[2], out=weighted[2])
            collapsed = False
            for j, (run, total_weight, step_energy, step_energy_sq) in \
                    enumerate(zip(runs, *np.add.reduce(
                        weighted.reshape(3, k, n), axis=-1).tolist())):
                if total_weight < params.min_total_weight:
                    results[run.index] = PopulationCollapse(
                        f"population weight collapsed to {total_weight:.3g}")
                    collapsed = True
                    continue
                run.total = total_weight
                run.energy += step_energy
                run.energy_sq += step_energy_sq
                run.weight += total_weight
                # Trial-energy feedback keeps total weight near the
                # target; the first term is the weighted average of
                # e_local.
                run.e_trial = (step_energy / total_weight
                               - gain * np.log(total_weight / n))
                trial_rows[j] = run.e_trial
            if collapsed:
                kept = [j for j, run in enumerate(runs)
                        if results[run.index] is None]
                if not kept:
                    return results
                keep(kept)

            if step_count % params.reconfigure_every == 0:
                idx = _systematic_resample(
                    weights.reshape(k, n), [run.total for run in runs], rng)
                state = state.take(idx, axis=1)
                weights.fill(1.0)

        for run in runs:
            mean = run.energy / run.weight
            var = run.energy_sq / run.weight - mean * mean
            run.rows.append(ScalarRow(index=block, local_energy=mean,
                                      variance=max(var, 0.0),
                                      weight=run.weight))
        if marks is None and follow is None:
            continue
        by_set = state.reshape(14, len(runs), n)
        by_weights = weights.reshape(len(runs), n)
        kept = []
        for j, run in enumerate(runs):
            e_trial = np.float64(run.e_trial).tobytes()
            if marks is not None:
                marks.append((e_trial, _digest(
                    np.ascontiguousarray(by_set[:, j]), by_weights[j])))
            elif e_trial == follow.marks[block][0] and _digest(
                    np.ascontiguousarray(by_set[:, j]), by_weights[j]) \
                    == follow.marks[block][1]:
                results[run.index] = (
                    follow.walkers.copy(),
                    run.rows + [replace(row)
                                for row in follow.rows[block + 1:]])
                continue
            kept.append(j)
        if not kept:
            return results
        if len(kept) < len(runs):
            keep(kept)
    by_set = state.reshape(14, len(runs), n)
    for j, run in enumerate(runs):
        results[run.index] = (to_walkers(by_set[X, j]), run.rows)
    return results
