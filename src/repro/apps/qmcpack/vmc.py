"""Variational Monte Carlo: Metropolis sampling of |psi|^2.

The VMC series plays two roles in the paper's workload: it produces the
``s000`` scalar file (whose corruption is invisible to the ``s001``-based
outcome classification → the benign fraction) and, crucially, it
generates the walker population that DMC restarts from.  That walker file
is the propagation channel through which storage faults reach the DMC
energies.

Layout.  :func:`run_vmc` draws the starting cloud as ``(N, 2, 3)``,
converts it once to the kernel's component-major ``(6, N)`` array (see
:mod:`repro.apps.qmcpack.wavefunction`) and converts back once on
return.  Each step's proposal noise is drawn by the same call with the
same ``(N, 2, 3)`` shape as per-walker code would use and only viewed
transposed, so the random stream is consumed identically; accepting a
move selects columns.  Walkers and rows are bit for bit those of the
``(N, 2, 3)`` loop.
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


@dataclass(frozen=True)
class VmcParams:
    n_walkers: int = 256
    n_blocks: int = 60
    steps_per_block: int = 10
    step_size: float = 0.45          # Metropolis gaussian proposal sigma
    warmup_blocks: int = 10


@np.errstate(**SATURATE)
def run_vmc(wf: HeliumWavefunction, params: VmcParams,
            rng: np.random.Generator) -> Tuple[np.ndarray, List[ScalarRow]]:
    """Run VMC; returns (final walker population, per-block scalar rows).

    Walkers start from a gaussian cloud around the nucleus and are warmed
    up for ``warmup_blocks`` before statistics are recorded.
    """
    n = params.n_walkers
    shape = (n, 2, 3)
    x = to_components(rng.normal(scale=0.7, size=shape))
    log_psi, _, e_local = wf.evaluate_components(x)

    rows: List[ScalarRow] = []
    for block in range(params.warmup_blocks + params.n_blocks):
        block_energies = np.empty((params.steps_per_block, n))
        for step in range(params.steps_per_block):
            noise = rng.normal(scale=params.step_size, size=shape)
            proposal = x + noise.reshape(n, 6).T
            log_psi_new, _, e_prop = wf.evaluate_components(proposal)
            accept = (np.log(rng.random(n)) <
                      2.0 * (log_psi_new - log_psi))
            np.copyto(x, proposal, where=accept)
            np.copyto(log_psi, log_psi_new, where=accept)
            e_local = np.where(accept, e_prop, e_local)
            block_energies[step] = e_local
        if block >= params.warmup_blocks:
            energies = block_energies.ravel()
            rows.append(ScalarRow(
                index=block - params.warmup_blocks,
                local_energy=float(energies.mean()),
                variance=float(energies.var()),
                weight=float(n),
            ))
    return to_walkers(x), rows
