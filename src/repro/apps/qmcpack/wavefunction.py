"""Trial wavefunction and local energy for the helium atom.

The paper's QMCPACK workload is the single-He-atom example whose DMC
ground-state energy is exactly -2.90372 Hartree.  We use the standard
Slater-Jastrow trial function

    psi(r1, r2) = exp(-Z r1) exp(-Z r2) exp(b r12 / (1 + a r12))

with Z = 2 (electron-nucleus cusp) and b = 1/2 (electron-electron cusp);
``a`` is the variational parameter.  The local energy has the closed form
assembled from ln psi derivatives:

    E_L = -1/2 sum_i (lap_i ln psi + |grad_i ln psi|^2) - 2/r1 - 2/r2 + 1/r12

All evaluations are vectorized over walker populations: a walker set is a
``(N, 2, 3)`` array.  One geometry pass (:func:`_geometry`) feeds every
quantity, and :meth:`HeliumWavefunction.evaluate` returns ln psi, its
gradient and E_L together, so a Monte Carlo step measures each walker's
distances once.  Every term is computed per walker row: a row's values do
not depend on which other rows share the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

#: Hard floor on interparticle distances to keep 1/r terms finite when a
#: corrupted walker file puts electrons exactly on the nucleus.  Real QMC
#: codes never sample r = 0 (the wavefunction kills the density there),
#: but corrupted restarts can.
R_EPS = 1e-12


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a real ``(N, k)`` array.

    The same reduction ``np.linalg.norm(x, axis=1)`` performs for real
    input, bit for bit, without its argument handling.
    """
    return np.sqrt(np.add.reduce(x * x, axis=1))


class _Geometry(NamedTuple):
    """One pass over a ``(N, 2, 3)`` walker set."""

    x1: np.ndarray    # electron positions, (N, 3)
    x2: np.ndarray
    x12: np.ndarray   # x1 - x2
    r1: np.ndarray    # floored magnitudes, (N,)
    r2: np.ndarray
    r12: np.ndarray


def _geometry(walkers: np.ndarray) -> _Geometry:
    x1 = walkers[:, 0, :]
    x2 = walkers[:, 1, :]
    x12 = x1 - x2
    return _Geometry(x1, x2, x12,
                     np.maximum(row_norms(x1), R_EPS),
                     np.maximum(row_norms(x2), R_EPS),
                     np.maximum(row_norms(x12), R_EPS))


@dataclass(frozen=True)
class HeliumWavefunction:
    """Slater-Jastrow trial function parameters for He."""

    zeta: float = 2.0       # orbital exponent (nuclear cusp => Z)
    jastrow_b: float = 0.5  # e-e cusp condition for unlike spins
    jastrow_a: float = 0.3  # variational Pade parameter (VMC-variance optimal)

    # -- formulas over one geometry pass ------------------------------------------

    def _log_psi(self, g: _Geometry) -> np.ndarray:
        u = self.jastrow_b * g.r12 / (1.0 + self.jastrow_a * g.r12)
        return -self.zeta * (g.r1 + g.r2) + u

    def _gradient(self, walkers: np.ndarray, g: _Geometry,
                  du: np.ndarray) -> np.ndarray:
        """grad ln psi wrt both electrons, shape (N, 2, 3), given u'(r12)."""
        e1 = g.x1 / g.r1[:, None]
        e2 = g.x2 / g.r2[:, None]
        jastrow = du[:, None] * (g.x12 / g.r12[:, None])
        grad = np.empty_like(walkers)
        grad[:, 0, :] = -self.zeta * e1 + jastrow
        grad[:, 1, :] = -self.zeta * e2 - jastrow
        return grad

    # -- wavefunction ------------------------------------------------------------

    def evaluate(self, walkers: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ln psi, grad ln psi, E_L)`` from one geometry pass.

        E_L = (H psi)/psi.  Overflow in the Jastrow denominators
        (corrupted walkers flung to astronomical radii) saturates to
        zero derivatives, which is the correct r -> infinity limit.
        """
        g = _geometry(walkers)
        a, b, z = self.jastrow_a, self.jastrow_b, self.zeta

        with np.errstate(over="ignore"):
            one_plus = 1.0 + a * g.r12
            du = b / one_plus ** 2                    # u'(r12)
            d2u = -2.0 * a * b / one_plus ** 3        # u''(r12)
        grad = self._gradient(walkers, g, du)

        # The energy takes u' and u'' with non-finite values zeroed (NaN
        # walkers, or the pole a < 0 puts at r12 = -1/a), and the
        # gradient rebuilt from the zeroed u'.
        if np.isfinite(du).all() and np.isfinite(d2u).all():
            grad_e = grad
        else:
            du = np.nan_to_num(du, posinf=0.0, neginf=0.0)
            d2u = np.nan_to_num(d2u, posinf=0.0, neginf=0.0)
            grad_e = self._gradient(walkers, g, du)

        # Laplacians of ln psi per electron:
        #   lap_i(-Z r_i) = -2Z / r_i
        #   lap_i(u(r12)) = u'' + 2 u'/r12
        lap = (-2.0 * z / g.r1) + (-2.0 * z / g.r2) + 2.0 * (d2u + 2.0 * du / g.r12)

        # |grad_i ln psi|^2 summed over electrons.
        g1 = grad_e[:, 0, :]
        g2 = grad_e[:, 1, :]
        grad_sq = (g1 * g1).sum(axis=1) + (g2 * g2).sum(axis=1)

        kinetic = -0.5 * (lap + grad_sq)
        potential = -2.0 / g.r1 - 2.0 / g.r2 + 1.0 / g.r12
        return self._log_psi(g), grad, kinetic + potential

    def log_psi(self, walkers: np.ndarray) -> np.ndarray:
        return self._log_psi(_geometry(walkers))

    def grad_log_psi(self, walkers: np.ndarray) -> np.ndarray:
        """Gradient of ln psi wrt both electrons: shape (N, 2, 3)."""
        return self.evaluate(walkers)[1]

    def local_energy(self, walkers: np.ndarray) -> np.ndarray:
        """E_L = (H psi)/psi, vectorized over walkers."""
        return self.evaluate(walkers)[2]

    def quantum_force(self, walkers: np.ndarray) -> np.ndarray:
        """Drift velocity F = 2 grad ln psi used by DMC."""
        return 2.0 * self.grad_log_psi(walkers)
