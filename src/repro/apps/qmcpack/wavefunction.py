"""Trial wavefunction and local energy for the helium atom.

The paper's QMCPACK workload is the single-He-atom example whose DMC
ground-state energy is exactly -2.90372 Hartree.  We use the standard
Slater-Jastrow trial function

    psi(r1, r2) = exp(-Z r1) exp(-Z r2) exp(b r12 / (1 + a r12))

with Z = 2 (electron-nucleus cusp) and b = 1/2 (electron-electron cusp);
``a`` is the variational parameter.  The local energy has the closed form
assembled from ln psi derivatives:

    E_L = -1/2 sum_i (lap_i ln psi + |grad_i ln psi|^2) - 2/r1 - 2/r2 + 1/r12

Layout.  The kernel, :meth:`HeliumWavefunction.evaluate_into`, works on
a component-major ``(6, N)`` walker array, one row per
coordinate: x1, y1, z1, x2, y2, z2 (:func:`to_components` and
:func:`to_walkers` convert from and to the ``(N, 2, 3)`` population
layout).  Each formula then runs once over all walkers and all
components: r1, r2 and r12 come from one reduction over the stacked
``[x1; x2; x1 - x2]`` ``(9, N)`` buffer (viewed as ``(3, 3, N)``), and
the three unit-vector sets from one division.  It writes ln psi, its
gradient and E_L together into caller buffers (DMC passes rows of its
step state; :meth:`HeliumWavefunction.evaluate_components` allocates
them), so a Monte Carlo step measures each walker's distances once.

Why it is exact.  Every IEEE operation keeps the operands, and the
operand order, of the per-walker ``(N, 2, 3)`` formulas, except that a
product with a constant may swap its factors (``g * -Z == -Z * g``,
NaN payloads included).  The sums are
left folds either way: numpy folds a short ``axis=1`` row sum of an
``(N, 3)`` array left to right, ``(x*x + y*y) + z*z`` (checked on numpy
2.4.6; ``tests/test_qmcpack_kernel.py`` checks it on every interpreter
against the per-walker code), and a reduction across the rows of a
component-major array adds one whole row at a time, in row order.  Every
term is computed per walker column: a column's values do not depend on
which other walkers share the batch.

Corrupted walkers (astronomical radii, inf, NaN) saturate to inf/NaN or
to zero derivatives by design, so the kernel runs under
:data:`SATURATE`, which silences exactly those two floating-point
warnings and changes no value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

#: Hard floor on interparticle distances to keep 1/r terms finite when a
#: corrupted walker file puts electrons exactly on the nucleus.  Real QMC
#: codes never sample r = 0 (the wavefunction kills the density there),
#: but corrupted restarts can.
R_EPS = 1e-12

#: ``np.errstate`` arguments the Monte Carlo kernel runs under: overflow
#: and invalid operations are the intended saturation of corrupted
#: walkers, not errors worth a warning.
SATURATE: Dict[str, str] = {"over": "ignore", "invalid": "ignore"}

#: Numerators of the potential's three terms, -2/r1 - 2/r2 + 1/r12.
_CHARGES = np.array([[-2.0], [2.0], [1.0]])


def to_components(walkers: np.ndarray) -> np.ndarray:
    """``(N, 2, 3)`` walkers as a contiguous component-major ``(6, N)``."""
    return np.ascontiguousarray(walkers.reshape(len(walkers), 6).T)


def to_walkers(components: np.ndarray) -> np.ndarray:
    """A component-major ``(6, N)`` array as contiguous ``(N, 2, 3)``."""
    return np.ascontiguousarray(components.T).reshape(-1, 2, 3)


@dataclass(frozen=True)
class HeliumWavefunction:
    """Slater-Jastrow trial function parameters for He."""

    zeta: float = 2.0       # orbital exponent (nuclear cusp => Z)
    jastrow_b: float = 0.5  # e-e cusp condition for unlike spins
    jastrow_a: float = 0.3  # variational Pade parameter (VMC-variance optimal)

    def _gradient(self, units: np.ndarray, du: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
        """grad ln psi, ``(6, N)``, from the ``(3, 3, N)`` unit vectors
        e1, e2, e12 and u'(r12), into *out* (``(2, 3, N)``) if given."""
        grad = np.multiply(units[:2], -self.zeta, out=out)
        jastrow = du * units[2]
        grad[0] += jastrow
        grad[1] -= jastrow
        return grad.reshape(6, -1)

    # -- the kernel ------------------------------------------------------------

    @np.errstate(**SATURATE)
    def evaluate_into(self, x: np.ndarray, log_psi: np.ndarray,
                      grad: np.ndarray, e_local: np.ndarray) -> None:
        """Write ln psi, grad ln psi and E_L of a component-major
        ``(6, N)`` walker array into caller buffers: *log_psi* and
        *e_local* take ``(N,)``, *grad* a C-contiguous ``(6, N)``, and
        all three may be row views of one array.

        E_L = (H psi)/psi.  Overflow in the Jastrow denominators
        (corrupted walkers flung to astronomical radii) saturates to
        zero derivatives, which is the correct r -> infinity limit.
        """
        a, b, z = self.jastrow_a, self.jastrow_b, self.zeta
        vectors = np.empty((3, 3, x.shape[1]))
        vectors[:2] = x.reshape(2, 3, -1)
        np.subtract(x[:3], x[3:], out=vectors[2])
        r = np.sqrt(np.add.reduce(vectors * vectors, axis=1))
        np.maximum(r, R_EPS, out=r)                     # r1, r2, r12: (3, N)
        units = np.divide(vectors, r[:, None], out=vectors)   # e1, e2, e12
        r12 = r[2]

        one_plus = 1.0 + a * r12
        np.add(-z * (r[0] + r[1]), b * r12 / one_plus, out=log_psi)
        du = b / one_plus ** 2                    # u'(r12)
        d2u = -2.0 * a * b / one_plus ** 3        # u''(r12)
        self._gradient(units, du, out=grad.reshape(2, 3, -1))

        # The energy takes u' and u'' with non-finite values zeroed
        # (NaN walkers, or the pole a < 0 puts at r12 = -1/a), and
        # the gradient rebuilt from the zeroed u'.  Their dot product is
        # finite only if every u' and u'' is; one that overflows merely
        # takes the branch, whose zeroing leaves finite values as they are.
        if math.isfinite(np.dot(du, d2u)):
            grad_e = grad
        else:
            du = np.nan_to_num(du, posinf=0.0, neginf=0.0)
            d2u = np.nan_to_num(d2u, posinf=0.0, neginf=0.0)
            grad_e = self._gradient(units, du)

        # Laplacians of ln psi per electron:
        #   lap_i(-Z r_i) = -2Z / r_i
        #   lap_i(u(r12)) = u'' + 2 u'/r12
        nuclear = -2.0 * z / r[:2]
        lap = nuclear[0] + nuclear[1] + 2.0 * (d2u + 2.0 * du / r12)

        # |grad_i ln psi|^2 summed over electrons.
        grad_sq = np.add.reduce((grad_e * grad_e).reshape(2, 3, -1), axis=1)

        kinetic = -0.5 * (lap + (grad_sq[0] + grad_sq[1]))
        terms = _CHARGES / r
        potential = terms[0] - terms[1] + terms[2]
        np.add(kinetic, potential, out=e_local)

    def evaluate_components(self, x: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ln psi, grad ln psi, E_L)`` of a component-major ``(6, N)``
        walker array, in fresh arrays; the gradient is component-major
        too.  See :meth:`evaluate_into`."""
        n = x.shape[1]
        log_psi, grad, e_local = np.empty(n), np.empty((6, n)), np.empty(n)
        self.evaluate_into(x, log_psi, grad, e_local)
        return log_psi, grad, e_local
