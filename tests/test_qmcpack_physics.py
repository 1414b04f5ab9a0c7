"""Physics tests for the He wavefunction, VMC, and DMC."""

import numpy as np
import pytest

from repro.apps.qmcpack import (
    DmcParams,
    HeliumWavefunction,
    VmcParams,
    run_dmc,
    run_vmc,
)
from repro.apps.qmcpack.dmc import _limited_force
from repro.apps.qmcpack.wavefunction import to_components, to_walkers
from repro.util.rngstream import RngStream


def evaluate(wf, walkers):
    """``(ln psi, grad ln psi, E_L)`` of a ``(N, 2, 3)`` walker set
    through the component-major kernel; the gradient keeps the walkers'
    shape."""
    log_psi, grad, e_local = wf.evaluate_components(to_components(walkers))
    return log_psi, to_walkers(grad), e_local


def log_psi(wf, walkers):
    return evaluate(wf, walkers)[0]


def grad_log_psi(wf, walkers):
    return evaluate(wf, walkers)[1]


def local_energy(wf, walkers):
    return evaluate(wf, walkers)[2]


@pytest.fixture(scope="module")
def wf():
    return HeliumWavefunction()


@pytest.fixture(scope="module")
def equilibrated_walkers(wf):
    walkers, _ = run_vmc(wf, VmcParams(n_walkers=128, n_blocks=20),
                         RngStream(4, "t").generator())
    return walkers


class TestWavefunction:
    def test_local_energy_matches_finite_differences(self, wf, rng):
        """E_L = -1/2 (lap psi)/psi + V checked against a numeric Laplacian."""
        walkers = rng.normal(0, 0.8, (20, 2, 3))
        h = 1e-5
        lap = np.zeros(20)
        for e in range(2):
            for d in range(3):
                plus = walkers.copy()
                plus[:, e, d] += h
                minus = walkers.copy()
                minus[:, e, d] -= h
                lap += (np.exp(log_psi(wf, plus) - log_psi(wf, walkers))
                        + np.exp(log_psi(wf, minus) - log_psi(wf, walkers))
                        - 2.0) / h**2
        r1 = np.linalg.norm(walkers[:, 0], axis=1)
        r2 = np.linalg.norm(walkers[:, 1], axis=1)
        r12 = np.linalg.norm(walkers[:, 0] - walkers[:, 1], axis=1)
        numeric = -0.5 * lap + (-2 / r1 - 2 / r2 + 1 / r12)
        assert np.allclose(local_energy(wf, walkers), numeric, atol=1e-4)

    def test_gradient_matches_finite_differences(self, wf, rng):
        walkers = rng.normal(0, 0.8, (10, 2, 3))
        h = 1e-6
        grad = grad_log_psi(wf, walkers)
        for e in range(2):
            for d in range(3):
                plus = walkers.copy()
                plus[:, e, d] += h
                numeric = (log_psi(wf, plus) - log_psi(wf, walkers)) / h
                assert np.allclose(grad[:, e, d], numeric, atol=1e-4)

    def test_nuclear_cusp_bounded_energy(self, wf):
        """With zeta = Z the 1/r divergence cancels at the nucleus."""
        near = np.array([[[1e-7, 0, 0], [0.5, 0.5, 0.5]]])
        far = np.array([[[0.5, 0, 0], [0.5, 0.5, 0.5]]])
        assert abs(local_energy(wf, near)[0]) < 50 * abs(local_energy(wf, far)[0])

    def test_origin_walkers_are_finite(self, wf):
        """Corrupted restarts can put both electrons at the origin."""
        walkers = np.zeros((4, 2, 3))
        assert np.all(np.isfinite(local_energy(wf, walkers)))
        assert np.all(np.isfinite(log_psi(wf, walkers)))

    def test_quantum_force_is_twice_gradient(self, wf, rng):
        """DMC's drift: with the norm limiter off (tau = 0), the force
        is F = 2 grad ln psi."""
        x = to_components(rng.normal(0, 1, (5, 2, 3)))
        grad = wf.evaluate_components(x)[1]
        assert np.allclose(_limited_force(grad, 0.0), 2 * grad)


class TestVmc:
    def test_energy_above_exact_ground_state(self, wf):
        """Variational principle: VMC energy >= -2.90372."""
        _, rows = run_vmc(wf, VmcParams(n_walkers=256, n_blocks=40),
                          RngStream(1, "v").generator())
        energy = np.mean([r.local_energy for r in rows])
        assert -2.92 < energy
        assert energy < -2.80   # but a decent trial function

    def test_deterministic_given_rng(self, wf):
        a = run_vmc(wf, VmcParams(n_walkers=32, n_blocks=5),
                    RngStream(7, "x").generator())
        b = run_vmc(wf, VmcParams(n_walkers=32, n_blocks=5),
                    RngStream(7, "x").generator())
        assert np.array_equal(a[0], b[0])
        assert [r.local_energy for r in a[1]] == [r.local_energy for r in b[1]]

    def test_walker_shape(self, wf, equilibrated_walkers):
        assert equilibrated_walkers.shape == (128, 2, 3)


class TestDmc:
    def test_projects_below_vmc(self, wf, equilibrated_walkers):
        params = DmcParams(target_walkers=128, n_blocks=60, steps_per_block=8)
        _, rows = run_dmc(wf, equilibrated_walkers, params,
                          RngStream(2, "d").generator())
        energy = np.average([r.local_energy for r in rows[15:]],
                            weights=[r.weight for r in rows[15:]])
        assert -2.92 < energy < -2.88   # near the exact -2.90372

    def test_deterministic(self, wf, equilibrated_walkers):
        params = DmcParams(target_walkers=128, n_blocks=5)
        a = run_dmc(wf, equilibrated_walkers, params, RngStream(3, "d").generator())
        b = run_dmc(wf, equilibrated_walkers, params, RngStream(3, "d").generator())
        assert [r.local_energy for r in a[1]] == [r.local_energy for r in b[1]]

    def test_corrupted_walkers_still_run(self, wf, equilibrated_walkers):
        """NaN/inf coordinates (corrupted restart) must not explode."""
        walkers = equilibrated_walkers.copy()
        walkers[:8] = np.nan
        walkers[8:12] = np.inf
        params = DmcParams(target_walkers=128, n_blocks=5)
        _, rows = run_dmc(wf, walkers, params, RngStream(4, "d").generator())
        assert all(np.isfinite(r.local_energy) for r in rows)

    def test_population_weight_tracked(self, wf, equilibrated_walkers):
        params = DmcParams(target_walkers=128, n_blocks=5)
        _, rows = run_dmc(wf, equilibrated_walkers, params,
                          RngStream(5, "d").generator())
        for row in rows:
            assert row.weight > 0

    def test_bad_shape_rejected(self, wf):
        with pytest.raises(ValueError):
            run_dmc(wf, np.zeros((4, 3)), DmcParams(), RngStream(1).generator())
