import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cdcheck.errors import PreconditionError, SingularJacobian
from cdcheck.jacobi import (TransportRay, check_jacobian_concavity,
                            check_riccati, falsify_jacobian, integrate_jacobi,
                            jacobi_closed_form, sample_rays)
from cdcheck.params import validate_params
from cdcheck.spaces import constant_weight, make_space, weight_preset


@pytest.fixture
def flat3():
    return make_space("euclidean", 3)


@pytest.fixture
def sphere2():
    return make_space("sphere", 2)


def north_ray(sp, theta, S):
    x = np.array([0.0, 0.0, 1.0])
    v = sp.frame(x)[0]
    return TransportRay(x, theta * v, np.asarray(S, dtype=float))


class TestTrajectories:
    def test_identity_when_S_zero(self, flat3):
        p = validate_params(3, 5, 0.5)
        ray = TransportRay(np.zeros(3), np.array([0.7, 0.0, 0.0]),
                           np.zeros((3, 3)))
        traj = integrate_jacobi(flat3, constant_weight(0.0), p, ray)
        np.testing.assert_allclose(traj.det, 1.0, atol=1e-12)
        np.testing.assert_allclose(traj.J, 1.0, atol=1e-12)
        np.testing.assert_allclose(traj.D, 1.0, atol=1e-12)
        np.testing.assert_allclose(traj.Dbar, 1.0, atol=1e-12)

    def test_flat_isotropic_determinant(self, flat3):
        lam = 0.35
        p = validate_params(3, 5, 0.5)
        ray = TransportRay(np.zeros(3), np.array([0.4, 0.1, 0.0]),
                           lam * np.eye(3))
        traj = integrate_jacobi(flat3, constant_weight(0.0), p, ray)
        expect = (1.0 + lam * traj.ts) ** 3
        np.testing.assert_allclose(traj.det, expect, rtol=1e-10)

    def test_sphere_normal_block(self, sphere2):
        theta = 1.1
        p = validate_params(2, 2, 1.0)
        traj = integrate_jacobi(sphere2, constant_weight(0.0), p,
                                north_ray(sphere2, theta, np.zeros((2, 2))))
        expect = np.cos(theta * traj.ts)
        np.testing.assert_allclose(traj.det, expect, atol=1e-10)

    @pytest.mark.parametrize("k_theta2", [0.81, 0.0, -0.64],
                             ids=["sphere", "flat", "hyperbolic"])
    def test_closed_form_matches_ode_solver(self, k_theta2):
        # independent oracle: integrate E'' = -k theta^2 (E - e_n e_n^T E)
        S = np.array([[0.4, -0.2, 0.1], [-0.2, 0.1, 0.3], [0.1, 0.3, -0.5]])
        n = S.shape[0]
        ts = np.linspace(0.0, 1.0, 33)

        def rhs(_, y):
            E = y[:n * n].reshape(n, n)
            acc = -k_theta2 * E
            acc[-1, :] = 0.0
            return np.concatenate([y[n * n:], acc.ravel()])

        sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate([np.eye(n).ravel(),
                                                         S.ravel()]),
                        method="DOP853", t_eval=ts, rtol=1e-13, atol=1e-13)
        ref = sol.y.T.reshape(ts.size, 2, n, n)
        E, Ep = jacobi_closed_form(S[None], np.array([k_theta2]), ts)
        np.testing.assert_allclose(E[0], ref[:, 0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(Ep[0], ref[:, 1], rtol=1e-12, atol=1e-12)

    def test_step_halving_stability(self, sphere2):
        # det E is exact on any grid; Dbar and h carry the a_nn quadrature
        p = validate_params(2, 2, 1.0)
        S = np.array([[0.3, 0.1], [0.1, -0.2]])
        coarse = integrate_jacobi(sphere2, constant_weight(0.0), p,
                                  north_ray(sphere2, 0.8, S), steps=128)
        fine = integrate_jacobi(sphere2, constant_weight(0.0), p,
                                north_ray(sphere2, 0.8, S), steps=256)
        assert abs(coarse.Dbar[-1] - fine.Dbar[-1]) < 1e-8
        assert abs(coarse.h[-1] - fine.h[-1]) < 1e-8

    def test_singular_ray_rejected(self, flat3):
        p = validate_params(3, 5, 0.5)
        ray = TransportRay(np.zeros(3), np.array([0.5, 0.0, 0.0]),
                           -1.5 * np.eye(3))
        with pytest.raises(SingularJacobian):
            integrate_jacobi(flat3, constant_weight(0.0), p, ray)

    def test_asymmetric_S_rejected(self):
        with pytest.raises(PreconditionError):
            TransportRay(np.zeros(3), np.array([1.0, 0, 0]),
                         np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]))

    def test_positive_densities(self, sphere2):
        p = validate_params(2, 4, 0.5)
        w = weight_preset(sphere2, "cosine(0.3)")
        traj = integrate_jacobi(sphere2, w, p,
                                north_ray(sphere2, 0.7,
                                          [[0.2, 0.0], [0.0, 0.1]]))
        assert np.all(traj.D > 0)
        assert np.all(traj.Dbar > 0)


class TestRiccati:
    def test_flat_isotropic_closed_form(self, flat3):
        # h'' = -n lam^2/(1+lam t)^2 vs bound -h'^2/(n-1); strict for n >= 2
        lam = 0.3
        p = validate_params(3, 3, 1.0)
        ray = TransportRay(np.zeros(3), np.array([0.5, 0, 0]),
                           lam * np.eye(3))
        traj = integrate_jacobi(flat3, constant_weight(0.0), p, ray)
        rep = check_riccati(traj, flat3, constant_weight(0.0), p)
        assert rep.verdict == "pass"
        # normal block is conformal (lam I), so the comparison is an
        # equality: h' = (n-1) lam/(1+lam t), h'' = -h'^2/(n-1) exactly
        ts = traj.ts
        expect_h = 2.0 * np.log1p(lam * ts)
        np.testing.assert_allclose(traj.h, expect_h, atol=1e-9)
        assert abs(rep.min_margin) < 1e-8

    def test_zero_S_equality(self, flat3):
        p = validate_params(3, 3, 1.0)
        ray = TransportRay(np.zeros(3), np.array([0.5, 0, 0]), np.zeros((3, 3)))
        traj = integrate_jacobi(flat3, constant_weight(0.0), p, ray)
        rep = check_riccati(traj, flat3, constant_weight(0.0), p)
        assert rep.verdict == "pass"
        assert abs(rep.min_margin) < 1e-10

    def test_weighted_sphere(self, sphere2):
        p = validate_params(2, 6, 0.4)
        w = weight_preset(sphere2, "cosine(0.2)")
        rng = np.random.default_rng(0)
        count = 0
        for _ in range(10):
            M = rng.uniform(-0.4, 0.4, size=(2, 2))
            S = 0.5 * (M + M.T)
            traj = integrate_jacobi(sphere2, w, p,
                                    north_ray(sphere2, 0.9, S))
            rep = check_riccati(traj, sphere2, w, p)
            assert rep.verdict == "pass", rep.min_margin
            count += 1
        assert count == 10


class TestConcavity:
    def test_flat_equality_case(self, flat3):
        # N = n: J^{1/n} = 1 + lam t exactly, equality in the interpolation
        lam = 0.4
        p = validate_params(3, 3, 1.0)
        ray = TransportRay(np.zeros(3), np.array([0.6, 0, 0]),
                           lam * np.eye(3))
        traj = integrate_jacobi(flat3, constant_weight(0.0), p, ray)
        power = traj.J ** (p.c / (p.c + 1.0))
        expect = 1.0 + lam * traj.ts
        np.testing.assert_allclose(power, expect, rtol=1e-9)
        rep = check_jacobian_concavity(traj, p, 0.0)
        assert rep.verdict == "pass"

    def test_zero_S_equality(self, sphere2):
        p = validate_params(2, 2, 1.0)
        traj = integrate_jacobi(sphere2, constant_weight(0.0), p,
                                north_ray(sphere2, 0.9, np.zeros((2, 2))))
        rep = check_jacobian_concavity(traj, p, 1.0)
        assert rep.verdict == "pass"

    def test_sphere_monte_carlo(self, sphere2):
        p = validate_params(2, 2, 1.0)
        w = constant_weight(0.0)
        rng = np.random.default_rng(42)
        xs, ws, Ss = sample_rays(sphere2, rng, 200)
        checked = 0
        for x, wv, S in zip(xs, ws, Ss):
            try:
                traj = integrate_jacobi(sphere2, w, p, TransportRay(x, wv, S))
                rep = check_jacobian_concavity(traj, p, 1.0)
            except (SingularJacobian, PreconditionError):
                continue
            assert rep.min_margin >= -1e-8, rep.min_margin
            checked += 1
        assert checked > 100

    def test_beta_form_matches_sratio_form(self, sphere2):
        # margin (iii) rewritten through beta powers must agree with the
        # s-ratio recombination of margin (ii) on the same grid
        from cdcheck.jacobi import _partials_from_f

        p = validate_params(2, 4, 0.3)
        w = weight_preset(sphere2, "cosine(0.2)")
        traj = integrate_jacobi(sphere2, w, p,
                                north_ray(sphere2, 0.8,
                                          [[0.15, 0.0], [0.0, 0.05]]))
        kappa = 0.9
        dt = traj.ts[1] - traj.ts[0]
        d_part = _partials_from_f(p, traj.f_gamma[None], traj.theta, dt)[0]
        from cdcheck.params import s_kappa

        d_full = d_part[-1]
        inner = slice(1, len(traj.ts) - 1)
        ts = traj.ts[inner]
        sr_t = s_kappa(kappa, d_part[inner]) / s_kappa(kappa, d_full)
        sr_1mt = s_kappa(kappa, d_full - d_part[inner]) / s_kappa(kappa, d_full)
        cr = p.c / (p.c + 1.0)
        beta_t_pow = (sr_t / ts) ** (cr * p.inv_c)
        beta_1mt_pow = (sr_1mt / (1.0 - ts)) ** (cr * p.inv_c)
        rhs_beta = ((1.0 - ts) * beta_1mt_pow * 1.0
                    + ts * beta_t_pow * traj.J[-1] ** cr)
        rhs_sratio = (sr_1mt ** (cr * p.inv_c) * (1.0 - ts) ** (1.0 - cr * p.inv_c)
                      + sr_t ** (cr * p.inv_c) * ts ** (1.0 - cr * p.inv_c)
                      * traj.J[-1] ** cr)
        np.testing.assert_allclose(rhs_beta, rhs_sratio, rtol=1e-9)


class TestFalsification:
    def test_flat_positive_kappa_violated(self, flat3):
        p = validate_params(3, 3, 1.0)
        rep = falsify_jacobian(flat3, constant_weight(0.0), p, 0.2,
                               trials=10000, seed=0)
        assert rep.provenance["violation_found"]
        assert rep.verdict == "pass"

    def test_vacuous_on_valid_space(self, sphere2):
        p = validate_params(2, 2, 1.0)
        rep = falsify_jacobian(sphere2, constant_weight(0.0), p, 1.0,
                               trials=500, seed=0)
        assert rep.vacuous
        assert rep.passed

    def test_sphere_excess_kappa_violated(self, sphere2):
        p = validate_params(2, 2, 1.0)
        rep = falsify_jacobian(sphere2, constant_weight(0.0), p, 1.1,
                               trials=10000, seed=1)
        assert rep.provenance["violation_found"]
