import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cdcheck.errors import PreconditionError, SingularJacobian
from cdcheck.jacobi import (TransportRay, check_riccati, integrate_jacobi,
                            jacobi_closed_form, refine_ray_margin,
                            sample_rays, scan_rays)
from cdcheck.params import validate_params
from cdcheck.spaces import (check_curvature_bound, constant_weight,
                            make_space, weight_preset)


@pytest.fixture
def flat3():
    return make_space("euclidean", 3)


@pytest.fixture
def sphere2():
    return make_space("sphere", 2)


def _random_symmetric(n, seed):
    m = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n, n))
    return m + m.T


RANDOM_S = [_random_symmetric(n, seed=n) for n in (2, 3, 4)]
# eigenvalues -0.9995, 0.2, -0.3 in a rotated frame: det E = 5e-4 * 0.84
# at t = 1 on flat space, where a_nn = (S (I + S)^{-1})_{nn} is large
_Q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))
NEAR_SINGULAR_S = (_Q * [-0.9995, 0.2, -0.3]) @ _Q.T
NEAR_SINGULAR_S = 0.5 * (NEAR_SINGULAR_S + NEAR_SINGULAR_S.T)


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
        np.testing.assert_allclose(np.exp(traj.log_D), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.exp(traj.int_ann), 1.0, atol=1e-12)

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

    @pytest.mark.parametrize("k_theta2, cases", [
        (0.81, RANDOM_S), (0.0, RANDOM_S), (-0.64, RANDOM_S),
        (0.0, [NEAR_SINGULAR_S]),
    ], ids=["sphere", "flat", "hyperbolic", "near-singular"])
    def test_closed_form_matches_ode_solver(self, k_theta2, cases):
        # independent oracle: integrate E'' = -k theta^2 (E - e_n e_n^T E),
        # then det E by LU and a_nn = (E' E^{-1})_{nn} from a full inverse
        ts = np.linspace(0.0, 1.0, 33)
        for S in cases:
            n = S.shape[0]

            def rhs(_, y):
                E = y[:n * n].reshape(n, n)
                acc = -k_theta2 * E
                acc[-1, :] = 0.0
                return np.concatenate([y[n * n:], acc.ravel()])

            sol = solve_ivp(rhs, (0.0, 1.0),
                            np.concatenate([np.eye(n).ravel(), S.ravel()]),
                            method="DOP853", t_eval=ts, rtol=1e-13,
                            atol=1e-13)
            ref = sol.y.T.reshape(ts.size, 2, n, n)
            ref_det = np.linalg.det(ref[:, 0])
            ref_ann = np.einsum("tj,tj->t", ref[:, 1, -1, :],
                                np.linalg.inv(ref[:, 0])[:, :, -1])
            det, a_nn = jacobi_closed_form(S[None], np.array([k_theta2]), ts)
            np.testing.assert_allclose(det[0], ref_det, rtol=1e-10)
            np.testing.assert_allclose(a_nn[0], ref_ann, rtol=1e-10)
        if cases is not RANDOM_S:
            assert 0.0 < det.min() < 1e-3

    def test_step_halving_stability(self, sphere2):
        # det E is exact on any grid; Dbar and h carry the a_nn quadrature
        p = validate_params(2, 2, 1.0)
        S = np.array([[0.3, 0.1], [0.1, -0.2]])
        coarse = integrate_jacobi(sphere2, constant_weight(0.0), p,
                                  north_ray(sphere2, 0.8, S), steps=128)
        fine = integrate_jacobi(sphere2, constant_weight(0.0), p,
                                north_ray(sphere2, 0.8, S), steps=256)
        assert abs(np.exp(coarse.int_ann[-1])
                   - np.exp(fine.int_ann[-1])) < 1e-8
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

    @pytest.mark.parametrize("speed, S", [
        (0.5, -1.5 * np.eye(3)), (0.5, [[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]),
        (0.0, 0.1 * np.eye(3)),
    ], ids=["inadmissible", "asymmetric", "zero-speed"])
    def test_refine_ray_margin_none(self, flat3, speed, S):
        assert refine_ray_margin(flat3, constant_weight(0.0),
                                 validate_params(3, 5, 0.5), 0.0, np.zeros(3),
                                 np.array([speed, 0.0, 0.0]),
                                 np.array(S)) is None

    def test_positive_densities(self, sphere2):
        p = validate_params(2, 4, 0.5)
        w = weight_preset(sphere2, "cosine(0.3)")
        traj = integrate_jacobi(sphere2, w, p,
                                north_ray(sphere2, 0.7,
                                          [[0.2, 0.0], [0.0, 0.1]]))
        # D and Dbar are kept as their logs: finite logs, positive densities
        assert np.all(np.isfinite(traj.log_D))
        assert np.all(np.isfinite(traj.int_ann))


def _sample_rays_per_ray(space, rng, count, region, theta_range):
    """The ray-by-ray sampling loop that ``sample_rays`` batches."""
    n = space.dim
    xs, ws, Ss = [], [], []
    for _ in range(count):
        x = space.sample_point(rng, region)
        vhat = space.sample_unit(rng, x)
        theta = rng.uniform(*theta_range)
        lam = rng.uniform(-0.8, 0.8, size=n) / theta
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        S = (q * lam) @ q.T
        xs.append(x)
        ws.append(theta * vhat)
        Ss.append(0.5 * (S + S.T))
    return np.asarray(xs), np.asarray(ws), np.asarray(Ss)


class TestSampling:
    @pytest.mark.parametrize("kind, dim, region", [
        ("euclidean", 3, None),
        ("euclidean", 3, {"center": [0.3, -1.0, 2.0], "radius": 0.5}),
        ("sphere", 2, None),
        ("hyperbolic", 3, None),
        ("hyperbolic", 3, {"radius": 0.4}),
    ])
    def test_batch_equals_per_ray_loop(self, kind, dim, region):
        sp = make_space(kind, dim)
        for seed in range(3):
            batch = sample_rays(sp, np.random.default_rng(seed), 120, region,
                                (0.2, 1.4))
            loop = _sample_rays_per_ray(sp, np.random.default_rng(seed), 120,
                                        region, (0.2, 1.4))
            for got, want in zip(batch, loop):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kind, dim", [("euclidean", 3), ("sphere", 2),
                                           ("sphere", 3), ("hyperbolic", 3)])
    def test_stacked_frames(self, kind, dim):
        sp = make_space(kind, dim)
        rng = np.random.default_rng(1)
        xs = np.stack([sp.sample_point(rng) for _ in range(5)])
        np.testing.assert_array_equal(sp.frame(xs),
                                      np.stack([sp.frame(x) for x in xs]))


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


class TestScan:
    @pytest.mark.parametrize("kind, dim, weight, nNe, kappa", [
        ("sphere", 2, "zero", (2, 2.0, 1.0), 1.0),
        ("euclidean", 3, "zero", (3, 3.0, 1.0), 0.2),
    ], ids=["s2-equality", "r3-violated"])
    def test_whole_count_equals_its_batches(self, kind, dim, weight, nNe,
                                            kappa):
        # the draw order behind every seeded jacobian run: one scan of 600
        # rays is the scans of 250, 250 and 100 on the same generator
        sp = make_space(kind, dim)
        args = (sp, weight_preset(sp, weight), validate_params(*nNe), kappa)
        rest = (64, None, (0.2, 1.4), 1e-6)
        whole = scan_rays(*args, np.random.default_rng(5), 600, *rest)
        rng = np.random.default_rng(5)
        parts = [scan_rays(*args, rng, m, *rest) for m in (250, 250, 100)]
        assert all(part[-1].size for part in parts)
        for got, want in zip(whole, zip(*parts)):
            np.testing.assert_array_equal(got, np.concatenate(want))

    def test_scan_is_the_serial_refinement(self):
        # the scan, one ray at a time: a margin below -tol on a ray whose
        # det E dips below 0.1 is re-checked on 4,096 steps, and a ray
        # is dropped where its grid gives no margin
        sp, w = make_space("euclidean", 3), constant_weight(0.0)
        args = (sp, w, validate_params(3, 3.0, 1.0), 0.2)
        *scanned, margins, grids = scan_rays(
            *args, np.random.default_rng(0), 600, 64, None, (0.2, 1.4), 1e-6)
        want, dropped = [], 0
        for ray in zip(*sample_rays(sp, np.random.default_rng(0), 600, None,
                                    (0.2, 1.4))):
            margin, steps = refine_ray_margin(*args, *ray, steps=64), 64
            if (margin is not None and margin < -1e-6
                    and integrate_jacobi(sp, w, args[2], TransportRay(*ray),
                                         64).det.min() < 0.1):
                margin, steps = refine_ray_margin(*args, *ray), 4096
                dropped += margin is None
            if margin is not None:
                want.append((*ray, margin, steps))
        assert dropped and 4096 in grids
        for got, expect in zip([*scanned, margins, grids], zip(*want)):
            np.testing.assert_array_equal(got, np.array(expect))


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
        margin = refine_ray_margin(flat3, constant_weight(0.0), p, 0.0,
                                   ray.x, ray.w, ray.S, steps=128)
        assert margin >= -1e-8

    def test_zero_S_equality(self, sphere2):
        p = validate_params(2, 2, 1.0)
        ray = north_ray(sphere2, 0.9, np.zeros((2, 2)))
        margin = refine_ray_margin(sphere2, constant_weight(0.0), p, 1.0,
                                   ray.x, ray.w, ray.S, steps=128)
        assert margin >= -1e-8

    def test_sphere_monte_carlo(self, sphere2):
        p = validate_params(2, 2, 1.0)
        w = constant_weight(0.0)
        rng = np.random.default_rng(42)
        xs, ws, Ss = sample_rays(sphere2, rng, 200)
        checked = 0
        for x, wv, S in zip(xs, ws, Ss):
            margin = refine_ray_margin(sphere2, w, p, 1.0, x, wv, S,
                                       steps=128)
            if margin is None:
                continue
            assert margin >= -1e-8, margin
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


# two rays of the benchmark's ray-pass scans whose det E dips to ~3e-9
# between grid points: on 128 steps the a_nn quadrature drives log Dbar
# (first ray) or c l (second ray) far past the float range of exp
OVERFLOW_RAYS = {
    "log-Dbar": ("euclidean", "quadratic(0.3)", (3, 10.0, 0.4), -1.0,
                 [0.5784613439631379, -0.19095029640810365,
                  -0.5858795420208942],
                 [0.28831321504233065, -0.006233803922670684,
                  0.22661051132900953],
                 [[0.6604003039160794, -0.5087215117023524,
                   -0.19316919862513132],
                  [-0.5087215117023524, -0.9890745596105948,
                   0.05254195598389437],
                  [-0.19316919862513132, 0.05254195598389437,
                   -1.1197128635246707]]),
    "log-D": ("sphere", "cosine(0.2)", (2, 6.0, 0.5), 0.3,
              [-0.2990810920593812, -0.026788311557744346,
               0.9538516062451503],
              [-0.15289645250840356, 0.2680613155700899,
               -0.0404124999085456],
              [[-2.001085652878722, 0.014550204121846776],
               [0.014550204121846776, -2.0173851445330473]]),
}


class TestOverflow:
    @pytest.mark.parametrize("name", sorted(OVERFLOW_RAYS))
    def test_margins_defined_past_exp_range(self, name):
        kind, weight, (n, N, eps), kappa, x, w, S = OVERFLOW_RAYS[name]
        sp = make_space(kind, n)
        p = validate_params(n, N, eps)
        wf = weight_preset(sp, weight)
        ray = TransportRay(np.array(x), np.array(w), np.array(S))
        traj = integrate_jacobi(sp, wf, p, ray)
        assert max(traj.int_ann.max(), p.c * traj.l.max()) > 710.0
        # the minimum of the margins is NaN if any margin is
        margin = refine_ray_margin(sp, wf, p, kappa, ray.x, ray.w, ray.S,
                                   steps=128)
        assert margin is not None and np.isfinite(margin)


class TestFalsification:
    # a counterexample search is one scan_rays call past the curvature
    # bound: 500 rays, 64 steps, theta in [0.2, 1.4], violation 1e-6
    @staticmethod
    def _search(sp, params, kappa, seed):
        w = constant_weight(0.0)
        curv = check_curvature_bound(sp, w, params, kappa,
                                     {"count": 400, "seed": seed,
                                      "region": None})
        assert curv.verdict != "pass"
        *_, margins, _ = scan_rays(sp, w, params, kappa,
                                   np.random.default_rng(seed), 500, 64,
                                   None, (0.2, 1.4), 1e-6)
        return float(margins.min())

    def test_flat_positive_kappa_violated(self, flat3):
        worst = self._search(flat3, validate_params(3, 3, 1.0), 0.2, 0)
        assert worst < -1e-6

    def test_sphere_excess_kappa_violated(self, sphere2):
        worst = self._search(sphere2, validate_params(2, 2, 1.0), 1.1, 1)
        assert worst < -1e-6
