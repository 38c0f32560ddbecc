import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cdcheck import coefficients, jacobi
from cdcheck.errors import PreconditionError, SingularJacobian
from cdcheck.jacobi import (concavity_margins, integrate_jacobi,
                            integrate_jacobi_batch, jacobi_closed_form,
                            refine_ray_margin, sample_rays, scan_rays)
from cdcheck.params import s_kappa, validate_params
from cdcheck.quadrature import cumulative_simpson
from cdcheck.spaces import (WeightFunction, check_curvature_bound,
                            constant_weight, make_space, unit_tangents,
                            weight_preset)


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


def _closed_form_stacked(Ss, w2, ts):
    """jacobi_closed_form with the factors p_i stacked on a last axis, det P
    and each prod_{j != i} p_j taken by np.prod (and np.delete)."""
    B, n, _ = Ss.shape
    C = np.ones((B, ts.size))
    Sn = np.tile(ts, (B, 1))
    pos, neg = w2 > 0, w2 < 0
    om = np.sqrt(w2[pos])[:, None]
    C[pos], Sn[pos] = np.cos(om * ts), np.sin(om * ts) / om
    om = np.sqrt(-w2[neg])[:, None]
    C[neg], Sn[neg] = np.cosh(om * ts), np.sinh(om * ts) / om
    alpha, U = np.linalg.eigh(Ss[:, :-1, :-1])
    beta = np.einsum("bji,bj->bi", U, Ss[:, :-1, -1])
    gamma = np.einsum("bji,bj->bi", U, Ss[:, -1, :-1])
    p = C[..., None] + Sn[..., None] * alpha[:, None, :]
    det_P = np.prod(p, axis=-1)
    cross = sum((beta[:, i] * gamma[:, i])[:, None]
                * np.prod(np.delete(p, i, axis=-1), axis=-1)
                for i in range(n - 1))
    det_M = Ss[:, -1, -1, None] * det_P - Sn * cross
    det = det_P + ts * det_M
    with np.errstate(divide="ignore", invalid="ignore"):
        return det, det_M / det


def _simpson_partials(params, f_gamma, theta, ts):
    """d_t = int_0^t theta e^{-a f} by cumulative Simpson on the grid."""
    return cumulative_simpson(theta * np.exp(-params.a * f_gamma),
                              ts[1] - ts[0])


def north_ray(sp, theta, S):
    """(x, w, S) of a ray from the north pole along the first frame vector."""
    x = np.array([0.0, 0.0, 1.0])
    v = sp.frame(x)[0]
    return x, theta * v, np.asarray(S, dtype=float)


class TestTrajectories:
    def test_identity_when_S_zero(self, flat3):
        p = validate_params(3, 5, 0.5)
        traj = integrate_jacobi(flat3, constant_weight(0.0), np.zeros(3),
                                np.array([0.7, 0.0, 0.0]), np.zeros((3, 3)),
                                128)
        np.testing.assert_allclose(traj["det"], 1.0, atol=1e-12)
        np.testing.assert_allclose(traj["J"], 1.0, atol=1e-12)
        np.testing.assert_allclose(np.exp(p.c * traj["l"]), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.exp(traj["int_ann"]), 1.0, atol=1e-12)

    def test_flat_isotropic_determinant(self, flat3):
        lam = 0.35
        p = validate_params(3, 5, 0.5)
        traj = integrate_jacobi(flat3, constant_weight(0.0), np.zeros(3),
                                np.array([0.4, 0.1, 0.0]), lam * np.eye(3),
                                128)
        expect = (1.0 + lam * traj["ts"]) ** 3
        np.testing.assert_allclose(traj["det"], expect, rtol=1e-10)

    def test_sphere_normal_block(self, sphere2):
        theta = 1.1
        p = validate_params(2, 2, 1.0)
        traj = integrate_jacobi(sphere2, constant_weight(0.0),
                                *north_ray(sphere2, theta, np.zeros((2, 2))),
                                128)
        expect = np.cos(theta * traj["ts"])
        np.testing.assert_allclose(traj["det"], expect, atol=1e-10)

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

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("k_theta2", [np.linspace(0.04, 2.5, 12),
                                          np.zeros(12),
                                          np.linspace(-1.7, -0.01, 12)],
                             ids=["positive", "zero", "negative"])
    def test_closed_form_is_the_stacked_product(self, n, k_theta2):
        # the n - 1 factors p_i are multiplied in index order, as np.prod
        # does over a stacked (B, T, n - 1) axis: det and a_nn bit for bit
        Ss = np.stack([_random_symmetric(n, seed) for seed in range(12)])
        ts = np.linspace(0.0, 1.0, 33)
        det, a_nn = jacobi_closed_form(Ss, k_theta2, ts)
        ref_det, ref_ann = _closed_form_stacked(Ss, k_theta2, ts)
        assert np.array_equal(det, ref_det)
        assert np.array_equal(a_nn, ref_ann, equal_nan=True)

    @pytest.mark.parametrize("k_theta2", [[0.81, -0.64], [0.0, 0.25],
                                          [-0.09, 0.0]],
                             ids=["signs", "zero-positive", "negative-zero"])
    def test_mixed_batch_is_refused(self, k_theta2):
        # a batch takes one branch of the propagator
        Ss = np.stack([_random_symmetric(3, seed) for seed in range(2)])
        with pytest.raises(ValueError, match="one sign"):
            jacobi_closed_form(Ss, np.array(k_theta2), np.linspace(0, 1, 9))

    @pytest.mark.parametrize("k_theta2", [[0.81, 2.5, 0.04, 0.49],
                                          [-0.64, -1.7, -0.01, -0.49]],
                             ids=["positive", "negative"])
    def test_two_dimensional_rays_take_no_eigh(self, monkeypatch, k_theta2):
        # for n = 2 the 1 x 1 block A is its own eigenvalue in the frame
        # U = 1: bit for bit the eigh path of the stacked reference
        Ss = np.stack([_random_symmetric(2, seed) for seed in range(3)]
                      + [np.diag([0.3, -0.2])])
        k_theta2 = np.array(k_theta2)
        ts = np.linspace(0.0, 1.0, 33)
        ref_det, ref_ann = _closed_form_stacked(Ss, k_theta2, ts)

        def no_eigh(*args):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        det, a_nn = jacobi_closed_form(Ss, k_theta2, ts)
        assert np.array_equal(det, ref_det)
        assert np.array_equal(a_nn, ref_ann, equal_nan=True)
        assert np.array_equal(np.signbit(a_nn), np.signbit(ref_ann))

    @pytest.mark.parametrize("k_theta2", [[-1.0e6]], ids=["one-ray"])
    def test_cosh_past_float_range_is_refused(self, k_theta2):
        Ss = np.stack([_random_symmetric(3, seed)
                       for seed in range(len(k_theta2))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="float range") as exc:
                jacobi_closed_form(Ss, np.array(k_theta2),
                                   np.linspace(0.0, 1.0, 17))
        assert exc.value.failed == "det E finite"

    @pytest.mark.parametrize("k_theta2", [-1.0e6, -2.0e5])
    def test_det_past_float_range_is_refused(self, k_theta2):
        # cosh overflows at omega = 1,000, and at omega = 447 the product
        # of the two factors p_i does: the ray is refused, not dropped
        Ss = np.stack([_random_symmetric(3, 1), _random_symmetric(3, 2)])
        with pytest.raises(PreconditionError, match="float range") as exc:
            jacobi_closed_form(Ss, np.array([-1.0, k_theta2]),
                               np.linspace(0.0, 1.0, 17))
        assert exc.value.failed == "det E finite"

    def test_step_halving_stability(self, sphere2):
        # det E is exact on any grid; Dbar and h carry the a_nn quadrature
        p = validate_params(2, 2, 1.0)
        S = np.array([[0.3, 0.1], [0.1, -0.2]])
        coarse = integrate_jacobi(sphere2, constant_weight(0.0),
                                  *north_ray(sphere2, 0.8, S), steps=128)
        fine = integrate_jacobi(sphere2, constant_weight(0.0),
                                *north_ray(sphere2, 0.8, S), steps=256)
        assert abs(np.exp(coarse["int_ann"][-1])
                   - np.exp(fine["int_ann"][-1])) < 1e-8
        assert abs(coarse["h"][-1] - fine["h"][-1]) < 1e-8

    def test_singular_ray_rejected(self, flat3):
        p = validate_params(3, 5, 0.5)
        with pytest.raises(SingularJacobian):
            integrate_jacobi(flat3, constant_weight(0.0), np.zeros(3),
                             np.array([0.5, 0.0, 0.0]), -1.5 * np.eye(3),
                             128)

    @pytest.mark.parametrize("speed, S", [
        (0.5, -1.5 * np.eye(3)), (0.5, [[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]),
        (0.0, 0.1 * np.eye(3)), (1e-15, 0.1 * np.eye(3)),
    ], ids=["inadmissible", "asymmetric", "zero-speed", "1e-15"])
    def test_refine_ray_margin_none(self, flat3, speed, S):
        assert refine_ray_margin(flat3, constant_weight(0.0),
                                 validate_params(3, 5, 0.5), 0.0, np.zeros(3),
                                 np.array([speed, 0.0, 0.0]),
                                 np.array(S)) is None

    @pytest.mark.parametrize("kind, dim, preset", [
        ("sphere", 2, "zero"), ("hyperbolic", 3, "zero"),
        ("euclidean", 3, "constant(0.7)")])
    def test_constant_weight_skips_the_geodesic(self, kind, dim, preset):
        # f_gamma of a constant weight is its value at the base point: the
        # same dict as that weight evaluated along every geodesic
        sp = make_space(kind, dim)
        w = weight_preset(sp, preset)
        along = WeightFunction(w.eval, w.grad, w.hess)
        p = validate_params(dim, dim + 2.0, 0.5)
        xs, ws, Ss = sample_rays(sp, np.random.default_rng(2), 40, None,
                                 (0.2, 1.2))
        got = integrate_jacobi_batch(sp, w, xs, ws, Ss, 32)
        want = integrate_jacobi_batch(sp, along, xs, ws, Ss, 32)
        assert got.keys() == want.keys()
        for key in got:
            assert np.array_equal(got[key], want[key], equal_nan=True), key

    def test_positive_densities(self, sphere2):
        p = validate_params(2, 4, 0.5)
        w = weight_preset(sphere2, "cosine(0.3)")
        traj = integrate_jacobi(sphere2, w,
                                *north_ray(sphere2, 0.7,
                                           [[0.2, 0.0], [0.0, 0.1]]), 128)
        # D and Dbar are kept as their logs: finite logs, positive densities
        assert np.all(np.isfinite(p.c * traj["l"]))
        assert np.all(np.isfinite(traj["int_ann"]))


class TestFlatRays:
    def test_exact_forms_match_the_fine_quadrature(self, flat3):
        # the exact path on the 128-step grid against the general closed
        # form and a cumulative Simpson of a_nn on 16,384 steps, whose grid
        # holds every point of the coarse one: the same admissible rays on
        # both grids, and det E and int_ann at the shared points
        xs, ws, Ss = sample_rays(flat3, np.random.default_rng(5), 2000,
                                 None, (0.2, 1.2))
        fine = np.linspace(0.0, 1.0, 16385)
        admissible, want, det_err, ann_err = [], [], [], []
        for start in range(0, 2000, 50):  # bounds the (50, 16385) arrays
            rays = slice(start, start + 50)
            out = integrate_jacobi_batch(flat3, constant_weight(0.0),
                                         xs[rays], ws[rays], Ss[rays], 128)
            assert np.array_equal(out["ts"], fine[::128])
            det, a_nn = jacobi_closed_form(Ss[rays], np.zeros(50), fine)
            ok = np.all(det > 0.0, axis=1)
            admissible.append(out["admissible"])
            want.append(ok)
            ref = cumulative_simpson(a_nn[ok], fine[1] - fine[0])[:, ::128]
            det_err.append(np.abs(out["det"][ok] / det[ok][:, ::128] - 1.0))
            ann_err.append(np.abs(out["int_ann"][ok] - ref).max(axis=1))
        admissible = np.concatenate(admissible)
        assert np.array_equal(admissible, np.concatenate(want))
        assert admissible.sum() == 1445
        assert np.concatenate(det_err).max() < 1e-12
        # the few rays that miss are near-singular, where Simpson errs
        assert np.quantile(np.concatenate(ann_err), 0.99) < 1e-10

    def test_no_closed_form_and_no_quadrature(self, monkeypatch, flat3):
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for name in ("jacobi_closed_form", "cumulative_simpson"):
            monkeypatch.setattr(jacobi, name,
                                counted(name, getattr(jacobi, name)))
        xs, ws, Ss = sample_rays(flat3, np.random.default_rng(2), 40, None,
                                 (0.2, 1.2))
        out = integrate_jacobi_batch(
            flat3, weight_preset(flat3, "quadratic(0.3)"), xs, ws, Ss, 64)
        assert out["admissible"].any() and not out["admissible"].all()
        assert calls == []
        sphere = make_space("sphere", 2)
        integrate_jacobi_batch(sphere, constant_weight(0.0),
                               *sample_rays(sphere, np.random.default_rng(2),
                                            40, None, (0.2, 1.2)), 64)
        assert calls == ["jacobi_closed_form", "cumulative_simpson"]

    def test_inadmissible_rows_are_nan(self, flat3):
        # mu_min = -1.2: det E changes sign at t = 1/1.2, and h, l, int_ann
        # read NaN on the whole row; a ray with S = 0 is the identity
        S = np.diag([-1.2, 0.3, 0.1])
        ws = np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
        out = integrate_jacobi_batch(flat3, constant_weight(0.0),
                                     np.zeros((2, 3)), ws,
                                     np.stack([S, np.zeros((3, 3))]), 16)
        assert out["admissible"].tolist() == [False, True]
        for key in ("h", "l", "int_ann"):
            assert np.isnan(out[key][0]).all()
        np.testing.assert_array_equal(out["det"][1], 1.0)
        np.testing.assert_array_equal(out["int_ann"][1], 0.0)


RAY_FORM_PRESETS = [("euclidean", 2, "linear(0.7)"),
                    ("euclidean", 3, "linear(-1.3)"),
                    ("euclidean", 2, "quadratic(0.5)"),
                    ("euclidean", 3, "quadratic(-2.0)"),
                    ("sphere", 2, "cosine(0.3)"), ("sphere", 3, "cosine(-1.1)"),
                    ("sphere", 2, "linear(0.2)"), ("sphere", 3, "linear(1.5)")]


def _unit_rays(kind, dim, seed):
    """(space, x, v, T) of 200 ``sample_rays`` rays: unit tangents v = w /
    theta and the batch's parameters T = theta t, up to 3."""
    sp = make_space(kind, dim)
    xs, ws, _ = sample_rays(sp, np.random.default_rng(seed), 200, None,
                            (0.2, 3.0))
    thetas = sp.norm(xs, ws)
    return (sp, xs, ws / thetas[:, None],
            thetas[:, None] * np.linspace(0.0, 1.0, 65))


def _no_points(*args):
    raise AssertionError("geodesic points built")


class TestRayForms:
    @pytest.mark.parametrize("kind, dim, preset", RAY_FORM_PRESETS)
    def test_ray_form_is_the_value_at_the_points(self, kind, dim, preset):
        # one-coordinate presets bit for bit. R^n quadratic regroups
        # |x + T v|^2 by powers of T: where the ray passes near the origin
        # its terms cancel, so both roundings are bounded by the size of
        # the terms, a (|x| + T)^2 / 2, not by |f|
        sp, x, v, T = _unit_rays(kind, dim, seed=4)
        w = weight_preset(sp, preset)
        assert T.max() > 2.9
        got = w.ray(x, v, T, None)
        want = w.eval(sp.geodesic(x[:, None], v[:, None], T))
        assert got.shape == want.shape == T.shape
        if preset.startswith("quadratic"):
            a = abs(float(preset[10:-1]))
            terms = 0.5 * a * (np.sqrt(sp.inner(x, x, x))[:, None] + T) ** 2
            assert np.all(np.abs(got - want)
                          <= 8.0 * np.spacing(1.0 + terms))
        else:
            np.testing.assert_array_equal(got, want)

    def test_only_r_n_and_s_n_presets_have_one(self):
        for kind, dim, preset in RAY_FORM_PRESETS:
            assert weight_preset(make_space(kind, dim), preset).ray is not None
        h3 = make_space("hyperbolic", 3)
        for preset in ("linear(0.7)", "quadratic(0.4)"):
            assert weight_preset(h3, preset).ray is None
        # constant weights, the sphere's quadratic among them, read f(x)
        s2 = make_space("sphere", 2)
        assert weight_preset(s2, "quadratic(1)").ray is None

    @pytest.mark.parametrize("kind, dim, preset", RAY_FORM_PRESETS)
    def test_batch_builds_no_points(self, monkeypatch, kind, dim, preset):
        # f along an R^n or S^n preset's rays never calls space.geodesic,
        # and the batch is the one of the weight evaluated at the points
        sp = make_space(kind, dim)
        w = weight_preset(sp, preset)
        xs, ws, Ss = sample_rays(sp, np.random.default_rng(6), 60, None,
                                 (0.2, 1.2))
        at_points = WeightFunction(w.eval, w.grad, w.hess)
        want = integrate_jacobi_batch(sp, at_points, xs, ws, Ss, 32)
        monkeypatch.setattr(sp, "geodesic", _no_points)
        got = integrate_jacobi_batch(sp, w, xs, ws, Ss, 32)
        assert got.keys() == want.keys()
        for key in got:
            if preset.startswith("quadratic") and key in ("f_gamma", "l"):
                np.testing.assert_allclose(got[key], want[key], rtol=0,
                                           atol=1e-14)
            else:
                assert np.array_equal(got[key], want[key],
                                      equal_nan=True), key

    def test_h3_batch_takes_the_points(self, monkeypatch):
        # an H^n preset keeps the point path and its SPAN refusal
        h3 = make_space("hyperbolic", 3)
        w = weight_preset(h3, "linear(0.3)")
        xs, ws, Ss = sample_rays(h3, np.random.default_rng(6), 20, None,
                                 (15.0, 30.0))
        with pytest.raises(PreconditionError) as err:
            integrate_jacobi_batch(h3, w, xs, ws, Ss, 32)
        assert err.value.failed == "geodesic within SPAN"

        monkeypatch.setattr(h3, "geodesic", _no_points)
        with pytest.raises(AssertionError, match="geodesic points built"):
            integrate_jacobi_batch(h3, w, xs, 0.1 * ws, Ss, 32)


class TestSharedTrig:
    # on S^n the batch forms cos(theta t) and sin(theta t) once, for f
    # along the rays and for the propagator of det E
    @staticmethod
    def _batch(dim, preset, seed):
        sp = make_space("sphere", dim)
        w = weight_preset(sp, preset)
        xs, ws, Ss = sample_rays(sp, np.random.default_rng(seed), 50, None,
                                 (0.2, 3.0))
        return sp, w, xs, ws, Ss

    @staticmethod
    def _unshared(monkeypatch, w):
        """The ray form without the pair and jacobi_closed_form forming
        its own cos and sin: each takes its trig from its own call."""
        ray = w.ray
        monkeypatch.setattr(w, "ray", lambda x, v, T, trig: ray(x, v, T, None))
        closed = jacobi.jacobi_closed_form
        monkeypatch.setattr(jacobi, "jacobi_closed_form",
                            lambda Ss, k_theta2, ts, trig:
                            closed(Ss, k_theta2, ts))

    @staticmethod
    def _counted(monkeypatch, steps):
        """Count the np.cos and np.sin calls on (rays, steps + 1) arguments,
        of the whole batch or of some of its rows."""
        calls = []
        for name in ("cos", "sin"):
            def counted(arg, *args, _fn=getattr(np, name), _name=name,
                        **kwargs):
                if np.ndim(arg) == 2 and np.shape(arg)[1] == steps + 1:
                    calls.append(_name)
                return _fn(arg, *args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        return calls

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("preset", ["cosine(0.7)", "linear(-1.3)"])
    def test_shared_batch_is_the_unshared_one(self, monkeypatch, dim,
                                              preset):
        sp, w, xs, ws, Ss = self._batch(dim, preset, seed=dim)
        with monkeypatch.context() as m:
            calls = self._counted(m, 64)
            got = integrate_jacobi_batch(sp, w, xs, ws, Ss, 64)
        assert calls == ["cos", "sin"]
        with monkeypatch.context() as m:
            self._unshared(m, w)
            want = integrate_jacobi_batch(sp, w, xs, ws, Ss, 64)
        assert got.keys() == want.keys()
        for key in got:
            assert np.array_equal(got[key], want[key], equal_nan=True), key

    def test_constant_weight_forms_it_once(self, monkeypatch):
        sp, _, xs, ws, Ss = self._batch(2, "cosine(0.7)", seed=5)
        calls = self._counted(monkeypatch, 32)
        integrate_jacobi_batch(sp, constant_weight(0.3), xs, ws, Ss, 32)
        assert calls == ["cos", "sin"]


def _sample_rays_per_ray(space, rng, count, region, theta_range):
    """The five blocks ``sample_rays`` documents (points, the normal draws
    behind the directions, theta, eigenvalues, the Gaussian matrices behind
    the eigenframes), then each ray's arithmetic on its own."""
    n = space.dim
    xs = space.sample_point(rng, region, count)
    coeffs = rng.normal(size=(count, n))
    thetas = rng.uniform(*theta_range, size=count)
    lams = rng.uniform(-0.8, 0.8, size=(count, n))
    gauss = rng.normal(size=(count, n, n))
    ws, Ss = [], []
    for x, coeff, theta, lam, g in zip(xs, coeffs, thetas, lams, gauss):
        vhat = coeff / np.linalg.norm(coeff) @ space.frame(x)
        q, _ = np.linalg.qr(g)
        S = (q * (lam / theta)) @ q.T
        ws.append(theta * vhat)
        Ss.append(0.5 * (S + S.T))
    return xs, np.asarray(ws), np.asarray(Ss)


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

    @pytest.mark.parametrize("kind, dim, region", [
        ("euclidean", 3, None),
        ("euclidean", 2, {"center": [0.3, -1.0], "radius": 0.5}),
        ("sphere", 2, None),
        ("sphere", 3, None),
        ("hyperbolic", 3, None),
        ("hyperbolic", 2, {"radius": 0.4}),
    ])
    def test_documented_distribution(self, kind, dim, region):
        # |w| = theta in the theta range, S symmetric, theta eig(S) in
        # [-0.8, 0.8], and every point in the model and its region
        sp = make_space(kind, dim)
        xs, ws, Ss = sample_rays(sp, np.random.default_rng(3), 400, region,
                                 (0.3, 0.9))
        thetas = sp.norm(xs, ws)
        assert np.all((thetas > 0.3 - 1e-12) & (thetas < 0.9 + 1e-12))
        np.testing.assert_array_equal(Ss, np.swapaxes(Ss, 1, 2))
        scaled = thetas[:, None] * np.linalg.eigvalsh(Ss)
        assert np.all(np.abs(scaled) <= 0.8 + 1e-12)
        assert np.ptp(scaled) > 1.5  # the whole range is drawn
        r = (region or {}).get("radius", 1.0)
        if kind == "euclidean":
            center = np.asarray((region or {}).get("center", np.zeros(dim)))
            assert np.all(np.linalg.norm(xs - center, axis=1) <= r + 1e-12)
        elif kind == "sphere":
            np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0,
                                       rtol=1e-14)
        else:  # the half-space coordinates X_{1..n-1} / q and y = 1 / q
            q = xs[:, -1] - xs[:, 0]
            assert np.all(np.abs(xs[:, 1:-1] / q[:, None]) <= r + 1e-12)
            assert np.all(np.abs(np.log(q)) <= r + 1e-12)

    def test_hyperbolic_rays_keep_their_draws(self):
        # H^3 rays take the five blocks of the half-space model: a uniform
        # (p, log y) block, then the normal, theta, eigenvalue and Gaussian
        # blocks; theta and S are the values that model drew, and the
        # points its points on the hyperboloid
        sp = make_space("hyperbolic", 3)
        rng, ref = np.random.default_rng(31), np.random.default_rng(31)
        xs, ws, Ss = sample_rays(sp, rng, 50, None, (0.2, 1.2))
        block = ref.uniform(-1.0, 1.0, size=(50, 3))
        coeffs = ref.normal(size=(50, 3))
        thetas = ref.uniform(0.2, 1.2, size=50)
        lams = ref.uniform(-0.8, 0.8, size=(50, 3))
        q, _ = np.linalg.qr(ref.normal(size=(50, 3, 3)))
        assert rng.bit_generator.state == ref.bit_generator.state
        S = (q * (lams / thetas[:, None])[:, None, :]) @ np.swapaxes(q, 1, 2)
        np.testing.assert_array_equal(Ss, 0.5 * (S + np.swapaxes(S, 1, 2)))
        np.testing.assert_array_equal(
            ws, thetas[:, None] * unit_tangents(sp.frame(xs), coeffs))
        height = xs[:, -1] - xs[:, 0]
        np.testing.assert_allclose(xs[:, 1:-1] / height[:, None], block[:, :-1],
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.log(1.0 / height), block[:, -1],
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind, dim", [("euclidean", 3), ("sphere", 2),
                                           ("hyperbolic", 3)])
    def test_same_seed_same_rays(self, kind, dim):
        sp = make_space(kind, dim)
        first, again = (sample_rays(sp, np.random.default_rng(9), 300, None,
                                    (0.2, 1.2))
                        for _ in range(2))
        for got, want in zip(first, again):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kind, dim", [("euclidean", 3), ("sphere", 2),
                                           ("sphere", 3), ("hyperbolic", 3)])
    def test_stacked_frames(self, kind, dim):
        sp = make_space(kind, dim)
        rng = np.random.default_rng(1)
        xs = np.stack([sp.sample_point(rng) for _ in range(5)])
        np.testing.assert_array_equal(sp.frame(xs),
                                      np.stack([sp.frame(x) for x in xs]))


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

    @pytest.mark.parametrize("kind, dim, kappa", [
        ("hyperbolic", 3, -0.5), ("sphere", 2, 1.2)], ids=["h3", "s2"])
    def test_scan_is_the_serial_refinement(self, kind, dim, kappa):
        # the scan, one ray at a time: on S^n and H^n a margin below -tol
        # on a ray whose det E dips below 0.1 is re-checked on 4,096 steps,
        # and a ray is dropped where its grid gives no margin (H^3 re-checks
        # 4 rays and S^2 39; each drops 1)
        sp, w = make_space(kind, dim), constant_weight(0.0)
        args = (sp, w, validate_params(dim, float(dim), 1.0), kappa)
        *scanned, margins, grids = scan_rays(
            *args, np.random.default_rng(0), 600, 64, None, (0.2, 1.4), 1e-6)
        want, dropped = [], 0
        rng = np.random.default_rng(0)  # drawn in batches, as the scan does
        rays = [sample_rays(sp, rng, m, None, (0.2, 1.4))
                for m in (250, 250, 100)]
        for ray in zip(*(np.concatenate(a) for a in zip(*rays))):
            margin, steps = refine_ray_margin(*args, *ray, steps=64), 64
            if (margin is not None and margin < -1e-6
                    and integrate_jacobi(sp, w, *ray,
                                         64)["det"].min() < 0.1):
                margin, steps = refine_ray_margin(*args, *ray), 4096
                dropped += margin is None
            if margin is not None:
                want.append((*ray, margin, steps))
        assert dropped and 4096 in grids
        for got, expect in zip([*scanned, margins, grids], zip(*want)):
            np.testing.assert_array_equal(got, np.array(expect))

    def test_fine_grid_is_not_rechecked_on_a_coarser_one(self):
        # a scan on more than 4,096 steps keeps its own margins: eight of
        # these rays are flagged, and such rays once reported the
        # re-check's 4,096
        sp = make_space("sphere", 2)
        *_, grids = scan_rays(sp, constant_weight(0.0),
                              validate_params(2, 2.0, 1.0), 1.2,
                              np.random.default_rng(0), 250, 8192, None,
                              (0.2, 1.2), 1e-8)
        assert grids.size == 171
        assert np.all(grids == 8192)

    def test_flat_rays_are_never_rechecked(self, flat3):
        # R^n rays are exact on any grid: rays with a margin below -tol
        # and det E below 0.1 keep the scan's own 64 steps
        w, p = constant_weight(0.0), validate_params(3, 3.0, 1.0)
        xs, ws, Ss, margins, grids = scan_rays(
            flat3, w, p, 0.2, np.random.default_rng(0), 600, 64, None,
            (0.2, 1.4), 1e-6)
        keep, again, det_min = jacobi._ray_margins(flat3, w, p, 0.2, xs, ws,
                                                   Ss, 64)
        assert keep.size == grids.size and np.array_equal(again, margins)
        assert np.any((margins < -1e-6) & (det_min < 0.1))
        assert np.all(grids == 64)


class TestConcavity:
    def test_flat_equality_case(self, flat3):
        # N = n: J^{1/n} = 1 + lam t exactly, equality in the interpolation
        lam = 0.4
        p = validate_params(3, 3, 1.0)
        ray = np.zeros(3), np.array([0.6, 0, 0]), lam * np.eye(3)
        traj = integrate_jacobi(flat3, constant_weight(0.0), *ray, 128)
        power = traj["J"] ** (p.c / (p.c + 1.0))
        expect = 1.0 + lam * traj["ts"]
        np.testing.assert_allclose(power, expect, rtol=1e-9)
        margin = refine_ray_margin(flat3, constant_weight(0.0), p, 0.0,
                                   *ray, steps=128)
        assert margin >= -1e-8

    def test_zero_S_equality(self, sphere2):
        p = validate_params(2, 2, 1.0)
        margin = refine_ray_margin(sphere2, constant_weight(0.0), p, 1.0,
                                   *north_ray(sphere2, 0.9, np.zeros((2, 2))),
                                   steps=128)
        assert margin >= -1e-8

    def test_sphere_monte_carlo(self, sphere2):
        p = validate_params(2, 2, 1.0)
        w = constant_weight(0.0)
        rng = np.random.default_rng(42)
        xs, ws, Ss = sample_rays(sphere2, rng, 200, None, (0.2, 1.2))
        checked = 0
        for x, wv, S in zip(xs, ws, Ss):
            margin = refine_ray_margin(sphere2, w, p, 1.0, x, wv, S,
                                       steps=128)
            if margin is None:
                continue
            assert margin >= -1e-8, margin
            checked += 1
        assert checked > 100

    def test_one_s_kappa_per_distance_array(self, monkeypatch):
        # s_kappa of d_f - d_t, d_t and d_f, shared by margins (ii) and (iii)
        calls = []

        def counted(kappa, s):
            calls.append(np.shape(s))
            return s_kappa(kappa, s)

        for module in (coefficients, jacobi):
            monkeypatch.setattr(module, "s_kappa", counted)
        ts = np.linspace(0.0, 1.0, 9)
        d_partial = np.outer([0.4, 1.1], ts)
        ones = np.ones((2, 9))
        concavity_margins(ts, 0.1 * ones, 0.2 * ones, d_partial,
                          validate_params(3, 5, 0.5), 0.6)
        assert len(calls) == 3

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_underflowed_partial_distance_reads_beta_zero(self, kappa):
        # where e^{-a f} underflows on the first part of a ray, d_t = 0 < d_f
        # there: beta_t(x, y) = 0, and d_{1-t}(y, x) = d_f, so with J = 1
        # margin (iii) reads (1 - r)/(1 + r) at r = (1 - t)^{c/(c+1)}
        p = validate_params(3, 5, 0.5)
        ts = np.linspace(0.0, 1.0, 9)
        d_partial = np.maximum(ts - 0.5, 0.0)[None, :]
        zeros = np.zeros((1, 9))
        m3 = concavity_margins(ts, zeros, zeros, d_partial, p, kappa)[2][0]
        t = ts[1:5]  # d_t = 0 at t <= 0.5
        r = (1.0 - t) ** p.c_ratio
        np.testing.assert_allclose(m3[:4], (1.0 - r) / (1.0 + r), rtol=1e-12)

    def test_beta_form_matches_sratio_form(self, sphere2):
        # margin (iii) rewritten through beta powers must agree with the
        # s-ratio recombination of margin (ii) on the same grid
        p = validate_params(2, 4, 0.3)
        w = weight_preset(sphere2, "cosine(0.2)")
        traj = integrate_jacobi(sphere2, w,
                                *north_ray(sphere2, 0.8,
                                           [[0.15, 0.0], [0.0, 0.05]]), 128)
        kappa = 0.9
        ts = traj["ts"]
        d_part = _simpson_partials(p, traj["f_gamma"], traj["thetas"], ts)
        from cdcheck.params import s_kappa

        d_full = d_part[-1]
        inner = slice(1, len(ts) - 1)
        ts = ts[inner]
        sr_t = s_kappa(kappa, d_part[inner]) / s_kappa(kappa, d_full)
        sr_1mt = s_kappa(kappa, d_full - d_part[inner]) / s_kappa(kappa, d_full)
        cr = p.c / (p.c + 1.0)
        beta_t_pow = (sr_t / ts) ** (cr * p.inv_c)
        beta_1mt_pow = (sr_1mt / (1.0 - ts)) ** (cr * p.inv_c)
        rhs_beta = ((1.0 - ts) * beta_1mt_pow * 1.0
                    + ts * beta_t_pow * traj["J"][-1] ** cr)
        rhs_sratio = (sr_1mt ** (cr * p.inv_c) * (1.0 - ts) ** (1.0 - cr * p.inv_c)
                      + sr_t ** (cr * p.inv_c) * ts ** (1.0 - cr * p.inv_c)
                      * traj["J"][-1] ** cr)
        np.testing.assert_allclose(rhs_beta, rhs_sratio, rtol=1e-9)


def _log_margin_logaddexp(x, w0, x0, w1, x1):
    """_log_margin shifted per element by s = max(0, log r), with log r
    taken by np.logaddexp."""
    with np.errstate(divide="ignore", over="ignore"):
        log_r = np.logaddexp(np.log(w0) + x0, np.log(w1) + x1)
        s = np.maximum(0.0, log_r)
        r = np.exp(log_r - s)
        return (np.exp(x - s) - r) / (np.exp(-s) + r)


class TestLogMargin:
    @staticmethod
    def _weights(T):
        t = np.linspace(0.0, 1.0, T + 2)[1:-1]
        return 1.0 - t, t

    @staticmethod
    def _former(x, w0, x0, w1, x1):
        """The margin as one expression, before it was formed in place."""
        s = np.maximum(np.maximum(x0, x1), 0.0)
        r = w0 * np.exp(x0 - s) + w1 * np.exp(x1 - s)
        with np.errstate(over="ignore"):
            return (np.exp(x - s) - r) / (np.exp(-s) + r)

    @pytest.mark.parametrize("ends", ["per-ray", "full"])
    def test_bit_equal_to_the_expression_and_reads_only(self, ends):
        # the scan's arguments are views of log D and log Dbar: the call
        # must leave them, and the weights, as they were
        rng = np.random.default_rng(3)
        log_D = rng.uniform(-700.0, 700.0, size=(40, 19))
        log_D[0, 1:4] = [1500.0, -np.inf, 720.0]  # +inf margin, a -inf log
        log_D[1, 0] = log_D[2, -1] = -np.inf
        log_D[3, [0, -1]] = 800.0
        w0, w1 = self._weights(17)
        if ends == "per-ray":
            args = (log_D[:, 1:-1], w0, log_D[:, :1], w1, log_D[:, -1:])
        else:  # margin (iii): beta terms on the whole interior
            beta = rng.uniform(-5.0, 5.0, size=(2, 40, 17))
            args = (log_D[:, 1:-1], rng.uniform(0.0, 1.0, 17),
                    beta[0] + log_D[:, :1], w1, beta[1] + log_D[:, -1:])
        before = [np.copy(a) for a in args] + [log_D.copy()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = jacobi._log_margin(*args)
            want = self._former(*args)
        assert got[0, 0] == np.inf
        assert np.isfinite(got[1:]).all() and np.isfinite(got[0, 1:]).all()
        assert np.array_equal(got, want)
        for a, b in zip(list(args) + [log_D], before):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("scale", [5.0, 700.0])
    def test_matches_the_logaddexp_form(self, scale):
        rng = np.random.default_rng(int(scale))
        x = rng.uniform(-scale, scale, size=(60, 31))
        x0, x1 = rng.uniform(-scale, scale, size=(2, 60, 1))
        w0, w1 = self._weights(31)
        np.testing.assert_allclose(jacobi._log_margin(x, w0, x0, w1, x1),
                                   _log_margin_logaddexp(x, w0, x0, w1, x1),
                                   rtol=1e-13)

    def test_large_end_values_give_finite_margins(self):
        # e^x0 and e^x1 are past the float range; the margin is not
        x = np.array([[720.0, 750.0, 790.0], [0.0, 5.0, 1000.0]])
        x0, x1 = np.array([[720.0], [711.0]]), np.array([[800.0], [-3.0]])
        w0, w1 = self._weights(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = jacobi._log_margin(x, w0, x0, w1, x1)
        assert np.all(np.isfinite(m))
        np.testing.assert_allclose(m, _log_margin_logaddexp(x, w0, x0, w1,
                                                            x1), rtol=1e-13)

    def test_margin_past_float_range_is_inf(self):
        x = np.array([[1500.0, 720.0], [1.0, 720.0]])
        x0, x1 = np.array([[0.0], [-2.0]]), np.array([[700.0], [-1.0]])
        w0, w1 = self._weights(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = jacobi._log_margin(x, w0, x0, w1, x1)
        assert m[0, 0] == m[1, 1] == np.inf
        assert np.all(np.isfinite(m[[0, 1], [1, 0]]))


class TestPartials:
    # d_t of a constant weight is theta e^{-a f(x)} t; any other weight
    # takes the cumulative Simpson of theta e^{-a f} along the geodesic
    @staticmethod
    def _run(monkeypatch, kind, dim, preset):
        simpson, d_partials = [], []

        def counted(y, dx):
            simpson.append(np.shape(y))
            return cumulative_simpson(y, dx)

        def recorded(ts, log_D, log_Dbar, d_partial, params, kappa):
            d_partials.append(d_partial)
            return concavity_margins(ts, log_D, log_Dbar, d_partial, params,
                                     kappa)

        sp = make_space(kind, dim)
        w = weight_preset(sp, preset)
        p = validate_params(dim, dim + 2.0, 0.5)
        xs, ws, Ss = sample_rays(sp, np.random.default_rng(3), 60, None,
                                 (0.2, 1.2))
        with monkeypatch.context() as m:
            m.setattr(jacobi, "cumulative_simpson", counted)
            m.setattr(jacobi, "concavity_margins", recorded)
            keep, _, _ = jacobi._ray_margins(sp, w, p, 0.3, xs, ws, Ss, 64)
        out = integrate_jacobi_batch(sp, w, xs, ws, Ss, 64)
        simpson_d = _simpson_partials(p, out["f_gamma"],
                                      out["thetas"][:, None], out["ts"])[keep]
        assert keep.size > 20
        return len(simpson), d_partials[0], simpson_d

    @pytest.mark.parametrize("kind, dim, preset", [
        ("sphere", 2, "zero"), ("hyperbolic", 3, "zero"),
        ("euclidean", 3, "constant(0.7)")])
    def test_constant_weight_takes_one_simpson(self, monkeypatch, kind, dim,
                                               preset):
        calls, d_partial, simpson_d = self._run(monkeypatch, kind, dim,
                                                preset)
        # the quadrature of a_nn, which R^n rays do not take
        assert calls == (kind != "euclidean")
        np.testing.assert_allclose(d_partial, simpson_d, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("kind, dim, preset", [
        ("sphere", 2, "cosine(0.2)"), ("euclidean", 3, "quadratic(0.3)")])
    def test_other_weights_keep_the_simpson_distances(self, monkeypatch,
                                                      kind, dim, preset):
        calls, d_partial, simpson_d = self._run(monkeypatch, kind, dim,
                                                preset)
        assert calls == 1 + (kind != "euclidean")
        assert np.array_equal(d_partial, simpson_d)


# two rays of the benchmark's ray-pass scans whose det E dips to ~3e-9
# between grid points: on 128 steps the a_nn quadrature drove log Dbar
# (first ray) or c l (second ray) far past the float range of exp. The
# first is on R^3, where S has eigenvalues -1.141, -1.133 and 0.825: det E
# < 0 on ]0.8765, 0.8828[, and the exact admissibility drops the ray
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
        if sp.sec == 0.0:
            with pytest.raises(SingularJacobian):
                integrate_jacobi(sp, wf, x, w, S, 128)
            assert refine_ray_margin(sp, wf, p, kappa, x, w, S,
                                     steps=128) is None
            return
        traj = integrate_jacobi(sp, wf, x, w, S, 128)
        assert max(traj["int_ann"].max(), p.c * traj["l"].max()) > 710.0
        # the minimum of the margins is NaN if any margin is
        margin = refine_ray_margin(sp, wf, p, kappa, x, w, S, steps=128)
        assert margin is not None and np.isfinite(margin)

    def test_log_J_margin_past_exp_range(self):
        # f falls by 800 along the ray, so J = det E e^{f(x) - f} passes the
        # float range while log D and log Dbar do not: margin (iii) taken
        # from J^{c/(c+1)} read NaN, with a RuntimeWarning
        sp = make_space("euclidean", 3)
        wf = weight_preset(sp, "linear(800)")
        p = validate_params(3, 9.0, 0.4)
        ray = (np.array([0.5, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]),
               0.1 * np.eye(3))
        traj = integrate_jacobi(sp, wf, *ray, 128)
        assert traj["J"][-1] == np.inf
        assert max(traj["int_ann"].max(), p.c * traj["l"].max()) < 710.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            margin = refine_ray_margin(sp, wf, p, 0.0, *ray, steps=128)
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_dropped_rays_refuse_nothing(self):
        # f = -1600 at the first ray, so e^{-a f} and d_f overflow; the
        # second is inadmissible (det E reaches 0) and its d_f underflows.
        # Both are dropped and the batch keeps the third; only a kept
        # ray's underflowed d_f refuses the run
        sp = make_space("euclidean", 3)
        wf = weight_preset(sp, "linear(800)")
        p = validate_params(3, 9.0, 0.4)
        e1, e2 = np.eye(3)[:2]
        xs = np.array([-2.0 * e1, 2.0 * e1, 0.5 * e1])
        ws = np.array([e2, e2, e2])
        Ss = np.array([0.1 * np.eye(3), -3.0 * np.eye(3), 0.1 * np.eye(3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keep, margins, _ = jacobi._ray_margins(sp, wf, p, 0.0, xs, ws,
                                                   Ss, 128)
            assert keep.tolist() == [2] and np.isfinite(margins).all()
            with pytest.raises(PreconditionError) as exc:
                jacobi._ray_margins(sp, wf, p, 0.0, xs[1:2], ws[1:2],
                                    Ss[:1], 128)
        assert exc.value.failed == "d_t normal"


class TestFalsification:
    # a counterexample search is one scan_rays call past the curvature
    # bound: 500 rays, 64 steps, theta in [0.2, 1.4], violation 1e-6
    @staticmethod
    def _search(sp, params, kappa, seed):
        w = constant_weight(0.0)
        curv = check_curvature_bound(sp, w, params, kappa, 400, seed, None,
                                     1e-9)
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
