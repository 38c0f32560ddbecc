import json
import math
import sys

import numpy as np
import pytest

from cdcheck import cli, coefficients
from cdcheck.coefficients import (beta, check_limits, frak_b, log_b, log_beta,
                                  log_beta_pair, require_beta_domain)
from cdcheck.errors import PreconditionError
from cdcheck.params import c_kappa, diam_kappa, s_kappa, validate_params
from cdcheck.reparam import reparam_partial
from cdcheck.spaces import constant_weight, make_space, weight_preset


def chord(x, y):
    """(x, v, L) of the segment from x to y of R^n."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    length = float(np.linalg.norm(y - x))
    return x, (y - x) / length, length


def meridian(theta):
    """The point at colatitude theta of the (X_1, X_2) meridian of S^2 and
    the unit tangent there towards larger theta."""
    return (np.array([0.0, np.sin(theta), np.cos(theta)]),
            np.array([0.0, np.cos(theta), -np.sin(theta)]))


def classical_distortion(kappa, N, t, theta):
    """Reference: the unweighted distortion (s_K(t theta)/(t s_K(theta)))^{N-1},
    K = kappa, for theta inside the model diameter."""
    if theta == 0.0:
        return 1.0
    return math.exp((N - 1.0) * (math.log(s_kappa(kappa, t * theta))
                                 - math.log(t * s_kappa(kappa, theta))))


@pytest.fixture
def flat2():
    return make_space("euclidean", 2)


class TestBeta:
    def test_unit_regime_at_coincidence(self, flat2):
        p = validate_params(2, 4, 0.5)
        x = np.array([0.1, 0.2])
        assert beta(flat2, constant_weight(0.0), p, 1.0, 0.5, x,
                    np.array([1.0, 0.0]), 0.0) == 1.0

    def test_flat_constant_weight(self, flat2):
        # kappa = 0 with constant f: s_0 is linear so the ratio is 1
        p = validate_params(2, 4, 0.5)
        x = np.zeros(2)
        y = np.array([0.8, 0.3])
        for t in (0.2, 0.5, 0.8):
            b = beta(flat2, constant_weight(0.7), p, 0.0, t, *chord(x, y))
            assert b == pytest.approx(1.0, rel=1e-12)

    def test_classical_reduction(self, flat2):
        # eps = 1: d_t = t d, so beta is the classical distortion with
        # exponent 1/c = N - 1, for any weight
        w = weight_preset(flat2, "quadratic(0.4)")
        rng = np.random.default_rng(0)
        for _ in range(200):
            N = rng.uniform(2.0, 12.0)
            p = validate_params(2, N, 1.0)
            x, y = 0.7 * rng.normal(size=(2, 2))
            if np.allclose(x, y):
                continue
            t = rng.uniform(0.1, 0.9)
            kappa = rng.uniform(-1.0, 1.0)
            d = float(np.linalg.norm(x - y))
            if kappa > 0 and d >= math.pi / math.sqrt(kappa):
                continue
            got = beta(flat2, w, p, kappa, t, *chord(x, y))
            ref = classical_distortion(kappa, N, t, d)
            assert got == pytest.approx(ref, rel=1e-10)

    def test_infinite_regime(self, flat2):
        # large kappa pushes d_f past the conjugate diameter
        p = validate_params(2, 4, 0.5)
        seg = np.zeros(2), np.array([1.0, 0.0]), 2.0
        assert math.isinf(beta(flat2, constant_weight(0.0), p, 9.0, 0.5, *seg))

    def test_regime_monotone_in_kappa(self, flat2):
        p = validate_params(2, 4, 0.5)
        seg = np.zeros(2), np.array([1.0, 0.0]), 1.5
        vals = [beta(flat2, constant_weight(0.0), p, k, 0.5, *seg)
                for k in np.linspace(0.5, 8.0, 30)]
        infinite = [math.isinf(v) for v in vals]
        flipped = infinite.index(True) if any(infinite) else len(vals)
        assert 0 < flipped < len(vals)
        assert not any(infinite[:flipped])
        assert all(infinite[flipped:])

    def test_power_finite_positive(self, flat2):
        p = validate_params(2, 4, 0.5)
        b = beta(flat2, constant_weight(0.0), p, 0.5, 0.3,
                 *chord(np.zeros(2), np.array([1.0, 0.2])))
        val = b ** p.c_ratio
        assert 0.0 < val < math.inf


class TestLogBeta:
    @pytest.mark.parametrize("kappa", [0.9, 0.0, -0.8])
    def test_classical_reduction(self, kappa):
        # eps = 1, N = n, f = 0: d_t = t d and 1/c = N - 1
        ts = np.array([0.1, 0.5, 0.9])[:, None]
        ds = np.array([0.3, 1.1, 2.5])
        for n in (2, 3, 5):
            p = validate_params(n, n, 1.0)
            got = np.exp(log_beta(p, kappa, ts * ds, ds, ts))
            for (i, j), val in np.ndenumerate(got):
                ref = classical_distortion(kappa, n, ts[i, 0], ds[j])
                assert val == pytest.approx(ref, rel=1e-14)

    def test_zero_at_coincidence(self):
        p = validate_params(3, 6, 0.5)
        out = log_beta(p, 1.0, np.array([0.0, 0.2]), np.array([0.0, 0.5]),
                       0.5)
        assert out[0] == 0.0
        assert np.isfinite(out[1]) and out[1] != 0.0

    def test_reversed_partials_match_beta(self):
        # d_{1-t}(y, x) = d_f(x, y) - d_t(x, y) by reversing the geodesic
        sp = make_space("sphere", 2)
        w = weight_preset(sp, "cosine(0.3)")
        p = validate_params(2, 6, 0.5)
        kappa = 0.8
        (x, v), (y, u) = meridian(1.0), meridian(1.6)
        d_full = reparam_partial(sp, w, p, x, v, 0.6, 1.0)
        for t in (0.2, 0.5, 0.7):
            d_t = reparam_partial(sp, w, p, x, v, 0.6, t)
            rev, fwd = np.exp(log_beta_pair(p, kappa, d_t, d_full, t))
            assert rev == pytest.approx(
                beta(sp, w, p, kappa, 1.0 - t, y, -u, 0.6), rel=1e-10)
            assert fwd == pytest.approx(beta(sp, w, p, kappa, t, x, v, 0.6),
                                        rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.8, 0.0, -1.2])
    def test_pair_matches_two_log_beta_calls(self, kappa):
        p = validate_params(3, 8, 0.4)
        d_full = np.array([0.0, 1e-5, 0.4, 1.3, 2.2])
        ts = np.array([0.05, 0.3, 0.5, 0.95])[:, None]
        d_t = np.sqrt(ts) * d_full  # not t d_f: a weighted reparametrization
        rev, fwd = log_beta_pair(p, kappa, d_t, d_full, ts)
        assert np.array_equal(rev, log_beta(p, kappa, d_full - d_t, d_full,
                                            1.0 - ts))
        assert np.array_equal(fwd, log_beta(p, kappa, d_t, d_full, ts))

    def test_pair_takes_s_kappa_of_d_f_once(self, monkeypatch):
        # s_kappa of d_{1-t}(y, x), of d_t(x, y) and one of d_f for both
        calls = []

        def counted(kappa, s):
            calls.append(np.shape(s))
            return s_kappa(kappa, s)

        monkeypatch.setattr(coefficients, "s_kappa", counted)
        d_full = np.array([0.2, 0.9, 1.4])
        log_beta_pair(validate_params(2, 4, 0.5), 0.6, 0.3 * d_full, d_full,
                      0.3)
        assert len(calls) == 3

    def test_pair_guards_the_conjugate_radius(self):
        p = validate_params(2, 4, 0.5)
        d_full = np.array([0.5, diam_kappa(1.0)])
        with pytest.raises(PreconditionError) as exc:
            log_beta_pair(p, 1.0, 0.5 * d_full, d_full, 0.5)
        assert exc.value.failed == "d_f < C_kappa"


class TestConjugateRadiusGuard:
    def test_raises_at_the_conjugate_radius(self):
        diam = diam_kappa(1.0)
        with pytest.raises(PreconditionError) as exc:
            require_beta_domain(1.0, np.array([0.5, diam - 1e-13]))
        assert exc.value.failed == "d_f < C_kappa"
        require_beta_domain(1.0, np.array([0.5, diam - 1e-11]))
        require_beta_domain(-1e-12, 1e6)


class TestFloatRangeGuard:
    @pytest.mark.parametrize("kappa", [-1e-4, -1.0, -3e5])
    def test_raises_where_s_kappa_overflows(self, kappa):
        # below the bound s_kappa and c_kappa are floats (an overflow would
        # warn, and warnings are errors here); past it the guard raises
        r = math.sqrt(-kappa)
        bound = (math.log(sys.float_info.max) + min(0.0, math.log(r))) / r
        inside = np.array([0.0, 0.5 * bound, bound * (1 - 1e-12)])
        require_beta_domain(kappa, inside)
        assert np.all(np.isfinite(s_kappa(kappa, inside)))
        assert np.all(np.isfinite(c_kappa(kappa, inside)))
        for d_full in (np.append(inside, 1.001 * bound), math.inf, math.nan):
            with pytest.raises(PreconditionError) as exc:
                require_beta_domain(kappa, d_full)
            assert exc.value.failed == "s_kappa(d_f) finite"

    def test_bounded_s_kappa_is_never_refused(self):
        # for kappa >= 0 s_kappa is bounded: only the radius refuses
        require_beta_domain(0.0, np.array([0.0, 1e6, 1e300]))
        for kappa in (1e-12, 4.0):
            with pytest.raises(PreconditionError) as exc:
                require_beta_domain(kappa, np.array([0.0, 1e6, 1e300]))
            assert exc.value.failed == "d_f < C_kappa"

    def test_pair_guards_once_before_s_kappa(self, monkeypatch):
        events = []
        monkeypatch.setattr(coefficients, "require_beta_domain", lambda *a: (
            events.append("guard"), require_beta_domain(*a)))
        monkeypatch.setattr(coefficients, "s_kappa", lambda *a: (
            events.append("s_kappa"), s_kappa(*a))[1])
        d_full = np.array([0.2, 0.9, 1.4])
        log_beta_pair(validate_params(2, 4, 0.5), 0.6, 0.3 * d_full, d_full,
                      0.3)
        assert events == ["guard"] + ["s_kappa"] * 3

    def test_pair_refuses_before_taking_s_kappa(self):
        p = validate_params(2, 4, 0.5)
        with pytest.raises(PreconditionError) as exc:
            log_beta_pair(p, -1.0, 400.0, np.array([1.0, 800.0]), 0.5)
        assert exc.value.failed == "s_kappa(d_f) finite"


def section_args(space, w, p, x, v, length):
    """(base, d_f) of the pair (x, gamma_v(length)): base = e^{-a f(x)}
    d(x, y)."""
    base = math.exp(-p.a * float(w.eval(x))) * length
    return base, reparam_partial(space, w, p, x, v, length, 1.0)


class TestSectionCoefficients:
    def test_constant_weight_flat(self, flat2):
        p = validate_params(2, 4, 0.5)
        args = section_args(flat2, constant_weight(0.5), p,
                            *chord(np.zeros(2), np.array([0.9, 0.1])))
        assert math.exp(log_b(p, 0.0, *args)) == pytest.approx(1.0, rel=1e-10)
        assert frak_b(p, 0.0, *args) == pytest.approx(0.0, abs=1e-10)

    def test_sphere_quarter_turn(self):
        # f = 0, kappa = 1, d = pi/2: s_1(d) = 1, c_1(d) = 0
        sp = make_space("sphere", 2)
        p = validate_params(2, 4, 0.5)
        x = np.array([0.0, 0.0, 1.0])
        v = np.array([1.0, 0.0, 0.0])
        args = section_args(sp, constant_weight(0.0), p, x, v, math.pi / 2)
        expect_b = (math.pi / 2) ** p.inv_c
        assert math.exp(log_b(p, 1.0, *args)) == pytest.approx(expect_b,
                                                               rel=1e-9)
        assert frak_b(p, 1.0, *args) == pytest.approx(-1.0 / (p.c + 1.0),
                                                       abs=1e-9)

    def test_elementwise_with_unit_value_at_coincidence(self):
        # b = 1 and bfrak = 0 at x = y, where base = d_f = 0
        p = validate_params(3, 6, 0.5)
        base = np.array([0.0, 0.4, 0.9])
        d_full = np.array([0.0, 0.5, 1.2])
        lb, fb = log_b(p, 1.0, base, d_full), frak_b(p, 1.0, base, d_full)
        assert lb[0] == 0.0 and fb[0] == 0.0
        for i in (1, 2):
            s, c = s_kappa(1.0, d_full[i]), c_kappa(1.0, d_full[i])
            assert lb[i] == pytest.approx(p.inv_c * math.log(base[i] / s),
                                          rel=1e-14)
            assert fb[i] == pytest.approx((base[i] * c / s - 1.0)
                                          / (p.c + 1.0), rel=1e-14)


# the lemma sweep: a space, its weight and kappa, each run at every
# (n, N, seed) of SWEEP_CALLS
SWEEP = [("euclidean", "quadratic(0.3)", -1.0), ("sphere", "cosine(0.3)", 0.1),
         ("hyperbolic", "linear(0.3)", -3.0)]
SWEEP_CALLS = [(n, N, seed) for n in (2, 10) for N in (-2.0, 3.0 * n)
               for seed in range(3)]


def sweep_runs(kind, weight, kappa):
    """The `limits` runs of one SWEEP space at eps = 0.3."""
    return [cli.resolve_config({
        "space": {"kind": kind, "dim": n}, "weight": weight,
        "params": {"n": n, "N": N, "eps": 0.3}, "kappa": kappa,
        "suite": "limits", "sampling": {"seed": seed}})
        for n, N, seed in SWEEP_CALLS]


class TestLimits:
    def test_constant_weight_exact_at_kappa0(self, flat2):
        p = validate_params(2, 4, 0.5)
        w = constant_weight(0.3)
        seg = np.zeros(2), np.array([1.0, 0.0]), 1.0
        # beta_t is identically the t->0 limit coefficient for kappa = 0
        b = math.exp(log_b(p, 0.0, *section_args(flat2, w, p, *seg)))
        for t in (0.5, 0.1, 0.01):
            bt = beta(flat2, w, p, 0.0, t, *seg)
            assert bt == pytest.approx(b, rel=1e-12)
            assert bt == pytest.approx(1.0, rel=1e-12)

    def test_extrapolated_limits(self, monkeypatch):
        sp = make_space("sphere", 2)
        p = validate_params(2, 4, 0.5)
        w = weight_preset(sp, "cosine(0.2)")
        rng = np.random.default_rng(3)
        x = sp.sample_point(rng)
        v = sp.sample_unit(rng, x)
        # a pair farther apart than the suite's
        monkeypatch.setattr(coefficients, "PAIR_LENGTH", 0.7)
        rep = check_limits(sp, w, p, 0.8, x, v)
        assert rep.verdict == "pass"

    @pytest.mark.parametrize("kind, dim, preset, kappa", [
        ("sphere", 2, "cosine(0.2)", 0.8), ("euclidean", 3, "quadratic(0.3)",
                                            -0.5),
        ("hyperbolic", 3, "linear(0.5)", -3.0)])
    def test_decay_rows_are_the_per_segment_beta(self, kind, dim, preset,
                                                 kappa):
        # limit 3's stacked segments give each y_k the beta_{1/2} of its own
        # segment, its deviation read as |expm1(log beta)|
        sp = make_space(kind, dim)
        w = weight_preset(sp, preset)
        p = validate_params(dim, 3 * dim, 0.4)
        rng = np.random.default_rng(4)
        for _ in range(6):
            x = sp.sample_point(rng)
            v = sp.sample_unit(rng, x)
            rep = check_limits(sp, w, p, kappa, x, v)
            for k, row in enumerate(rep.provenance["decay"]):
                d_full, d_t = reparam_partial(sp, w, p, x, v, 0.4 * 0.5**k,
                                              [1.0, 0.5])
                want = np.expm1(log_beta(p, kappa, d_t, d_full, 0.5))
                assert row["d"] == 0.4 * 0.5**k
                assert row["dev"] == abs(float(want))

    def test_limit2_error_is_rounding_only(self, tmp_path):
        # the benchmark's H^3 limits call at this seed: a second quadrature
        # on the reversed segment put 6.3e-8 of error into limit 2
        run = cli.resolve_config({
            "space": {"kind": "hyperbolic", "dim": 3},
            "weight": "quadratic(0.3)",
            "params": {"n": 3, "N": 9.0, "eps": 0.4}, "kappa": -3.0,
            "suite": "limits", "sampling": {"seed": 536972774}})
        rep = cli.run_suite(run, tmp_path)[1]
        assert rep.name == "coefficient_limits"
        lim = rep.provenance["frak_b_limit"]
        assert abs(lim["extrapolated"] - lim["target"]) <= 1e-11

    def test_one_quadrature_per_t(self, monkeypatch):
        # one stacked quadrature: d_f and one d_t per t for limits 1 and 2,
        # and one pair for each of the six decay points of limit 3
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return reparam_partial(*args, **kwargs)

        monkeypatch.setattr(coefficients, "reparam_partial", counted)
        sp = make_space("sphere", 2)
        p = validate_params(2, 4, 0.5)
        x, v = meridian(1.0)
        rep = check_limits(sp, weight_preset(sp, "cosine(0.2)"), p, 0.8, x, v)
        assert rep.verdict == "pass"
        assert len(calls) == 1
        # from x along v: d(x, y) for d_f and each t, then each d_k twice
        lengths, ts = calls[0][5], calls[0][6]
        assert lengths.shape == np.shape(ts) == (1 + 7 + 2 * 6,)
        dks = (0.4 * 0.5 ** np.arange(6)).tolist()
        assert lengths.tolist() == [0.4] * 8 + dks + dks

    def test_overflowing_asymmetry_rate_is_inf(self):
        # |grad f| = 6000 along a segment of length 0.4 puts the rate B of
        # the decay envelope past the float range, which raised
        # OverflowError; the envelope then bounds nothing and reads +inf
        sp = make_space("euclidean", 3)
        rep = check_limits(sp, weight_preset(sp, "linear(6000)"),
                           validate_params(3, 9, 0.4), -0.7, np.zeros(3),
                           np.array([0.0, 1.0, 0.0]))
        assert all(row["bound"] == math.inf for row in rep.provenance["decay"])
        assert rep.verdict == "pass"

    def test_overflowing_decay_bound_is_met(self, tmp_path):
        # unit S^2, zero weight, kappa = -3e5: the decay envelope
        # expm1(...) passes the float range at the larger distances, which
        # once raised OverflowError out of the suite
        run = cli.resolve_config({
            "space": {"kind": "sphere", "dim": 2}, "weight": "zero",
            "params": {"n": 2, "N": 6.0, "eps": 0.5}, "kappa": -3e5,
            "suite": "limits"})
        rep = cli.run_suite(run, tmp_path)[1]
        rows = rep.provenance["decay"]
        assert rows[0]["bound"] == math.inf
        assert all(row["dev"] <= row["bound"] for row in rows)
        assert rep.margins[2] > 0.0

    @pytest.mark.parametrize("config", [
        {"space": {"kind": "sphere", "dim": 2}, "weight": "zero",
         "params": {"n": 2, "N": 6.0, "eps": 0.5}, "kappa": -3e5,
         "sampling": {"seed": 0}}] + [
        {"space": {"kind": "hyperbolic", "dim": 3}, "weight": "linear(0.5)",
         "params": {"n": 3, "N": 9.0, "eps": 0.4}, "kappa": -3.0,
         "sampling": {"seed": 4, "region": {"radius": radius}}}
        for radius in (9.0, 10.0, 11.0, 12.0)], ids=["sphere-kappa-3e5"] + [
            f"hyperbolic-radius-{radius}" for radius in (9, 10, 11, 12)])
    def test_fast_coefficients_read_no_counterexample(self, config, tmp_path):
        # on a fixed t-grid 0.1 ... 0.001 these exited 1: on S^2 the
        # coefficients vary on the t-scale 1/(sqrt|kappa| d) ~ 1/219 (limit 2
        # at -1.56e-3); far out on H^3 b reaches 2.5e5 to 1.6e8 (limit 1 at
        # -1,584 at radius 9, a NaN limit 2 at radii 10-12)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, "suite": "limits"}))
        assert cli.main(["run", "--config", str(path), "--out-dir",
                         str(tmp_path), "--quiet"]) == 0

    @pytest.mark.parametrize("kind, weight, kappa", SWEEP)
    def test_sweep_reads_no_counterexample(self, kind, weight, kappa,
                                           tmp_path):
        # both lemma checks hold for every smooth f and every kappa inside
        # the conjugate radius: none may read a counterexample
        for run in sweep_runs(kind, weight, kappa):
            assert [rep.verdict for rep in cli.run_suite(run, tmp_path)] == [
                "pass", "pass"]

    @pytest.mark.parametrize("kind, weight, kappa", SWEEP)
    def test_b_off_by_1e_6_fails_limit_1(self, kind, weight, kappa, tmp_path,
                                         monkeypatch):
        # a closed-form b off by 1e-6 relative is a defect that limit 1 sees
        monkeypatch.setattr(coefficients, "log_b", lambda *args: (
            log_b(*args) + math.log1p(1e-6)))
        for run in sweep_runs(kind, weight, kappa):
            assert cli.run_suite(run, tmp_path)[1].margins[0] < 0.0
