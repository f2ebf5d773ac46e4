import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

import toydiffusion as td
from toydiffusion import schedule as schedule_module
from toydiffusion.cli import DiagnosticsConfig
from toydiffusion.schedule import (
    TIME_CACHE_SIZE,
    alpha_sigma,
    check_start,
    ddim_coefficients,
    perturb,
    sigma_to_t,
    x0_from_eps,
)

VP = td.NoiseSchedule.vp()
VE = td.NoiseSchedule.ve()


def test_vp_terminal_values():
    # closed form at t=1 with the default betas: exp(-19.9/4 - 0.05)
    a1, s1 = alpha_sigma(VP, 1.0)
    assert a1 == pytest.approx(np.exp(-0.25 * 19.9 - 0.05), rel=1e-14)
    assert a1 == pytest.approx(0.006571586494929619, abs=1e-15)
    assert s1 == pytest.approx(0.9999784068923386, abs=1e-12)


def test_vp_variance_preserving_identity():
    t = np.linspace(0.0, 1.0, 97)
    a, s = alpha_sigma(VP, t)
    np.testing.assert_allclose(a * a + s * s, 1.0, atol=1e-12)


def test_vp_alpha_matches_beta_integral():
    # independent oracle: alpha_t = exp(-1/2 int_0^t beta(s) ds) for the
    # linear rate beta(s) = beta_min + s (beta_max - beta_min), via quadrature
    def beta(s):
        return VP.beta_min + s * (VP.beta_max - VP.beta_min)

    for t in (0.1, 0.37, 0.5, 0.83, 1.0):
        integral, _ = quad(beta, 0.0, t)
        a, _ = alpha_sigma(VP, t)
        assert a == pytest.approx(np.exp(-0.5 * integral), rel=1e-12)


def test_ve_alpha_is_one_and_sigma_endpoints():
    t = np.linspace(0, 1, 11)
    a, s = alpha_sigma(VE, t)
    np.testing.assert_array_equal(a, np.ones_like(t))
    assert s[0] == pytest.approx(VE.sigma_min, rel=1e-14)
    assert s[-1] == pytest.approx(VE.sigma_max, rel=1e-12)


def test_ve_sigma_is_geometric_in_t():
    _, s1 = alpha_sigma(VE, 0.25)
    _, s2 = alpha_sigma(VE, 0.50)
    _, s3 = alpha_sigma(VE, 0.75)
    assert s2 / s1 == pytest.approx(s3 / s2, rel=1e-12)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_sigma_monotone_in_t(t1, t2):
    lo, hi = sorted((t1, t2))
    for sch in (VP, VE):
        _, s_lo = alpha_sigma(sch, lo)
        _, s_hi = alpha_sigma(sch, hi)
        assert s_lo <= s_hi


def test_sigma_to_t_round_trip():
    t = np.linspace(0.02, 0.98, 25)
    for sch in (VP, VE):
        _, s = alpha_sigma(sch, t)
        np.testing.assert_allclose(sigma_to_t(sch, s), t, atol=1e-9)


def test_sigma_to_t_clamps_out_of_range():
    # vp sigma saturates below 1, so any sigma >= 1 means "the end"
    assert sigma_to_t(VP, 1.0) == 1.0
    assert sigma_to_t(VP, 5.0) == 1.0
    assert sigma_to_t(VE, 1e-6) == 0.0
    assert sigma_to_t(VE, 1e5) == 1.0


def test_sigma_to_t_vectorized():
    s = np.array([0.001, 0.3, 2.0])
    out = sigma_to_t(VP, s)
    assert out.shape == (3,)
    assert out[0] < out[1] < out[2] == 1.0


def test_perturb_reconstruction_and_shapes():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((5, 8, 4))
    xt, eps = perturb(VP, x0, 0.4, rng)
    a, s = alpha_sigma(VP, 0.4)
    np.testing.assert_allclose(xt, a * x0 + s * eps, atol=1e-12)
    assert xt.shape == x0.shape and eps.shape == x0.shape


def test_perturb_per_item_times():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((6, 3, 2))
    t = np.linspace(0.1, 0.9, 6)
    xt, eps = perturb(VP, x0, t, rng)
    for i in range(6):
        a, s = alpha_sigma(VP, t[i])
        np.testing.assert_allclose(xt[i], a * x0[i] + s * eps[i], atol=1e-12)


@pytest.mark.parametrize("schedule", [VP, VE], ids=["vp", "ve"])
@pytest.mark.parametrize("t", [0.05, 0.7, 1.0, np.array([0.05, 0.3, 0.7, 0.9, 1.0])],
                         ids=["0.05", "0.7", "1.0", "per-item"])
def test_x0_from_eps_inverts_perturb(schedule, t):
    # x0 = (xt - sigma eps) / alpha loses a few ulps of sigma eps, divided
    # by alpha: at most about 1e-13, at VP t = 1 (alpha = 6.6e-3) and at
    # VE t = 1 (sigma = 700), so 1e-9 leaves a wide margin; a per-item t
    # inverts each video at its own time
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((5, 8, 4))
    xt, eps = perturb(schedule, x0, t, rng)
    np.testing.assert_allclose(x0_from_eps(eps, xt, schedule, t), x0, rtol=0, atol=1e-9)


def test_perturb_preserves_unit_variance_vp():
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((200_000, 1, 1))
    xt, _ = perturb(VP, x0, 0.6, rng)
    assert np.var(xt) == pytest.approx(1.0, rel=0.02)


def test_perturb_rejects_mismatched_t_vector():
    rng = np.random.default_rng(3)
    message = r"^per-item coefficient's shape must be one of \(4,\), got \(2,\)$"
    with pytest.raises(ValueError, match=message):
        perturb(VP, np.zeros((4, 2, 2)), np.array([0.1, 0.2]), rng)
    with pytest.raises(ValueError, match=message):
        x0_from_eps(np.zeros((4, 2, 2)), np.zeros((4, 2, 2)), VP, np.array([0.1, 0.2]))


def test_time_domain_checked():
    with pytest.raises(ValueError):
        alpha_sigma(VP, -0.01)
    with pytest.raises(ValueError):
        alpha_sigma(VE, 1.01)


@pytest.mark.parametrize("schedule", [VP, VE], ids=["vp", "ve"])
@pytest.mark.parametrize("steps", [1, 50, 200])
def test_cached_scalar_alpha_sigma_equals_array_path(schedule, steps):
    # the grids include t = 1 and t = 0; cold and warm lookups both match the
    # array evaluation bit for bit
    grid = np.linspace(1.0, 0.0, steps + 1)
    alpha, sigma = alpha_sigma(schedule, grid)
    schedule_module._cached_alpha_sigma.cache_clear()
    for _ in range(2):
        got = np.array([alpha_sigma(schedule, float(t)) for t in grid])
        assert np.array_equal(got[:, 0], alpha) and np.array_equal(got[:, 1], sigma)
    info = schedule_module._cached_alpha_sigma.cache_info()
    assert info.misses == steps + 1 and info.hits == steps + 1


def test_invalid_time_raises_on_every_call():
    # a failed evaluation is not cached; NaN used to pass as a time
    for _ in range(3):
        with pytest.raises(ValueError):
            alpha_sigma(VP, 1.5)
        with pytest.raises(ValueError):
            alpha_sigma(VE, -0.25)
        with pytest.raises(ValueError):
            alpha_sigma(VP, float("nan"))
    with pytest.raises(ValueError):
        alpha_sigma(VE, np.array([0.5, np.nan]))


def test_alpha_sigma_cache_is_bounded():
    assert schedule_module._cached_alpha_sigma.cache_info().maxsize == TIME_CACHE_SIZE
    schedule_module._cached_alpha_sigma.cache_clear()
    for t in np.linspace(0.0, 1.0, TIME_CACHE_SIZE + 10):
        alpha_sigma(VP, float(t))
    assert schedule_module._cached_alpha_sigma.cache_info().currsize == TIME_CACHE_SIZE


def test_factories_default_to_the_field_defaults():
    assert td.NoiseSchedule.vp() == td.NoiseSchedule()
    assert td.NoiseSchedule.ve() == td.NoiseSchedule(kind="ve")


def test_bad_schedule_params_rejected():
    with pytest.raises(ValueError):
        td.NoiseSchedule(kind="cosine")
    with pytest.raises(ValueError):
        td.NoiseSchedule.vp(beta_min=2.0, beta_max=1.0)
    with pytest.raises(ValueError):
        td.NoiseSchedule.ve(sigma_min=0.0)


@pytest.mark.parametrize("field", ["beta_min", "beta_max", "sigma_min", "sigma_max"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_schedule_params_rejected(field, value):
    for kind in ("vp", "ve"):
        with pytest.raises(ValueError, match=field):
            td.NoiseSchedule(kind=kind, **{field: value})


def test_ddim_step_to_a_noiseless_time_is_the_prediction():
    # VP's sigma rounds to 0 below about 1e-15, where alpha is exactly 1.0,
    # so r = sigma_to / sigma_from is 0 and the step lands on x0_hat
    assert ddim_coefficients(VP, 0.5, 1e-300) == (1.0, 0.0)


def test_ddim_step_from_a_noiseless_time_is_rejected():
    # r = sigma_to / sigma_from raised ZeroDivisionError
    with pytest.raises(ValueError, match=r"^no noise to remove at t_from = 1e-300"):
        ddim_coefficients(VP, 1e-300, 5e-301)


@pytest.mark.parametrize("t", [0.0, -0.1, 1.5, math.nan, -math.inf])
def test_check_start_names_the_time_it_rejects(t):
    with pytest.raises(ValueError, match=re.escape(f"M must lie in (0, 1], got {t!r}")):
        check_start(t, "M")


def test_check_start_returns_a_float():
    for t in (1, np.float64(0.25), 5e-324):
        got = check_start(t, "M")
        assert type(got) is float and got == t


@pytest.mark.parametrize("name, call", [
    ("start_time", lambda world, t: td.SamplerConfig(t)),
    ("M", lambda world, t: td.InitDistribution(np.zeros(32), 1.0, t)),
    ("M", lambda world, t: td.optimal_init(td.exact_moments(world), VP, t)),
    ("t_grid entries", lambda world, t: DiagnosticsConfig(t_grid=(0.5, t))),
    ("m_grid entries", lambda world, t: DiagnosticsConfig(m_grid=(0.5, t))),
    ("exact prediction time t",
     lambda world, t: td.ExactDenoiser(world, VP).step_map(t)),
    ("one-step prediction time t", lambda world, t: td.one_step_prediction(
        td.OracleEps(), np.zeros((8, 4)), None, VP, t, np.random.default_rng(0))),
], ids=["start_time", "init-M", "optimal_init-M", "t_grid", "m_grid", "step_map",
        "one_step_prediction"])
@pytest.mark.parametrize("t", [0.0, 1.5, math.nan])
def test_each_start_or_probe_time_is_checked_by_one_rule(world, name, call, t):
    # each site wrote its own message, and none named the value
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must lie in "
                                         f"\\(0, 1\\], got {t!r}$"):
        call(world, t)


def test_a_ve_sigma_max_whose_square_overflows_is_rejected():
    # Python's sigma**2 raised OverflowError, "(34, 'Numerical result out of
    # range')", in four commands, and two others exited 0
    with pytest.raises(ValueError,
                       match=r"^sigma_max's square must be finite, got 1e\+200$"):
        td.NoiseSchedule.ve(sigma_max=1e200)
    assert td.NoiseSchedule.ve(sigma_max=1e154).sigma_max == 1e154  # square 1e308
    td.NoiseSchedule(kind="vp", sigma_max=1e200)  # VP reads no sigma_max
