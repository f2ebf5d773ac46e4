import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import expit, logit
from scipy.stats import kstest, norm

import toydiffusion as td
from toydiffusion.timenoise import (
    ADDITIVE,
    INTERPOLATION,
    constant_beta,
    corrupt,
    mu_of_t,
    pdf,
    sample_beta,
)


def test_mu_endpoints():
    p = td.TimeNoiseParams(beta_m=2.0, a=5.0)
    assert mu_of_t(p, 0.0) == -1.0
    assert mu_of_t(p, 1.0) == 1.0
    assert mu_of_t(td.TimeNoiseParams(beta_m=2.0, a=1.0), 0.5) == 0.0


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.1, 8.0))
def test_mu_monotone_in_t(t1, t2, a):
    p = td.TimeNoiseParams(beta_m=1.0, a=a)
    lo, hi = sorted((t1, t2))
    assert mu_of_t(p, lo) <= mu_of_t(p, hi)


def test_pdf_normalizes():
    # quadrature over the open support; the density has integrable
    # singular-looking factors at both ends
    for beta_m, a, t in [(1.0, 1.0, 0.5), (25.0, 0.5, 0.1), (100.0, 5.0, 0.9)]:
        p = td.TimeNoiseParams(beta_m=beta_m, a=a)
        total, err = quad(lambda b: pdf(p, t, b), 0.0, beta_m, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)
        assert err < 1e-6


def test_pdf_matches_logit_normal_change_of_variables():
    # oracle: beta = beta_m sigmoid(z), z ~ N(mu, 1), so
    # p(beta) = phi(logit(beta/beta_m) - mu) * |dz/dbeta|
    p = td.TimeNoiseParams(beta_m=3.0, a=2.0)
    t = 0.7
    mu = 2.0 * t**2.0 - 1.0
    b = np.linspace(0.05, 2.95, 40)
    jac = p.beta_m / (b * (p.beta_m - b))
    expected = norm.pdf(logit(b / p.beta_m) - mu) * jac
    np.testing.assert_allclose(pdf(p, t, b), expected, rtol=1e-12)


def test_pdf_domain_is_open():
    p = td.TimeNoiseParams(beta_m=2.0, a=1.0)
    with pytest.raises(ValueError):
        pdf(p, 0.5, 0.0)
    with pytest.raises(ValueError):
        pdf(p, 0.5, 2.0)
    for t, beta_s in ((0.5, np.nan), (np.nan, 1.0), (0.5, [1.0, np.nan])):
        with pytest.raises(ValueError):
            pdf(p, t, beta_s)


def test_sample_beta_distribution():
    # KS of the logit transform against the underlying normal
    p = td.TimeNoiseParams(beta_m=25.0, a=5.0)
    rng = np.random.default_rng(10)
    for t in (0.1, 0.9):
        s = sample_beta(p, t, rng, size=100_000)
        z = logit(s / p.beta_m)
        stat = kstest(z, "norm", args=(mu_of_t(p, t), 1.0)).statistic
        assert stat < 0.01
        assert z.mean() == pytest.approx(mu_of_t(p, t), abs=0.02)
        assert z.std() == pytest.approx(1.0, abs=0.02)


def test_sample_beta_bounds_and_scalar():
    p = td.TimeNoiseParams(beta_m=0.5, a=1.0)
    rng = np.random.default_rng(11)
    s = sample_beta(p, 0.5, rng, size=10_000)
    assert np.all(s > 0.0) and np.all(s < 0.5)
    one = sample_beta(p, 0.5, rng)
    assert isinstance(one, float)


def test_constant_baseline_tracks_center():
    p = td.TimeNoiseParams(beta_m=4.0, a=1.0)
    assert constant_beta(p, 0.0) == 0.0
    assert constant_beta(p, 0.5) == pytest.approx(2.0)
    assert constant_beta(p, 1.0) == pytest.approx(4.0)


def test_corrupt_additive():
    y0 = np.arange(4.0)
    y = corrupt(y0, 0.5, np.random.default_rng(0))
    # reconstruct the noise draw with the same generator state
    eps = np.random.default_rng(0).standard_normal(4)
    np.testing.assert_allclose(y, y0 + 0.5 * eps, atol=1e-15)
    # one level per row scales each row's noise by its own level
    rows = np.stack([y0, -y0, 2 * y0])
    levels = np.array([0.5, 0.0, 2.0])
    y = corrupt(rows, levels, np.random.default_rng(0), ADDITIVE)
    eps = np.random.default_rng(0).standard_normal((3, 4))
    np.testing.assert_allclose(y, rows + levels[:, None] * eps, atol=1e-15)


def test_corrupt_interpolation_variant():
    y0 = np.full(3, 2.0)
    y = corrupt(y0, 0.25, np.random.default_rng(1), INTERPOLATION)
    eps = np.random.default_rng(1).standard_normal(3)
    np.testing.assert_allclose(y, 0.75 * y0 + 0.25 * eps, atol=1e-15)


def test_corrupt_rejects_an_unknown_variant_before_its_draw():
    # "interp" ran the additive variant, byte for byte
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="^variant must be one of 'additive', "
                                         "'interpolation', got 'interp'$"):
        corrupt(np.zeros((3, 4)), 0.5, rng, "interp")
    assert rng.bit_generator.state == state


def test_zero_override_is_noise_free_and_draws_like_any_level():
    # a zero level returns y0's values exactly, in a new array, and draws
    # its noise like any other level, so the stream after it does not
    # depend on the level
    y0 = np.ones((3, 4))
    for level in (0.0, np.zeros(3)):
        rng, other = np.random.default_rng(5), np.random.default_rng(5)
        y = corrupt(y0, level, rng)
        corrupt(y0, 0.5, other)
        assert rng.bit_generator.state == other.bit_generator.state
        np.testing.assert_array_equal(y, y0)
        assert y is not y0


def test_corruption_grows_with_time_on_average():
    p = td.TimeNoiseParams(beta_m=2.0, a=5.0)
    y0 = np.zeros(8)
    rng = np.random.default_rng(6)
    rms = []
    for t in (0.1, 0.5, 0.95):
        draws = [corrupt(y0, sample_beta(p, t, rng), rng) for _ in range(2_000)]
        rms.append(float(np.sqrt(np.mean(np.square(draws)))))
    assert rms[0] < rms[1] < rms[2]


def test_param_validation():
    with pytest.raises(ValueError):
        td.TimeNoiseParams(beta_m=0.0, a=1.0)
    with pytest.raises(ValueError):
        td.TimeNoiseParams(beta_m=1.0, a=-2.0)
    with pytest.raises(ValueError):
        td.TimeNoiseParams(beta_m=2.0, a=1.0, variant=INTERPOLATION)
    with pytest.raises(ValueError):
        td.TimeNoiseParams(beta_m=1.0, a=1.0, variant="mystery")
    assert td.TimeNoiseParams(beta_m=1.0, a=1.0, variant=ADDITIVE).beta_m == 1.0
    p = td.TimeNoiseParams(beta_m=1.0, a=1.0)
    for t in (1.5, np.nan, [0.5, np.nan]):
        with pytest.raises(ValueError):
            mu_of_t(p, t)
        with pytest.raises(ValueError):
            constant_beta(p, t)
        with pytest.raises(ValueError):
            sample_beta(p, t, np.random.default_rng(0))
