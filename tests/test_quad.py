"""Regression tests for the log-space Gauss-Legendre kernels.

The pinned values were produced by the kernels before they cached log
weights and took one shared log-sum-exp; any change to the node layout,
the weights or the breakpoint handling moves them by far more than the
1e-13 relative tolerance. The panel sets include empty panels, several
breakpoint container types (list, tuple of ints, ndarray) and a 30-sigma
tail.
"""
import math

import numpy as np
import pytest
from scipy.special import log_ndtr

from selectcond._quad import log_integral_gl, log_integral_panels
from selectcond.distributions import std_normal_log_pdf

REL = 1e-13


def logistic_log_pdf(u):
    return -u - 2.0 * np.log1p(np.exp(-u))


CASES = {
    "gl-gaussian-tail-3": (
        lambda: log_integral_gl(std_normal_log_pdf, 3.0, 43.0),
        -6.607726221510724),
    "gl-gaussian-tail-30": (
        lambda: log_integral_gl(std_normal_log_pdf, 30.0, 32.0, nodes=64),
        -454.3212439563432),
    "gl-normal-times-cdf": (
        lambda: log_integral_gl(lambda x: std_normal_log_pdf(x - 1.5) + log_ndtr(x),
                                -4.0, 6.0, nodes=200),
        -0.1559822003586484),
    "panels-gaussian-tail-5": (
        lambda: log_integral_panels(
            std_normal_log_pdf,
            [5.0, 5.0, 5.25, 5.5, 6.0, 6.0, 7.0, 9.0, 13.0, 21.0, 50.0]),
        -15.064998393988725),
    "panels-gaussian-tail-30": (
        lambda: log_integral_panels(
            std_normal_log_pdf,
            (30, 30.03125, 30.0625, 30.125, 30.25, 30.5, 30.5, 31, 32, 35, 40),
            nodes=16),
        -454.32124395634315),
    "panels-logistic": (
        lambda: log_integral_panels(
            logistic_log_pdf,
            np.array([-2.0, -1.0, -1.0, 0.0, 2.0, 4.0, 8.0, 16.0, 32.0])),
        -0.1269280110429869),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_values(name):
    fn, expected = CASES[name]
    assert fn() == pytest.approx(expected, rel=REL, abs=0.0)


def test_gaussian_tails_match_log_ndtr():
    assert log_integral_gl(std_normal_log_pdf, 3.0, 43.0) == pytest.approx(
        float(log_ndtr(-3.0)), rel=1e-12)
    val = log_integral_panels(std_normal_log_pdf,
                              [5.0, 5.0, 5.25, 5.5, 6.0, 6.0, 7.0, 9.0, 13.0, 21.0, 50.0])
    assert val == pytest.approx(float(log_ndtr(-5.0)), rel=1e-12)


def test_empty_domains_give_minus_inf():
    assert log_integral_gl(std_normal_log_pdf, 1.0, 1.0) == -math.inf
    assert log_integral_panels(std_normal_log_pdf, [2.0, 2.0, 1.0]) == -math.inf
