"""Tests for the bracketed Newton loop and its derivative-free entry, bisect."""

import math

import pytest

from nlsdelta.errors import NumericsError
from nlsdelta.rootfind import bisect, newton


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sign_change_of_tiny_values(sign):
    # f(lo) * f(mid) ~ 1e-342 underflows to 0; the sign change must still steer
    root = bisect(lambda x: sign * 1e-170 * (0.3 - x), 0.0, 1.0)
    assert root == pytest.approx(0.3, abs=1e-13)


def test_no_sign_change_of_tiny_values():
    with pytest.raises(NumericsError, match="no sign change"):
        bisect(lambda x: 1e-170 * (2.0 - x), 0.0, 1.0)


def _recording(fdf):
    points = []

    def recorded(x):
        points.append(x)
        return fdf(x)

    return recorded, points


@pytest.mark.parametrize("slope", [math.nan, 0.0, math.inf, -math.inf])
def test_unusable_slope_takes_the_midpoint(slope):
    fdf, points = _recording(lambda x: (x - 0.3, slope))
    root = newton(fdf, 0.0, 1.0, xtol=1e-12)
    assert points[:4] == [0.0, 1.0, 0.5, 0.25]
    assert root == pytest.approx(0.3, abs=1e-12)


def test_step_leaving_the_bracket_takes_the_midpoint():
    # a slope 100x too small throws the Newton step from the better end
    # (x = 0) far past hi = 1; the loop evaluates the midpoint instead
    fdf, points = _recording(lambda x: (x - 0.3, 0.01))
    root = newton(fdf, 0.0, 1.0, xtol=1e-12)
    assert points[:3] == [0.0, 1.0, 0.5]
    assert root == pytest.approx(0.3, abs=1e-12)


def test_step_inside_the_bracket_is_taken():
    fdf, points = _recording(lambda x: (math.exp(x) - 2.0, math.exp(x)))
    root = newton(fdf, 0.0, 3.0, xtol=1e-14)
    assert points[2] == pytest.approx(1.0)  # Newton from x = 0, not the midpoint 1.5
    assert root == pytest.approx(math.log(2.0), rel=1e-15)
    assert len(points) <= 8


def test_wrong_way_slope_cannot_leave_the_bracket():
    # a slope of the wrong sign points every Newton step outside; each
    # evaluation still lies strictly inside the shrinking bracket
    fdf, points = _recording(lambda x: (x - 0.3, -1.0))
    root = newton(fdf, 0.0, 1.0, xtol=1e-12)
    assert all(0.0 < x < 1.0 for x in points[2:])
    assert root == pytest.approx(0.3, abs=1e-12)


def test_newton_needs_a_sign_change():
    with pytest.raises(NumericsError, match="no sign change"):
        newton(lambda x: (x + 1.0, 1.0), 0.0, 1.0)
    with pytest.raises(NumericsError, match="empty bracket"):
        newton(lambda x: (x, 1.0), 1.0, 1.0)
