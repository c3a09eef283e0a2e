"""Tests for the bracketed bisection."""

import pytest

from nlsdelta.errors import NumericsError
from nlsdelta.rootfind import bisect


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sign_change_of_tiny_values(sign):
    # f(lo) * f(mid) ~ 1e-342 underflows to 0; the sign change must still steer
    root = bisect(lambda x: sign * 1e-170 * (0.3 - x), 0.0, 1.0)
    assert root == pytest.approx(0.3, abs=1e-13)


def test_no_sign_change_of_tiny_values():
    with pytest.raises(NumericsError, match="no sign change"):
        bisect(lambda x: 1e-170 * (2.0 - x), 0.0, 1.0)
