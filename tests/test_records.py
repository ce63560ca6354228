"""The plain record classes keep the construction rules of the fields they hold."""

import math

import pytest

from obstruct.errors import InputError
from obstruct.factors import BlockCode
from obstruct.orbits import EntropyEstimate
from obstruct.suites import CheckResult


def test_check_results_without_details_get_their_own_dict():
    a, b = CheckResult("a", True, "ok"), CheckResult("b", True, "ok")
    a.details["note"] = 1
    assert b.details == {}


def test_block_code_window_below_one_is_refused():
    with pytest.raises(InputError, match="window must be >= 1"):
        BlockCode(window=0, rule={}, output_alphabet=2)


@pytest.mark.parametrize("rate", [-0.5, math.inf, math.nan])
def test_entropy_estimate_rate_must_be_finite_and_non_negative(rate):
    with pytest.raises(ValueError, match="finite and non-negative"):
        EntropyEstimate(rate, "count <= 2^0 at every n", (), 0)
