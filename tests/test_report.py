"""Check verdicts: a bounded check passes exactly when its value meets its bound."""

import math

import pytest

from crorbit.report import CheckResult


class TestCheckResult:
    def test_missed_bound_fails_even_when_passed(self):
        res = CheckResult("c", True, 2.0, 1.0)
        assert not res.passed and res.to_dict()["passed"] is False
        assert CheckResult("c", True, 1.0, 1.0).passed

    def test_passed_carries_the_other_conditions(self):
        assert not CheckResult("c", False, 0.5, 1.0).passed
        assert CheckResult("c", value=0.5, bound=1.0).passed
        assert not CheckResult("c", False).passed and CheckResult("c").passed

    def test_at_least_comparator(self):
        assert CheckResult("c", value=2.0, bound=1.0, comparator=">=").passed
        assert not CheckResult("c", value=0.5, bound=1.0, comparator=">=").passed

    @pytest.mark.parametrize("comparator", ["<=", ">="])
    def test_nan_value_never_passes(self, comparator):
        assert not CheckResult("c", value=math.nan, bound=1.0, comparator=comparator).passed

    def test_unknown_comparator_raises(self):
        with pytest.raises(ValueError, match="unknown comparator '<'"):
            CheckResult("c", value=0.5, bound=1.0, comparator="<")
