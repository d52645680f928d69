"""Exception types shared across the package.

Everything derives from ValueError so callers that just want "bad input"
semantics can catch one class, while tests can pin down the precise failure.
"""

import math


class GridError(ValueError):
    """Incompatible time grids (mismatched spacing or junction time)."""


class PathError(ValueError):
    """Malformed path data (wrong length, nonzero anchor, bad shape)."""


class SizeError(ValueError):
    """A construction or enumeration exceeds its configured cap."""

    @classmethod
    def over_cap(
        cls, count: int | None, what: str, cap: int, key: str, log10_count=None,
        advice: str | None = None,
    ) -> "SizeError":
        """count items of a kind exceed cap; the message ends by naming the
        config key to raise, or with advice in its place where the cap is
        fixed.  A count of 13 digits or more is given as a power of ten:
        Python refuses to print an int past 4300 digits.  A count too
        large to build is passed as None, with its log10_count (12 or
        more), which is read only then."""
        if count is None:
            size = f"about 10^{int(log10_count)}"
        elif count < 10**12:
            size = str(count)
        else:
            size = f"about 10^{int(math.log10(count))}"
        if advice is None:
            advice = f"raise {key} to allow more"
        return cls(f"{size} {what} exceed the cap {cap}; {advice}")


class StrategyError(ValueError):
    """A control strategy is incomplete or inconsistent with its tree."""


class RuleError(ValueError):
    """A stopping rule is incomplete or not adapted."""


class ConfigError(ValueError):
    """Rejected CLI/JSON configuration (unknown key, missing field, bad value)."""
