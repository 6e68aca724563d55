"""Battery-lifetime projections from the Table I power models.

The paper reports per-segment joules; users reason in battery
percentages and hours of streaming.  :class:`BatteryModel` converts
session power into both, including the screen's draw (which the paper
excludes from its comparisons because it is scheme-independent, but
which dominates a real session's budget).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BatteryModel", "TYPICAL_PHONE_BATTERY"]


@dataclass(frozen=True)
class BatteryModel:
    """A phone battery plus fixed system draw.

    ``capacity_mah`` and ``nominal_voltage_v`` define the energy
    reservoir; ``screen_power_mw`` (and other constant draws folded into
    it) is added on top of the streaming power when projecting lifetime
    with ``include_screen=True``.
    """

    capacity_mah: float = 3000.0
    nominal_voltage_v: float = 3.85
    screen_power_mw: float = 900.0

    def __post_init__(self) -> None:
        if self.capacity_mah <= 0 or self.nominal_voltage_v <= 0:
            raise ValueError("capacity and voltage must be positive")
        if self.screen_power_mw < 0:
            raise ValueError("screen power must be non-negative")

    @property
    def capacity_j(self) -> float:
        """Total energy in joules (mAh x V x 3.6)."""
        return self.capacity_mah * self.nominal_voltage_v * 3.6

    def streaming_hours(
        self, streaming_power_w: float, include_screen: bool = True
    ) -> float:
        """Hours of continuous streaming on a full charge."""
        if streaming_power_w < 0:
            raise ValueError("power must be non-negative")
        power = streaming_power_w
        if include_screen:
            power += self.screen_power_mw * 1e-3
        if power == 0:
            return float("inf")
        return self.capacity_j / power / 3600.0


TYPICAL_PHONE_BATTERY = BatteryModel()
"""A ~3000 mAh, 3.85 V pack with a ~0.9 W screen."""
