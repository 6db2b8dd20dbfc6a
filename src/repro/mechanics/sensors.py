"""Sensors and the feedback-control loop.

ROS drives every motion in a closed loop (§3.3): the PLC issues a motor
command, then verifies the resulting state against sensor readings before
declaring the operation complete.  We model three kinds of sensors —
rotary encoders on the roller, a linear encoder on the arm, and the range
sensors used to separate discs at 0.05 mm precision — each of which can be
made to fail or drift for fault-injection tests.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import PLCFaultError


class Sensor:
    """Base sensor: reads a state via a probe callable, may be faulted."""

    def __init__(self, name: str, probe: Callable[[], float]):
        self.name = name
        self._probe = probe
        self._fault_offset = 0.0
        self.failed = False
        self.reads = 0

    def read(self) -> float:
        if self.failed:
            raise PLCFaultError(f"sensor {self.name} is not responding")
        self.reads += 1
        return self._probe() + self._fault_offset

    def inject_drift(self, offset: float) -> None:
        """Make the sensor report values offset by ``offset`` (miscalibration)."""
        self._fault_offset = offset

    def fail(self) -> None:
        self.failed = True

    def repair(self) -> None:
        self.failed = False
        self._fault_offset = 0.0


class PositionSensor(Sensor):
    """Encoder reporting a discrete position (slot index or layer index)."""


#: How far the separation gap may read from the expected one.
RANGE_TOLERANCE_MM = 0.05


class RangeSensor(Sensor):
    """Range sensor used during disc separation."""

    def verify_within(self, expected_mm: float) -> None:
        actual = self.read()
        if abs(actual - expected_mm) > RANGE_TOLERANCE_MM:
            raise PLCFaultError(
                f"range sensor {self.name}: expected {expected_mm:.3f} mm "
                f"+/- {RANGE_TOLERANCE_MM}, read {actual:.3f} mm"
            )


class SensorSuite:
    """All sensors of one roller/arm pair, with feedback verification."""

    def __init__(
        self,
        roller_position: Callable[[], float],
        arm_layer: Callable[[], float],
        separation_gap_mm: Callable[[], float],
    ):
        self.roller_encoder = PositionSensor("roller-encoder", roller_position)
        self.arm_encoder = PositionSensor("arm-encoder", arm_layer)
        self.separation_range = RangeSensor(
            "separation-range", separation_gap_mm
        )

    def verify_roller_at(self, slot: int) -> None:
        actual = self.roller_encoder.read()
        if round(actual) != slot:
            raise PLCFaultError(
                f"roller feedback mismatch: expected slot {slot}, "
                f"encoder reads {actual:.2f}"
            )

    def verify_arm_at(self, layer: int) -> None:
        actual = self.arm_encoder.read()
        if round(actual) != layer:
            raise PLCFaultError(
                f"arm feedback mismatch: expected layer {layer}, "
                f"encoder reads {actual:.2f}"
            )

    def verify_separation_gap(self, expected_mm: float) -> None:
        self.separation_range.verify_within(expected_mm)

    def all_sensors(self) -> list[Sensor]:
        return [self.roller_encoder, self.arm_encoder, self.separation_range]
