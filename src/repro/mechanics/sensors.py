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
        #: no fault injected: every reading is exactly the probe's
        self.healthy = True

    def read(self) -> float:
        if self.failed:
            raise PLCFaultError(f"sensor {self.name} is not responding")
        return self._probe() + self._fault_offset

    def inject_drift(self, offset: float) -> None:
        """Make the sensor report values offset by ``offset`` (miscalibration)."""
        self._fault_offset = offset
        self.healthy = not self.failed and offset == 0.0

    def fail(self) -> None:
        self.failed = True
        self.healthy = False

    def repair(self) -> None:
        self.failed = False
        self._fault_offset = 0.0
        self.healthy = True


class PositionSensor(Sensor):
    """Encoder reporting a discrete position (slot index or layer index)."""


#: How far the separation gap may read from the expected one.
RANGE_TOLERANCE_MM = 0.05


class RangeSensor(Sensor):
    """Range sensor used during disc separation."""


class SensorSuite:
    """All sensors of one roller/arm pair, with feedback verification.

    The ``verify_*`` checks run once a motion has committed, so the roller
    or arm stands where it was sent: a healthy sensor reads exactly the
    expected value there, and only a drifted or failed one (an arm jam is
    drift) is read and compared.
    """

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
        if self.roller_encoder.healthy:
            return
        actual = self.roller_encoder.read()
        if round(actual) != slot:
            raise PLCFaultError(
                f"roller feedback mismatch: expected slot {slot}, "
                f"encoder reads {actual:.2f}"
            )

    def verify_arm_at(self, layer: int) -> None:
        if self.arm_encoder.healthy:
            return
        actual = self.arm_encoder.read()
        if round(actual) != layer:
            raise PLCFaultError(
                f"arm feedback mismatch: expected layer {layer}, "
                f"encoder reads {actual:.2f}"
            )

    def verify_separation_gap(self, expected_mm: float) -> None:
        sensor = self.separation_range
        if sensor.healthy:
            return
        actual = sensor.read()
        if abs(actual - expected_mm) > RANGE_TOLERANCE_MM:
            raise PLCFaultError(
                f"range sensor {sensor.name}: expected {expected_mm:.3f} mm "
                f"+/- {RANGE_TOLERANCE_MM}, read {actual:.3f} mm"
            )

    def all_sensors(self) -> list[Sensor]:
        return [self.roller_encoder, self.arm_encoder, self.separation_range]
