"""Closed-loop fleet remediation: trigger rules over central telemetry.

LOCKSS' lesson (PAPERS.md) is that long-term preservation must detect
*and repair* degradation autonomously.  The :class:`FleetSupervisor` is
that loop: a :class:`~repro.sim.telemetry.Sampler` tick that evaluates
declarative :class:`TriggerRule`\\ s against the central
:class:`~repro.tsdb.TimeSeriesStore` every period and invokes named
remediation actions — drain a sick rack out of placement, kick a
rebuild migration, raise a scrub budget — with hysteresis and
per-(rule, target) cooldowns so a noisy series cannot flap an action.

Rule semantics:

* ``mode="latest"`` compares the newest point's value;
* ``mode="rate"`` compares the per-second increase of a monotonic
  counter over ``window_s`` (no rate — fewer than two points — never
  fires);
* ``mode="stale"`` compares the age of the newest point against the
  clock — how the fleet notices an agent that died with its rack.

A breach fires the rule's action once and latches it; while latched it
may re-fire only after ``cooldown_s`` (a rebuild that made no progress
gets kicked again, not spammed).  The rule unlatches when the value
crosses the ``clear`` level — hysteresis, ``clear`` strictly inside
the threshold — optionally firing ``clear_action`` (e.g. undrain).

Every action is journaled to the flight recorder under the dedicated
``supervisor.action`` / ``supervisor.clear`` event kinds and appended
to the deterministic remediation ``log`` campaign reports embed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.engine import Engine
from repro.sim.telemetry import Sampler
from repro.tsdb import TimeSeriesStore

#: flight-recorder event kinds for supervisor journaling
KIND_ACTION = "supervisor.action"
KIND_CLEAR = "supervisor.clear"


@dataclass(frozen=True)
class TriggerRule:
    """One declarative remediation trigger."""

    name: str
    series: str                      # metric name in the central store
    action: str                      # action fired on breach
    threshold: float
    mode: str = "latest"             # "latest" | "rate" | "stale"
    direction: str = "above"         # breach when value is above/below
    clear: Optional[float] = None    # hysteresis level (default: threshold)
    clear_action: Optional[str] = None
    window_s: float = 5.0            # rate window
    cooldown_s: float = 2.0          # min gap between re-fires while latched
    target_label: str = "rack"       # label naming the remediation target

    def __post_init__(self):
        if self.mode not in ("latest", "rate", "stale"):
            raise ValueError(f"{self.name}: unknown mode {self.mode!r}")
        if self.direction not in ("above", "below"):
            raise ValueError(
                f"{self.name}: unknown direction {self.direction!r}"
            )
        if self.clear is not None:
            if self.direction == "above" and self.clear > self.threshold:
                raise ValueError(f"{self.name}: clear above threshold")
            if self.direction == "below" and self.clear < self.threshold:
                raise ValueError(f"{self.name}: clear below threshold")

    @property
    def clear_level(self) -> float:
        return self.threshold if self.clear is None else self.clear

    def breached(self, value: float) -> bool:
        if self.direction == "above":
            return value > self.threshold
        return value < self.threshold

    def cleared(self, value: float) -> bool:
        if self.direction == "above":
            return value <= self.clear_level
        return value >= self.clear_level


#: an action takes the target id and returns a JSON-safe detail dict
Action = Callable[[str], dict]


class FleetSupervisor:
    """Evaluates trigger rules and fires remediation actions."""

    def __init__(
        self,
        engine: Engine,
        store: TimeSeriesStore,
        rules: list[TriggerRule],
        actions: dict[str, Action],
        eval_period_s: float = 1.0,
        horizon_s: Optional[float] = None,
    ):
        for rule in rules:
            if rule.action not in actions:
                raise ValueError(
                    f"rule {rule.name}: unknown action {rule.action!r}"
                )
            if rule.clear_action is not None and (
                rule.clear_action not in actions
            ):
                raise ValueError(
                    f"rule {rule.name}: unknown clear action "
                    f"{rule.clear_action!r}"
                )
        self.engine = engine
        self.store = store
        self.rules = list(rules)
        self.actions = dict(actions)
        self.sampler = Sampler(
            engine,
            period=eval_period_s,
            on_tick=lambda _now: self.evaluate(),
            horizon=horizon_s,
        )
        #: (rule name, target) -> {"latched": bool, "last_fire_t": float}
        self._state: dict[tuple[str, str], dict] = {}
        #: deterministic remediation journal campaign reports embed
        self.log: list[dict] = []
        self.stats = {
            "evaluations": 0,
            "fired": 0,
            "refired": 0,
            "cleared": 0,
            "suppressed_cooldown": 0,
        }

    # ------------------------------------------------------------------
    def start(self) -> "FleetSupervisor":
        self.sampler.start()
        return self

    def stop(self) -> None:
        self.sampler.stop()

    # ------------------------------------------------------------------
    def evaluate(self) -> int:
        """One pass over every rule x matching series; returns fires."""
        now = self.engine.now
        self.stats["evaluations"] += 1
        fired = 0
        for rule in self.rules:
            for series in self.store.select(rule.series):
                labels = series.labels_dict()
                target = labels.get(
                    rule.target_label, ",".join(v for _k, v in series.labels)
                )
                value = self._value(rule, series, now)
                if value is None:
                    continue
                fired += self._apply(rule, target, value, now)
        return fired

    def _value(self, rule: TriggerRule, series, now: float):
        newest = series.latest()
        if newest is None:
            return None
        if rule.mode == "latest":
            return newest[1]
        if rule.mode == "stale":
            return now - newest[0]
        return self.store.rate(
            series.name,
            series.labels_dict(),
            window_s=rule.window_s,
            now=now,
        )

    def _apply(
        self, rule: TriggerRule, target: str, value: float, now: float
    ) -> int:
        state = self._state.setdefault(
            (rule.name, target), {"latched": False, "last_fire_t": None}
        )
        if rule.breached(value):
            if state["latched"]:
                since = now - state["last_fire_t"]
                if since < rule.cooldown_s:
                    self.stats["suppressed_cooldown"] += 1
                    return 0
                self.stats["refired"] += 1
            else:
                self.stats["fired"] += 1
            state["latched"] = True
            state["last_fire_t"] = now
            self._fire(rule, rule.action, target, value, now, KIND_ACTION)
            return 1
        if state["latched"] and rule.cleared(value):
            state["latched"] = False
            self.stats["cleared"] += 1
            if rule.clear_action is not None:
                self._fire(
                    rule, rule.clear_action, target, value, now, KIND_CLEAR
                )
            else:
                self.engine.recorder.record(
                    KIND_CLEAR,
                    rule=rule.name,
                    target=target,
                    value=round(value, 6),
                )
        return 0

    def _fire(
        self,
        rule: TriggerRule,
        action_name: str,
        target: str,
        value: float,
        now: float,
        kind: str,
    ) -> None:
        detail = self.actions[action_name](target) or {}
        entry = {
            "t": round(now, 6),
            "rule": rule.name,
            "action": action_name,
            "target": target,
            "value": round(value, 6),
            "detail": detail,
        }
        self.log.append(entry)
        self.engine.recorder.record(
            kind,
            rule=rule.name,
            action=action_name,
            target=target,
            value=round(value, 6),
        )

    # ------------------------------------------------------------------
    def health(self) -> dict:
        return {
            "rules": len(self.rules),
            "actions_logged": len(self.log),
            "latched": sorted(
                f"{rule_name}:{target}"
                for (rule_name, target), state in self._state.items()
                if state["latched"]
            ),
            **{key: int(val) for key, val in sorted(self.stats.items())},
        }
