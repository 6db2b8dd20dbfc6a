"""Trace recording and replay.

Records every POSIX-level operation issued against a ROS instance as a
JSON-serializable event stream, and replays a recorded trace against
another instance — useful for A/B experiments (e.g. wait vs interrupt
policy on the same access pattern).
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ROSError


@dataclass
class TraceEvent:
    """One recorded operation."""

    op: str  # write | read | stat | mkdir | readdir | unlink
    path: str
    at: float  # simulated time of issue
    size: int = 0
    payload: Optional[bytes] = None
    logical_size: Optional[int] = None

    def to_json(self) -> dict:
        record = {
            "op": self.op,
            "path": self.path,
            "at": self.at,
            "size": self.size,
        }
        if self.payload is not None:
            record["payload"] = base64.b64encode(self.payload).decode()
        if self.logical_size is not None:
            record["logical_size"] = self.logical_size
        return record

    @classmethod
    def from_json(cls, record: dict) -> "TraceEvent":
        payload = record.get("payload")
        return cls(
            op=record["op"],
            path=record["path"],
            at=record["at"],
            size=record.get("size", 0),
            payload=base64.b64decode(payload) if payload else None,
            logical_size=record.get("logical_size"),
        )


class TraceRecorder:
    """Wraps a ROS instance, recording every call it forwards."""

    def __init__(self, ros):
        self.ros = ros
        self.events: list[TraceEvent] = []

    def write(self, path: str, data: bytes, logical_size=None):
        self.events.append(
            TraceEvent(
                "write",
                path,
                self.ros.now,
                size=len(data),
                payload=data,
                logical_size=logical_size,
            )
        )
        return self.ros.write(path, data, logical_size)

    def read(self, path: str):
        self.events.append(TraceEvent("read", path, self.ros.now))
        return self.ros.read(path)

    def stat(self, path: str):
        self.events.append(TraceEvent("stat", path, self.ros.now))
        return self.ros.stat(path)

    def mkdir(self, path: str):
        self.events.append(TraceEvent("mkdir", path, self.ros.now))
        return self.ros.mkdir(path)

    def serialize(self) -> bytes:
        return json.dumps([e.to_json() for e in self.events]).encode()

    @staticmethod
    def deserialize(blob: bytes) -> list[TraceEvent]:
        return [TraceEvent.from_json(r) for r in json.loads(blob)]


def replay_trace(ros, events: list[TraceEvent]) -> dict:
    """Apply a trace to a ROS instance; returns summary statistics."""
    stats = {"ops": 0, "bytes_written": 0, "bytes_read": 0, "errors": 0}
    for event in events:
        stats["ops"] += 1
        try:
            if event.op == "write":
                ros.write(event.path, event.payload or b"", event.logical_size)
                stats["bytes_written"] += event.size
            elif event.op == "read":
                result = ros.read(event.path)
                stats["bytes_read"] += len(result.data)
            elif event.op == "stat":
                ros.stat(event.path)
            elif event.op == "mkdir":
                ros.mkdir(event.path)
        except ROSError:  # replay is best-effort about what the rack refuses
            stats["errors"] += 1
    return stats
