"""Runtime compilation model: per-method hotness counters.

The runtime mirrors each executed method into a record carrying a hotness
counter and the one compilation mode of its runtime: hybrid when native,
ahead-of-time in a virtual environment. AoT methods never tick the counter;
under hybrid compile-plus-interpret it advances by one per invocation plus
one per recorded loop iteration.

The observable this model encodes: processes hosting a virtual environment
run framework methods ahead-of-time compiled (counter pinned at 0), while
native execution leaves the counter climbing. The hotness probe in
``probes`` flags a virtual environment when a warmed-up sentinel method
still reads zero; this module only counts.
"""

from __future__ import annotations

from dataclasses import dataclass

AOT = "aot"
HYBRID = "hybrid"

NATIVE = "native"
VIRTUAL = "virtual"

# Invocations required before the hotness probe will trust the counter; guards
# against flagging a method that simply never ran.
MIN_INVOCATIONS = 10

SENTINEL = "ActivityThread.currentActivityThread"
WARMUP_INVOCATIONS = 25
WARMUP_LOOP_ITERATIONS = 2


@dataclass(frozen=True)
class ArtMethodRecord:
    compile_mode: str
    hotness_count: int = 0
    invocations: int = 0


class RuntimeModel:
    """Per-process runtime state: its one compile mode and one record per executed method."""

    def __init__(self, environment_kind: str):
        if environment_kind not in (NATIVE, VIRTUAL):
            raise ValueError(f"unknown environment kind: {environment_kind!r}")
        self.compile_mode = HYBRID if environment_kind == NATIVE else AOT
        self.methods: dict[str, ArtMethodRecord] = {}

    def fork(self) -> RuntimeModel:
        """An independent copy, without the constructor: new table, shared frozen records."""
        other = RuntimeModel.__new__(RuntimeModel)
        other.compile_mode = self.compile_mode
        other.methods = dict(self.methods)
        return other

    def method(self, name: str) -> ArtMethodRecord:
        record = self.methods.get(name)
        if record is None:
            record = ArtMethodRecord(self.compile_mode)
            self.methods[name] = record
        return record

    def record_invocation(self, method_name: str, loop_iterations: int = 0,
                          times: int = 1) -> None:
        """Count ``times`` invocations of ``loop_iterations`` loop iterations
        each in one record update; AoT methods stay at 0."""
        if loop_iterations < 0 or times < 1:
            raise ValueError("loop_iterations must be >= 0 and times >= 1")
        record = self.method(method_name)
        ticks = (1 + loop_iterations) * times if record.compile_mode == HYBRID else 0
        self.methods[method_name] = ArtMethodRecord(record.compile_mode,
                                                    record.hotness_count + ticks,
                                                    record.invocations + times)


def warm_up(rt: RuntimeModel) -> None:
    """Drive the sentinel past the warmup threshold, as app startup would."""
    rt.record_invocation(SENTINEL, WARMUP_LOOP_ITERATIONS, times=WARMUP_INVOCATIONS)
