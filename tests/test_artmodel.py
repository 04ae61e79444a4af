from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from appvirtsim.artmodel import (
    AOT,
    HYBRID,
    MIN_INVOCATIONS,
    NATIVE,
    VIRTUAL,
    SENTINEL,
    RuntimeModel,
    warm_up,
)
from appvirtsim.defaults import default_victim
from appvirtsim.probes import ProbeOutcome, Verdict, run_probe
from appvirtsim.simos import SimOs
from appvirtsim.worlds import NATIVE_ENV, EnvHandle, World


def _hotness(rt: RuntimeModel):
    """The hotness probe's outcome in a world whose probe process runs ``rt``."""
    world = World(NATIVE_ENV, SimOs(), 0, default_victim(), rt)
    return run_probe(EnvHandle(world), "hotness")


def test_hybrid_counter_arithmetic():
    rt = RuntimeModel(NATIVE)
    for _ in range(5):
        rt.record_invocation("m")
    assert rt.method("m").hotness_count == 5
    rt2 = RuntimeModel(NATIVE)
    rt2.record_invocation("m", loop_iterations=3)
    assert rt2.method("m").hotness_count == 4


def test_aot_counter_stays_zero():
    rt = RuntimeModel(VIRTUAL)
    for _ in range(5):
        rt.record_invocation("m")
    record = rt.method("m")
    assert record.compile_mode == AOT
    assert record.hotness_count == 0
    assert record.invocations == 5


def test_method_record_is_frozen():
    rt = RuntimeModel(VIRTUAL)
    warm_up(rt)
    with pytest.raises(FrozenInstanceError):
        rt.methods[SENTINEL].hotness_count = 1


def test_default_modes_per_environment():
    assert RuntimeModel(NATIVE).method("x").compile_mode == HYBRID
    assert RuntimeModel(VIRTUAL).method("x").compile_mode == AOT


def test_check_verdicts():
    native = RuntimeModel(NATIVE)
    warm_up(native)
    assert _hotness(native).verdict == Verdict.CLEAN

    virtual = RuntimeModel(VIRTUAL)
    warm_up(virtual)
    assert _hotness(virtual).verdict == Verdict.VIRTUAL_DETECTED


def test_check_before_warmup_guarded():
    rt = RuntimeModel(VIRTUAL)
    assert _hotness(rt) == ProbeOutcome(
        "hotness", Verdict.ERROR,
        f"warmup guard: {SENTINEL}: 0 invocations recorded, need {MIN_INVOCATIONS}")
    assert rt.methods == {}  # the probe reads the counter without creating it
    for _ in range(MIN_INVOCATIONS - 1):
        rt.record_invocation("ActivityThread.currentActivityThread")
    assert _hotness(rt) == ProbeOutcome(
        "hotness", Verdict.ERROR,
        f"warmup guard: {SENTINEL}: 9 invocations recorded, need {MIN_INVOCATIONS}")
    rt.record_invocation("ActivityThread.currentActivityThread")
    assert _hotness(rt).verdict == Verdict.VIRTUAL_DETECTED


_sequences = st.lists(st.integers(min_value=0, max_value=20), max_size=60)


@given(_sequences)
def test_aot_invariance(loops):
    rt = RuntimeModel(VIRTUAL)
    for loop_iterations in loops:
        rt.record_invocation("m", loop_iterations)
    assert rt.methods.get("m") is None or rt.method("m").hotness_count == 0


@given(_sequences)
def test_hybrid_linearity(loops):
    rt = RuntimeModel(NATIVE)
    for loop_iterations in loops:
        rt.record_invocation("m", loop_iterations)
    expected = sum(1 + l for l in loops)
    assert loops == [] or rt.method("m").hotness_count == expected


def test_unknown_environment_kind_rejected():
    with pytest.raises(ValueError, match="unknown environment kind: 'bogus'"):
        RuntimeModel("bogus")


def test_negative_loop_count_rejected():
    rt = RuntimeModel(NATIVE)
    with pytest.raises(ValueError):
        rt.record_invocation("m", loop_iterations=-1)


@given(st.sampled_from([NATIVE, VIRTUAL]), st.integers(min_value=0, max_value=20),
       st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=3))
def test_batched_invocations_equal_single_ones(kind, loop_iterations, times, earlier):
    batched, single = RuntimeModel(kind), RuntimeModel(kind)
    for rt in (batched, single):
        for _ in range(earlier):
            rt.record_invocation("m", 1)
    batched.record_invocation("m", loop_iterations, times=times)
    for _ in range(times):
        single.record_invocation("m", loop_iterations)
    assert batched.methods == single.methods


def test_zero_times_rejected():
    rt = RuntimeModel(NATIVE)
    with pytest.raises(ValueError):
        rt.record_invocation("m", times=0)
    assert rt.methods == {}
