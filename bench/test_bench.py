"""Tests of the benchmark's tracer, digest gate and span accounting."""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
from tracing import Tracer  # noqa: E402


def _bindings():
    return {
        (id(ns), attr): val
        for ns in harness.NAMESPACES + (harness.sim._TrialEngine,)
        for attr, val in vars(ns).items()
    }


@pytest.fixture(scope="module")
def ops():
    return [dataclasses.replace(harness.shrink(op), repeats=1) for op in harness.build_ops("mc_long_block")]


def test_restore_puts_back_every_patched_name():
    before = _bindings()
    tracer = Tracer()
    harness.install(tracer)
    try:
        wrapped = {key for key, val in _bindings().items() if before[key] is not val}
        assert len(wrapped) >= 40
        assert harness.sim._min_norm_kernel is not before[(id(harness.sim), "_min_norm_kernel")]
        assert harness.slp.solve_min_norm is not before[(id(harness.slp), "solve_min_norm")]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is val for key, val in before.items())


def test_digest_gate_rejects_a_changed_result(ops):
    op = next(op for op in ops if op.name == "nc_slp")
    text = harness.run_op(op, harness.REFERENCE_SEED)
    rec = harness.sim.run_montecarlo(dataclasses.replace(op.scenario, seed=harness.REFERENCE_SEED))
    changed = dataclasses.replace(rec, ber=math.nextafter(rec.ber, 1.0))
    assert harness.digest(repr(rec)) == harness.digest(text)
    assert harness.digest(repr(changed)) != harness.digest(text)

    tally = harness.Tally()
    reference = {f"{op.name}.0": harness.digest(repr(changed))}
    samples = harness.measure_plain([op], 0.0, 1, reference, tally)
    assert tally.failed == 1 and tally.attempted == 2  # round 0 mismatch, round 1 unchecked
    assert len(samples["nc_slp"]) == 2


def test_range_check_rejects_an_impossible_record(ops):
    op = next(op for op in ops if op.name == "msm")
    rec = harness.sim.run_montecarlo(op.scenario)
    harness.check_record(rec, op.scenario)
    for bad in (dict(ber=1.5), dict(avg_tx_power=rec.avg_tx_power * 1.01), dict(ee=float("nan"))):
        with pytest.raises(harness.OutputError):
            harness.check_record(dataclasses.replace(rec, **bad), op.scenario)


def test_spans_nest_and_self_times_add_up(ops):
    tracer = Tracer()
    root_total = 0.0
    with harness.traced(tracer):
        for op in ops:
            with tracer.operation(op.name):
                harness.run_op(op, 5)
            spans = tracer.last_spans
            # The root comes first, parents precede their children, every
            # child interval lies inside its parent's and siblings do not overlap.
            assert spans[0][3] == -1 and all(parent >= 0 for *_, parent in spans[1:])
            last_end = {}
            for i, (name, start, end, parent) in enumerate(spans):
                assert start <= end
                if parent >= 0:
                    p_name, p_start, p_end, _ = spans[parent]
                    assert parent < i
                    assert p_start <= start and end <= p_end, (name, p_name)
                    assert start >= last_end.get(parent, p_start)
                    last_end[parent] = end
            root_total += spans[0][2] - spans[0][1]
    prof = tracer.profile
    assert sum(prof.self_s.values()) == pytest.approx(root_total, rel=1e-9)
    assert all(v >= -1e-9 for v in prof.self_s.values())
    assert prof.name_calls(harness.KERNEL, "robust_slp") == 16
    assert prof.counts["solver.kkt_checks"] > 0 and prof.counts["solver.kkt_failures"] == 0
    assert prof.layer_calls("check") == prof.counts["solver.kkt_checks"] + prof.name_calls(harness.KERNEL)


def test_traced_and_plain_rounds_agree(ops):
    tally = harness.Tally()
    profiles, overhead = harness.measure_traced(ops, 0.0, 7, {}, tally)
    assert len(profiles) == 2 and overhead > 0.0
    # Round 0 digests are checked against an empty reference, so its plain
    # operations fail; every traced operation matches its plain twin.
    assert tally.failed == len(ops)
