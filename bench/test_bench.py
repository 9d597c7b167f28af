"""Tests of the benchmark itself: seeded inputs, repeatable counts, failure
accounting and the tracer. Each runs a handful of small ops, so the file
takes a few seconds.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import math
import statistics

import pytest

import ops
import run
import spans


def _small(workload: str, seed: int, count: int = 4) -> list:
    """Cheap ops taken from a generated list, so they are real workload inputs."""
    limit = {"synth": 40, "verify": 11, "binomial": 10}[workload]
    chosen = [op for op in ops.generate(workload, seed) if op.n <= limit]
    if workload == "verify":
        chosen = [op for op in chosen if ops.register_width(op.direction, op.method, op.n) <= 11]
    return chosen[:count]


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_gives_identical_op_list(workload):
    first = ops.generate(workload, 7)
    assert first == ops.generate(workload, 7)
    assert first != ops.generate(workload, 8)
    assert len(first) == len(ops.generate(workload, 8))


def test_op_sizes_stay_in_their_ranges():
    for seed in range(5):
        assert all(16 <= op.n <= 513 for op in ops.synth_ops(seed))
        assert all(4 <= op.n <= 128 and 0.05 <= op.p <= 0.95 for op in ops.binomial_ops(seed))
        assert all(
            10 <= ops.register_width(op.direction, op.method, op.n) <= 17
            for op in ops.verify_ops(seed)
        )


@pytest.mark.parametrize("direction", ops.DIRECTIONS)
@pytest.mark.parametrize("method", ops.METHODS)
def test_register_width_matches_the_built_converter(direction, method):
    for n in (2, 3, 4, 9, 10, 16, 17, 18):
        circuit, _ = ops.build_converter(direction, method, n)
        assert circuit.num_qubits == ops.register_width(direction, method, n)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_two_runs_give_identical_count_metrics(workload):
    op_list = _small(workload, 3)
    assert op_list
    first = run.run_ops(op_list, 0.0)
    second = run.run_ops(op_list, 0.0)
    assert first.failed == second.failed == 0, first.failures + second.failures
    assert first.counts == second.counts
    assert set(first.counts) == set(ops.COUNT_KEYS) and first.counts["size_basis"] > 0


def test_failed_check_is_counted_without_aborting(monkeypatch):
    op_list = [
        ops.Op("synth", "edick-to-onehot", "recursion", n=20),
        ops.Op("synth", "no-such-direction", "recursion", n=20),
        ops.Op("synth", "cnot-stair", "recursion", n=20),
    ]
    monkeypatch.setattr(ops, "onehot_size", lambda n: -1)  # a reference the output cannot meet
    tally = run.run_ops(op_list, 0.0)
    assert tally.attempted == 3
    assert tally.failed == 2
    assert "CheckFailed" in tally.failures[0] and "ValueError" in tally.failures[1]
    assert tally.counts["size_logical"] == 20 * 19 // 2  # the staircase op still counted


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0
    latencies = [1.0, 10.0, 3.0, 20.0, 2.0, 30.0, 4.0]
    assert run.per_op(latencies, 2) == [1.0, 10.0]
    assert run.per_op(latencies, 2, statistics.fmean) == [2.5, 20.0]
    assert run.per_op(latencies[:1], 2) == [1.0]


def test_host_correction_scales_each_op_to_the_fastest_probe():
    # Probe times around three ops, 10 s apart: the host ran the first op at half speed.
    ref = run.REFERENCE_PROBE_S
    probes = dict(probes_s=[2 * ref, 2 * ref, ref, ref], probe_at_s=[0.0, 10.0, 20.0, 30.0])
    assert run.host_scales(run.Tally(latencies_s=[1.0, 1.0, 1.0], **probes)) == pytest.approx([0.5, 2 / 3, 1.0])
    # An op as long as the run is scaled by the mean of every probe.
    assert run.host_scales(run.Tally(latencies_s=[1.0, 30.0, 1.0], **probes))[1] == pytest.approx(1 / 1.5)
    tally = run.Tally(latencies_s=[4.0, 3.0, 1.0], **probes)
    metrics = run.end_to_end(tally, 3, [(0.3, 2 * ref), (0.2, ref), (0.1, ref)])
    assert metrics["ops_per_s"]["value"] == pytest.approx(3 / 5.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.15)


def test_traced_pass_accounts_for_op_time_and_restores_edick():
    op_list = _small("binomial", 5, 2) + _small("verify", 5, 1) + _small("synth", 5, 2)
    originals = {(m, f): getattr(ops.edick, f) for m, f, _, _ in spans.BOUNDARIES if hasattr(ops.edick, f)}
    tracer = spans.Tracer()
    with tracer.installed():
        assert ops.edick.cost is not originals[("circuit", "cost")]
        tally = run.run_ops(op_list, 0.0, tracer)
    assert all(getattr(ops.edick, f) is fn for (_, f), fn in originals.items())
    assert tally.failed == 0, tally.failures

    roots = [s for s in tracer.spans if s.name == "op"]
    assert len(roots) == len(op_list)
    own = tracer.self_times()
    probes = sum(s.probe_s for s in tracer.spans)
    assert sum(own) + probes == pytest.approx(sum(s.end - s.start for s in roots), rel=1e-9)

    metrics = tracer.metrics(len(op_list), 1.0, 1.0)
    for name in ("converters.gates_out", "decompose.gates_in", "statevector.gates_applied", "qasm.bytes"):
        assert metrics[name] > 0, name
    assert metrics["decompose.expansion_ratio"] >= 1.0
    assert 0.0 < metrics["statevector.support_ratio"] <= 1.0
    assert all(math.isfinite(v) for v in metrics.values())
