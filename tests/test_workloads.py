"""Benchmark suite tests: every workload matches its Python oracle."""

import pytest

from repro.interp import run_program
from repro.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("kind", ["train", "eval"])
def test_output_matches_reference(name, kind):
    workload = WORKLOADS[name]
    program = workload.compile()
    inputs = workload.make_inputs(kind)
    result = run_program(program, inputs=inputs)
    assert result.exit_code == 0
    assert result.output == workload.reference(inputs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic(name):
    workload = WORKLOADS[name]
    assert workload.make_inputs("eval") == workload.make_inputs("eval")
    assert workload.make_inputs("train") == workload.make_inputs("train")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_train_and_eval_differ(name):
    """The paper used different data sets for profiling and evaluation."""
    workload = WORKLOADS[name]
    assert workload.make_inputs("train") != workload.make_inputs("eval")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_scale_grows_input(name):
    workload = WORKLOADS[name]
    small = sum(len(v) for v in workload.make_inputs("eval", 1).values())
    large = sum(len(v) for v in workload.make_inputs("eval", 2).values())
    assert large > small


def test_workload_names():
    from repro.workloads import PAPER_WORKLOAD_NAMES

    assert PAPER_WORKLOAD_NAMES == ("sort", "grep", "diff", "cpp", "compress")
    assert set(WORKLOADS) == set(PAPER_WORKLOAD_NAMES) | {
        "hashjoin", "jsontok", "crc32"
    }
    # The paper's five lead the registry so figure pipelines that take
    # the first N benchmarks stay on the paper's suite.
    assert tuple(WORKLOADS)[:5] == PAPER_WORKLOAD_NAMES


def test_static_alu_mem_ratio_in_paper_range():
    """The paper reports a static ALU:MEM node ratio of about 2.5:1."""
    ratios = []
    for workload in WORKLOADS.values():
        alu, mem = workload.compile().static_node_counts()
        ratios.append(alu / mem)
    mean = sum(ratios) / len(ratios)
    assert 1.5 < mean < 4.5


def test_dynamic_blocks_are_small():
    """Over half of executed blocks should be small (paper Figure 2)."""
    workload = WORKLOADS["grep"]
    program = workload.compile()
    result = run_program(program, inputs=workload.make_inputs("eval"))
    trace = result.trace
    sizes = {
        label: program.block(label).datapath_size for label in program.blocks
    }
    small = sum(
        1 for i in trace.block_ids if sizes[trace.labels[i]] <= 4
    )
    assert small / len(trace) > 0.4


class TestPreparedWorkloads:
    def test_prepare_checks_equivalence(self, sort_prepared):
        assert sort_prepared.single_trace.retired_nodes > 0
        assert len(sort_prepared.enlarged) >= len(sort_prepared.single)

    def test_enlarged_program_validates(self, sort_prepared):
        sort_prepared.enlarged.validate()

    def test_traces_share_exit_code(self, sort_prepared):
        assert (
            sort_prepared.single_trace.exit_code
            == sort_prepared.enlarged_trace.exit_code
        )

    def test_schedule_cache_reuse(self, sort_prepared):
        from repro.machine import BranchMode, Discipline, MachineConfig

        cfg = MachineConfig(
            Discipline.STATIC, 4, "A", BranchMode.SINGLE
        )
        first = sort_prepared.schedules_for(cfg)
        second = sort_prepared.schedules_for(cfg)
        assert first is second
