"""Profiling and basic block enlargement tests."""

import pytest

from repro.enlarge import (
    EnlargeConfig,
    EnlargementError,
    apply_plan,
    enlarge_program,
    plan_enlargement,
)
from repro.enlarge.plan import EnlargementPlan
from repro.interp import run_program
from repro.isa.ops import NodeKind
from repro.lang import compile_source
from repro.profiles import annotate_static_hints, build_profile

LOOPY_SOURCE = """
int total;

int main() {
    int i;
    for (i = 0; i < 200; i++) {
        if (i % 10 == 0) total += 2;
        else total += 1;
    }
    return total;
}
"""


@pytest.fixture(scope="module")
def loopy():
    program = compile_source(LOOPY_SOURCE)
    result = run_program(program, inputs={0: b""})
    profile = build_profile(result.trace)
    return program, result, profile


class TestProfile:
    def test_block_counts_sum_to_trace_length(self, loopy):
        _, result, profile = loopy
        assert sum(profile.block_counts.values()) == len(result.trace)

    def test_arc_counts_sum(self, loopy):
        _, result, profile = loopy
        assert sum(profile.arc_counts.values()) == len(result.trace) - 1

    def test_branch_outcome_totals(self, loopy):
        program, _, profile = loopy
        for label, (not_taken, taken) in profile.branch_outcomes.items():
            assert label in program.blocks
            assert not_taken + taken == profile.block_counts[label]

    def test_loop_branch_is_strongly_biased(self, loopy):
        program, _, profile = loopy
        fractions = [
            profile.taken_fraction(label)
            for label in profile.branch_outcomes
        ]
        # The 200-iteration loop branch must be heavily one-sided.
        assert any(f > 0.95 or f < 0.05 for f in fractions)

    def test_static_hints_annotation(self, loopy):
        program, _, profile = loopy
        hinted = annotate_static_hints(program, profile)
        hints = [
            hinted.block(label).terminator.expect_taken
            for label in hinted.conditional_branch_labels()
        ]
        assert all(h is not None for h in hints)

    def test_hints_match_majority(self, loopy):
        program, _, profile = loopy
        hinted = annotate_static_hints(program, profile)
        for label in hinted.conditional_branch_labels():
            if label not in profile.branch_outcomes:
                continue
            hint = hinted.block(label).terminator.expect_taken
            assert hint == profile.majority_taken(label)


class TestPlanner:
    def test_plan_produces_sequences(self, loopy):
        program, _, profile = loopy
        plan = plan_enlargement(program, profile)
        assert plan.sequences
        for sequence in plan.sequences:
            assert len(sequence) >= 2
            for label in sequence:
                assert label in program.blocks

    def test_instance_cap_respected(self, loopy):
        program, _, profile = loopy
        config = EnlargeConfig(max_instances=3)
        plan = plan_enlargement(program, profile, config)
        for count in plan.instance_counts().values():
            assert count <= 3

    def test_max_blocks_respected(self, loopy):
        program, _, profile = loopy
        config = EnlargeConfig(max_blocks=2)
        plan = plan_enlargement(program, profile, config)
        assert all(len(seq) <= 2 for seq in plan.sequences)

    def test_node_limit_respected(self, loopy):
        program, _, profile = loopy
        config = EnlargeConfig(max_nodes=20)
        plan = plan_enlargement(program, profile, config)
        for sequence in plan.sequences:
            total = sum(program.block(l).datapath_size for l in sequence)
            assert total <= 20

    def test_high_ratio_threshold_blocks_unbiased_merges(self, loopy):
        program, _, profile = loopy
        strict = EnlargeConfig(min_arc_ratio=0.999, min_seed_count=1)
        plan = plan_enlargement(program, profile, strict)
        # Only jump arcs (ratio 1.0) survive such a threshold.
        for sequence in plan.sequences:
            for a, b in zip(sequence, sequence[1:]):
                term = program.block(a).terminator
                if term.kind is NodeKind.BRANCH:
                    pytest.fail("branch arc merged despite 0.999 threshold")

    def test_seed_threshold(self, loopy):
        program, _, profile = loopy
        config = EnlargeConfig(min_seed_count=10**9)
        plan = plan_enlargement(program, profile, config)
        assert plan.sequences == []


class TestBuilder:
    def test_asserts_replace_interior_branches(self, loopy):
        program, _, profile = loopy
        plan = plan_enlargement(program, profile)
        enlarged = apply_plan(program, plan, reoptimize=False)
        for sequence, label in zip(plan.sequences,
                                   [plan.entry_map[s[0]] for s in plan.sequences]):
            block = enlarged.block(label)
            interior_branches = sum(
                1 for a in sequence[:-1]
                if program.block(a).terminator.kind is NodeKind.BRANCH
            )
            assert len(block.assert_indices()) == interior_branches
            assert block.origin == tuple(sequence)

    def test_fault_targets_are_original_seed(self, loopy):
        program, _, profile = loopy
        plan = plan_enlargement(program, profile)
        enlarged = apply_plan(program, plan, reoptimize=False)
        for sequence in plan.sequences:
            label = plan.entry_map[sequence[0]]
            block = enlarged.block(label)
            for index in block.assert_indices():
                assert block.body[index].target == sequence[0]

    def test_semantics_preserved(self, loopy):
        program, result, profile = loopy
        enlarged = enlarge_program(program, profile)
        enlarged_result = run_program(enlarged, inputs={0: b""})
        assert enlarged_result.exit_code == result.exit_code
        assert enlarged_result.output == result.output

    def test_semantics_preserved_under_aggressive_config(self, loopy):
        program, result, profile = loopy
        config = EnlargeConfig(
            min_arc_ratio=0.5, min_cum_ratio=0.01, max_blocks=32,
            max_nodes=400, min_seed_count=1, min_arc_weight=1,
        )
        enlarged = enlarge_program(program, profile, config)
        enlarged_result = run_program(enlarged, inputs={0: b""})
        assert enlarged_result.exit_code == result.exit_code

    def test_loop_value_read_after_a_faulting_exit_survives(self):
        # A signalling assert restores the block-entry registers, so a
        # write its fault path reads must survive re-optimisation.
        source = """
        int main() {
            int a = 3;
            int b = -7;
            int round;
            for (round = 0; round < 15; round++) {
                a = a + round;
                b = a + a;
            }
            return (a ^ b) & 127;
        }
        """
        program = compile_source(source)
        result = run_program(program, inputs={0: b""})
        enlarged = enlarge_program(program, build_profile(result.trace))
        assert run_program(enlarged, inputs={0: b""}).exit_code == \
            result.exit_code

    def test_enlarged_blocks_are_bigger(self, loopy):
        program, _, profile = loopy
        plan = plan_enlargement(program, profile)
        enlarged = apply_plan(program, plan)
        for sequence in plan.sequences:
            label = plan.entry_map[sequence[0]]
            if label not in enlarged.blocks:
                continue  # may have been pruned as unreachable
            seed_size = program.block(sequence[0]).datapath_size
            assert enlarged.block(label).datapath_size > seed_size

    def test_reoptimization_removes_nodes(self, loopy):
        program, _, profile = loopy
        plan = plan_enlargement(program, profile)
        raw = apply_plan(program, plan, reoptimize=False)
        optimized = apply_plan(program, plan, reoptimize=True)
        for sequence in plan.sequences:
            label = plan.entry_map[sequence[0]]
            if label in optimized.blocks and label in raw.blocks:
                assert len(optimized.block(label)) <= len(raw.block(label))

    def test_bad_sequence_rejected(self, loopy):
        program, _, profile = loopy
        labels = list(program.blocks)
        # Craft a sequence that does not follow control flow.
        bogus = EnlargementPlan(
            sequences=[[labels[0], labels[0]]],
            entry_map={labels[0]: "E$bogus$0"},
        )
        term = program.block(labels[0]).terminator
        if term.kind in (NodeKind.BRANCH, NodeKind.JUMP) and labels[0] in (
            term.target, term.alt_target
        ):
            pytest.skip("first block happens to loop on itself")
        with pytest.raises(EnlargementError):
            apply_plan(program, bogus)


class TestEnlargementOnWorkloads:
    """Output equality single vs enlarged on the real benchmark suite
    is asserted inside prepare_workload; exercise it via grep."""

    def test_grep_prepared(self, grep_prepared):
        workload = grep_prepared
        assert workload.single_trace.retired_nodes > 0
        assert workload.enlarged_trace.retired_nodes > 0
        enlarged_blocks = [b for b in workload.enlarged if b.origin]
        assert enlarged_blocks, "no enlarged blocks were created for grep"

    def test_enlargement_flattens_histogram(self, grep_prepared):
        from repro.harness.figures import dynamic_block_histogram

        workload = grep_prepared
        single = dynamic_block_histogram(
            workload.single_trace, workload.templates_single
        )
        enlarged = dynamic_block_histogram(
            workload.enlarged_trace, workload.templates_enlarged
        )

        def mean(counter):
            total = sum(counter.values())
            return sum(size * count for size, count in counter.items()) / total

        assert mean(enlarged) > mean(single)
