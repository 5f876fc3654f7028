"""Value-prediction subsystem tests.

Three layers, mirroring DESIGN.md §16:

* predictor-family unit behaviour: warm-up gating, confidence
  saturation and reset, direct-mapped eviction, the oracle's protocol;
* engine integration: speculative operand delivery hides load latency
  without ever changing the architectural work retired, including under
  hypothesis-driven *chaotic* predictors that deliver arbitrary values
  at arbitrary moments (the squash/replay path must be semantics-free);
* determinism: crc32-keyed tables make mispredict and value-speculation
  counts identical across processes with different ``PYTHONHASHSEED``.
"""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.interp import run_program
from repro.machine import (
    BranchMode,
    Discipline,
    MachineConfig,
    build_templates,
)
from repro.machine.dynamic import DynamicEngine
from repro.predict import (
    CONFIDENCE_MAX,
    CONFIDENCE_THRESHOLD,
    ContextPredictor,
    LastValuePredictor,
    PerfectValuePredictor,
    StridePredictor,
    VALUE_PREDICTOR_KINDS,
    ValuePredictor,
    load_site,
    make_value_predictor,
)
from repro.program import parse_program


def drive(predictor, values, site="blk#3"):
    """Feed a value sequence through the two-call protocol."""
    delivered = []
    for actual in values:
        predicted = predictor.predict(site)
        delivered.append(predicted)
        predictor.update(site, actual, predicted)
    return delivered


# ----------------------------------------------------------------------
class TestFactory:
    @pytest.mark.parametrize("kind", [k for k in VALUE_PREDICTOR_KINDS
                                      if k != "none"])
    def test_all_kinds_construct(self, kind):
        predictor = make_value_predictor(kind)
        predictor.predict("b#0")
        predictor.update("b#0", 7, None)

    def test_none_is_not_a_predictor_object(self):
        with pytest.raises(ValueError):
            make_value_predictor("none")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_value_predictor("oracle")

    def test_load_site_identity(self):
        assert load_site("loop", 4) == "loop#4"

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            LastValuePredictor(entries=0)
        with pytest.raises(ValueError):
            LastValuePredictor(threshold=0)
        with pytest.raises(ValueError):
            LastValuePredictor(threshold=5, maximum=3)


# ----------------------------------------------------------------------
class TestLastValue:
    def test_warm_up_gates_delivery(self):
        # First sight trains the table; the value must then repeat
        # `threshold` times before a prediction is delivered.
        predictor = LastValuePredictor()
        delivered = drive(predictor, [9] * (CONFIDENCE_THRESHOLD + 2))
        assert delivered[: CONFIDENCE_THRESHOLD + 1] == [None] * (
            CONFIDENCE_THRESHOLD + 1
        )
        assert delivered[-1] == 9
        assert predictor.confirmed == 1 and predictor.squashed == 0

    def test_miss_resets_confidence(self):
        predictor = LastValuePredictor()
        drive(predictor, [9] * 6)  # saturated and delivering
        delivered = drive(predictor, [5] + [5] * CONFIDENCE_THRESHOLD)
        assert delivered[0] == 9  # the stale delivery that squashes
        assert predictor.squashed == 1
        # After the reset the new value must re-earn its confidence.
        assert delivered[1: CONFIDENCE_THRESHOLD + 1] == [None] * (
            CONFIDENCE_THRESHOLD
        )

    def test_confidence_saturates_at_maximum(self):
        predictor = LastValuePredictor()
        drive(predictor, [4] * 20)
        slot = predictor._slot("blk#3")
        assert predictor._table[slot][2] == CONFIDENCE_MAX

    def test_collision_evicts_tag_and_training(self):
        predictor = LastValuePredictor(entries=1)
        drive(predictor, [9] * 6, site="a#0")
        # A different site maps to the same (only) slot: the occupant
        # and its saturated confidence are gone, not inherited.
        assert predictor.predict("b#0") is None
        predictor.update("b#0", 3, None)
        assert drive(predictor, [9], site="a#0") == [None]

    def test_accuracy_property(self):
        predictor = LastValuePredictor()
        assert predictor.accuracy == 1.0  # unused
        drive(predictor, [2] * 6 + [5])
        assert 0.0 < predictor.accuracy < 1.0


# ----------------------------------------------------------------------
class TestStride:
    def test_arithmetic_sequence_predicted(self):
        predictor = StridePredictor()
        values = list(range(0, 100, 8))
        delivered = drive(predictor, values)
        # First sight + one stride observation + warm-up, then hits.
        assert delivered[-1] == values[-1]
        assert predictor.confirmed > 0 and predictor.squashed == 0

    def test_zero_stride_degenerates_to_last_value(self):
        predictor = StridePredictor()
        delivered = drive(predictor, [7] * 8)
        assert delivered[-1] == 7

    def test_stride_change_resets(self):
        predictor = StridePredictor()
        drive(predictor, list(range(0, 48, 8)))
        delivered = drive(predictor, [100, 103, 106, 109, 112])
        assert delivered[0] == 48  # stale stride squashes once
        assert predictor.squashed == 1
        assert delivered[-1] == 112  # new stride re-earned confidence

    def test_collision_evicts(self):
        predictor = StridePredictor(entries=1)
        drive(predictor, list(range(0, 64, 8)), site="a#0")
        predictor.update("b#0", 1, None)
        assert drive(predictor, [64], site="a#0") == [None]


# ----------------------------------------------------------------------
class TestContext:
    def test_repeating_pattern_predicted(self):
        # Period-3 non-arithmetic sequence: a stride cannot lock on,
        # the 2-deep FCM can (each 2-history uniquely determines next).
        predictor = ContextPredictor()
        pattern = [7, 11, 13] * 8
        delivered = drive(predictor, pattern)
        assert delivered[-1] == pattern[-1]
        assert predictor.confirmed > 0

        stride = StridePredictor()
        stride_delivered = drive(stride, pattern)
        assert stride_delivered[-1] is None or stride.squashed > 0

    def test_history_warm_up(self):
        predictor = ContextPredictor(history=2)
        # With fewer than `history` values seen, no context exists.
        assert drive(predictor, [1, 2])[:2] == [None, None]

    def test_history_validation(self):
        with pytest.raises(ValueError):
            ContextPredictor(history=0)

    def test_level2_collision_evicts(self):
        predictor = ContextPredictor(entries=1)
        drive(predictor, [7, 11, 13] * 8, site="a#0")
        # Another site's contexts land in the same level-2 slot.
        drive(predictor, [2, 3, 5] * 4, site="b#0")
        before = predictor.squashed
        delivered = drive(predictor, [7, 11, 13] * 2, site="a#0")
        # The evicted contexts stop delivering (or squash on stale
        # data); either way nothing confirms from the clobbered table
        # until it retrains.
        assert delivered[0] is None or predictor.squashed > before


# ----------------------------------------------------------------------
class TestPerfect:
    def test_oracle_protocol(self):
        predictor = PerfectValuePredictor()
        assert predictor.perfect is True
        assert predictor.predict("a#0") is None  # needs the trace value
        predictor.update("a#0", 9, 9)
        assert predictor.predictions == 1
        assert predictor.confirmed == 1 and predictor.squashed == 0
        assert predictor.accuracy == 1.0


# ----------------------------------------------------------------------
class TestConfigValidation:
    @staticmethod
    def _config(**overrides):
        settings_ = dict(
            discipline=Discipline.DYNAMIC,
            issue_model=8,
            memory="A",
            branch_mode=BranchMode.SINGLE,
            window_blocks=256,
        )
        settings_.update(overrides)
        return MachineConfig(**settings_)

    def test_static_machine_rejects_value_prediction(self):
        with pytest.raises(ValueError):
            self._config(discipline=Discipline.STATIC, window_blocks=1,
                         value_predictor="last")

    def test_unknown_value_predictor_rejected(self):
        with pytest.raises(ValueError):
            self._config(value_predictor="oracle")

    @pytest.mark.parametrize("kind", VALUE_PREDICTOR_KINDS)
    def test_dynamic_machine_accepts_all_kinds(self, kind):
        assert self._config(value_predictor=kind).value_predictor == kind


# ----------------------------------------------------------------------
# Counter-protocol property: whatever the value stream, every delivered
# prediction settles exactly once and never outnumbers the lookups.
@given(values=st.lists(st.integers(min_value=-8, max_value=8),
                       min_size=1, max_size=80),
       kind=st.sampled_from(["last", "stride", "context"]))
@settings(max_examples=60, deadline=None)
def test_counter_protocol_holds_for_any_stream(values, kind):
    predictor = make_value_predictor(kind)
    drive(predictor, values)
    assert predictor.confirmed + predictor.squashed == predictor.predictions
    assert predictor.predictions <= predictor.lookups
    assert predictor.lookups == len(values)


# ----------------------------------------------------------------------
# Engine integration on hand-written assembly: a loop whose single
# static load walks an array, so each value-predictor kind sees the
# pattern its table is built for.
def _engine_result(asm, value_predictor="none", memory="C", **overrides):
    settings_ = dict(
        discipline=Discipline.DYNAMIC,
        issue_model=8,
        memory=memory,
        branch_mode=BranchMode.SINGLE,
        window_blocks=256,
        value_predictor=value_predictor,
    )
    settings_.update(overrides)
    config = MachineConfig(**settings_)
    program = parse_program(asm)
    outcome = run_program(program, inputs={0: b""})
    engine = DynamicEngine(build_templates(program), outcome.trace, config)
    return engine.run()


#: Store an arithmetic sequence, then loop-load it back: the loop's
#: load site sees values advancing by a constant stride of 8.
STRIDE_LOOP_ASM = """
.entry init
block init:
    mov r1, #8192
    mov r2, #0
    mov r3, #0
    jmp fill
block fill:
    mul r4, r2, #8
    mul r5, r2, #4
    add r6, r1, r5
    stw r4, [r6]
    add r2, r2, #1
    slt r7, r2, #24
    br r7, fill, loop !taken
block loop:
    mul r5, r3, #4
    add r6, r1, r5
    ldw r8, [r6]
    add r9, r9, r8
    add r3, r3, #1
    slt r7, r3, #24
    br r7, loop, done !taken
block done:
    sys exit(r9)
"""


#: Pointer chase: node i holds the address of node i+1, so the loads
#: form a serial 3-cycle-latency chain (memory C) that only value
#: prediction can break -- and the pointers advance by a constant 16,
#: exactly a stride predictor's pattern.
CHASE_ASM = """
.entry init
block init:
    mov r1, #8192
    mov r2, #0
    mov r7, #0
    jmp fill
block fill:
    mul r3, r2, #16
    add r4, r1, r3
    add r5, r4, #16
    stw r5, [r4]
    add r2, r2, #1
    slt r6, r2, #32
    br r6, fill, chase !taken
block chase:
    ldw r1, [r1]
    add r7, r7, #1
    slt r6, r7, #24
    br r6, chase, done !taken
block done:
    sys exit(r1)
"""


class TestEngineIntegration:
    @pytest.mark.parametrize("kind", VALUE_PREDICTOR_KINDS)
    def test_retired_work_is_invariant(self, kind):
        # Data speculation is a timing mechanism: the architectural
        # work retired must be byte-for-byte the baseline's.
        baseline = _engine_result(STRIDE_LOOP_ASM)
        result = _engine_result(STRIDE_LOOP_ASM, value_predictor=kind)
        assert result.retired_nodes == baseline.retired_nodes
        assert result.loads == baseline.loads
        assert result.stores == baseline.stores

    def test_stride_predictor_hides_load_latency(self):
        baseline = _engine_result(CHASE_ASM)
        stride = _engine_result(CHASE_ASM, value_predictor="stride")
        assert stride.value_predictions > 0
        assert stride.value_confirmed > 0
        assert stride.cycles < baseline.cycles

    def test_perfect_oracle_never_squashes(self):
        result = _engine_result(CHASE_ASM, value_predictor="perfect")
        assert result.value_squashed == 0
        assert result.value_predictions == result.value_confirmed > 0
        assert result.cycles <= _engine_result(
            CHASE_ASM, value_predictor="stride"
        ).cycles

    def test_counters_settle_exactly(self):
        for kind in ("last", "stride", "context"):
            result = _engine_result(STRIDE_LOOP_ASM, value_predictor=kind)
            assert (result.value_confirmed + result.value_squashed
                    == result.value_predictions)

    def test_none_records_nothing(self):
        result = _engine_result(STRIDE_LOOP_ASM)
        assert result.value_predictions == 0
        assert result.value_replays == 0


# ----------------------------------------------------------------------
# Chaotic speculation: a predictor that delivers hypothesis-chosen
# values at hypothesis-chosen moments.  However the squash/replay
# interleaving lands, the machine must retire exactly the baseline's
# architectural work -- data speculation may only ever cost or save
# cycles, never change semantics.
class ChaoticPredictor(ValuePredictor):
    kind = "chaos"

    def __init__(self, decisions):
        super().__init__()
        self._decisions = list(decisions)
        self._cursor = 0

    def predict(self, site):
        self.lookups += 1
        if not self._decisions:
            return None
        decision = self._decisions[self._cursor % len(self._decisions)]
        self._cursor += 1
        return decision  # None = hold back, else deliver this value

    def update(self, site, actual, predicted):
        self._settle(actual, predicted)


class TestChaoticInterleaving:
    @given(decisions=st.lists(
        st.one_of(st.none(), st.integers(min_value=-4, max_value=200)),
        min_size=1, max_size=32,
    ))
    @settings(max_examples=25, deadline=None)
    def test_any_interleaving_preserves_retired_work(self, decisions):
        # The engine's value stream builds the predictor.
        import repro.machine.streams as streams_module

        baseline = _engine_result(STRIDE_LOOP_ASM)
        original = streams_module.make_value_predictor
        streams_module.make_value_predictor = (
            lambda kind: ChaoticPredictor(decisions)
        )
        try:
            result = _engine_result(
                STRIDE_LOOP_ASM, value_predictor="last"
            )
        finally:
            streams_module.make_value_predictor = original
        assert result.retired_nodes == baseline.retired_nodes
        assert (result.value_confirmed + result.value_squashed
                == result.value_predictions)
        if result.value_replays:
            assert result.value_squashed > 0


# ----------------------------------------------------------------------
# Cross-backend equivalence on the spec grid: serial and --jobs sweeps
# must produce byte-identical result caches (the value-speculation
# fields ride the same canonical encode/decode as every other counter).
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the parent's module state",
)


@fork_only
class TestSpecGridBackendEquivalence:
    def test_spec_grid_cache_identical_serial_vs_jobs(self, tmp_path,
                                                      monkeypatch,
                                                      grep_prepared,
                                                      capsys):
        from repro.cli import main
        from repro.harness.artifacts import default_artifact_root

        monkeypatch.setenv(
            "REPRO_ARTIFACT_DIR",
            os.path.abspath(default_artifact_root()),
        )
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"

        monkeypatch.setenv("REPRO_CACHE_DIR", str(serial_dir))
        assert main(["sweep", "--grid", "spec", "--benchmarks", "grep",
                     "--limit", "6"]) == 0
        monkeypatch.setenv("REPRO_CACHE_DIR", str(parallel_dir))
        assert main(["sweep", "--grid", "spec", "--benchmarks", "grep",
                     "--limit", "6", "--jobs", "2"]) == 0
        capsys.readouterr()

        serial = json.loads((serial_dir / "results.json").read_text())
        parallel = json.loads((parallel_dir / "results.json").read_text())
        assert len(serial) == 6
        assert any("|v" in key for key in serial)  # spec points present
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )


# ----------------------------------------------------------------------
# Determinism: value-speculation and branch-mispredict counts must not
# depend on the interpreter's string-hash salt (crc32-keyed tables).
_SEED_PROBE = """
import json, sys
sys.path.insert(0, {src!r})
from repro.interp import run_program
from repro.machine import BranchMode, Discipline, MachineConfig, build_templates
from repro.machine.dynamic import DynamicEngine
from repro.program import parse_program

asm = {asm!r}
config = MachineConfig(
    discipline=Discipline.DYNAMIC, issue_model=8, memory="C",
    branch_mode=BranchMode.SINGLE, window_blocks=256,
    value_predictor="stride",
)
program = parse_program(asm)
outcome = run_program(program, inputs={{0: b""}})
result = DynamicEngine(build_templates(program), outcome.trace, config).run()
print(json.dumps([result.cycles, result.mispredicts,
                  result.value_predictions, result.value_confirmed,
                  result.value_squashed, result.value_replays]))
"""


class TestHashSeedDeterminism:
    def test_counts_identical_across_hash_seeds(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        script = _SEED_PROBE.format(src=os.path.abspath(src),
                                    asm=STRIDE_LOOP_ASM)
        outputs = []
        for seed in ("1", "42"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            )
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1]
        assert outputs[0][2] > 0  # the probe actually speculated
