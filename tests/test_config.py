"""Machine configuration space tests."""

import argparse
import hashlib

import pytest

from repro.machine.config import (
    BranchMode,
    Discipline,
    FIGURE4_MEMORY_ORDER,
    GRIDS,
    ISSUE_MODELS,
    MEMORY_CONFIGS,
    MachineConfig,
    PAPER_ISSUE_MODELS,
    PAPER_MEMORIES,
    cache_configuration_space,
    full_configuration_space,
    grid_configs,
    sched_configuration_space,
    scheduling_disciplines,
    smoke_configuration_space,
    spec_configuration_space,
)


class TestIssueModels:
    def test_paper_table(self):
        shapes = {
            index: (ISSUE_MODELS[index].mem_slots, ISSUE_MODELS[index].alu_slots)
            for index in PAPER_ISSUE_MODELS
        }
        assert shapes == {
            1: (1, 1),
            2: (1, 1),
            3: (1, 2),
            4: (1, 3),
            5: (2, 4),
            6: (2, 6),
            7: (4, 8),
            8: (4, 12),
        }
        assert ISSUE_MODELS[1].sequential
        assert not ISSUE_MODELS[2].sequential

    def test_total_slots(self):
        assert ISSUE_MODELS[1].total_slots == 1
        assert ISSUE_MODELS[8].total_slots == 16

    def test_extension_models_present_but_not_in_paper_space(self):
        assert ISSUE_MODELS[9].total_slots == 32
        assert ISSUE_MODELS[10].total_slots == 64
        assert 9 not in PAPER_ISSUE_MODELS


class TestMemoryConfigs:
    def test_paper_table(self):
        assert MEMORY_CONFIGS["A"].hit_cycles == 1
        assert MEMORY_CONFIGS["A"].is_perfect
        assert MEMORY_CONFIGS["C"].hit_cycles == 3
        assert MEMORY_CONFIGS["D"].cache_bytes == 1024
        assert MEMORY_CONFIGS["E"].cache_bytes == 16 * 1024
        assert MEMORY_CONFIGS["F"].hit_cycles == 2
        for letter in "DEFG":
            assert MEMORY_CONFIGS[letter].miss_cycles == 10

    def test_figure4_order_covers_all_paper_memories(self):
        assert sorted(FIGURE4_MEMORY_ORDER) == sorted(PAPER_MEMORIES)

    def test_extension_memories_present_but_not_in_paper_space(self):
        assert MEMORY_CONFIGS["H"].cache_bytes == 4 * 1024
        assert MEMORY_CONFIGS["I"].cache_bytes == 64 * 1024
        for letter in "HI":
            assert MEMORY_CONFIGS[letter].hit_cycles == 1
            assert MEMORY_CONFIGS[letter].miss_cycles == 10
            assert letter not in PAPER_MEMORIES


class TestMachineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(Discipline.DYNAMIC, 11, "A", BranchMode.SINGLE)
        with pytest.raises(ValueError):
            MachineConfig(Discipline.DYNAMIC, 8, "Z", BranchMode.SINGLE)
        with pytest.raises(ValueError):
            MachineConfig(Discipline.DYNAMIC, 8, "A", BranchMode.SINGLE,
                          window_blocks=0)
        with pytest.raises(ValueError):
            MachineConfig(Discipline.STATIC, 8, "A", BranchMode.PERFECT)

    def test_discipline_keys(self):
        static = MachineConfig(Discipline.STATIC, 2, "A", BranchMode.SINGLE)
        assert static.discipline_key() == "static/single"
        dynamic = MachineConfig(
            Discipline.DYNAMIC, 2, "A", BranchMode.ENLARGED, window_blocks=256
        )
        assert dynamic.discipline_key() == "dyn256/enlarged"


class TestConfigurationSpace:
    def test_ten_discipline_lines(self):
        lines = scheduling_disciplines()
        assert len(lines) == 10
        perfect = [line for line in lines if line[2] is BranchMode.PERFECT]
        assert {window for _, window, _ in perfect} == {4, 256}

    def test_560_points(self):
        """The paper: '560 individual data points for each benchmark'."""
        points = list(full_configuration_space())
        assert len(points) == 560
        assert len({str(p) for p in points}) == 560

    def test_paper_space_excludes_extension_memories(self):
        assert {p.memory for p in full_configuration_space()} == set(PAPER_MEMORIES)

    def test_cache_space_default_ladder(self):
        points = list(cache_configuration_space())
        assert len(points) == 24
        assert {p.memory for p in points} == {"D", "H", "E", "I"}
        assert all(not p.memory_config.is_perfect for p in points)
        assert all(p.memory_config.hit_cycles == 1 for p in points)

    def test_cache_space_respects_workload_override(self):
        from repro.workloads import WORKLOADS

        for name, workload in WORKLOADS.items():
            letters = {p.memory for p in cache_configuration_space(name)}
            if workload.cache_memories:
                assert letters == set(workload.cache_memories)
            else:
                assert letters == {"D", "H", "E", "I"}
        # Unknown benchmarks fall back to the default ladder.
        assert {p.memory for p in cache_configuration_space("nosuch")} == \
            {"D", "H", "E", "I"}


def _digest(configs):
    names = [str(config) for config in configs]
    return len(names), hashlib.sha256("\n".join(names).encode()).hexdigest()


class TestGridTable:
    """Each grid's ordered points, pinned to the values recorded before
    the grids became one table (count, sha256 of the joined names)."""

    PINNED = {
        "full": (560, "5b2d16b5a67fb6a64c43a213a98ec9a4"
                      "4f4cf119e33ca89befdc5519c226fb2d"),
        "smoke": (40, "63b7a7d137622aa43da71f3345c24c9a"
                      "53d8b143fa14f966dda4b67a2cd72331"),
        "spec": (68, "7a3f38c8aa469950060b6401ecdc11b9"
                     "b075c68d5e0dc1b19a5e474c25f906cb"),
        "sched": (24, "765e6007f9c162a93cb7c753e743e16a"
                      "3744348646f4156398b911e3b53bc0b3"),
    }
    #: the cache grid on the default D/H/E/I ladder ...
    CACHE_DEFAULT = (24, "3dac39f95b994dd5ccf8fbcc0291ad53"
                         "da780895d6fe7cf438673e38675626aa")
    #: ... and on the workloads that choose their own.
    CACHE_PINNED = {
        "crc32": (18, "28d5205e0d65ec40339fb4746529907c"
                      "242513dd4a817879ec69c51e2ea11a38"),
    }

    def test_every_grid_is_pinned(self):
        assert set(GRIDS) == set(self.PINNED) | {"cache"}

    def test_shared_grids_keep_their_order(self):
        spaces = {
            "full": full_configuration_space,
            "smoke": smoke_configuration_space,
            "spec": spec_configuration_space,
            "sched": sched_configuration_space,
        }
        for grid, pinned in self.PINNED.items():
            assert _digest(grid_configs(grid)) == pinned, grid
            assert _digest(spaces[grid]()) == pinned, grid
            # A workload never changes a shared grid.
            assert _digest(grid_configs(grid, "crc32")) == pinned, grid

    def test_cache_grid_keeps_its_order_per_workload(self):
        from repro.workloads import WORKLOADS

        for name in sorted(WORKLOADS) + ["nosuch", None]:
            pinned = self.CACHE_PINNED.get(name, self.CACHE_DEFAULT)
            assert _digest(cache_configuration_space(name)) == pinned, name
            assert _digest(grid_configs("cache", name)) == pinned, name

    def test_grid_verbs_and_specs_accept_exactly_the_table(self):
        from repro.cli import _build_parser
        from repro.service.jobs import GridSpec, SpecError

        (verbs,) = [action for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
        for verb in ("sweep", "submit"):
            (grid,) = [action for action in verbs.choices[verb]._actions
                       if action.dest == "grid"]
            assert tuple(grid.choices) == tuple(GRIDS), verb
        for name in GRIDS:
            spec = GridSpec.from_dict({"benchmarks": ["grep"], "grid": name})
            assert spec.grid == name
        with pytest.raises(SpecError):
            GridSpec.from_dict({"benchmarks": ["grep"], "grid": "bogus"})
