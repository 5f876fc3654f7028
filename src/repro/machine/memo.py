"""Per-point memo of block transfers, shared by both timing engines.

A loop-heavy trace drives a small-window machine through few distinct
block-boundary states.  Both engines therefore memoise one block
instance's *transfer* -- what it does to the machine -- keyed by the
instance's inputs (:class:`.streams.BlockInputs`), the machine state
relative to the cycle the block opens at (interned here as a small
id), and for the dynamic engine the relative times of the block's
memory words.  On a miss an engine runs its ordinary block code and
stores the record; on a hit it replays the record instead of running
the nodes.  This is the technique FastSim applied to out-of-order
simulators (Schnarr & Larus, ASPLOS 1998): it is exact, and the memo
lives and dies with one point.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List


class TransferMemo:
    """One point's transfer records and interned machine states.

    ``rows[input_id]`` maps a ``(state id, ...)`` key to a record: a
    list whose fields the engine chooses and whose last slot counts the
    hits that replayed it.  ``states[state_id]`` is the canonical state
    the engine rebuilds its registers (and window and slot tables) from
    before a miss.
    """

    __slots__ = ("rows", "states", "_state_ids", "_records")

    def __init__(self, inputs: int):
        self.rows: List[Dict[Hashable, List[Any]]] = [
            {} for _ in range(inputs)]
        self.states: List[Any] = []
        self._state_ids: Dict[Any, int] = {}
        self._records: List[List[Any]] = []

    def state_id(self, state: Hashable) -> int:
        """The interned id of one canonical machine state."""
        found = self._state_ids.get(state)
        if found is None:
            found = self._state_ids[state] = len(self.states)
            self.states.append(state)
        return found

    def store(self, input_id: int, key: Hashable, record: List[Any]) -> None:
        """Remember the transfer one miss computed."""
        record.append(0)
        self.rows[input_id][key] = record
        self._records.append(record)

    def replayed(self, first: int, count: int) -> List[int]:
        """Record fields ``first`` .. ``first + count - 1`` (counter
        deltas), each summed over every hit that replayed its record."""
        totals = [0] * count
        for record in self._records:
            hits = record[-1]
            if hits:
                for field in range(count):
                    totals[field] += hits * record[first + field]
        return totals
