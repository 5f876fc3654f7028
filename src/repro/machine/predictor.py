"""Branch prediction: 2-bit counters in a branch target buffer.

Matches the paper's run-time simulator: dynamic prediction with 2-bit
saturating counters, optionally supplemented by static (profile-derived)
hints used only when a branch is not present in the BTB; and a perfect
mode driven by the recorded trace.

The paper notes that "the 2-bit counter is a fairly simple scheme ... it
is possible that more sophisticated techniques could yield better
prediction"; :func:`make_predictor` provides the ablation family used by
``benchmarks/test_ablations.py``: 1-bit counters, static-only,
always-taken/not-taken, and a two-level gshare scheme.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional


def _label_hash(label: str) -> int:
    """Deterministic label hash for table indexing.

    Python's ``hash(str)`` is salted per process (PYTHONHASHSEED), which
    made BTB/table placement -- and therefore collision patterns and
    mispredict counts -- vary from run to run.  CRC32 is stable across
    processes, platforms and seeds, so simulations are reproducible and
    committed baselines can pin mispredict counts exactly.
    """
    return zlib.crc32(label.encode())

#: 2-bit counter states: 0,1 predict not-taken; 2,3 predict taken.
_STRONG_NOT = 0
_WEAK_NOT = 1
_WEAK_TAKEN = 2
_STRONG_TAKEN = 3


class BranchPredictor:
    """A tagged, direct-mapped BTB of 2-bit counters.

    Branches are identified by block label (our stand-in for the branch
    PC).  A label hashes to a BTB set; a colliding label evicts the
    previous occupant, modelling the paper's "as long as the information
    remains in the branch target buffer".
    """

    def __init__(self, entries: int = 512, use_static_hints: bool = True):
        if entries <= 0:
            raise ValueError("BTB must have at least one entry")
        self.entries = entries
        self.use_static_hints = use_static_hints
        self._tags: Dict[int, str] = {}
        self._counters: Dict[int, int] = {}
        self._slot_cache: Dict[str, int] = {}
        self.lookups = 0
        self.mispredicts = 0

    # ------------------------------------------------------------------
    def _slot(self, label: str) -> int:
        slot = self._slot_cache.get(label)
        if slot is None:
            slot = _label_hash(label) % self.entries
            self._slot_cache[label] = slot
        return slot

    def predict(self, label: str, static_hint: Optional[bool] = None) -> bool:
        """Predicted direction for the branch at ``label``."""
        self.lookups += 1
        slot = self._slot(label)
        if self._tags.get(slot) == label:
            return self._counters[slot] >= _WEAK_TAKEN
        if self.use_static_hints and static_hint is not None:
            return static_hint
        return False

    def peek(self, label: str, static_hint: Optional[bool] = None) -> bool:
        """Predict without counting the lookup (wrong-path fetch)."""
        slot = self._slot(label)
        if self._tags.get(slot) == label:
            return self._counters[slot] >= _WEAK_TAKEN
        if self.use_static_hints and static_hint is not None:
            return static_hint
        return False

    def update(self, label: str, taken: bool, predicted: bool) -> None:
        """Train the counter with the resolved outcome."""
        if taken != predicted:
            self.mispredicts += 1
        slot = self._slot(label)
        if self._tags.get(slot) != label:
            self._tags[slot] = label
            self._counters[slot] = _WEAK_TAKEN if taken else _WEAK_NOT
            return
        counter = self._counters[slot]
        if taken:
            if counter < _STRONG_TAKEN:
                self._counters[slot] = counter + 1
        else:
            if counter > _STRONG_NOT:
                self._counters[slot] = counter - 1

    @property
    def accuracy(self) -> float:
        """Fraction of lookups predicted correctly (1.0 when unused)."""
        if self.lookups == 0:
            return 1.0
        return 1.0 - self.mispredicts / self.lookups


class OneBitPredictor(BranchPredictor):
    """Last-outcome (1-bit) prediction in the same tagged BTB."""

    def update(self, label: str, taken: bool, predicted: bool) -> None:
        if taken != predicted:
            self.mispredicts += 1
        slot = self._slot(label)
        self._tags[slot] = label
        self._counters[slot] = _STRONG_TAKEN if taken else _STRONG_NOT


class StaticOnlyPredictor(BranchPredictor):
    """Profile hints only; no run-time adaptation."""

    def predict(self, label: str, static_hint: Optional[bool] = None) -> bool:
        self.lookups += 1
        return bool(static_hint) if static_hint is not None else False

    def peek(self, label: str, static_hint: Optional[bool] = None) -> bool:
        return bool(static_hint) if static_hint is not None else False

    def update(self, label: str, taken: bool, predicted: bool) -> None:
        if taken != predicted:
            self.mispredicts += 1


class FixedPredictor(BranchPredictor):
    """Always predicts one direction (taken or not-taken)."""

    def __init__(self, direction: bool):
        super().__init__(entries=1, use_static_hints=False)
        self.direction = direction

    def predict(self, label: str, static_hint: Optional[bool] = None) -> bool:
        self.lookups += 1
        return self.direction

    def peek(self, label: str, static_hint: Optional[bool] = None) -> bool:
        return self.direction

    def update(self, label: str, taken: bool, predicted: bool) -> None:
        if taken != predicted:
            self.mispredicts += 1


class GSharePredictor(BranchPredictor):
    """Two-level adaptive: global history XORed into a counter table.

    A post-1991 scheme included to quantify the paper's conjecture that
    better prediction would raise the realistic curves toward the perfect
    ones.
    """

    def __init__(self, entries: int = 4096, history_bits: int = 8,
                 use_static_hints: bool = True):
        super().__init__(entries=entries, use_static_hints=use_static_hints)
        self.history_bits = history_bits
        self._history = 0
        self._table: Dict[int, int] = {}
        self._hash_cache: Dict[str, int] = {}

    def _index(self, label: str) -> int:
        raw = self._hash_cache.get(label)
        if raw is None:
            raw = _label_hash(label)
            self._hash_cache[label] = raw
        return (raw ^ self._history) % self.entries

    def predict(self, label: str, static_hint: Optional[bool] = None) -> bool:
        self.lookups += 1
        return self.peek(label, static_hint)

    def peek(self, label: str, static_hint: Optional[bool] = None) -> bool:
        counter = self._table.get(self._index(label))
        if counter is None:
            if self.use_static_hints and static_hint is not None:
                return static_hint
            return False
        return counter >= _WEAK_TAKEN

    def update(self, label: str, taken: bool, predicted: bool) -> None:
        if taken != predicted:
            self.mispredicts += 1
        index = self._index(label)
        counter = self._table.get(index)
        if counter is None:
            counter = _WEAK_TAKEN if taken else _WEAK_NOT
        elif taken and counter < _STRONG_TAKEN:
            counter += 1
        elif not taken and counter > _STRONG_NOT:
            counter -= 1
        self._table[index] = counter
        mask = (1 << self.history_bits) - 1
        self._history = ((self._history << 1) | int(taken)) & mask


class PerceptronPredictor(BranchPredictor):
    """Perceptron branch prediction (Jimenez & Lin, HPCA 2001).

    Each branch hashes to a weight vector; the prediction is the sign of
    the dot product of the weights with the global history (plus a bias
    term).  Training bumps weights only on a mispredict or when the
    output magnitude is below the threshold ``theta``, the standard
    |history|-scaled cutoff.  Long-history correlation makes this the
    strongest realistic scheme in the family, used to quantify how far
    "more sophisticated techniques" (the paper's words) close the gap to
    perfect prediction.
    """

    def __init__(self, entries: int = 512, history_bits: int = 16,
                 use_static_hints: bool = True):
        super().__init__(entries=entries, use_static_hints=use_static_hints)
        self.history_bits = history_bits
        #: Jimenez & Lin's empirically best threshold: 1.93 * h + 14.
        self.theta = int(1.93 * history_bits + 14)
        self._limit = (1 << 7) - 1  # 8-bit signed weights
        #: global history as +/-1 values, most recent last.
        self._history: List[int] = [1] * history_bits
        #: slot -> [bias, w_1 .. w_h]
        self._weights: Dict[int, List[int]] = {}

    def _output(self, slot: int) -> int:
        weights = self._weights.get(slot)
        if weights is None:
            return 0  # an untrained row: every weight is still zero
        total = weights[0]
        history = self._history
        for i in range(self.history_bits):
            if history[i] > 0:
                total += weights[i + 1]
            else:
                total -= weights[i + 1]
        return total

    def predict(self, label: str, static_hint: Optional[bool] = None) -> bool:
        self.lookups += 1
        return self.peek(label, static_hint)

    def peek(self, label: str, static_hint: Optional[bool] = None) -> bool:
        # A peek reads only: a row is allocated by the first update, so
        # wrong-path fetch never changes what later predictions see.
        slot = self._slot(label)
        if slot not in self._weights and self.use_static_hints \
                and static_hint is not None:
            return static_hint
        return self._output(slot) >= 0

    def update(self, label: str, taken: bool, predicted: bool) -> None:
        if taken != predicted:
            self.mispredicts += 1
        slot = self._slot(label)
        output = self._output(slot)
        weights = self._weights.get(slot)
        if weights is None:
            weights = [0] * (self.history_bits + 1)
            self._weights[slot] = weights
        if taken != (output >= 0) or abs(output) <= self.theta:
            limit = self._limit
            sign = 1 if taken else -1
            w = weights[0] + sign
            weights[0] = max(-limit, min(limit, w))
            history = self._history
            for i in range(self.history_bits):
                w = weights[i + 1] + (sign if history[i] > 0 else -sign)
                weights[i + 1] = max(-limit, min(limit, w))
        history = self._history
        history.pop(0)
        history.append(1 if taken else -1)


#: Names accepted by MachineConfig.predictor.
PREDICTOR_KINDS = (
    "twobit",
    "onebit",
    "static",
    "taken",
    "nottaken",
    "gshare",
    "perceptron",
)


def make_predictor(kind: str, use_static_hints: bool) -> BranchPredictor:
    """Build a predictor by ablation name (default ``twobit``)."""
    if kind == "twobit":
        return BranchPredictor(use_static_hints=use_static_hints)
    if kind == "onebit":
        return OneBitPredictor(use_static_hints=use_static_hints)
    if kind == "static":
        return StaticOnlyPredictor(use_static_hints=True)
    if kind == "taken":
        return FixedPredictor(True)
    if kind == "nottaken":
        return FixedPredictor(False)
    if kind == "gshare":
        return GSharePredictor(use_static_hints=use_static_hints)
    if kind == "perceptron":
        return PerceptronPredictor(use_static_hints=use_static_hints)
    raise ValueError(f"unknown predictor kind {kind!r}")
