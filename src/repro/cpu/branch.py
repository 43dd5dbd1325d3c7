"""Branch predictor warmth model.

The paper observes (Table 1) that branch misprediction rates in the TCP
fast path are low (< 2%) and essentially unaffected by affinity -- the
predictable loop structure of protocol processing trains any decent
predictor.  We therefore model prediction as a per-function *intrinsic*
mispredict rate plus a cold-start surcharge the first invocations on a
given CPU, rather than simulating individual branch histories.

Mispredict counts are made deterministic with per-function fractional
residue accumulation (no RNG): the running expected value is carried
and whole mispredictions are emitted as it crosses integers.
"""

from collections import OrderedDict

#: Extra mispredict probability while a function's patterns are cold.
COLD_RATE = 0.06
#: Invocations over which the cold surcharge decays to zero.
WARMUP_INVOCATIONS = 8


class BranchPredictor:
    """Per-CPU predictor state, keyed by function name."""

    __slots__ = ("_capacity", "_entries", "mispredicts", "cold_events")

    def __init__(self, capacity=512):
        self._capacity = capacity
        # fn name -> [invocations_seen, fractional_residual]
        self._entries = OrderedDict()
        self.mispredicts = 0
        self.cold_events = 0

    def predict(self, fn_name, branches, base_rate):
        """Account ``branches`` conditional branches of ``fn_name``.

        Returns the integer number of mispredictions to charge.
        """
        if branches <= 0:
            return 0
        entries = self._entries
        entry = entries.get(fn_name)
        if entry is None:
            entry = [0, 0.0]
            entries[fn_name] = entry
            if len(entries) > self._capacity:
                entries.popitem(last=False)
            self.cold_events += 1
        else:
            entries.move_to_end(fn_name)
        seen = entry[0]
        rate = base_rate
        if seen < WARMUP_INVOCATIONS:
            rate += COLD_RATE * (WARMUP_INVOCATIONS - seen) / WARMUP_INVOCATIONS
        entry[0] = seen + 1
        expected = entry[1] + branches * rate
        whole = int(expected)
        entry[1] = expected - whole
        if whole > branches:
            # A rate above 1.0 is a configuration bug upstream; clamp so
            # downstream ratios stay meaningful.
            whole = branches
        self.mispredicts += whole
        return whole
