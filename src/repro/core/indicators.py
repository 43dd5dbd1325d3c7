"""Figure 5: performance impact indicators.

The paper's first-order method for deciding which events matter:
multiply each event's count by its expected penalty and express the
product as a share of total cycles.  It deliberately over-counts
(penalties overlap in an out-of-order pipeline; the machine-clear
count is noisy), which the paper acknowledges -- the point is the
*ranking*, which puts machine clears and LLC misses far above
everything else.  The final row uses the theoretical 3-wide retire to
lower-bound the share of useful instruction work.
"""

from repro.cpu.events import CYCLES, INSTRUCTIONS, event_index

#: Figure 5 rows, in the paper's order: (label, event name).
INDICATOR_EVENTS = (
    ("Machine clear", "machine_clears"),
    ("TC miss", "tc_misses"),
    ("L2 miss", "l2_hits"),
    ("LLC miss", "llc_misses"),
    ("ITLB miss", "itlb_walks"),
    ("DTLB miss", "dtlb_walks"),
    ("Br Mispredict", "br_mispredicts"),
)


def impact_indicators(result, costs):
    """Compute Figure 5's column for one run.

    Returns ``[(label, unit_cost, share_of_time), ...]`` plus the
    ``("Instr", 1/3, share)`` lower-bound row.
    """
    total_cycles = result.stack_total(CYCLES)
    if total_cycles <= 0:
        raise ValueError("run has no cycles to attribute")
    cost_table = costs.indicator_costs()
    rows = []
    for label, event_name in INDICATOR_EVENTS:
        unit = cost_table[event_name]
        count = result.stack_total(event_index(event_name))
        rows.append((label, unit, count * unit / float(total_cycles)))
    instructions = result.stack_total(INSTRUCTIONS)
    rows.append(
        ("Instr", 1.0 / costs.retire_width,
         instructions / costs.retire_width / float(total_cycles))
    )
    return rows


def dominant_events(rows, top=2):
    """Labels of the highest-impact events (excluding the Instr row)."""
    impact = sorted(
        (r for r in rows if r[0] != "Instr"),
        key=lambda r: -r[2],
    )
    return [r[0] for r in impact[:top]]


def indicator_assertions(rows):
    """The paper's Figure 5 claims, as ``{claim: bool}``.

    ``benchmarks/test_fig5_indicators.py`` asserts the dominance, TLB
    and branch claims for every corner."""
    by_label = {label: share for label, _, share in rows}
    dominant = dominant_events(rows)
    return {
        "machine clears and LLC misses dominate": (
            set(dominant) == {"Machine clear", "LLC miss"}
        ),
        "machine clears rank first": dominant[0] == "Machine clear",
        "TLB effects are negligible (<2%)": (
            by_label["ITLB miss"] < 0.02 and by_label["DTLB miss"] < 0.02
        ),
        "branch mispredicts are minor (<5%)": by_label["Br Mispredict"] < 0.05,
    }
