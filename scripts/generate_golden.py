#!/usr/bin/env python3
"""Regenerate tests/golden/golden_values.json.

tests/test_golden.py compares golden_values() with the committed file, so
drift in the code behind a frozen value fails the tests instead of passing
unnoticed until the next regeneration.

The frozen values are deterministic functions of the simulation (fixed
summation order, no RNG), so they are reproducible across platforms to well
below the absolute tolerance of 1e-12 that the test compares them with.
Regenerating the committed file today rewrites 9 of its values in their
last bits (e.g. finite_6bin_s 2.4226912022731977 -> 2.422691202273197),
all inside that tolerance; the file is left as it is until a code change
moves a value.
"""

import json
import math
from pathlib import Path

from freqbin import (ModulationSetting, chsh_finite, effective_drive, ideal_probabilities,
                     chsh_optimal_quad, parity_tables)

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden" / "golden_values.json"


def max_closed_form_deviation(bins, pairs):
    """Max |finite - closed-form| over the four table entries and the given setting pairs."""
    worst = 0.0
    for (setting_a, setting_b), table in zip(pairs, parity_tables(bins, pairs)):
        ideal = ideal_probabilities(effective_drive(setting_a, setting_b))
        worst = max(worst, max(abs(x - y) for x, y in zip(table.as_tuple(), ideal.as_tuple())))
    return worst


def golden_values() -> dict:
    """The frozen values, computed afresh from the current code."""
    quad = chsh_optimal_quad()
    report6 = chsh_finite(quad, range(1, 7))
    report41 = chsh_finite(quad, range(-20, 21))
    cancel_table, = parity_tables(range(-20, 21), [(ModulationSetting(0.6955, 0.0),
                                                    ModulationSetting(0.6955, math.pi))])
    # the default interference sweep: 25 steps of alpha over [0, 2 pi] against beta = 0
    sweep = [(ModulationSetting(0.6955, k * 2.0 * math.pi / 24), ModulationSetting(0.6955, 0.0))
             for k in range(25)]

    return {
        "finite_6bin_s": report6.s_value,
        "finite_6bin_correlators": list(report6.correlators),
        "finite_41bin_s": report41.s_value,
        "finite_41bin_max_prob_deviation": max_closed_form_deviation(range(-20, 21), quad.pairs()),
        "finite_41bin_cancellation_p_eo": cancel_table.p_eo,
        "pattern_6bin_max_gap": max_closed_form_deviation(range(1, 7), sweep),
    }


def main():
    golden = golden_values()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for key, value in sorted(golden.items()):
        print(f"{key}: {value!r}")


if __name__ == "__main__":
    main()
