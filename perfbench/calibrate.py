"""How fast the host runs Python right now, from a fixed piece of work.

The benchmark runs on a few virtual cores of a shared host.  When the host is
busy, every instruction of a pass takes longer, for spells of seconds to
minutes, so the same sweep can read 30 % slower from one run to the next.  The
calibration loop below does the same work on every call: naive square finding
in fixed pseudo-random words, the kind of slicing, comparing and hashing that
``circsq`` spends its time on.  It does not use ``circsq``, so a change to the
package never changes it.

``run.py`` times the loop right before and right after each pass and scales
the pass's times by ``REFERENCE_S / calibration seconds``: a time in
*reference seconds* is what the pass would take on a host that runs the loop in
``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.5
WORDS = 12000
LENGTH = 16


def _words(count: int, length: int) -> list[str]:
    """``count`` binary words from a fixed linear congruential generator."""
    x, out = 12345, []
    for _ in range(count):
        letters = []
        for _ in range(length):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            letters.append("ab"[(x >> 16) & 1])
        out.append("".join(letters))
    return out


def _distinct_square_total(words: list[str]) -> int:
    total = 0
    for w in words:
        n = len(w)
        ww = w + w
        seen = set()
        for i in range(n):
            for h in range(1, n // 2 + 1):
                if ww[i : i + h] == ww[i + h : i + 2 * h]:
                    seen.add(ww[i : i + 2 * h])
        total += len(seen)
    return total


class Calibration:
    """The calibration loop with its inputs built once, outside the clock."""

    def __init__(self) -> None:
        self.words = _words(WORDS, LENGTH)
        self.expected = _distinct_square_total(self.words)

    def seconds(self) -> float:
        """Wall seconds of one run of the loop."""
        t0 = time.perf_counter()
        total = _distinct_square_total(self.words)
        elapsed = time.perf_counter() - t0
        if total != self.expected:
            raise RuntimeError(f"calibration loop gave {total}, expected {self.expected}")
        return elapsed
