"""The Push/Pull multiplexer (Section 2.2).

Before every slot the server tosses a coin weighted by ``PullBW``: heads
dedicates the slot to the request at the head of the backchannel queue,
tails continues the periodic program.  ``PullBW`` is only an *upper bound*
on pull bandwidth — when the queue is empty the slot reverts to the push
program, and when there is no push program an empty queue idles the slot.

The coin's uniforms are drawn from the MUX's own generator in blocks of
:data:`_COIN_BLOCK`; ``Generator.random(n)`` yields the same doubles as
``n`` scalar calls, so the decisions equal one scalar draw per coin toss.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PushPullMux"]

#: Uniforms drawn per block refill.
_COIN_BLOCK = 1 << 12


class PushPullMux:
    """Per-slot pull-vs-push decision."""

    def __init__(self, pull_bw: float, rng: np.random.Generator):
        if not 0.0 <= pull_bw <= 1.0:
            raise ValueError(f"pull_bw must be within [0, 1], got {pull_bw}")
        self.pull_bw = pull_bw
        self._rng = rng
        # One block, refilled in place (a fresh array per block would churn
        # the heap); it starts exhausted, so the first non-degenerate toss
        # draws the first block.
        self._coin_array = np.zeros(_COIN_BLOCK)
        self._coins = memoryview(self._coin_array)
        self._cursor = _COIN_BLOCK

    def wants_pull(self) -> bool:
        """Toss the PullBW coin for the next slot.

        The degenerate settings consume no uniform so Pure-Push (0.0) and
        Pure-Pull (1.0) stay deterministic and cheap, and a controller
        moving ``pull_bw`` across 0 or 1 resumes the same uniform sequence.
        """
        pull_bw = self.pull_bw
        if pull_bw <= 0.0:
            return False
        if pull_bw >= 1.0:
            return True
        cursor = self._cursor
        if cursor == _COIN_BLOCK:
            self._rng.random(out=self._coin_array)
            cursor = 0
        self._cursor = cursor + 1
        return self._coins[cursor] < pull_bw
