"""Set-dueling controller (Qureshi et al., ISCA 2007).

Used twice in the reproduction, exactly as in the paper:

- LAP duels its loop-block-aware replacement policy against plain LRU
  (Section III-B: 1/64 of sets lead each policy, miss counters compared
  periodically, followers adopt the winner);
- the dynamic inclusion switchers (FLEXclusion, Dswitch) duel the
  non-inclusive mode against the exclusive mode, with policy-specific
  decision functions.

The controller is policy-agnostic: it assigns leader roles by set
index, accumulates per-leader miss/write counters, and applies an
injected comparison when the decision interval elapses.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..cache.stats import DuelingStats
from ..errors import ConfigurationError

ROLE_LEADER_A = 0
ROLE_LEADER_B = 1
ROLE_FOLLOWER = None

# winner_fn(miss_a, write_a, miss_b, write_b) -> 0 or 1
WinnerFn = Callable[[int, int, int, int], int]


def fewer_misses_wins(miss_a: int, write_a: int, miss_b: int, write_b: int) -> int:
    """The paper's LAP decision: the leader with fewer misses wins."""
    return ROLE_LEADER_A if miss_a <= miss_b else ROLE_LEADER_B


class SetDueling:
    """Leader-set sampling with periodic winner selection.

    Parameters
    ----------
    num_sets:
        Sets in the cache being sampled.
    period:
        One leader of each kind per ``period`` sets (paper: 64, i.e.
        1/64 of sets lead policy A and another 1/64 lead policy B).
    interval:
        Decision cadence in sampled-cache accesses — the scaled stand-in
        for the paper's "every 10M cycles".
    initial_winner:
        Which leader the followers start from.
    """

    def __init__(
        self,
        num_sets: int,
        period: int = 64,
        interval: int = 4096,
        winner_fn: WinnerFn = fewer_misses_wins,
        initial_winner: int = ROLE_LEADER_A,
    ) -> None:
        if num_sets < 1:
            raise ConfigurationError(f"set dueling needs >= 1 set, got {num_sets}")
        if interval <= 0:
            raise ConfigurationError(f"decision interval must be positive, got {interval}")
        # Shrink the period when the cache has too few sets for the
        # requested sampling density, keeping at least one leader each.
        # A single-set cache cannot duel at all: it degenerates to the
        # initial winner with every set a follower.
        self.period = min(period, num_sets)
        self.degenerate = self.period < 2
        self.num_sets = num_sets
        self.interval = interval
        self.winner_fn = winner_fn
        self.winner = initial_winner
        self.stats = DuelingStats()
        self._accesses = 0
        self._write_a = 0
        self._write_b = 0
        # Each set's role, computed once: a dueling policy on the generic
        # loop asks for it on every LLC access.
        leaders = {0: ROLE_LEADER_A, self.period // 2: ROLE_LEADER_B}
        self._roles = [
            ROLE_FOLLOWER if self.degenerate else leaders.get(s % self.period, ROLE_FOLLOWER)
            for s in range(num_sets)
        ]

    def role(self, set_index: int) -> Optional[int]:
        """Leader role of a set (A, B, or follower)."""
        return self._roles[set_index]

    def policy_for(self, set_index: int) -> int:
        """Which policy (A=0 / B=1) governs this set right now."""
        role = self._roles[set_index]
        return self.winner if role is ROLE_FOLLOWER else role

    def record_miss(self, set_index: int) -> None:
        """Account a miss in a leader set (followers are ignored)."""
        role = self._roles[set_index]
        if role is ROLE_LEADER_A:
            self.stats.leader_a_misses += 1
        elif role is ROLE_LEADER_B:
            self.stats.leader_b_misses += 1

    def record_write(self, set_index: int) -> None:
        """Account an LLC write in a leader set (Dswitch input)."""
        role = self._roles[set_index]
        if role is ROLE_LEADER_A:
            self._write_a += 1
        elif role is ROLE_LEADER_B:
            self._write_b += 1

    def tick(self) -> bool:
        """Advance the access counter; decide when the interval elapses.

        Returns True when a decision was (re)taken this tick.
        """
        if self.degenerate:
            return False
        self._accesses += 1
        if self._accesses < self.interval:
            return False
        self._accesses = 0
        self.winner = self.winner_fn(
            self.stats.leader_a_misses,
            self._write_a,
            self.stats.leader_b_misses,
            self._write_b,
        )
        if self.winner == ROLE_LEADER_A:
            self.stats.decisions_a += 1
        else:
            self.stats.decisions_b += 1
        self.stats.intervals += 1
        # Decay counters by half instead of resetting them: leader sets
        # are a 1/64 sample, so a scaled simulation sees only a handful
        # of leader events per interval and a hard reset makes decisions
        # noise-driven. The exponential moving sum keeps the decision
        # responsive to phase changes while averaging out sampling noise.
        self.stats.leader_a_misses //= 2
        self.stats.leader_b_misses //= 2
        self._write_a //= 2
        self._write_b //= 2
        return True
