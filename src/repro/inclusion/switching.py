"""Dynamic inclusion-switching baselines: FLEXclusion and Dswitch.

Both policies dynamically select between the non-inclusive and the
exclusive data flow using set-dueling (leader sets permanently run one
mode each; follower sets adopt the current winner). The two modes are
the two classes' Fig. 8 rows, held in one table (:data:`MODE_FLOWS`)
that the generic flow (:meth:`SwitchingPolicy.flow_for`) and the
batched kernel both read. The policies differ only in the decision
function:

- **FLEXclusion** (Sim et al., ISCA 2012) is performance/bandwidth
  oriented: it picks exclusion when the sampled capacity benefit is
  real (exclusive leaders miss measurably less), and otherwise falls
  back to non-inclusion to save on-chip bandwidth. It is deliberately
  blind to write energy — the paper's point is that this SRAM-era
  objective misfires on asymmetric LLCs.
- **Dswitch** (Cheng et al., PSU CSE16-004) additionally weighs the
  write traffic each mode generates, approximating the energy cost of
  a mode as ``writes + miss_weight * misses`` and picking the cheaper
  mode.
"""

from __future__ import annotations

from functools import partial

from .base import InclusionPolicy, flow_flags
from .dueling import ROLE_LEADER_A, ROLE_LEADER_B, SetDueling, WinnerFn
from .traditional import ExclusivePolicy, NonInclusivePolicy

MODE_NONI = ROLE_LEADER_A  # leader-A sets run the non-inclusive flow
MODE_EX = ROLE_LEADER_B  # leader-B sets run the exclusive flow

#: each mode's Fig. 8 row ``(fill_on_miss, invalidate_on_hit, clean_writeback)``
MODE_FLOWS = {MODE_NONI: flow_flags(NonInclusivePolicy), MODE_EX: flow_flags(ExclusivePolicy)}


def flexclusion_winner(
    capacity_tolerance: float, miss_noni: int, write_noni: int, miss_ex: int, write_ex: int
) -> int:
    """FLEXclusion's duel decision (write-energy blind)."""
    # Exclusion wins only when its sampled miss count is genuinely
    # lower (capacity demand); ties favour non-inclusion, which
    # consumes less on-chip bandwidth (no clean-victim traffic).
    if miss_ex < miss_noni * capacity_tolerance:
        return MODE_EX
    return MODE_NONI


def dswitch_winner(
    miss_weight: float, miss_noni: int, write_noni: int, miss_ex: int, write_ex: int
) -> int:
    """Dswitch's duel decision: the mode with the lower estimated energy."""
    score_noni = write_noni + miss_weight * miss_noni
    score_ex = write_ex + miss_weight * miss_ex
    return MODE_NONI if score_noni <= score_ex else MODE_EX


class SwitchingPolicy(InclusionPolicy):
    """Shared machinery for noni↔ex set-dueling switchers."""

    name = "switching"

    def __init__(self, duel_period: int = 64, duel_interval: int = 4096) -> None:
        super().__init__()
        self._duel_period = duel_period
        self._duel_interval = duel_interval

    def bind(self, hierarchy) -> None:
        super().bind(hierarchy)
        self.dueling = SetDueling(
            num_sets=self.llc.num_sets,
            period=self._duel_period,
            interval=self._duel_interval,
            winner_fn=self.winner_fn(),
            initial_winner=MODE_NONI,
        )

    # decision function: overridden per policy -------------------------
    def winner_fn(self) -> WinnerFn:
        """The duel's decision, as a function that holds no policy."""
        raise NotImplementedError

    def mode_for(self, addr: int) -> int:
        """The inclusion mode governing the set that ``addr`` maps to."""
        return self.dueling.policy_for(self.llc.set_index(addr))

    def flow_for(self, addr: int):
        return MODE_FLOWS[self.mode_for(addr)]

    @property
    def current_mode(self) -> int:
        """The follower sets' current mode (for tests/introspection)."""
        return self.dueling.winner

    def _record_duel_miss(self, addr: int) -> None:
        self.dueling.record_miss(self.llc.set_index(addr))

    def _record_duel_write(self, addr: int) -> None:
        self.dueling.record_write(self.llc.set_index(addr))


class FLEXclusionPolicy(SwitchingPolicy):
    """Capacity/bandwidth-driven switching (write-energy blind)."""

    name = "flexclusion"

    def __init__(
        self,
        duel_period: int = 64,
        duel_interval: int = 4096,
        capacity_tolerance: float = 0.98,
    ) -> None:
        super().__init__(duel_period, duel_interval)
        self.capacity_tolerance = capacity_tolerance

    def winner_fn(self) -> WinnerFn:
        return partial(flexclusion_winner, self.capacity_tolerance)


class DswitchPolicy(SwitchingPolicy):
    """Write-aware switching: picks the mode with the lower estimated
    energy ``writes + miss_weight * misses`` (misses proxy both the
    data-fill energy a miss triggers elsewhere and the leakage cost of
    running longer)."""

    name = "dswitch"

    def __init__(
        self,
        duel_period: int = 64,
        duel_interval: int = 4096,
        miss_weight: float = 0.6,
    ) -> None:
        super().__init__(duel_period, duel_interval)
        self.miss_weight = miss_weight

    def winner_fn(self) -> WinnerFn:
        return partial(dswitch_winner, self.miss_weight)
