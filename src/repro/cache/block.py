"""Cache block (line) bookkeeping.

A :class:`CacheBlock` is a tag-array entry. The simulator is
trace-driven, so blocks carry metadata only — no payload bytes. The
fields mirror the hardware state the paper manipulates:

``dirty``
    write-back dirty bit.
``loop_bit``
    the single extra bit per block that LAP adds in both L2 and L3
    (Section III-C of the paper) to mark blocks predicted to make
    clean trips between L2 and the LLC.
``state``
    MOESI coherence state for private-cache blocks; LLC blocks keep the
    default ``"-"`` (the LLC is not a coherence point in the snooping
    protocol we model).
``tech``
    which technology region of a hybrid LLC the block resides in
    (``"sram"`` or ``"stt"``); homogeneous caches use a single region.
"""

from __future__ import annotations

# MOESI coherence states used by private caches. The LLC does not track
# coherence state in the modelled snooping protocol.
STATE_INVALID = "I"
STATE_SHARED = "S"
STATE_EXCLUSIVE = "E"
STATE_OWNED = "O"
STATE_MODIFIED = "M"
STATE_NONE = "-"

VALID_STATES = frozenset(
    {STATE_INVALID, STATE_SHARED, STATE_EXCLUSIVE, STATE_OWNED, STATE_MODIFIED, STATE_NONE}
)


class CacheBlock:
    """One way of one cache set.

    A :class:`~repro.cache.cache.Cache` allocates all of its blocks at
    once, the first time something reads its ``sets`` (the generic
    access path, a probe, a test), and recycles them in place on
    insertion/invalidation, which keeps the simulator allocation-free on
    the hot path. A cache that only the batched kernel drives never
    builds them.
    """

    __slots__ = (
        "tag",
        "valid",
        "dirty",
        "loop_bit",
        "last_access",
        "insert_seq",
        "rrpv",
        "state",
        "tech",
        "way",
        "cset",
    )

    def __init__(self, way: int, tech: str = "sram") -> None:
        self.way = way
        self.tech = tech
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.loop_bit = False
        self.last_access = 0
        self.insert_seq = 0
        self.rrpv = 0
        self.state = STATE_NONE
        # Owning CacheSet; assigned once at set construction (blocks
        # never move between sets) so loop-bit writes can maintain the
        # set's incremental loop-block counter.
        self.cset = None

    def reset(self) -> None:
        """Invalidate the block, clearing all metadata except geometry."""
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.loop_bit = False
        self.last_access = 0
        self.insert_seq = 0
        self.rrpv = 0
        self.state = STATE_NONE

    def fill(self, tag: int, dirty: bool, loop_bit: bool, now: int) -> None:
        """Install a new line in this way."""
        self.tag = tag
        self.valid = True
        self.dirty = dirty
        self.loop_bit = loop_bit
        self.last_access = now
        self.insert_seq = now
        self.rrpv = 0
        self.state = STATE_NONE

    def set_loop_bit(self, value: bool) -> None:
        """Write the loop-bit, keeping the owning set's loop counter exact.

        Every loop-bit write outside :meth:`fill`/:meth:`reset` (which
        the set's install/drop paths account for) must go through here —
        the LLC's Fig. 16 occupancy metric reads the incrementally
        maintained per-set counters instead of scanning every way.
        """
        if self.valid and value != self.loop_bit:
            self.cset.loop_count += 1 if value else -1
        self.loop_bit = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            c
            for c, on in (
                ("V", self.valid),
                ("D", self.dirty),
                ("L", self.loop_bit),
            )
            if on
        )
        return (
            f"CacheBlock(way={self.way}, tag={self.tag:#x}, flags={flags or '-'}, "
            f"state={self.state}, tech={self.tech})"
        )
