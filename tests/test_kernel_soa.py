"""Unit tests for the kernel layer: backend resolution, the SoA store's
view protocol, vectorized queries, and the checkout/checkin contract."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.kernel import (
    ENV_VAR,
    TAG_BACKENDS,
    make_tag_store,
    numpy_available,
    resolve_backend,
)

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="soa backend requires numpy"
)


# ----------------------------------------------------------------------
# backend resolution
# ----------------------------------------------------------------------
def test_resolve_backend_explicit_and_default(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert resolve_backend("object") == "object"
    assert resolve_backend(None) == "object"


def test_resolve_backend_env_override(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "object")
    assert resolve_backend(None) == "object"
    # explicit argument beats the environment
    if numpy_available():
        assert resolve_backend("soa") == "soa"


def test_resolve_backend_rejects_unknown():
    with pytest.raises(ConfigurationError, match="unknown tag backend"):
        resolve_backend("columnar")


def test_make_tag_store_kinds():
    store = make_tag_store("object", 4, 2, ("sram", "sram"))
    assert store.kind == "object"
    assert store.supports_batch  # the kernel checks out from it directly
    assert len(store.sets) == 4
    if numpy_available():
        store = make_tag_store("soa", 4, 2, ("sram", "sram"))
        assert store.kind == "soa"
        assert store.supports_batch


def test_backends_tuple_is_the_contract():
    assert TAG_BACKENDS == ("object", "soa")


# ----------------------------------------------------------------------
# SoA block-view protocol
# ----------------------------------------------------------------------
@requires_numpy
def test_block_view_fields_round_trip():
    store = make_tag_store("soa", 2, 2, ("stt", "stt"))
    blk = store.sets[1].blocks[0]
    blk.tag = 0x2A
    blk.valid = True
    blk.dirty = True
    blk.last_access = 7
    blk.insert_seq = 7
    # plain Python scalars, backed by the matrices
    assert blk.tag == 0x2A and isinstance(blk.tag, int)
    assert blk.valid is True and blk.dirty is True
    assert int(store.tag[1, 0]) == 0x2A
    assert bool(store.valid[1, 0])
    blk.valid = False
    assert not bool(store.valid[1, 0])


@requires_numpy
def test_set_loop_bit_keeps_counter_exact():
    store = make_tag_store("soa", 1, 2, ("stt", "stt"))
    cset = store.sets[0]
    blk = cset.blocks[0]
    blk.valid = True
    assert cset.loop_count == 0
    blk.set_loop_bit(True)
    assert cset.loop_count == 1
    blk.set_loop_bit(True)  # idempotent
    assert cset.loop_count == 1
    blk.set_loop_bit(False)
    assert cset.loop_count == 0


# ----------------------------------------------------------------------
# vectorized queries
# ----------------------------------------------------------------------
@requires_numpy
def test_find_ways_matches_linear_search():
    import numpy as np

    store = make_tag_store("soa", 4, 2, ("stt", "stt"))
    store.tag[0] = (5, 9)
    store.valid[0] = (True, True)
    store.tag[2] = (5, -1)
    store.valid[2] = (True, False)
    ways = store.find_ways(np.array([0, 0, 2, 2, 3]), np.array([9, 7, 5, 9, 5]))
    # set 2 way 1 holds tag -1 invalid; set 3 is empty
    assert ways.tolist() == [1, -1, 0, -1, -1]


@requires_numpy
def test_lru_victims_prefers_invalid_then_oldest():
    import numpy as np

    store = make_tag_store("soa", 3, 2, ("stt", "stt"))
    # set 0: way 1 invalid -> first invalid wins
    store.valid[0] = (True, False)
    store.last_access[0] = (10, 99)
    # set 1: all valid -> oldest stamp
    store.valid[1] = (True, True)
    store.last_access[1] = (10, 3)
    # set 2: tie -> lowest way (first-win, matching LRUPolicy)
    store.valid[2] = (True, True)
    store.last_access[2] = (4, 4)
    assert store.lru_victims(np.array([0, 1, 2])).tolist() == [1, 1, 0]


@requires_numpy
def test_loop_block_occupancy_counts_valid_loop_blocks():
    store = make_tag_store("soa", 2, 2, ("stt", "stt"))
    store.valid[0] = (True, True)
    store.loop_bit[0] = (True, False)
    store.loop_bit[1] = (True, True)  # invalid: must not count
    assert store.loop_block_occupancy() == (2, 1)
    assert store.occupancy() == 2


# ----------------------------------------------------------------------
# checkout / checkin and the kernel's flat maps
# ----------------------------------------------------------------------
@requires_numpy
def test_checkout_checkin_round_trip():
    store = make_tag_store("soa", 2, 2, ("stt", "sram"))
    cset = store.sets[1]
    blk = cset.blocks[1]
    blk.tag = 3
    blk.valid = True
    blk.dirty = True
    blk.last_access = 5
    blk.insert_seq = 4
    cset.tag_map[3] = blk
    blk.set_loop_bit(True)

    state = store.checkout()
    assert state["tag"][3] == 3  # slot = set*assoc + way = 3
    assert state["maps"][1] == {3: 3}
    assert state["loop_counts"] == [0, 1]

    # mutate through the flat lists, as the batch kernel does
    state["dirty"][3] = False
    state["last"][3] = 9
    store.checkin(state)
    assert blk.dirty is False
    assert blk.last_access == 9
    assert cset.tag_map == {3: blk}
    assert cset.loop_count == 1


def test_flat_map_round_trip():
    from repro.kernel.batch import _blk_shadow, _flatten_maps, _unflatten_maps

    idx_bits, num_sets = 2, 4
    per_set = [{}, {5: 1}, {7: 2, 1: 3}, {}]
    flat = _flatten_maps(per_set, idx_bits)
    assert flat == {(5 << 2) | 1: 1, (7 << 2) | 2: 2, (1 << 2) | 2: 3}
    assert _unflatten_maps(flat, num_sets, num_sets - 1, idx_bits) == per_set
    shadow = _blk_shadow(flat, 8)
    for blk_no, slot in flat.items():
        assert shadow[slot] == blk_no


def test_kernel_mode_exact_policy_types():
    from repro.core.policies import make_policy
    from repro.kernel.batch import MODE_EX, MODE_LAP, MODE_NONI, kernel_mode

    assert kernel_mode(make_policy("non-inclusive")) == MODE_NONI
    assert kernel_mode(make_policy("exclusive")) == MODE_EX
    assert kernel_mode(make_policy("lap")) == MODE_LAP
    assert kernel_mode(make_policy("lap-lru")) == MODE_LAP
    # srrip baseline has no kernel flow; subclasses/others fall back
    assert kernel_mode(make_policy("lap-rrip")) is None
    assert kernel_mode(make_policy("inclusive")) is None
    assert kernel_mode(make_policy("flexclusion")) is None
    assert kernel_mode(make_policy("lhybrid")) is None
