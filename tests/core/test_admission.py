"""Unit tests for the admission-control pieces: the rejection's frame
header, the read-only function-name peek, and the priority-tiered gate."""

import struct

import pytest

from repro import frame
from repro.overload import AdmissionConfig, AdmissionGate, peek_fn_name


class FakeSim:
    now = 0.0


def strict_msg(name: str, mtype: int = 1, seqid: int = 7) -> bytes:
    """A strict Thrift binary message-begin + seqid (as TBinaryProtocol
    writes it)."""
    nb = name.encode("utf-8")
    return struct.pack("!I", 0x80010000 | mtype) + \
        struct.pack("!i", len(nb)) + nb + struct.pack("!i", seqid)


# -- the rejection on the wire (the format itself: tests/test_frame.py) ------

def test_rej_roundtrip():
    rej = frame.pack(retry_after=1.5e-3)
    assert len(rej) == 12
    header, rest = frame.split(rej + b"tail")
    assert header.retry_after == pytest.approx(1.5e-3)
    assert rest == b"tail"


def test_rej_clamps_negative_retry_after():
    header, _ = frame.split(frame.pack(retry_after=-1.0))
    assert header.retry_after == 0.0


def test_split_rej_passes_ordinary_responses_through():
    for data in (b"", b"\x00", strict_msg("Get"), b"\xc4H\x01"):
        header, rest = frame.split(data)
        assert header.retry_after is None
        assert rest == data             # byte-identical pass-through
    # A served pipelined reply has a header, but it is no rejection.
    header, rest = frame.split(frame.pack(seq=9) + strict_msg("Get"))
    assert header.retry_after is None and rest == strict_msg("Get")


def test_rej_magic_cannot_start_a_strict_thrift_message():
    # Strict message headers are 0x8001xxxx.
    assert strict_msg("AnyFn")[0] == 0x80
    assert frame.pack(retry_after=0.0)[0] == 0xC4


# -- function-name peek ------------------------------------------------------

def test_peek_fn_name_reads_strict_messages():
    assert peek_fn_name(strict_msg("Get")) == "Get"
    assert peek_fn_name(strict_msg("MultiPut", mtype=4)) == "MultiPut"


def test_peek_fn_name_rejects_malformed_input():
    assert peek_fn_name(b"") is None
    assert peek_fn_name(b"\x00" * 7) is None                 # short
    assert peek_fn_name(struct.pack("!i", 3) + b"Get\x00") is None  # non-strict
    msg = strict_msg("Get")
    assert peek_fn_name(msg[:9]) is None                     # truncated name
    huge = struct.pack("!I", 0x80010001) + struct.pack("!i", 100000)
    assert peek_fn_name(huge + b"x" * 16) is None            # absurd length
    bad_utf8 = struct.pack("!I", 0x80010001) + \
        struct.pack("!i", 2) + b"\xff\xfe" + struct.pack("!i", 0)
    assert peek_fn_name(bad_utf8) is None


# -- admission gate ----------------------------------------------------------

def gate(capacity=10, low=0.5, normal=0.8):
    return AdmissionGate(FakeSim(), AdmissionConfig(
        capacity=capacity, low_fraction=low, normal_fraction=normal))


def test_gate_admits_until_capacity_then_rejects():
    g = gate(capacity=4)
    for _ in range(4):
        assert g.admit("high") is None
    retry_after = g.admit("high")
    assert retry_after is not None and retry_after > 0
    assert g.admitted == 4 and g.rejected == 1
    assert g.high_water == 4


def test_shed_order_low_before_normal_before_high():
    g = gate(capacity=10, low=0.5, normal=0.8)
    for _ in range(5):
        assert g.admit("normal") is None
    # occupancy 5 = low threshold: low sheds, normal and high still admitted
    assert g.admit("low") is not None
    assert g.admit("normal") is None
    assert g.admit("normal") is None
    assert g.admit("normal") is None            # occupancy 8
    assert g.admit("normal") is not None        # normal sheds at 0.8
    assert g.admit("high") is None              # high rides to capacity...
    assert g.admit("high") is None              # occupancy 10 = full
    assert g.admit("high") is not None          # ... and only sheds full
    assert g.shed_by_priority == {"low": 1, "normal": 1, "high": 1}


def test_release_reopens_the_gate():
    g = gate(capacity=2)
    assert g.admit("high") is None
    assert g.admit("high") is None
    assert g.admit("high") is not None
    g.release()
    assert g.admit("high") is None
    assert g.inflight == 2
    # release never underflows
    for _ in range(5):
        g.release()
    assert g.inflight == 0


def test_retry_after_grows_with_occupancy():
    g = gate(capacity=10, low=0.1)
    assert g.admit("normal") is None
    shallow = g.admit("low")
    for _ in range(6):
        assert g.admit("normal") is None
    deep = g.admit("low")
    assert deep > shallow                       # advice scales with depth


def test_unknown_priority_treated_as_high_threshold():
    # Defensive: an unmapped priority string falls back to full capacity.
    g = gate(capacity=2)
    assert g.admit("??") is None
    assert g.admit("??") is None
    assert g.admit("??") is not None


def test_raising_high_water_hook_cannot_leak_an_admission_slot():
    # Regression: a high-water observer that raised used to escape
    # admit() with the slot already consumed and the occupancy gauge not
    # yet updated -- the caller never saw the admit, never released, and
    # the gate under-reported capacity forever after.  Hooks are now
    # contained (and counted); the slot stays owned by the caller.
    g = gate(capacity=4)

    def bad_hook(mark):
        raise RuntimeError("observer blew up")

    g.on_high_water.append(bad_hook)
    assert g.admit("normal") is None        # no exception escapes
    assert g.hook_errors == 1
    assert g.inflight == 1
    g.release()
    assert g.inflight == 0


@pytest.mark.filterwarnings("ignore::repro.obs.ObsInstallOrderWarning")
def test_occupancy_gauge_stays_synced_when_hook_raises():
    from repro import obs

    with obs.installed() as reg:
        g = gate(capacity=4)
        g.on_high_water.append(lambda mark: (_ for _ in ()).throw(
            RuntimeError("boom")))
        for expect in (1, 2, 3):
            assert g.admit("high") is None
            assert reg.gauge("admission.occupancy").value == expect
        g.release()
        assert reg.gauge("admission.occupancy").value == 2
        assert g.hook_errors == 3
