"""Thrift exception hierarchy (mirrors Apache Thrift's)."""

from __future__ import annotations

from repro.thrift.ttypes import TType

__all__ = [
    "MALFORMED",
    "TApplicationException",
    "TException",
    "TProtocolException",
    "TRejectedException",
    "TTransportException",
    "transport_exception_from_wc",
]


class TException(Exception):
    """Base class for all Thrift exceptions."""

    def __init__(self, message: str = ""):
        super().__init__(message)
        self.message = message


class TTransportException(TException):
    UNKNOWN = 0
    NOT_OPEN = 1
    ALREADY_OPEN = 2
    TIMED_OUT = 3
    END_OF_FILE = 4
    REJECTED = 5

    def __init__(self, type: int = UNKNOWN, message: str = ""):
        super().__init__(message)
        self.type = type


class TRejectedException(TTransportException):
    """Server admission control refused the request *before* dispatch.

    Distinct from TIMED_OUT in every way that matters to a caller: the
    server is alive, the request provably never executed (safe to re-send
    even when non-idempotent), and the server named the earliest useful
    retry time -- ``retry_after`` seconds of backoff.
    """

    def __init__(self, retry_after: float = 0.0, message: str = ""):
        super().__init__(
            self.REJECTED,
            message or f"server rejected under overload "
                       f"(retry after {retry_after * 1e6:.0f}us)")
        self.retry_after = retry_after


#: verbs WCStatus.value -> TTransportException type.  RNR exhaustion and
#: transport-retry exhaustion are *time* failures (the peer or link stopped
#: responding); a flushed WR means the QP was already dead (never open from
#: the transport's point of view); a local-length error truncates the stream.
_WC_TO_TTYPE = {
    "rnr_retry_exc": TTransportException.TIMED_OUT,
    "retry_exc": TTransportException.TIMED_OUT,
    "wr_flush_err": TTransportException.NOT_OPEN,
    "loc_len_err": TTransportException.END_OF_FILE,
}


def transport_exception_from_wc(status) -> TTransportException:
    """Map a verbs work-completion status onto the Thrift error taxonomy.

    Duck-typed on ``status.value`` so this module stays free of a verbs
    dependency (the thrift package must also run over plain TCP).
    """
    value = getattr(status, "value", str(status))
    ttype = _WC_TO_TTYPE.get(value, TTransportException.UNKNOWN)
    return TTransportException(ttype, f"work completion failed: {value}")


class TProtocolException(TException):
    UNKNOWN = 0
    INVALID_DATA = 1
    NEGATIVE_SIZE = 2
    SIZE_LIMIT = 3
    BAD_VERSION = 4

    def __init__(self, type: int = UNKNOWN, message: str = ""):
        super().__init__(message)
        self.type = type


#: What a request escaping the processor raises when its bytes are not a
#: message the processor can read: a bad header or size, a truncated value,
#: a name or string that is not UTF-8 (handler failures never escape: the
#: generated processor answers them).  Such a request cannot be answered,
#: so a server closes the connection it came on and keeps serving the rest,
#: as Apache Thrift's servers do.
MALFORMED = (TProtocolException, TTransportException, UnicodeDecodeError)


class TApplicationException(TException):
    """Server-side failure reported back to the caller."""

    UNKNOWN = 0
    UNKNOWN_METHOD = 1
    INVALID_MESSAGE_TYPE = 2
    WRONG_METHOD_NAME = 3
    BAD_SEQUENCE_ID = 4
    MISSING_RESULT = 5
    INTERNAL_ERROR = 6
    PROTOCOL_ERROR = 7

    def __init__(self, type: int = UNKNOWN, message: str = ""):
        super().__init__(message)
        self.type = type

    def read(self, iprot) -> None:
        from repro.thrift.protocol.binary import read_fields
        read_fields(iprot, self, _APP_EXC_SPEC)
        self.args = (self.message,)  # so str(exc) reflects the wire message

    def write(self, oprot) -> None:
        oprot.write_struct_begin("TApplicationException")
        oprot.write_field_begin("message", TType.STRING, 1)
        oprot.write_string(self.message or "")
        oprot.write_field_end()
        oprot.write_field_begin("type", TType.I32, 2)
        oprot.write_i32(self.type)
        oprot.write_field_end()
        oprot.write_field_stop()
        oprot.write_struct_end()


#: ``read_fields``'s table for TApplicationException: message, then type
_APP_EXC_SPEC = {(1, TType.STRING): ("message", "string"),
                 (2, TType.I32): ("type", "i32")}
