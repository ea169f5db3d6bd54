"""The TCP wire format: one fixed layout per storage op, one tagged
layout for everything else, and nothing that runs code on decode.

A frame is a 4-byte big-endian body length, then the body.  Every
integer inside the body is little-endian.

A **request** body is a header, then the op's arguments:

* header: op code (u8), envelope flags (u8), timeout (f64), then the
  envelope's ``kind`` and trace triple as length-prefixed strings when
  the flags say they are there;
* op code 0 is the *generic* form: the op's name, then its arguments as
  one tagged tuple (test handlers' ``ping``/``echo``, and any call whose
  arguments are not the shape of a registered op);
* a storage op (one of :attr:`StorageNode.OPERATIONS`) whose one
  argument is a frame carries an address count, then per address one
  packed record (stripe, index, generation, volume) and the op's own
  fixed argument layout;
* a directory op (``dir_*``) carries its arguments as tagged values.

An **answer** body is a status byte (0 ok, 1 error) and then either the
op's fixed answer layout (a storage op answers one item per address:
its result record, or an error) or one tagged value, or the error.

Block payloads are a u32 length (``0xFFFFFFFF`` for None) and raw
bytes; they decode as :func:`numpy.frombuffer` views over the frame's
receive buffer, which is writable and owned by nobody else.  Fields
typed ``object`` (directory keys, tags and values, error attributes)
use the tagged layout over a closed type set: None, bool, int, float,
str, bytes, tuple, list, dict, frozenset, 1-D uint8 ndarray, and the
registered records, enums and errors below.  Decoding never looks a
class up by name: a code indexes one of these tables, and a code, tag,
length or enum index outside them is a :class:`WireError`.  Encoding a
value outside the set is a :class:`TypeError` at the sender.  The
layout table is the spec; ``docs/PROTOCOL.md`` §10 spells it out.

A **WAL record** (what ``storage/wal.py`` frames on its media) is the
same codec: a head (stripe, index, epoch, volume name), then the
``get_state`` answer layout with its tid entries sorted.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Callable
from dataclasses import fields as dataclass_fields
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from repro import errors as _errors
from repro.erasure.matrix import SingularMatrixError
from repro.erasure.rs import DecodeError
from repro.gf.field import GFError
from repro.ids import BlockAddr, Tid
from repro.net.message import NO_ENVELOPE, Envelope
from repro.storage.state import (
    AddResult,
    AddStatus,
    BlockState,
    CheckTidStatus,
    FingerprintResult,
    LockMode,
    OpMode,
    ReadResult,
    StateSnapshot,
    SwapResult,
    TidEntry,
    TryLockResult,
)

#: A frame's body length, ahead of the body.
PREFIX = struct.Struct("!I")

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
#: op code, envelope flags, timeout
_HEAD = struct.Struct("<BBd")
#: stripe, index, has gen, gen, volume length (the volume follows)
_ADDR = struct.Struct("<qiBqH")
#: seq, index, client length (the client id follows)
_TID = struct.Struct("<qiH")
#: a TidEntry's seq_time and wall_time, after its tid
_STAMP = struct.Struct("<qd")
#: add: epoch, count of ``more`` pairs (-1: no ``more`` argument)
_ADD = struct.Struct("<qi")
#: swap answer: lmode, epoch (block and otid follow)
_SWAP = struct.Struct("<Bq")
_B2 = struct.Struct("<BB")
_B3 = struct.Struct("<BBB")
#: probe answer: opmode, lmode, has age, age, epoch
_PROBE = struct.Struct("<BBBdq")

_NO_BLOCK = 0xFFFFFFFF
_NO_STR = 0xFFFF
_KIND, _TRACE, _TIMEOUT, _PARENT = 1, 2, 4, 8
_OK, _ERR = 0, 1

_FRAME_PREFIX = bytes(PREFIX.size)

#: Builds a hot named tuple from its fields without the Python-level
#: ``__new__`` of its class (its layout already decoded each field).
_new = tuple.__new__


class WireError(ConnectionError):
    """A frame that does not decode.  The stream cannot be trusted past
    it, so a receiver drops the connection (a client reports the peer
    unavailable)."""


# -- scalar pieces ------------------------------------------------------


def _put_name(out: bytearray, text: str) -> None:
    raw = text.encode()
    out += _U16.pack(len(raw))
    out += raw


def _get_name(buf, pos: int) -> tuple[str, int]:
    (size,) = _U16.unpack_from(buf, pos)
    pos += 2
    end = pos + size
    return buf[pos:end].decode(), end


def _put_opt_name(out: bytearray, text: str | None) -> None:
    if text is None:
        out += _U16.pack(_NO_STR)
    else:
        _put_name(out, text)


def _get_opt_name(buf, pos: int) -> tuple[str | None, int]:
    (size,) = _U16.unpack_from(buf, pos)
    pos += 2
    if size == _NO_STR:
        return None, pos
    end = pos + size
    return buf[pos:end].decode(), end


def _get_flag(buf, pos: int) -> bool:
    flag = buf[pos]
    if flag > 1:
        raise WireError(f"flag byte {flag} at {pos}")
    return flag == 1


def _put_block(out: bytearray, block) -> None:
    if block is None:
        out += _U32.pack(_NO_BLOCK)
        return
    if type(block) is not np.ndarray or block.dtype != np.uint8 or block.ndim != 1:
        raise TypeError(f"a block is a 1-D uint8 ndarray, not {block!r:.60}")
    out += _U32.pack(block.size)
    out += block.data if block.flags.c_contiguous else block.tobytes()


def _get_block(buf, pos: int):
    (size,) = _U32.unpack_from(buf, pos)
    pos += 4
    if size == _NO_BLOCK:
        return None, pos
    # frombuffer refuses (ValueError) a count that overruns the frame.
    return np.frombuffer(buf, np.uint8, size, pos), pos + size


def _put_tid(out: bytearray, tid: Tid) -> None:
    client = tid.client.encode()
    out += _TID.pack(tid.seq, tid.index, len(client))
    out += client


def _get_tid(buf, pos: int) -> tuple[Tid, int]:
    seq, index, size = _TID.unpack_from(buf, pos)
    pos += _TID.size
    end = pos + size
    return _new(Tid, (seq, index, buf[pos:end].decode())), end


def _put_opt_tid(out: bytearray, tid: Tid | None) -> None:
    if tid is None:
        out += b"\x00"
    else:
        out += b"\x01"
        _put_tid(out, tid)


def _get_opt_tid(buf, pos: int) -> tuple[Tid | None, int]:
    if _get_flag(buf, pos):
        return _get_tid(buf, pos + 1)
    return None, pos + 1


def _put_tids(out: bytearray, tids) -> None:
    out += _U32.pack(len(tids))
    for tid in tids:
        _put_tid(out, tid)


def _get_tids(buf, pos: int) -> tuple[frozenset[Tid], int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    found = []
    for _ in range(count):
        tid, pos = _get_tid(buf, pos)
        found.append(tid)
    return frozenset(found), pos


def _put_entries(out: bytearray, entries) -> None:
    out += _U32.pack(len(entries))
    for entry in entries:
        _put_tid(out, entry.tid)
        out += _STAMP.pack(entry.seq_time, entry.wall_time)


def _get_entries(buf, pos: int) -> tuple[frozenset[TidEntry], int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    found = []
    for _ in range(count):
        tid, pos = _get_tid(buf, pos)
        found.append(_new(TidEntry, (tid, *_STAMP.unpack_from(buf, pos))))
        pos += _STAMP.size
    return frozenset(found), pos


def _put_positions(out: bytearray, positions) -> None:
    out += _U32.pack(len(positions))
    out += struct.pack(f"<{len(positions)}i", *sorted(positions))


def _get_positions(buf, pos: int) -> tuple[frozenset[int], int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    if count * 4 > len(buf) - pos:
        raise WireError(f"{count} positions overrun the frame")
    found = frozenset(struct.unpack_from(f"<{count}i", buf, pos))
    return found, pos + count * 4


class _Enum:
    """One registered enum: members sent as their index.  ``index`` is
    the member tuple's own (an identity scan in C; a dict lookup would
    run the enum's Python-level ``__hash__``)."""

    def __init__(self, cls):
        self.members = tuple(cls)
        self.index = self.members.index


_OPMODE = _Enum(OpMode)
_LOCK = _Enum(LockMode)
_ADD_STATUS = _Enum(AddStatus)
_CHECKTID = _Enum(CheckTidStatus)
_LOCK_INDEX = _LOCK.index
_LOCK_MEMBERS = _LOCK.members


# -- the storage ops' fixed layouts: (request args, answer record) -------


def _put_nothing(out: bytearray, args: tuple) -> None:
    if args != ():
        raise TypeError(f"op takes no arguments, got {len(args)}")


def _get_nothing(buf, pos: int) -> tuple[tuple, int]:
    return (), pos


def _put_none(out: bytearray, result) -> None:
    if result is not None:
        raise TypeError(f"op answers None, not {result!r:.60}")


def _get_none(buf, pos: int) -> tuple[None, int]:
    return None, pos


def _put_swap_args(out, args):
    v, ntid = args
    _put_block(out, v)
    _put_tid(out, ntid)


def _get_swap_args(buf, pos):
    v, pos = _get_block(buf, pos)
    ntid, pos = _get_tid(buf, pos)
    return (v, ntid), pos


def _put_add_args(out, args):
    v, ntid, otid, e, *rest = args
    if len(rest) > 1:
        raise TypeError(f"add takes at most 5 arguments, got {len(args)}")
    _put_block(out, v)
    _put_tid(out, ntid)
    _put_opt_tid(out, otid)
    more = rest[0] if rest else ()
    out += _ADD.pack(e, len(more) if rest else -1)
    for n, o in more:
        _put_tid(out, n)
        _put_opt_tid(out, o)


def _get_add_args(buf, pos):
    v, pos = _get_block(buf, pos)
    ntid, pos = _get_tid(buf, pos)
    otid, pos = _get_opt_tid(buf, pos)
    e, count = _ADD.unpack_from(buf, pos)
    pos += _ADD.size
    if count < 0:
        if count != -1:
            raise WireError(f"add's more count {count}")
        return (v, ntid, otid, e), pos
    more = []
    for _ in range(count):
        n, pos = _get_tid(buf, pos)
        o, pos = _get_opt_tid(buf, pos)
        more.append((n, o))
    return (v, ntid, otid, e, tuple(more)), pos


def _put_checktid_args(out, args):
    ntid, otid = args
    _put_tid(out, ntid)
    _put_opt_tid(out, otid)


def _get_checktid_args(buf, pos):
    ntid, pos = _get_tid(buf, pos)
    otid, pos = _get_opt_tid(buf, pos)
    return (ntid, otid), pos


def _put_lock_args(out, args):
    lm, caller = args
    out += _U8.pack(_LOCK_INDEX(lm))
    _put_name(out, caller)


def _get_lock_args(buf, pos):
    lm = _LOCK_MEMBERS[buf[pos]]
    caller, pos = _get_name(buf, pos + 1)
    return (lm, caller), pos


def _put_reconstruct_args(out, args):
    cset, blk = args
    _put_positions(out, cset)
    _put_block(out, blk)


def _get_reconstruct_args(buf, pos):
    cset, pos = _get_positions(buf, pos)
    blk, pos = _get_block(buf, pos)
    return (cset, blk), pos


def _put_int_args(out, args):
    (value,) = args
    out += _I64.pack(value)


def _get_int_args(buf, pos):
    return _I64.unpack_from(buf, pos), pos + 8


def _put_gc_args(out, args):
    (tid_list,) = args
    _put_tids(out, tid_list)


def _get_gc_args(buf, pos):
    tid_list, pos = _get_tids(buf, pos)
    return (tid_list,), pos


def _put_read(out, r):
    if type(r) is not ReadResult:
        raise TypeError(f"read answers a ReadResult, not {r!r:.60}")
    out += _U8.pack(_LOCK_INDEX(r.lmode))
    _put_block(out, r.block)


def _get_read(buf, pos):
    lmode = _LOCK_MEMBERS[buf[pos]]
    block, pos = _get_block(buf, pos + 1)
    return _new(ReadResult, (block, lmode)), pos


def _put_swap(out, r):
    if type(r) is not SwapResult:
        raise TypeError(f"swap answers a SwapResult, not {r!r:.60}")
    out += _SWAP.pack(_LOCK_INDEX(r.lmode), r.epoch)
    _put_block(out, r.block)
    _put_opt_tid(out, r.otid)


def _get_swap(buf, pos):
    lmode, epoch = _SWAP.unpack_from(buf, pos)
    block, pos = _get_block(buf, pos + _SWAP.size)
    otid, pos = _get_opt_tid(buf, pos)
    return _new(SwapResult, (block, epoch, otid, _LOCK_MEMBERS[lmode])), pos


def _put_add(out, r):
    if type(r) is not AddResult:
        raise TypeError(f"add answers an AddResult, not {r!r:.60}")
    out += _B3.pack(
        _ADD_STATUS.index(r.status), _OPMODE.index(r.opmode),
        _LOCK_INDEX(r.lmode),
    )


def _get_add(buf, pos):
    status, opmode, lmode = _B3.unpack_from(buf, pos)
    return _new(AddResult, (
        _ADD_STATUS.members[status], _OPMODE.members[opmode],
        _LOCK_MEMBERS[lmode],
    )), pos + 3


def _put_checktid(out, r):
    out += _U8.pack(_CHECKTID.index(r))


def _get_checktid(buf, pos):
    return _CHECKTID.members[buf[pos]], pos + 1


def _put_trylock(out, r):
    if type(r) is not TryLockResult or type(r.ok) is not bool:
        raise TypeError(f"trylock answers a TryLockResult, not {r!r:.60}")
    out += _B2.pack(r.ok, _LOCK_INDEX(r.oldlmode))


def _get_trylock(buf, pos):
    ok = _get_flag(buf, pos)
    return TryLockResult(ok, _LOCK_MEMBERS[buf[pos + 1]]), pos + 2


def _put_state(out, r):
    if type(r) is not StateSnapshot:
        raise TypeError(f"get_state answers a StateSnapshot, not {r!r:.60}")
    out += _U8.pack(_OPMODE.index(r.opmode))
    if r.recons_set is None:
        out += b"\x00"
    else:
        out += b"\x01"
        _put_positions(out, r.recons_set)
    _put_entries(out, r.oldlist)
    _put_entries(out, r.recentlist)
    _put_block(out, r.block)
    _put_opt_name(out, r.fingerprint)


def _get_state(buf, pos):
    opmode = _OPMODE.members[buf[pos]]
    recons_set = None
    if _get_flag(buf, pos + 1):
        recons_set, pos = _get_positions(buf, pos + 2)
    else:
        pos += 2
    oldlist, pos = _get_entries(buf, pos)
    recentlist, pos = _get_entries(buf, pos)
    block, pos = _get_block(buf, pos)
    fingerprint, pos = _get_opt_name(buf, pos)
    return StateSnapshot(
        opmode, recons_set, oldlist, recentlist, block, fingerprint
    ), pos


def _put_recent(out, r):
    if type(r) is not frozenset:
        raise TypeError(f"getrecent answers a frozenset, not {r!r:.60}")
    _put_entries(out, r)


def _put_int(out, r):
    if type(r) is not int:
        raise TypeError(f"op answers an int, not {r!r:.60}")
    out += _I64.pack(r)


def _get_int(buf, pos):
    return _I64.unpack_from(buf, pos)[0], pos + 8


def _put_bool(out, r):
    if type(r) is not bool:
        raise TypeError(f"op answers a bool, not {r!r:.60}")
    out += b"\x01" if r else b"\x00"


def _get_bool(buf, pos):
    return _get_flag(buf, pos), pos + 1


def _put_probe(out, r):
    opmode, lmode, age, epoch = r
    out += _PROBE.pack(
        _OPMODE.index(opmode), _LOCK_INDEX(lmode), age is not None,
        0.0 if age is None else age, epoch,
    )


def _get_probe(buf, pos):
    opmode, lmode, has_age, age, epoch = _PROBE.unpack_from(buf, pos)
    if has_age > 1:
        raise WireError(f"probe age flag {has_age}")
    return (
        _OPMODE.members[opmode], _LOCK_MEMBERS[lmode],
        age if has_age else None, epoch,
    ), pos + _PROBE.size


def _put_fingerprint(out, r):
    if type(r) is not FingerprintResult or type(r.pending) is not bool:
        raise TypeError(f"fingerprint answers a FingerprintResult, not {r!r:.60}")
    out += _B2.pack(_OPMODE.index(r.opmode), r.pending)
    _put_opt_name(out, r.stored)
    _put_name(out, r.live)


def _get_fingerprint(buf, pos):
    opmode = _OPMODE.members[buf[pos]]
    pending = _get_flag(buf, pos + 1)
    stored, pos = _get_opt_name(buf, pos + 2)
    live, pos = _get_name(buf, pos)
    return FingerprintResult(stored, live, opmode, pending), pos


_NO_ARGS = (_put_nothing, _get_nothing)
_LOCK_ARGS = (_put_lock_args, _get_lock_args)
_INT_ARGS = (_put_int_args, _get_int_args)
_GC_ARGS = (_put_gc_args, _get_gc_args)
_NONE = (_put_none, _get_none)

#: Storage op -> ((put args, get args), (put answer, get answer)).
FRAME_LAYOUTS = {
    "read": (_NO_ARGS, (_put_read, _get_read)),
    "swap": ((_put_swap_args, _get_swap_args), (_put_swap, _get_swap)),
    "add": ((_put_add_args, _get_add_args), (_put_add, _get_add)),
    "checktid": (
        (_put_checktid_args, _get_checktid_args), (_put_checktid, _get_checktid)
    ),
    "trylock": (_LOCK_ARGS, (_put_trylock, _get_trylock)),
    "setlock": (_LOCK_ARGS, _NONE),
    "get_state": (_NO_ARGS, (_put_state, _get_state)),
    "getrecent": (_LOCK_ARGS, (_put_recent, _get_entries)),
    "reconstruct": (
        (_put_reconstruct_args, _get_reconstruct_args), (_put_int, _get_int)
    ),
    "finalize": (_INT_ARGS, _NONE),
    "gc_old": (_GC_ARGS, (_put_bool, _get_bool)),
    "gc_recent": (_GC_ARGS, (_put_bool, _get_bool)),
    "probe": (_NO_ARGS, (_put_probe, _get_probe)),
    "set_generation": (_INT_ARGS, _NONE),
    "retire": (_INT_ARGS, _NONE),
    "fingerprint": (_NO_ARGS, (_put_fingerprint, _get_fingerprint)),
}


# -- the tagged layout ---------------------------------------------------

#: Registered enums, by code.
ENUMS = (OpMode, LockMode, AddStatus, CheckTidStatus)
_ENUM_CODES = {cls: (code, _Enum(cls)) for code, cls in enumerate(ENUMS)}
_ENUM_TABLES = tuple(_ENUM_CODES[cls][1] for cls in ENUMS)


class Registry(NamedTuple):
    """The tagged layout's records and errors, each indexed by its code.

    Records are named tuples and frozen dataclasses sent as their fields
    in declaration order.  Errors are sent as their ``args`` and
    attributes and rebuilt without running ``__init__``."""

    records: tuple[type, ...]
    errors: tuple[type, ...]
    record_codes: dict[type, int]
    record_fields: tuple[tuple[int, Callable], ...]
    error_codes: dict[type, int]


@functools.cache
def registry() -> Registry:
    """Built on first use: three of its classes live in packages that
    import the transport."""
    from repro.baselines.fab import ConcurrentWriteError
    from repro.directory.local import UnknownSlotError
    from repro.directory.replica import SlotBinding

    records = (
        Tid, BlockAddr, TidEntry, ReadResult, SwapResult, AddResult,
        TryLockResult, StateSnapshot, FingerprintResult, Envelope,
        SlotBinding,
    )
    errors = (
        Exception, ValueError, TypeError, KeyError, IndexError,
        RuntimeError, AssertionError, AttributeError, NotImplementedError,
        ZeroDivisionError, _errors.ReproError, _errors.NodeUnavailableError,
        _errors.PartitionedError, _errors.RpcTimeoutError,
        _errors.NodeBusyError, _errors.StalePlacementError,
        _errors.IntegrityError, _errors.CorruptionDetected,
        _errors.CircuitOpenError, _errors.UnknownNodeError,
        _errors.UnknownOperationError, _errors.RecoveryFailedError,
        _errors.DataLossError, _errors.ClientCrash,
        _errors.DirectoryUnavailableError, _errors.WriteAbortedError,
        _errors.ReadFailedError, UnknownSlotError, ConcurrentWriteError,
        DecodeError, GFError, SingularMatrixError,
    )
    fields = []
    for cls in records:
        names = (
            cls._fields if issubclass(cls, tuple)
            else tuple(f.name for f in dataclass_fields(cls))
        )
        fields.append((len(names), attrgetter(*names)))
    return Registry(
        records, errors, {cls: code for code, cls in enumerate(records)},
        tuple(fields), {cls: code for code, cls in enumerate(errors)},
    )


(T_NONE, T_FALSE, T_TRUE, T_INT, T_BIGINT, T_FLOAT, T_STR, T_BYTES,
 T_TUPLE, T_LIST, T_DICT, T_FROZENSET, T_ARRAY, T_RECORD, T_ENUM,
 T_ERROR) = range(16)

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def _put_int_value(out, v):
    if _I64_MIN <= v <= _I64_MAX:
        out += _U8.pack(T_INT)
        out += _I64.pack(v)
    else:
        raw = v.to_bytes((v.bit_length() + 8) // 8, "little", signed=True)
        out += _U8.pack(T_BIGINT)
        out += _U32.pack(len(raw))
        out += raw


def _put_str_value(out, v):
    raw = v.encode()
    out += _U8.pack(T_STR)
    out += _U32.pack(len(raw))
    out += raw


def _put_bytes_value(out, v):
    out += _U8.pack(T_BYTES)
    out += _U32.pack(len(v))
    out += v


def _put_items(tag):
    def put(out, v):
        out += _U8.pack(tag)
        out += _U32.pack(len(v))
        for item in v:
            _put_value(out, item)

    return put


def _put_frozenset_value(out, v):
    # Sorted by encoding, so equal sets encode to equal bytes.
    parts = []
    for item in v:
        part = bytearray()
        _put_value(part, item)
        parts.append(bytes(part))
    out += _U8.pack(T_FROZENSET)
    out += _U32.pack(len(parts))
    for part in sorted(parts):
        out += part


def _put_dict_value(out, v):
    out += _U8.pack(T_DICT)
    out += _U32.pack(len(v))
    for key, item in v.items():
        _put_value(out, key)
        _put_value(out, item)


def _put_array_value(out, v):
    if v.dtype != np.uint8 or v.ndim != 1:
        raise TypeError(f"only 1-D uint8 arrays cross the wire, not {v.dtype}{v.shape}")
    out += _U8.pack(T_ARRAY)
    out += _U32.pack(v.size)
    out += v.data if v.flags.c_contiguous else v.tobytes()


_PUT_BY_TYPE = {
    type(None): lambda out, v: out.extend(_U8.pack(T_NONE)),
    bool: lambda out, v: out.extend(_U8.pack(T_TRUE if v else T_FALSE)),
    int: _put_int_value,
    float: lambda out, v: out.extend(_U8.pack(T_FLOAT) + _F64.pack(v)),
    str: _put_str_value,
    bytes: _put_bytes_value,
    tuple: _put_items(T_TUPLE),
    list: _put_items(T_LIST),
    dict: _put_dict_value,
    frozenset: _put_frozenset_value,
    np.ndarray: _put_array_value,
}


def _put_value(out: bytearray, v: object) -> None:
    """Append ``v`` in the tagged layout; TypeError outside the set."""
    cls = type(v)
    put = _PUT_BY_TYPE.get(cls)
    if put is not None:
        put(out, v)
        return
    tables = registry()
    code = tables.record_codes.get(cls)
    if code is not None:
        count, getter = tables.record_fields[code]
        out += _B2.pack(T_RECORD, code)
        for item in getter(v):
            _put_value(out, item)
        return
    entry = _ENUM_CODES.get(cls)
    if entry is not None:
        code, table = entry
        out += _B3.pack(T_ENUM, code, table.index(v))
        return
    if cls in tables.error_codes:
        _put_error(out, v)
        return
    raise TypeError(f"{cls.__qualname__} is not a wire type: {v!r:.60}")


def _put_error(out: bytearray, exc: BaseException) -> None:
    code = registry().error_codes.get(type(exc))
    if code is None:
        raise TypeError(f"{type(exc).__qualname__} is not a registered error")
    out += _B2.pack(T_ERROR, code)
    _put_value(out, exc.args)
    _put_value(out, {
        name: value for name, value in vars(exc).items()
        if not name.startswith("__")
    })


def _get_sized(buf, pos):
    (size,) = _U32.unpack_from(buf, pos)
    pos += 4
    end = pos + size
    if end > len(buf):
        raise WireError(f"{size} bytes overrun the frame")
    return pos, end


def _get_items(buf, pos):
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    items = []
    for _ in range(count):
        item, pos = _get_value(buf, pos)
        items.append(item)
    return items, pos


def _get_dict(buf, pos):
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    found = {}
    for _ in range(count):
        key, pos = _get_value(buf, pos)
        found[key], pos = _get_value(buf, pos)
    return found, pos


def _get_str_value(buf, pos):
    start, end = _get_sized(buf, pos)
    return buf[start:end].decode(), end


def _get_bytes_value(buf, pos):
    start, end = _get_sized(buf, pos)
    return bytes(buf[start:end]), end


def _get_bigint(buf, pos):
    start, end = _get_sized(buf, pos)
    return int.from_bytes(buf[start:end], "little", signed=True), end


def _get_array(buf, pos):
    start, end = _get_sized(buf, pos)
    return np.frombuffer(buf, np.uint8, end - start, start), end


def _get_tuple(buf, pos):
    items, pos = _get_items(buf, pos)
    return tuple(items), pos


def _get_frozenset(buf, pos):
    items, pos = _get_items(buf, pos)
    return frozenset(items), pos


def _get_record(buf, pos):
    tables = registry()
    cls = tables.records[buf[pos]]
    count, _ = tables.record_fields[buf[pos]]
    pos += 1
    values = []
    for _ in range(count):
        value, pos = _get_value(buf, pos)
        values.append(value)
    return cls(*values), pos


def _get_enum(buf, pos):
    table = _ENUM_TABLES[buf[pos]]
    return table.members[buf[pos + 1]], pos + 2


def _get_error(buf, pos):
    cls = registry().errors[buf[pos]]
    args, pos = _get_value(buf, pos + 1)
    attrs, pos = _get_value(buf, pos)
    if type(args) is not tuple or type(attrs) is not dict or any(
        type(name) is not str or name.startswith("__") for name in attrs
    ):
        raise WireError(f"{cls.__qualname__}: malformed args or attributes")
    exc = cls.__new__(cls)
    exc.args = args
    exc.__dict__.update(attrs)
    return exc, pos


_GET_BY_TAG = (
    lambda buf, pos: (None, pos),
    lambda buf, pos: (False, pos),
    lambda buf, pos: (True, pos),
    lambda buf, pos: (_I64.unpack_from(buf, pos)[0], pos + 8),
    _get_bigint,
    lambda buf, pos: (_F64.unpack_from(buf, pos)[0], pos + 8),
    _get_str_value,
    _get_bytes_value,
    _get_tuple,
    _get_items,
    _get_dict,
    _get_frozenset,
    _get_array,
    _get_record,
    _get_enum,
    _get_error,
)


def _get_value(buf, pos: int) -> tuple[object, int]:
    """One tagged value at ``pos``, and the position after it."""
    return _GET_BY_TAG[buf[pos]](buf, pos + 1)


# -- the directory ops: tagged arguments, fixed answer dicts -------------


def _put_prepare(out, r):
    ok = r["ok"]
    if type(ok) is not bool or len(r) != (4 if ok else 2):
        raise TypeError(f"dir_prepare answer {r!r:.80}")
    out += b"\x01" if ok else b"\x00"
    _put_value(out, r["promised"])
    if ok:
        _put_value(out, r["accepted"])
        _put_value(out, r["committed"])


def _get_prepare(buf, pos):
    ok = _get_flag(buf, pos)
    promised, pos = _get_value(buf, pos + 1)
    if not ok:
        return {"ok": False, "promised": promised}, pos
    accepted, pos = _get_value(buf, pos)
    committed, pos = _get_value(buf, pos)
    return {
        "ok": True, "promised": promised, "accepted": accepted,
        "committed": committed,
    }, pos


def _put_accept(out, r):
    ok = r["ok"]
    if type(ok) is not bool or len(r) != 2:
        raise TypeError(f"dir_accept answer {r!r:.80}")
    out += b"\x01" if ok else b"\x00"
    _put_value(out, r["promised"])


def _get_accept(buf, pos):
    ok = _get_flag(buf, pos)
    promised, pos = _get_value(buf, pos + 1)
    return {"ok": ok, "promised": promised}, pos


def _one_field(name, put, get):
    """Answer layout of a dict holding one field, ``name``."""

    def put_answer(out, r):
        if len(r) != 1:
            raise TypeError(f"answer {r!r:.80} is not {{{name!r}: ...}}")
        put(out, r[name])

    def get_answer(buf, pos):
        value, pos = get(buf, pos)
        return {name: value}, pos

    return put_answer, get_answer


#: Directory op -> (argument count, (put answer, get answer)).
DIRECTORY_LAYOUTS = {
    "dir_prepare": (2, (_put_prepare, _get_prepare)),
    "dir_accept": (3, (_put_accept, _get_accept)),
    "dir_apply": (3, _one_field("ok", _put_bool, _get_bool)),
    "dir_read": (1, _one_field("committed", _put_value, _get_value)),
    "dir_snapshot": (0, _one_field("committed", _put_value, _get_value)),
    "dir_sync": (1, _one_field("adopted", _put_int, _get_int)),
}

#: Op codes: 0 is the generic form, then one per registered op.
OPS = ("", *FRAME_LAYOUTS, *DIRECTORY_LAYOUTS)
_CODES = {op: code for code, op in enumerate(OPS) if op}
#: Per storage op code: put args, get args, put answer, get answer.
_FRAMES = {
    _CODES[op]: (put_args, get_args, put, get)
    for op, ((put_args, get_args), (put, get)) in FRAME_LAYOUTS.items()
}
#: Per directory op code: argument count, put answer, get answer.
_DIRECTORY = {
    _CODES[op]: (count, put, get)
    for op, (count, (put, get)) in DIRECTORY_LAYOUTS.items()
}
_FRAME_PUT_ARGS = {OPS[code]: entry[0] for code, entry in _FRAMES.items()}


# -- frames --------------------------------------------------------------

#: What decoding a frame that does not fit its layout can raise: a short
#: buffer, a code or index outside its table, bad UTF-8, an unhashable
#: set member or key, a record with the wrong field count, deep nesting.
_DECODE_ERRORS = (
    struct.error, IndexError, KeyError, ValueError, TypeError,
    OverflowError, RecursionError,
)
_pack_prefix_into = PREFIX.pack_into
_pack_addr = _ADDR.pack
_unpack_addr = _ADDR.unpack_from
_ADDR_SIZE = _ADDR.size
_unpack_u32 = _U32.unpack_from
_pack_u32 = _U32.pack
_OK_BYTE = _U8.pack(_OK)
_ERR_BYTE = _U8.pack(_ERR)

@functools.lru_cache(maxsize=512)
def _head(code: int, env: Envelope) -> bytes:
    """A frame's zeroed length prefix and its request header.  Cached:
    untraced calls reuse a handful of (op, kind, deadline) headers."""
    kind, trace, timeout = env
    flags = 0
    if kind is not None:
        flags |= _KIND
    if trace is not None:
        flags |= _TRACE if trace[2] is None else _TRACE | _PARENT
    if timeout is not None:
        flags |= _TIMEOUT
    out = bytearray(_FRAME_PREFIX)
    out += _HEAD.pack(code, flags, 0.0 if timeout is None else timeout)
    if kind is not None:
        _put_name(out, kind)
    if trace is not None:
        trace_id, span_id, parent = trace
        _put_name(out, trace_id)
        _put_name(out, span_id)
        if parent is not None:
            _put_name(out, parent)
    return bytes(out)


def _get_envelope(buf, flags: int, timeout: float) -> tuple[Envelope, int]:
    pos = _HEAD.size
    if flags & ~(_KIND | _TRACE | _TIMEOUT | _PARENT):
        raise WireError(f"envelope flags {flags:#x}")
    kind = trace = None
    if flags & _KIND:
        kind, pos = _get_name(buf, pos)
    if flags & _TRACE:
        trace_id, pos = _get_name(buf, pos)
        span_id, pos = _get_name(buf, pos)
        parent = None
        if flags & _PARENT:
            parent, pos = _get_name(buf, pos)
        trace = (trace_id, span_id, parent)
    return _new(Envelope, (
        kind, trace, timeout if flags & _TIMEOUT else None
    )), pos


def encode_request(op: str, args: tuple, env: Envelope = NO_ENVELOPE) -> bytearray:
    """The frame that asks for ``op(*args)`` under ``env``: under the
    op's own code when ``args`` are its registered shape, else in the
    generic form.  TypeError when a value does not fit its layout."""
    code = _CODES.get(op, 0)
    put_args = _FRAME_PUT_ARGS.get(op)
    if put_args is not None:
        if len(args) != 1 or type(args[0]) is not dict:
            code, put_args = 0, None
    elif code and len(args) != _DIRECTORY[code][0]:
        code = 0
    try:
        out = bytearray(_head(code, env))
        if put_args is not None:
            frame = args[0]
            out += _pack_u32(len(frame))
            for addr, (gen, op_args) in frame.items():
                volume = addr.volume.encode()
                if gen is None:
                    out += _pack_addr(addr.stripe, addr.index, 0, 0, len(volume))
                else:
                    out += _pack_addr(addr.stripe, addr.index, 1, gen, len(volume))
                out += volume
                put_args(out, op_args)
        elif code:
            for arg in args:
                _put_value(out, arg)
        else:
            _put_name(out, op)
            _put_value(out, tuple(args))
    except (AttributeError, KeyError, ValueError, IndexError, struct.error) as exc:
        raise TypeError(f"{op}: arguments do not fit the wire layout: {exc}") from exc
    _pack_prefix_into(out, 0, len(out) - 4)
    return out


def decode_request(buf) -> tuple[int, str, tuple, Envelope]:
    """``(code, op, args, env)`` of a request body; WireError when it
    does not decode exactly."""
    try:
        code, flags, timeout = _HEAD.unpack_from(buf, 0)
        if flags:
            env, pos = _get_envelope(buf, flags, timeout)
        else:
            env, pos = NO_ENVELOPE, _HEAD.size
        layout = _FRAMES.get(code)
        if layout is not None:
            get_args = layout[1]
            (count,) = _unpack_u32(buf, pos)
            pos += 4
            frame = {}
            for _ in range(count):
                stripe, index, has_gen, gen, size = _unpack_addr(buf, pos)
                pos += _ADDR_SIZE
                end = pos + size
                volume = buf[pos:end].decode()
                op_args, pos = get_args(buf, end)
                if has_gen:
                    if has_gen > 1:
                        raise WireError(f"address gen flag {has_gen}")
                else:
                    gen = None
                frame[_new(BlockAddr, (volume, stripe, index))] = gen, op_args
            op, args = OPS[code], (frame,)
        elif code:
            op = OPS[code]
            values = []
            for _ in range(_DIRECTORY[code][0]):
                value, pos = _get_value(buf, pos)
                values.append(value)
            args = tuple(values)
        else:
            op, pos = _get_name(buf, pos)
            args, pos = _get_value(buf, pos)
            if type(args) is not tuple:
                raise WireError("generic arguments are not a tuple")
    except _DECODE_ERRORS as exc:
        raise WireError(f"malformed request: {exc!r}") from exc
    if pos != len(buf):
        raise WireError(f"request of {len(buf)} bytes holds {pos}")
    return code, op, args, env


def encode_answer(code: int, result: object) -> bytearray:
    """The frame answering a request of op ``code`` with ``result``;
    TypeError when ``result`` does not fit the op's answer layout."""
    out = bytearray(_FRAME_PREFIX)
    out += _OK_BYTE
    try:
        layout = _FRAMES.get(code)
        if layout is not None:
            put = layout[2]
            out += _pack_u32(len(result))
            for item in result:
                if isinstance(item, BaseException):
                    out += _ERR_BYTE
                    _put_error(out, item)
                else:
                    out += _OK_BYTE
                    put(out, item)
        elif code:
            _DIRECTORY[code][1](out, result)
        else:
            _put_value(out, result)
    except (AttributeError, KeyError, ValueError, IndexError, struct.error) as exc:
        raise TypeError(
            f"{OPS[code] or 'generic'} answer does not fit the wire layout: {exc}"
        ) from exc
    _pack_prefix_into(out, 0, len(out) - 4)
    return out


def encode_error(exc: BaseException) -> bytearray:
    """The frame answering with ``exc``.  An error the wire cannot carry
    (unregistered class, or attributes outside the type set) goes as the
    TypeError that says so."""
    out = bytearray(_FRAME_PREFIX)
    out += _ERR_BYTE
    try:
        _put_error(out, exc)
    except TypeError as bad:
        return encode_error(TypeError(f"cannot send {exc!r:.200}: {bad}"))
    _pack_prefix_into(out, 0, len(out) - 4)
    return out


def decode_answer(code: int, buf) -> tuple[bool, object]:
    """``(failed, value)`` of an answer body to a request of op
    ``code``: the error when ``failed``; WireError when it does not
    decode exactly."""
    try:
        status = buf[0]
        layout = _FRAMES.get(code)
        if status == _ERR:
            value, pos = _get_value(buf, 1)
            if not isinstance(value, BaseException):
                raise WireError("error answer carries no error")
        elif status != _OK:
            raise WireError(f"answer status {status}")
        elif layout is not None:
            get = layout[3]
            (count,) = _unpack_u32(buf, 1)
            pos = 5
            value = []
            for _ in range(count):
                flag = buf[pos]
                if flag == _OK:
                    item, pos = get(buf, pos + 1)
                elif flag == _ERR:
                    item, pos = _get_value(buf, pos + 1)
                    if not isinstance(item, BaseException):
                        raise WireError("error item carries no error")
                else:
                    raise WireError(f"item status {flag}")
                value.append(item)
        elif code:
            value, pos = _DIRECTORY[code][2](buf, 1)
        else:
            value, pos = _get_value(buf, 1)
    except _DECODE_ERRORS as exc:
        raise WireError(f"malformed answer: {exc!r}") from exc
    if pos != len(buf):
        raise WireError(f"answer of {len(buf)} bytes holds {pos}")
    return status == _ERR, value


# -- WAL records ---------------------------------------------------------

#: WAL record head: stripe, index, epoch (the volume name follows)
_RECORD = struct.Struct("<qiq")


def encode_record(addr: BlockAddr, state: BlockState) -> bytes:
    """A WAL record: ``addr`` and the slot's epoch, then its durable
    state in the ``get_state`` answer layout.  Lock fields are volatile
    and not written; tid entries go sorted, so equal states encode to
    equal bytes."""
    out = bytearray(_RECORD.pack(addr.stripe, addr.index, state.epoch))
    _put_name(out, addr.volume)
    _put_state(out, StateSnapshot(
        state.opmode, state.recons_set, sorted(state.oldlist),
        sorted(state.recentlist), state.block, state.fingerprint,
    ))
    return bytes(out)


def decode_record(payload) -> tuple[BlockAddr, BlockState]:
    """Inverse of :func:`encode_record`, lock fields UNL.  The block is
    a writable view over a private copy of ``payload``.  WireError when
    ``payload`` does not fit the layout exactly."""
    buf = bytearray(payload)
    try:
        stripe, index, epoch = _RECORD.unpack_from(buf)
        volume, pos = _get_name(buf, _RECORD.size)
        snap, pos = _get_state(buf, pos)
    except _DECODE_ERRORS as exc:
        raise WireError(f"malformed WAL record: {exc!r}") from exc
    if pos != len(buf):
        raise WireError(f"WAL record of {len(buf)} bytes holds {pos}")
    if snap.block is None:
        raise WireError("WAL record without a block")
    return BlockAddr(volume, stripe, index), BlockState(
        block=snap.block,
        opmode=snap.opmode,
        epoch=epoch,
        recentlist=set(snap.recentlist),
        oldlist=set(snap.oldlist),
        recons_set=snap.recons_set,
        fingerprint=snap.fingerprint,
    )
