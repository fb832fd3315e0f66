"""Driver speaking RESP2 to a networked store.

Each session owns one TCP connection. A batch becomes a deterministic list
of commands, pipelined in chunks: commands go out together and replies are
read back in order. Each mutation kind names one command (_COMMANDS),
whose arguments are the key and then the mutation's field and value where
it has them; counter values, ints in every mutation, go out in ASCII
decimal. Runs of consecutive mutations that share a key and one of the
idempotent kinds travel as one variadic command of at most _GROUP_MAX
mutations:

    map_set  -> HSET key f1 v1 f2 v2 ...
    map_del  -> HDEL key f1 f2 ...
    set_add  -> SADD key m1 m2 ...
    set_del  -> SREM key m1 m2 ...

Every other kind (incr, map_incr, list_append, set_blob, delete) is a run
of one: the counting kinds are not idempotent and the rest have no
variadic form worth grouping. A kind that _COMMANDS does not name is
refused with ProtocolError before any command of its batch is sent.

A batch is its own resume point. When the connection dies mid-batch the
session records how many commands the store answered before the first
error reply (answered), and _apply trims the mutations those commands
carried off the front of the batch before ConnectionLost propagates. The
cache retries the same batch object, so a retry sends only what the
store has not answered, and a refused command is sent again and its
refusal raised. A command whose reply was in flight when the connection
died may be applied twice; the protocol subset has no sequence numbers,
so that window cannot be closed from the client side. Applying a grouped
command twice, followed by the same tail, leaves the state it would have
left once, so the window holds at most one mutation of a non-idempotent
kind per command in flight.

Error replies are raised in one place, exchange, for batches, fetches,
scans and wipes alike, and only once every reply of their pipelined
chunk has been read, so the next exchange starts on a reply boundary. A
batch the store failed that way is left whole. A reply the parser
refuses (ProtocolError) leaves the stream inside a frame, so exchange
drops the link before it raises and the next exchange reconnects.

A batch of one mutation, which is what a waiting call on a structure
with nothing else pending sends, encodes without the argument list a run
needs, and its one command goes out and back without the chunk loop:
one sendall, one read_reply.

Timeouts are the kernel's: a connected socket is blocking, with
SO_RCVTIMEO and SO_SNDTIMEO set to _IO_TIMEOUT_S. A Python-level socket
timeout would make CPython poll() before every send and recv, a cost paid
on each waiting call's round trip. A store that stops answering, or stops
reading, still fails the exchange with ConnectionLost once the timeout
passes, and its message says the link timed out.
"""

from __future__ import annotations

import io
import socket
import struct

from ..config import parse_endpoint
from ..errors import (
    ConfigSyntaxError,
    ConnectionLost,
    Overflow,
    ProtocolError,
    TypeConflict,
)
from ..keys import StoreKey, StructureType, key_prefix, parse_key
from ..limits import as_int
from .base import Driver, DriverSession, MutationBatch
from ..resp import protocol
from ..resp.protocol import RespError

_PIPELINE = 256
_IO_TIMEOUT_S = 5.0  # connect, and each send or recv that makes no progress

# Mutations per variadic command. Keeps each command far below the
# server's MAX_ARRAY and the resend unit after a reconnect small.
_GROUP_MAX = 256

_COMMANDS = {
    "set_blob": b"SET",
    "delete": b"DEL",
    "incr": b"INCRBY",
    "map_set": b"HSET",
    "map_del": b"HDEL",
    "map_incr": b"HINCRBY",
    "list_append": b"RPUSH",
    "set_add": b"SADD",
    "set_del": b"SREM",
}

# Kinds whose same-key runs travel as one variadic command.
_GROUPED = frozenset({"map_set", "map_del", "set_add", "set_del"})

# How a fetch reads each structure type: the command's name, its
# arguments after the key, and the decoder of its reply.
_FETCH = {
    StructureType.NAME_VALUE: (b"GET", (), lambda reply: reply),
    StructureType.COUNTER: (
        b"GET", (), lambda reply: None if reply is None else as_int(reply)
    ),
    StructureType.MAP: (
        b"HGETALL", (), lambda reply: dict(zip(reply[0::2], reply[1::2])) or None
    ),
    StructureType.COUNTER_MAP: (
        b"HGETALL",
        (),
        lambda reply: {f: as_int(v) for f, v in zip(reply[0::2], reply[1::2])} or None,
    ),
    StructureType.LIST: (b"LRANGE", (b"0", b"-1"), lambda reply: list(reply) or None),
    StructureType.SET: (b"SMEMBERS", (), lambda reply: set(reply) or None),
}

# Each glob metacharacter as a one-character class, which Redis glob and
# fnmatch both read as the literal character.
_GLOB_LITERAL = str.maketrans(
    {"*": "[*]", "?": "[?]", "[": "[[]", "\\": "[\\\\]"}
)


def _raise_reply(error: RespError):
    message = error.message
    if "WRONGTYPE" in message or "not an integer" in message:
        raise TypeConflict(message)
    if "overflow" in message:
        raise Overflow(message)
    raise ProtocolError(f"unexpected error reply: {message}")


def _encode_batch(items: list) -> tuple[list[bytes], list[int]]:
    """Commands for a batch's mutations, in batch order, and where each
    starts: starts[k] is the index of the first item command k carries.
    """
    encode = protocol.encode_command
    commands = []
    starts = []
    n = len(items)
    i = 0
    while i < n:
        key, m = items[i]
        kind, field, value = m
        name = _COMMANDS.get(kind)
        if name is None:
            raise ProtocolError(f"unknown mutation kind {kind!r}")
        j = i + 1
        if kind in _GROUPED:
            end = min(i + _GROUP_MAX, n)
            while j < end:
                other_key, other = items[j]
                if other.kind != kind or (other_key is not key and other_key != key):
                    break
                j += 1
        if j == i + 1:
            # A run of one, as in a waiting call's batch: no argument list.
            if isinstance(value, int):
                value = b"%d" % value
            if field is None:
                if value is None:
                    commands.append(encode(name, key.encoded))
                else:
                    commands.append(encode(name, key.encoded, value))
            elif value is None:
                commands.append(encode(name, key.encoded, field))
            else:
                commands.append(encode(name, key.encoded, field, value))
        else:
            args = [name, key.encoded]
            for _k, (_kind, field, value) in items[i:j]:
                if field is not None:
                    args.append(field)
                if value is not None:
                    args.append(b"%d" % value if isinstance(value, int) else value)
            commands.append(encode(*args))
        starts.append(i)
        i = j
    return commands, starts


class RespSession(DriverSession):
    def __init__(self, driver, session_id, address):
        super().__init__(driver, session_id)
        self._address = address
        self._sock: socket.socket | None = None
        self._reader = None
        self.answered = 0  # commands answered when the last exchange lost the link
        self.reconnects = 0

    def ensure_connected(self) -> None:
        if self._sock is not None:
            return
        try:
            sock = socket.create_connection(self._address, timeout=_IO_TIMEOUT_S)
        except OSError as exc:
            raise ConnectionLost(f"connect {self._address}: {exc}") from exc
        sock.setblocking(True)  # from here on the kernel timeouts bound each call
        seconds = int(_IO_TIMEOUT_S)
        timeval = struct.pack("@ll", seconds, int((_IO_TIMEOUT_S - seconds) * 1e6))
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        # A buffered reader straight on the descriptor: makefile's reader
        # fills its buffer through SocketIO.readinto, a Python frame per
        # recv. Its buffer is makefile's size (open would take st_blksize).
        # The socket keeps the descriptor and closes it.
        self._reader = open(
            sock.fileno(), "rb", buffering=io.DEFAULT_BUFFER_SIZE, closefd=False
        )
        self.reconnects += 1

    def drop_link(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def exchange(self, commands: list[bytes]) -> list:
        """Pipeline commands in chunks; return one reply per command.

        The first error reply of a chunk is raised (as TypeConflict,
        Overflow or ProtocolError) once the whole chunk has been read,
        and no later chunk is sent. A lost link sets answered to the
        number of commands answered before the first error reply, then
        raises ConnectionLost. A malformed reply drops the link, then
        raises its ProtocolError.
        """
        if self._sock is None:
            self.answered = 0
            self.ensure_connected()
        sock = self._sock
        reader = self._reader
        read_reply = protocol.read_reply
        replies = []
        n = len(commands)
        try:
            if n == 1:
                # A lone command, as a fetch or a waiting call sends.
                sock.sendall(commands[0])
                replies.append(read_reply(reader))
            else:
                for start in range(0, n, _PIPELINE):
                    chunk = commands if n <= _PIPELINE else commands[start : start + _PIPELINE]
                    sock.sendall(b"".join(chunk))
                    for _ in chunk:
                        replies.append(read_reply(reader))
                    if RespError in map(type, replies[start:]):
                        break  # no chunk goes out after a refusal
        except (OSError, ConnectionLost) as exc:
            what = "timed out" if self._stalled(exc) else "failed"
            refused = [i for i, reply in enumerate(replies) if isinstance(reply, RespError)]
            self.answered = refused[0] if refused else len(replies)
            self.drop_link()
            raise ConnectionLost(f"store connection {what}: {exc}") from exc
        except ProtocolError:
            # A malformed reply leaves the stream off a frame boundary: the
            # next exchange must not read the rest of it as its own reply.
            self.drop_link()
            raise
        if RespError in map(type, replies):
            _raise_reply(next(r for r in replies if type(r) is RespError))
        return replies

    def _stalled(self, exc: Exception) -> bool:
        """Whether exc came from a kernel timeout, not a closed link.

        A send that times out raises BlockingIOError. A recv that times out
        reaches the reply parser as a short read, like EOF, so the link is
        probed: a peer that closed reads as EOF, a silent one as no data.
        """
        if isinstance(exc, BlockingIOError):
            return True
        if not isinstance(exc, ConnectionLost):
            return False
        try:
            return self._sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT) != b""
        except BlockingIOError:
            return True
        except OSError:
            return False


class RespDriver(Driver):
    label = "resp"

    def __init__(self, endpoint: str, *, inject_latency_us: int = 0):
        super().__init__(inject_latency_us=inject_latency_us)
        address = parse_endpoint(endpoint)
        if address is None:
            raise ConfigSyntaxError("resp driver needs a host:port endpoint")
        self._address = address
        self.endpoint = endpoint

    def _make_session(self, session_id: int) -> RespSession:
        return RespSession(self, session_id, self._address)

    def _apply(self, session: RespSession, batch: MutationBatch) -> None:
        commands, starts = _encode_batch(batch.items)
        try:
            session.exchange(commands)
        except ConnectionLost:
            # What the store answered is applied: a retry sends the rest.
            if session.answered:
                del batch.items[: starts[session.answered]]
            raise

    def _fetch(self, session: RespSession, key: StoreKey):
        name, tail, decode = _FETCH[key.structure_type]
        command = protocol.encode_command(name, key.encoded, *tail)
        return decode(session.exchange([command])[0])

    def _scan(self, session: RespSession, nf_id: str, instance_id: str):
        pattern = key_prefix(nf_id, instance_id).translate(_GLOB_LITERAL) + "*"
        reply = session.exchange(
            [protocol.encode_command(b"KEYS", pattern.encode("ascii"))]
        )[0]
        # latin-1 takes any byte, so parse_key refuses a non-ASCII key too.
        keys = [parse_key(raw.decode("latin-1")) for raw in reply]
        keys.sort(key=StoreKey.render)
        reads = [_FETCH[key.structure_type] for key in keys]
        commands = [
            protocol.encode_command(name, key.encoded, *tail)
            for key, (name, tail, _decode) in zip(keys, reads)
        ]
        replies = session.exchange(commands) if commands else []
        return [
            (key, decode(fetched))
            for key, (_name, _tail, decode), fetched in zip(keys, reads, replies)
        ]

    def _wipe(self, session: RespSession) -> None:
        session.exchange([protocol.encode_command(b"FLUSHALL")])

    def close_session(self, session: RespSession) -> None:
        session.drop_link()
