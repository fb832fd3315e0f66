"""Bundled wire-compatible mini server.

Speaks the RESP2 subset the resp driver emits: SET GET DEL INCRBY HSET
HDEL HINCRBY HGETALL SADD SREM SMEMBERS RPUSH LRANGE KEYS FLUSHALL, plus
HGET, LLEN and PING, which the driver never sends and are kept for tests.
HSET takes one or more field/value pairs and returns how many
fields were new, as Redis does since 4.0; the driver groups a flush's
same-key map writes into one such command. One thread per connection;
every command executes under a single data lock, so individual commands
are atomic and commands from one pipelined batch apply in order.

Framing works on a buffer, not a file object: each connection recvs up to
RECV_BYTES at a time, frames every complete command in what it holds with
protocol.split_commands (at most one CRLF split per read, up to its
first block of long lines; the commands it cannot take from the pieces
go to protocol.parse_command), dispatches them in order, one at a time,
and sends all their replies in one sendall. A command cut off by the
end of a read is kept and completed by later reads; a bulk longer than
one read is gathered until the length its header declares has arrived,
so it is joined once. A malformed command is answered with "-ERR
Protocol error: ..." after the replies to the commands before it in the
same read, and the connection closes.

Integer arguments and stored counters are parsed as Redis's string2ll
parses them: no "+", no spaces, no "_", no leading zero, within int64.

Storage is this module's own (deliberately not shared with the in-process
drivers): a dict of typed values with string-store semantics, including
counters as ASCII strings, absent-means-zero increments, and dropping a
collection key when its last entry goes.
"""

from __future__ import annotations

import fnmatch
import socket
import threading

from ..errors import BindFailure
from ..limits import INT64_MAX, INT64_MIN
from . import protocol
from .protocol import ProtocolError

_WRONGTYPE = "WRONGTYPE Operation against a key holding the wrong kind of value"
_NOT_INT = "ERR value is not an integer or out of range"
_HASH_NOT_INT = "ERR hash value is not an integer"
_OVERFLOW = "ERR increment or decrement would overflow"

# Bytes asked of each recv. recv allocates a new object of this size on
# every call, so a larger figure raises the server's peak memory.
RECV_BYTES = 64 * 1024


class _Reply(Exception):
    """Error reply raised from a handler; carries the wire message."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


def _arity_error(name: str) -> str:
    return f"ERR wrong number of arguments for '{name.lower()}' command"


def _strict_int(raw: bytes) -> int | None:
    """raw as an int64 if it is spelled as Redis's string2ll accepts: an
    optional "-", then ASCII digits with no leading zero unless the value
    is 0 itself. None for anything else: "+", spaces and "_" included."""
    digits = raw[1:] if raw[:1] == b"-" else raw
    if not digits.isdigit() or len(digits) > 19 or (digits[0] == 48 and raw != b"0"):
        return None  # 48 is "0"
    value = int(digits)
    if raw[0] == 45:  # 45 is "-"
        value = -value
    return value if INT64_MIN <= value <= INT64_MAX else None


def _int_arg(raw: bytes) -> int:
    """An integer argument; like Redis, refuses one outside int64."""
    value = _strict_int(raw)
    if value is None:
        raise _Reply(_NOT_INT)
    return value


class MiniRespServer:
    """Loopback store for tests and benchmarks. Not hardened for the open
    internet; it exists so the wire driver has a real socket to talk to."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._host = host
        self._port = port
        self._db: dict[bytes, object] = {}
        self._data_lock = threading.Lock()
        self._listen_sock: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._conns: list[socket.socket] = []
        self._conns_lock = threading.Lock()
        self._stopping = threading.Event()

    # Lifecycle

    @property
    def port(self) -> int:
        if self._listen_sock is None:
            raise RuntimeError("server not started")
        return self._listen_sock.getsockname()[1]

    @property
    def endpoint(self) -> str:
        return f"{self._host}:{self.port}"

    def start(self) -> "MiniRespServer":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((self._host, self._port))
        except OSError as exc:
            sock.close()
            raise BindFailure(f"cannot bind {self._host}:{self._port}: {exc}") from exc
        sock.listen(128)
        self._listen_sock = sock
        acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._listen_sock is not None:
            try:
                # close() alone does not wake a thread parked in accept().
                self._listen_sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listen_sock.close()
            except OSError:
                pass
        self.drop_connections()
        for t in self._threads:
            t.join(timeout=2.0)
        self._threads.clear()

    def drop_connections(self) -> None:
        """Abruptly close every client socket. Exercises client retry paths."""
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for c in conns:
            try:
                c.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                c.close()
            except OSError:
                pass

    def __enter__(self) -> "MiniRespServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        assert self._listen_sock is not None
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listen_sock.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conns_lock:
                self._conns.append(conn)
            t = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            t.start()
            self._threads.append(t)

    def _serve(self, conn: socket.socket) -> None:
        split = protocol.split_commands
        dispatch = self._dispatch
        held: list[bytes] = []  # reads not parsed yet: a cut command's start, then more
        size = 0  # bytes in held
        need = 0  # the least size that can complete the cut command
        try:
            while not self._stopping.is_set():
                data = conn.recv(RECV_BYTES)
                if not data:
                    return
                held.append(data)
                size += len(data)
                if size < need:
                    continue
                buf = data if len(held) == 1 else b"".join(held)
                commands: list[list[bytes]] = []
                try:
                    pos, need = split(buf, commands)
                except ProtocolError as exc:
                    replies = list(map(dispatch, commands))
                    replies.append(protocol.encode_error(f"ERR Protocol error: {exc}"))
                    conn.sendall(b"".join(replies))
                    return
                if commands:
                    conn.sendall(b"".join(map(dispatch, commands)))
                if pos == size:
                    held, size, need = [], 0, 0
                else:
                    held = [buf[pos:]]
                    size -= pos
                    need -= pos
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # Command execution

    def _dispatch(self, command: list[bytes]) -> bytes:
        entry = _COMMANDS.get(command[0]) or _COMMANDS.get(command[0].upper())
        if entry is None:
            name = command[0].upper().decode("ascii", "replace")
            return protocol.encode_error(f"ERR unknown command '{name}'")
        handler, lo, hi = entry
        argc = len(command) - 1
        if argc < lo or (hi is not None and argc > hi):
            return protocol.encode_error(_arity_error(command[0].decode("ascii")))
        with self._data_lock:
            try:
                return handler(self, command[1:])
            except _Reply as exc:
                return protocol.encode_error(exc.message)

    def _typed(self, key: bytes, want: type, create: bool = False):
        """The value at key, checked to be a want; absent is None, or a
        new empty want stored at key when create is set."""
        value = self._db.get(key)
        if value is None:
            if create:
                value = self._db[key] = want()
        elif not isinstance(value, want):
            raise _Reply(_WRONGTYPE)
        return value

    def _cmd_ping(self, args: list[bytes]) -> bytes:
        if args:
            return protocol.encode_bulk(args[0])
        return protocol.encode_simple(b"PONG")

    def _cmd_set(self, args: list[bytes]) -> bytes:
        self._db[args[0]] = args[1]
        return protocol.encode_simple(b"OK")

    def _cmd_get(self, args: list[bytes]) -> bytes:
        return protocol.encode_bulk(self._typed(args[0], bytes))

    def _cmd_del(self, args: list[bytes]) -> bytes:
        removed = 0
        for key in args:
            if self._db.pop(key, None) is not None:
                removed += 1
        return protocol.encode_integer(removed)

    def _cmd_incrby(self, args: list[bytes]) -> bytes:
        key, delta = args[0], _int_arg(args[1])
        raw = self._typed(key, bytes)
        current = 0 if raw is None else _strict_int(raw)
        if current is None:
            raise _Reply(_NOT_INT)
        value = current + delta
        if not INT64_MIN <= value <= INT64_MAX:
            raise _Reply(_OVERFLOW)
        self._db[key] = b"%d" % value
        return protocol.encode_integer(value)

    def _cmd_hset(self, args: list[bytes]) -> bytes:
        if len(args) % 2 == 0:
            raise _Reply(_arity_error("HSET"))
        h = self._typed(args[0], dict, True)
        before = len(h)
        h.update(zip(args[1::2], args[2::2]))
        return protocol.encode_integer(len(h) - before)

    def _cmd_hget(self, args: list[bytes]) -> bytes:
        h = self._typed(args[0], dict)
        return protocol.encode_bulk(None if h is None else h.get(args[1]))

    def _cmd_hdel(self, args: list[bytes]) -> bytes:
        key = args[0]
        h = self._typed(key, dict)
        removed = 0
        if h is not None:
            for field in args[1:]:
                if field in h:
                    del h[field]
                    removed += 1
            if not h:
                del self._db[key]
        return protocol.encode_integer(removed)

    def _cmd_hincrby(self, args: list[bytes]) -> bytes:
        key, field, delta = args[0], args[1], _int_arg(args[2])
        h = self._typed(key, dict, True)
        current = _strict_int(h.get(field, b"0"))
        if current is None:
            if not h:
                del self._db[key]
            raise _Reply(_HASH_NOT_INT)
        value = current + delta
        if not INT64_MIN <= value <= INT64_MAX:
            if not h:
                del self._db[key]
            raise _Reply(_OVERFLOW)
        h[field] = b"%d" % value
        return protocol.encode_integer(value)

    def _cmd_hgetall(self, args: list[bytes]) -> bytes:
        h = self._typed(args[0], dict)
        flat: list[bytes] = []
        if h:
            for field, value in h.items():
                flat.append(field)
                flat.append(value)
        return protocol.encode_array(flat)

    def _cmd_sadd(self, args: list[bytes]) -> bytes:
        s = self._typed(args[0], set, True)
        added = 0
        for member in args[1:]:
            if member not in s:
                s.add(member)
                added += 1
        return protocol.encode_integer(added)

    def _cmd_srem(self, args: list[bytes]) -> bytes:
        key = args[0]
        s = self._typed(key, set)
        removed = 0
        if s is not None:
            for member in args[1:]:
                if member in s:
                    s.discard(member)
                    removed += 1
            if not s:
                del self._db[key]
        return protocol.encode_integer(removed)

    def _cmd_smembers(self, args: list[bytes]) -> bytes:
        s = self._typed(args[0], set)
        return protocol.encode_array(sorted(s) if s else [])

    def _cmd_rpush(self, args: list[bytes]) -> bytes:
        lst = self._typed(args[0], list, True)
        lst.extend(args[1:])
        return protocol.encode_integer(len(lst))

    def _cmd_lrange(self, args: list[bytes]) -> bytes:
        lst = self._typed(args[0], list)
        start, stop = _int_arg(args[1]), _int_arg(args[2])
        if lst is None:
            return protocol.encode_array([])
        n = len(lst)
        if start < 0:
            start = max(n + start, 0)
        if stop < 0:
            stop = n + stop
        if stop < 0 or start > stop:
            return protocol.encode_array([])
        return protocol.encode_array(lst[start : min(stop, n - 1) + 1])

    def _cmd_llen(self, args: list[bytes]) -> bytes:
        lst = self._typed(args[0], list)
        return protocol.encode_integer(0 if lst is None else len(lst))

    def _cmd_keys(self, args: list[bytes]) -> bytes:
        pattern = args[0].decode("latin-1")
        matches = [
            k
            for k in self._db
            if fnmatch.fnmatchcase(k.decode("latin-1"), pattern)
        ]
        return protocol.encode_array(sorted(matches))

    def _cmd_flushall(self, args: list[bytes]) -> bytes:
        self._db.clear()
        return protocol.encode_simple(b"OK")


# Command name -> (handler, minimum argument count, maximum or None for
# unbounded). Keyed by the upper-case wire bytes, so a command sent in
# upper case, as the driver sends it, is found without a decode.
_COMMANDS = {
    b"PING": (MiniRespServer._cmd_ping, 0, 1),
    b"SET": (MiniRespServer._cmd_set, 2, 2),
    b"GET": (MiniRespServer._cmd_get, 1, 1),
    b"DEL": (MiniRespServer._cmd_del, 1, None),
    b"INCRBY": (MiniRespServer._cmd_incrby, 2, 2),
    b"HSET": (MiniRespServer._cmd_hset, 3, None),
    b"HGET": (MiniRespServer._cmd_hget, 2, 2),
    b"HDEL": (MiniRespServer._cmd_hdel, 2, None),
    b"HINCRBY": (MiniRespServer._cmd_hincrby, 3, 3),
    b"HGETALL": (MiniRespServer._cmd_hgetall, 1, 1),
    b"SADD": (MiniRespServer._cmd_sadd, 2, None),
    b"SREM": (MiniRespServer._cmd_srem, 2, None),
    b"SMEMBERS": (MiniRespServer._cmd_smembers, 1, 1),
    b"RPUSH": (MiniRespServer._cmd_rpush, 2, None),
    b"LRANGE": (MiniRespServer._cmd_lrange, 3, 3),
    b"LLEN": (MiniRespServer._cmd_llen, 1, 1),
    b"KEYS": (MiniRespServer._cmd_keys, 1, 1),
    b"FLUSHALL": (MiniRespServer._cmd_flushall, 0, 0),
}
