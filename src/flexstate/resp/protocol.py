"""RESP2 wire encoding.

Commands travel client to server as arrays of bulk strings. Replies come
back as one of five frames, distinguished by their first byte:

    +simple string\r\n
    -error message\r\n
    :integer\r\n
    $<len>\r\n<bytes>\r\n     ($-1 is the nil bulk)
    *<count>\r\n<frames...>   (*-1 is the nil array)

Parsing is strict: CRLF line endings, exact declared lengths, no inline
commands. Anything else raises ProtocolError. EOF in the middle of a frame
raises ConnectionLost; EOF on a frame boundary is a clean close.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConnectionLost, ProtocolError

MAX_BULK = 64 * 1024 * 1024
MAX_ARRAY = 1024 * 1024

CRLF = b"\r\n"


@dataclass(frozen=True)
class RespError:
    """An error reply carried as a value, not raised."""

    message: str


# Array and bulk headers for the common sizes, rendered once: an index is
# cheaper than b"%d" formatting, which the encoder would otherwise pay for
# every argument of every command.
_ARRAY_HEADERS = [b"*%d\r\n" % n for n in range(1024)]
_BULK_HEADERS = [b"$%d\r\n" % n for n in range(512)]


def encode_command(*parts: bytes) -> bytes:
    """Encode one command as an array of bulk strings."""
    n = len(parts)
    out = [_ARRAY_HEADERS[n] if n < 1024 else b"*%d\r\n" % n]
    append = out.append
    for part in parts:
        n = len(part)
        append(_BULK_HEADERS[n] if n < 512 else b"$%d\r\n" % n)
        append(part)
        append(CRLF)
    return b"".join(out)


def encode_simple(text: bytes) -> bytes:
    return b"+%s\r\n" % text


def encode_error(message: str) -> bytes:
    return b"-%s\r\n" % message.encode("ascii", "replace")


def encode_integer(value: int) -> bytes:
    return b":%d\r\n" % value


def encode_bulk(value: bytes | None) -> bytes:
    if value is None:
        return b"$-1\r\n"
    return b"$%d\r\n%s\r\n" % (len(value), value)


def encode_array(values: list[bytes | None] | None) -> bytes:
    if values is None:
        return b"*-1\r\n"
    return b"*%d\r\n" % len(values) + b"".join(encode_bulk(v) for v in values)


def _line_fault(line: bytes, at_boundary: bool) -> None:
    """Handle a line read without its CRLF: None for a clean EOF, else raise."""
    if not line:
        if at_boundary:
            return None
        raise ConnectionLost("connection closed mid-frame")
    if not line.endswith(b"\n"):
        # readline returns a partial line only when the stream ended.
        raise ConnectionLost("connection closed mid-line")
    raise ProtocolError(f"line without CRLF terminator: {line[:64]!r}")


def _parse_length(text: bytes, what: str, cap: int) -> int:
    try:
        n = int(text)
    except ValueError:
        raise ProtocolError(f"bad {what} length {text!r}") from None
    if n < -1 or n > cap:
        raise ProtocolError(f"{what} length {n} out of range")
    return n


def _read_bulk(reader, header: bytes) -> bytes | None:
    n = _parse_length(header, "bulk", MAX_BULK)
    if n == -1:
        return None
    # Payload and terminator in one read.
    data = reader.read(n + 2)
    if data is None or len(data) != n + 2:
        raise ConnectionLost("connection closed mid-bulk")
    if data[n:] != CRLF:
        raise ProtocolError("bulk payload not CRLF-terminated")
    return data[:n]


def read_reply(reader):
    """Parse one reply frame. Errors come back as RespError values."""
    line = reader.readline()
    if not line.endswith(CRLF):
        _line_fault(line, False)
    kind, rest = line[:1], line[1:-2]
    if kind == b"+":
        return rest
    if kind == b"-":
        return RespError(rest.decode("ascii", "replace"))
    if kind == b":":
        try:
            return int(rest)
        except ValueError:
            raise ProtocolError(f"bad integer reply {rest!r}") from None
    if kind == b"$":
        return _read_bulk(reader, rest)
    if kind == b"*":
        n = _parse_length(rest, "array", MAX_ARRAY)
        if n == -1:
            return None
        return [read_reply(reader) for _ in range(n)]
    raise ProtocolError(f"unknown reply type {(kind + rest)[:16]!r}")


def read_command(reader) -> list[bytes] | None:
    """Parse one inbound command (array of bulk strings).

    Returns None when the peer closed the connection between commands.
    """
    line = reader.readline()
    if not line.endswith(CRLF):
        return _line_fault(line, True)  # None for a close between commands
    line = line[:-2]
    if line[:1] != b"*":
        raise ProtocolError(f"inline commands not accepted: {line[:64]!r}")
    count = _parse_length(line[1:], "array", MAX_ARRAY)
    if count < 1:
        raise ProtocolError("empty command array")
    # The element loop is spelled out rather than calling _read_bulk: a
    # flush's variadic command has hundreds of elements, and the bundled
    # server parses them while holding the interpreter lock.
    readline = reader.readline
    read = reader.read
    parts = []
    for _ in range(count):
        header = readline()
        if header[-2:] != CRLF:
            _line_fault(header, False)
        if header[:1] != b"$":
            raise ProtocolError(
                f"command element is not a bulk string: {header[:-2]!r}"
            )
        n = _parse_length(header[1:-2], "bulk", MAX_BULK)
        if n == -1:
            raise ProtocolError("nil bulk inside a command")
        data = read(n + 2)
        if data is None or len(data) != n + 2:
            raise ConnectionLost("connection closed mid-bulk")
        if data[n:] != CRLF:
            raise ProtocolError("bulk payload not CRLF-terminated")
        parts.append(data[:n])
    return parts
