"""RESP2 wire encoding.

Commands travel client to server as arrays of bulk strings. Replies come
back as one of five frames, distinguished by their first byte:

    +simple string\r\n
    -error message\r\n
    :integer\r\n
    $<len>\r\n<bytes>\r\n     ($-1 is the nil bulk)
    *<count>\r\n<frames...>   (*-1 is the nil array)

Parsing is strict: CRLF line endings, exact declared lengths, no inline
commands. Anything else raises ProtocolError.

Commands have one parser, parse_command, which works on a bytes buffer
(the bundled server's framing) and reports a command the buffer holds
only part of as the least length that can hold it. Replies are read from
a file object by read_reply, where EOF in the middle of a frame raises
ConnectionLost.
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
# The parser's inverse: an element header line of a common size, CRLF
# included, to its length. A hit is a header already checked whole.
_BULK_LENGTHS = {header: n for n, header in enumerate(_BULK_HEADERS)}


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


def _line_fault(line: bytes) -> None:
    """Raise for a reply line read without its CRLF."""
    if not line:
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
        _line_fault(line)
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


def parse_command(buf: bytes, pos: int = 0):
    """Parse one inbound command (an array of bulk strings) from buf at pos.

    Returns (parts, end), end being the offset just past the command, or
    (None, need) when buf ends inside the command: need is the least
    len(buf) that can hold the rest, so a caller can gather that much
    before it parses again, and reading up to it never reads past a
    well-formed command. Lines are found by their LF, so a bare LF is
    refused as the line it ends; payloads are sliced by their declared
    length, so they may hold CRLF.
    """
    size = len(buf)
    nl = buf.find(b"\n", pos)
    if nl < 0:
        return None, size + 1
    if nl == pos or buf[nl - 1] != 13:  # 13 is CR
        raise ProtocolError(f"line without CRLF terminator: {buf[pos : nl + 1][:64]!r}")
    line = buf[pos : nl - 1]
    if line[:1] != b"*":
        raise ProtocolError(f"inline commands not accepted: {line[:64]!r}")
    count = _parse_length(line[1:], "array", MAX_ARRAY)
    if count < 1:
        raise ProtocolError("empty command array")
    # The element loop is spelled out, with the common case's checks
    # inline: a flush's variadic command has hundreds of elements, and the
    # bundled server parses them while holding the interpreter lock.
    find = buf.find
    lengths = _BULK_LENGTHS
    parts = []
    append = parts.append
    pos = nl + 1
    for left in range(count, 0, -1):
        nl = find(b"\n", pos)
        if nl < 0:
            # Each element left takes at least 6 bytes: "$0\r\n\r\n".
            return None, max(size + 1, pos + 6 * left)
        n = lengths.get(header := buf[pos : nl + 1])
        if n is None:
            n = _bulk_length(header)
        pos = nl + 1 + n
        if pos + 2 > size:
            return None, pos + 2
        if buf[pos] != 13 or buf[pos + 1] != 10:
            raise ProtocolError("bulk payload not CRLF-terminated")
        append(buf[nl + 1 : pos])
        pos += 2
    return parts, pos


def _bulk_length(line: bytes) -> int:
    """The length in a command element's header line (LF included) that
    _BULK_LENGTHS does not hold; raises for anything but a bulk header."""
    if line[-2:] != CRLF:
        raise ProtocolError(f"line without CRLF terminator: {line[:64]!r}")
    if line[:1] != b"$":
        raise ProtocolError(f"command element is not a bulk string: {line[:-2]!r}")
    n = _parse_length(line[1:-2], "bulk", MAX_BULK)
    if n == -1:
        raise ProtocolError("nil bulk inside a command")
    return n

