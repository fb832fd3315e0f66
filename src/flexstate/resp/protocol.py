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
and reports a command the buffer holds only part of as the least length
that can hold it. The bundled server frames a whole read with
split_commands, which takes what commands it can from one CRLF split of
the read's leading short lines and hands every other command to
parse_command. Replies are
read from a file object by read_reply, where EOF in the middle of a frame
raises ConnectionLost.
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
# split_commands' tables: a canonical header piece (CRLF removed) of a
# common size to its count or length. Both are fixed: a client chooses
# the lengths, so nothing is added per length seen.
_ARRAY_COUNTS = {header[:-2]: n for n, header in enumerate(_ARRAY_HEADERS) if n}
_BULK_SIZES = {header[:-2]: n for n, header in enumerate(_BULK_HEADERS)}
# The split reads every byte (about 1.1 ns each under CPython 3.11 on a
# 2-vCPU x86 host), where parse_command slices a payload by its declared
# length without reading it. So split_commands splits buf only up to its
# first _PROBE_BYTES block whose lines average more than _SHORT_LINE
# bytes, and walks the rest with parse_command. Framing 64 KiB reads of
# one command shape, split against walk, crossed over at about 38 bytes
# a line for 512-element HSETs of random-binary fields (the fields that
# hold CRLF send their commands to parse_command) and at about 70 for
# ASCII fields; SETs of values up to 511 bytes never crossed (0.77 at 78
# bytes a line). _SHORT_LINE sits below the lowest crossover.
_PROBE_BYTES = 1024
_SHORT_LINE = 32


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


def split_commands(buf: bytes, commands: list) -> tuple[int, int]:
    """Append the parts of each whole command at the start of buf to
    commands, in order, and return (end, need): the offset just past the
    last of them, and the least len(buf) that can hold the command buf
    ends inside, or 0 if it ends at end. The commands, end, need and any
    ProtocolError (raised once the commands before it are appended) are
    those of parse_command walked from 0.

    Where its lines are short, buf is split at CRLF once, and commands are
    taken from the pieces while each one's array header is *1 to *1023 and
    each element header is the canonical $0 to $511 of the length of the
    piece after it. A matching length also proves that the payload holds
    no CRLF, since the split would have cut it short. The command where
    that stops (a payload holding CRLF or of 512 bytes or more, a header
    such as $05, a cut or malformed command) goes to parse_command, and
    taking from the pieces resumes after it. The split stops at the first
    block of long lines, and the commands from there on are walked with
    parse_command alone.
    """
    size = len(buf)
    take = commands.append
    parse = parse_command
    # The split reaches to the first block of long lines.
    at = 0
    while at < size and buf.count(b"\n", at, at + _PROBE_BYTES) * _SHORT_LINE >= min(
        size - at, _PROBE_BYTES
    ):
        at += _PROBE_BYTES
    pieces = buf[:at].split(CRLF)
    last = len(pieces) - 1  # no command ends in the last piece
    counts = _ARRAY_COUNTS.get
    sizes = _BULK_SIZES.get
    pos = i = 0
    while i < last:
        start = i
        while (count := counts(pieces[i])) is not None:
            j = i + 1 + 2 * count
            if j > last:
                break
            parts = pieces[i + 2 : j : 2]
            if list(map(len, parts)) != list(map(sizes, pieces[i + 1 : j : 2])):
                break
            take(parts)
            i = j
        pos += sum(map(len, pieces[start:i])) + 2 * (i - start)
        if i == last:
            break
        parts, end = parse(buf, pos)
        if parts is None:
            return pos, end
        take(parts)
        # Every command ends just past a CRLF, so the pieces resume there,
        # or run out if the command ends past them.
        i += buf.count(CRLF, pos, min(end, at))
        pos = end
    while pos < size:
        parts, end = parse(buf, pos)
        if parts is None:
            return pos, end
        take(parts)
        pos = end
    return pos, 0
