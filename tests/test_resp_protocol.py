"""RESP2 wire format: encoding, parsing, and malformed-input rejection."""

import io
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from flexstate.errors import ConnectionLost, ProtocolError
from flexstate.resp import protocol
from flexstate.resp.protocol import (
    RespError,
    encode_array,
    encode_bulk,
    encode_command,
    encode_error,
    encode_integer,
    encode_simple,
    parse_command,
    read_reply,
    split_commands,
)


def test_encode_command_frozen():
    assert (
        encode_command(b"SET", b"k", b"v")
        == b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"
    )
    assert encode_command(b"PING") == b"*1\r\n$4\r\nPING\r\n"
    assert encode_command(b"GET", b"") == b"*2\r\n$3\r\nGET\r\n$0\r\n\r\n"


def test_encode_replies_frozen():
    assert encode_simple(b"OK") == b"+OK\r\n"
    assert encode_error("ERR boom") == b"-ERR boom\r\n"
    assert encode_integer(5) == b":5\r\n"
    assert encode_integer(-12) == b":-12\r\n"
    assert encode_bulk(b"hi") == b"$2\r\nhi\r\n"
    assert encode_bulk(None) == b"$-1\r\n"
    assert encode_array([b"a", None]) == b"*2\r\n$1\r\na\r\n$-1\r\n"
    assert encode_array(None) == b"*-1\r\n"


def read_one(data):
    return read_reply(io.BytesIO(data))


def test_read_reply_frozen():
    assert read_one(b"+OK\r\n") == b"OK"
    assert read_one(b":5\r\n") == 5
    assert read_one(b":-3\r\n") == -3
    assert read_one(b"$2\r\nhi\r\n") == b"hi"
    assert read_one(b"$0\r\n\r\n") == b""
    assert read_one(b"$-1\r\n") is None
    assert read_one(b"*-1\r\n") is None
    assert read_one(b"*2\r\n$1\r\na\r\n:7\r\n") == [b"a", 7]
    assert read_one(b"*0\r\n") == []


def test_error_reply_is_a_value():
    reply = read_one(b"-ERR wrong number of arguments\r\n")
    assert isinstance(reply, RespError)
    assert reply.message == "ERR wrong number of arguments"


def test_bulk_payload_is_binary_safe():
    payload = b"\x00\x01\r\n\xff"
    assert read_one(b"$5\r\n" + payload + b"\r\n") == payload


def test_nested_arrays():
    wire = b"*2\r\n*2\r\n:1\r\n:2\r\n*1\r\n$1\r\nx\r\n"
    assert read_one(wire) == [[1, 2], [b"x"]]


@pytest.mark.parametrize(
    "wire",
    [
        b"?5\r\n",  # unknown type byte
        b":5x\r\n",  # trailing junk in integer
        b":\r\n",  # empty integer
        b"$2\r\nhi!\r\n",  # bulk not terminated by CRLF
        b"$x\r\nhi\r\n",  # length not numeric
        b"$-2\r\n",  # negative length other than -1
        b"*1x\r\n",  # array count junk
        b"+OK\n",  # bare LF terminator
    ],
)
def test_malformed_replies_rejected(wire):
    with pytest.raises(ProtocolError):
        read_one(wire)


@pytest.mark.parametrize(
    "wire",
    [b"+OK", b":5", b"$5\r\nhi", b"*2\r\n:1\r\n", b"$2\r\nhi\r"],
)
def test_truncated_replies_raise_connection_lost(wire):
    with pytest.raises(ConnectionLost):
        read_one(wire)


def test_oversized_bulk_rejected():
    with pytest.raises(ProtocolError):
        read_one(b"$999999999999\r\n")
    with pytest.raises(ProtocolError):
        read_one(b"*999999999\r\n")


def test_read_command_round_trip():
    wire = encode_command(b"HSET", b"key", b"f", b"v")
    assert parse_command(wire) == ([b"HSET", b"key", b"f", b"v"], len(wire))


def test_read_command_rejects_inline():
    with pytest.raises(ProtocolError):
        parse_command(b"PING\r\n")


def test_read_command_rejects_nil_members():
    with pytest.raises(ProtocolError):
        parse_command(b"*2\r\n$3\r\nGET\r\n$-1\r\n")
    with pytest.raises(ProtocolError):
        parse_command(b"*2\r\n$3\r\nGET\r\n:5\r\n")


def test_pipelined_replies_consume_exactly():
    stream = io.BytesIO(b":1\r\n:2\r\n+OK\r\n")
    assert read_reply(stream) == 1
    assert read_reply(stream) == 2
    assert read_reply(stream) == b"OK"


_GET = b"*2\r\n$3\r\nGET\r\n"


@pytest.mark.parametrize(
    "tail, need",
    [
        (b"", 6),  # each element left takes at least "$0\r\n\r\n"
        (b"$3\r\nke", 9),  # the payload's declared length and its CRLF
        (b"$3", 6),
    ],
)
def test_read_command_cut_short(tail, need):
    assert parse_command(_GET + tail) == (None, len(_GET) + need)


@pytest.mark.parametrize(
    "tail, exc, message",
    [
        (b"$3\nkey\r\n", ProtocolError, "line without CRLF terminator: b'$3\\n'"),
        (b"$x\r\nkey\r\n", ProtocolError, "bad bulk length b'x'"),
        (b"$-2\r\nkey\r\n", ProtocolError, "bulk length -2 out of range"),
        (b"$67108865\r\n", ProtocolError, "bulk length 67108865 out of range"),
        (b"$3\r\nkeyXY", ProtocolError, "bulk payload not CRLF-terminated"),
        (b"+OK\r\n", ProtocolError, "command element is not a bulk string: b'+OK'"),
        (b"$-1\r\n", ProtocolError, "nil bulk inside a command"),
    ],
)
def test_read_command_element_faults(tail, exc, message):
    with pytest.raises(exc) as info:
        parse_command(_GET + tail)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "wire, parts",
    [
        (_GET + b"$ 3\r\nkey\r\n", [b"GET", b"key"]),
        (_GET + b"$+3\r\nkey\r\n", [b"GET", b"key"]),
        (_GET + b"$0\r\n\r\n", [b"GET", b""]),
        (b"*1\r\n$4\r\na\r\nb\r\n", [b"a\r\nb"]),  # CRLF inside a payload
    ],
)
def test_read_command_element_edge_cases(wire, parts):
    stream = wire + b"*1\r\n$4\r\nPING\r\n"
    assert parse_command(stream) == (parts, len(wire))  # exactly one command
    assert parse_command(stream, len(wire)) == ([b"PING"], len(stream))


def _parse_walk(buf):
    """parse_command from 0 to the end of buf: each (parts, end), then
    (None, need) if a command is cut short, or the ProtocolError."""
    out = []
    pos = 0
    try:
        while pos < len(buf):
            parts, end = parse_command(buf, pos)
            out.append((parts, end))
            if parts is None:
                break
            pos = end
    except ProtocolError as exc:
        out.append(("error", str(exc)))
    return out


def _split_walk(buf):
    """The same record from split_commands: each command with the end that
    parse_command gives it, where split_commands gives only the end of
    the last, checked against the walk's."""
    walk = _parse_walk(buf)
    commands = []
    try:
        end, need = split_commands(buf, commands)
    except ProtocolError as exc:
        end, need, error = None, 0, str(exc)
    else:
        error = None
    out = [(parts, walk[k][1]) for k, parts in enumerate(commands)]
    if end is not None:
        assert end == (out[-1][1] if out else 0)
    if need:
        out.append((None, need))
    if error is not None:
        out.append(("error", error))
    return out


_payloads = st.one_of(
    st.binary(max_size=6),
    st.lists(
        st.sampled_from([b"\r\n", b"\r", b"\n", b"$", b"*1", b"$3\r\n", b"x"]),
        max_size=4,
    ).map(b"".join),
    st.binary(min_size=512, max_size=520),
)


@st.composite
def _wire_commands(draw):
    """One command as encode_command renders it, or with its array header
    or first element header spelled with a leading zero or sign."""
    parts = draw(st.lists(_payloads, min_size=1, max_size=4))
    wire = encode_command(*parts)
    skew = draw(st.sampled_from([None, None, b"*0", b"$0", b"$+"]))
    if skew is None:
        return wire
    head = wire.index(b"\r\n") + 2  # just past the array header
    if skew == b"*0":
        return b"*0" + wire[1:]
    return wire[:head] + skew + wire[head + 1 :]


_tails = st.sampled_from(
    [
        b"",
        b"PING\r\n",  # inline command
        b"*0\r\n",  # empty array
        b"*1\r\n$-1\r\n",  # nil element
        b"*1\r\n:1\r\n",  # element not a bulk
        b"*2\r\n$3\r\nGET\n$1\r\nk\r\n",  # bare LF
        b"*1\r\n$3\r\nabcd\r\n",  # payload longer than declared
        b"*1024\r\n",  # count beyond split_commands' table
    ]
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_wire_commands(), max_size=4), _tails)
def test_split_commands_matches_parse_walk(commands, tail):
    stream = b"".join(commands) + tail
    # As the buffer's lines decide; with the split ending at the first
    # 8-byte block that holds no LF; and with no split at all.
    for block, short_line in (
        (protocol._PROBE_BYTES, protocol._SHORT_LINE),
        (8, 8),
        (protocol._PROBE_BYTES, len(stream) + 1),
    ):
        with mock.patch.multiple(protocol, _PROBE_BYTES=block, _SHORT_LINE=short_line):
            for cut in range(len(stream) + 1):
                buf = stream[:cut]
                assert _split_walk(buf) == _parse_walk(buf), cut

