"""Socket-level behaviour of the bundled RESP server."""

import socket
import threading
import time

import pytest

from flexstate.errors import BindFailure
from flexstate.resp.protocol import RespError, encode_command, read_reply
from flexstate.resp.server import MiniRespServer


class Client:
    """Tiny synchronous RESP client used only by these tests."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        self.reader = self.sock.makefile("rb")

    def call(self, *parts):
        self.sock.sendall(encode_command(*parts))
        return read_reply(self.reader)

    def close(self):
        self.reader.close()
        self.sock.close()


@pytest.fixture
def client(mini_server):
    c = Client(mini_server.port)
    yield c
    c.close()


def assert_error(reply, fragment):
    assert isinstance(reply, RespError)
    assert fragment in reply.message


def test_set_get_del(client):
    assert client.call(b"SET", b"k", b"v") == b"OK"
    assert client.call(b"GET", b"k") == b"v"
    assert client.call(b"DEL", b"k") == 1
    assert client.call(b"GET", b"k") is None
    assert client.call(b"DEL", b"k") == 0


def test_del_multiple_keys(client):
    client.call(b"SET", b"a", b"1")
    client.call(b"SET", b"b", b"2")
    assert client.call(b"DEL", b"a", b"b", b"missing") == 2


def test_commands_case_insensitive(client):
    assert client.call(b"set", b"k", b"v") == b"OK"
    assert client.call(b"Get", b"k") == b"v"


def test_incrby(client):
    assert client.call(b"INCRBY", b"c", b"5") == 5
    assert client.call(b"INCRBY", b"c", b"-2") == 3
    assert client.call(b"GET", b"c") == b"3"


def test_incrby_on_non_integer(client):
    client.call(b"SET", b"k", b"abc")
    assert_error(client.call(b"INCRBY", b"k", b"1"), "not an integer")


def test_incrby_overflow(client):
    client.call(b"SET", b"c", str(2**63 - 1).encode())
    assert_error(client.call(b"INCRBY", b"c", b"1"), "overflow")


@pytest.mark.parametrize("delta", [2**63, -(2**63) - 1, 2**64])
def test_increment_argument_outside_int64_refused(client, delta):
    # As Redis: the argument itself must fit int64, whatever the sum.
    client.call(b"SET", b"c", b"-5")
    client.call(b"HSET", b"h", b"f", b"-5")
    arg = str(delta).encode()
    for reply in (
        client.call(b"INCRBY", b"c", arg),
        client.call(b"HINCRBY", b"h", b"f", arg),
        client.call(b"HINCRBY", b"fresh", b"f", arg),
    ):
        assert isinstance(reply, RespError)
        assert reply.message == "ERR value is not an integer or out of range"
    assert client.call(b"GET", b"c") == b"-5"
    assert client.call(b"HGETALL", b"h") == [b"f", b"-5"]
    assert client.call(b"KEYS", b"fresh") == []
    limit = str(2**63 - 1).encode()
    assert client.call(b"INCRBY", b"c", limit) == 2**63 - 6
    assert client.call(b"HINCRBY", b"h", b"f", limit) == 2**63 - 6


def test_wrongtype(client):
    client.call(b"RPUSH", b"L", b"x")
    assert_error(client.call(b"GET", b"L"), "WRONGTYPE")
    assert_error(client.call(b"HSET", b"L", b"f", b"v"), "WRONGTYPE")
    assert_error(client.call(b"SADD", b"L", b"m"), "WRONGTYPE")


def test_hash_commands(client):
    assert client.call(b"HSET", b"h", b"f", b"v") == 1
    assert client.call(b"HSET", b"h", b"f", b"w") == 0
    assert client.call(b"HGETALL", b"h") == [b"f", b"w"]
    assert client.call(b"HDEL", b"h", b"f") == 1
    # Empty hash disappears entirely.
    assert client.call(b"HGETALL", b"h") == []
    assert client.call(b"DEL", b"h") == 0


def test_hset_variadic_counts_new_fields(client):
    assert client.call(b"HSET", b"h", b"a", b"1", b"b", b"2") == 2
    # One new field, one overwritten; a repeated field is new only once
    # and its last value wins.
    assert client.call(b"HSET", b"h", b"a", b"3", b"c", b"4", b"c", b"5") == 1
    assert client.call(b"HGETALL", b"h") == [b"a", b"3", b"b", b"2", b"c", b"5"]


def test_hset_unpaired_field_is_arity_error(client):
    assert_error(
        client.call(b"HSET", b"h", b"a", b"1", b"b"), "wrong number of arguments"
    )
    assert_error(client.call(b"HSET", b"h", b"a"), "wrong number of arguments")
    # Nothing was written, not even the first pair.
    assert client.call(b"HGETALL", b"h") == []
    assert client.call(b"KEYS", b"*") == []


def test_hincrby(client):
    assert client.call(b"HINCRBY", b"h", b"f", b"7") == 7
    assert client.call(b"HINCRBY", b"h", b"f", b"-7") == 0
    assert client.call(b"HGETALL", b"h") == [b"f", b"0"]
    client.call(b"HSET", b"h", b"g", b"xyz")
    assert_error(client.call(b"HINCRBY", b"h", b"g", b"1"), "not an integer")


def test_set_commands(client):
    assert client.call(b"SADD", b"s", b"a") == 1
    assert client.call(b"SADD", b"s", b"a") == 0
    client.call(b"SADD", b"s", b"b")
    assert client.call(b"SMEMBERS", b"s") == [b"a", b"b"]
    assert client.call(b"SREM", b"s", b"a") == 1
    assert client.call(b"SREM", b"s", b"zz") == 0
    client.call(b"SREM", b"s", b"b")
    # Empty set disappears entirely.
    assert client.call(b"SMEMBERS", b"s") == []
    assert client.call(b"DEL", b"s") == 0


def test_list_commands(client):
    assert client.call(b"RPUSH", b"L", b"a") == 1
    assert client.call(b"RPUSH", b"L", b"b", b"c") == 3
    assert client.call(b"LRANGE", b"L", b"0", b"-1") == [b"a", b"b", b"c"]
    assert client.call(b"LRANGE", b"L", b"1", b"1") == [b"b"]
    assert client.call(b"LRANGE", b"L", b"-2", b"-1") == [b"b", b"c"]
    assert client.call(b"LRANGE", b"L", b"5", b"9") == []
    assert client.call(b"LRANGE", b"L", b"0", b"-5") == []
    assert client.call(b"LRANGE", b"missing", b"0", b"-1") == []


def test_keys_glob(client):
    client.call(b"SET", b"nf1@ins1@0@Counter@c", b"1")
    client.call(b"SET", b"nf1@ins1@1@Counter@c", b"2")
    client.call(b"SET", b"other", b"3")
    got = client.call(b"KEYS", b"nf1@ins1@*")
    assert sorted(got) == [b"nf1@ins1@0@Counter@c", b"nf1@ins1@1@Counter@c"]
    assert client.call(b"KEYS", b"*") != []


def test_flushall(client):
    client.call(b"SET", b"k", b"v")
    client.call(b"RPUSH", b"L", b"x")
    assert client.call(b"FLUSHALL") == b"OK"
    assert client.call(b"KEYS", b"*") == []


def test_arity_errors(client):
    assert_error(client.call(b"SET", b"k"), "wrong number of arguments")
    assert_error(client.call(b"GET"), "wrong number of arguments")
    assert_error(client.call(b"INCRBY", b"c", b"1", b"2"), "wrong number of arguments")


def test_unknown_command(client):
    assert_error(client.call(b"EXPLODE"), "unknown command")


def test_pipelining(client):
    wire = b"".join(
        encode_command(b"INCRBY", b"c", str(i).encode()) for i in range(1, 11)
    )
    client.sock.sendall(wire)
    got = [read_reply(client.reader) for _ in range(10)]
    assert got[-1] == 55


def test_concurrent_clients(mini_server):
    def worker(tag, results, idx):
        c = Client(mini_server.port)
        for _ in range(200):
            c.call(b"INCRBY", b"shared", b"1")
            c.call(b"SET", tag, tag)
        results[idx] = c.call(b"GET", tag)
        c.close()

    results = [None] * 4
    threads = [
        threading.Thread(target=worker, args=(b"t%d" % i, results, i))
        for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [b"t0", b"t1", b"t2", b"t3"]
    c = Client(mini_server.port)
    assert c.call(b"GET", b"shared") == b"800"
    c.close()


def test_bind_failure():
    first = MiniRespServer()
    first.start()
    try:
        second = MiniRespServer(port=first.port)
        with pytest.raises(BindFailure):
            second.start()
    finally:
        first.stop()


def test_data_survives_dropped_connection(mini_server):
    c = Client(mini_server.port)
    c.call(b"SET", b"k", b"v")
    mini_server.drop_connections()
    c2 = Client(mini_server.port)
    assert c2.call(b"GET", b"k") == b"v"
    c2.close()


def test_endpoint_property(mini_server):
    host, port = mini_server.endpoint.rsplit(":", 1)
    assert host == "127.0.0.1"
    assert int(port) == mini_server.port


def test_command_names_match_in_any_case(client):
    assert client.call(b"set", b"k", b"v") == b"OK"
    assert client.call(b"GeT", b"k") == b"v"


def test_error_replies_byte_identical(mini_server):
    sock = socket.create_connection(("127.0.0.1", mini_server.port), timeout=5)
    try:
        for command, reply in (
            ((b"EXPLODE",), b"-ERR unknown command 'EXPLODE'\r\n"),
            ((b"explode", b"x"), b"-ERR unknown command 'EXPLODE'\r\n"),
            ((b"GET",), b"-ERR wrong number of arguments for 'get' command\r\n"),
            ((b"hSet", b"h", b"f"), b"-ERR wrong number of arguments for 'hset' command\r\n"),
            (
                (b"HSET", b"h", b"a", b"1", b"b"),
                b"-ERR wrong number of arguments for 'hset' command\r\n",
            ),
        ):
            sock.sendall(encode_command(*command))
            assert sock.recv(256) == reply
    finally:
        sock.close()


_NOT_INT = "ERR value is not an integer or out of range"


@pytest.mark.parametrize(
    "command",
    [
        (b"INCRBY", b"c", b"1_0"),
        (b"INCRBY", b"c", b" 7 "),
        (b"HINCRBY", b"h", b"f", b"+0_1"),
        (b"LRANGE", b"l", b"0", b"1_0"),
        (b"INCRBY", b"c", b"+5"),
        (b"INCRBY", b"c", b"05"),
        (b"INCRBY", b"c", b"-0"),
        (b"INCRBY", b"c", b""),
        (b"INCRBY", b"c", b"-"),
        (b"INCRBY", b"c", b"5\n"),
        (b"HINCRBY", b"h", b"f", "١".encode()),  # a non-ASCII digit
    ],
    ids=lambda command: repr(b" ".join(command))[2:-1],
)
def test_integer_arguments_redis_refuses_are_refused(client, command):
    # Redis parses these with string2ll: an optional "-", then ASCII
    # digits with no leading zero, within int64; nothing else.
    client.call(b"SET", b"c", b"10")
    client.call(b"HSET", b"h", b"f", b"1")
    client.call(b"RPUSH", b"l", b"x", b"y")
    reply = client.call(*command)
    assert isinstance(reply, RespError)
    assert reply.message == _NOT_INT
    assert client.call(b"GET", b"c") == b"10"
    assert client.call(b"HGETALL", b"h") == [b"f", b"1"]


def test_stored_value_redis_refuses_is_not_a_counter(client):
    assert client.call(b"SET", b"c", b"1_0") == b"OK"
    reply = client.call(b"INCRBY", b"c", b"1")
    assert isinstance(reply, RespError)
    assert reply.message == _NOT_INT
    assert client.call(b"GET", b"c") == b"1_0"
    client.call(b"HSET", b"h", b"f", b"+5")
    reply = client.call(b"HINCRBY", b"h", b"f", b"1")
    assert isinstance(reply, RespError)
    assert reply.message == "ERR hash value is not an integer"
    assert client.call(b"HGETALL", b"h") == [b"f", b"+5"]


def test_integer_spellings_redis_accepts(client):
    assert client.call(b"INCRBY", b"c", b"0") == 0
    assert client.call(b"INCRBY", b"c", b"-9223372036854775808") == -(2**63)
    assert client.call(b"INCRBY", b"c", b"9223372036854775807") == -1
    client.call(b"SET", b"z", b"-12")
    assert client.call(b"INCRBY", b"z", b"10") == -2
    client.call(b"HSET", b"h", b"f", b"0")
    assert client.call(b"HINCRBY", b"h", b"f", b"-3") == -3
    client.call(b"RPUSH", b"l", b"a", b"b", b"c")
    assert client.call(b"LRANGE", b"l", b"-2", b"10") == [b"b", b"c"]


def _framing_stream():
    """One pipelined stream, as its commands' wire bytes and their replies:
    a 256-pair HSET whose binary fields hold CRLF, among INCRBYs, then
    the hash read back whole."""
    fields = [b"\r\n%d\x00\r" % i for i in range(256)]
    hset = [b"HSET", b"h"]
    for i, f in enumerate(fields):
        hset += [f, b"v\r\n%d" % i]
    commands = [(b"FLUSHALL",)]
    commands += [(b"INCRBY", b"c", b"%d" % i) for i in range(1, 4)]
    commands += [tuple(hset)]
    commands += [(b"INCRBY", b"c", b"%d" % i) for i in range(4, 7)]
    commands += [(b"HGETALL", b"h")]
    replies = [b"+OK\r\n", b":1\r\n", b":3\r\n", b":6\r\n", b":256\r\n"]
    replies += [b":10\r\n", b":15\r\n", b":21\r\n"]
    bulks = b"".join(b"$%d\r\n%s\r\n" % (len(part), part) for part in hset[2:])
    replies += [b"*512\r\n" + bulks]
    return [encode_command(*c) for c in commands], replies


def _recv_exactly(sock, n):
    data = b""
    while len(data) < n:
        more = sock.recv(n - len(data))
        assert more, "connection closed early"
        data += more
    return data


def test_pipelined_stream_split_at_every_offset(mini_server):
    wire, replies = _framing_stream()
    stream = b"".join(wire)
    want = b"".join(replies)
    ends = [len(b"".join(wire[: i + 1])) for i in range(len(wire))]
    sock = socket.create_connection(("127.0.0.1", mini_server.port), timeout=5)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        sock.sendall(stream)
        assert _recv_exactly(sock, len(want)) == want
        for cut in range(1, len(stream)):
            sock.sendall(stream[:cut])
            # Take the replies to the commands the first piece completes
            # before the rest goes, so the server has read up to them.
            done = sum(1 for end in ends if end <= cut)
            head = _recv_exactly(sock, len(b"".join(replies[:done])))
            sock.sendall(stream[cut:])
            assert head + _recv_exactly(sock, len(want) - len(head)) == want
    finally:
        sock.close()


def test_protocol_error_after_valid_commands_in_one_send(mini_server):
    sock = socket.create_connection(("127.0.0.1", mini_server.port), timeout=5)
    try:
        sock.sendall(
            encode_command(b"SET", b"a", b"1")
            + encode_command(b"INCRBY", b"c", b"2")
            + b"PING\r\n"
        )
        want = (
            b"+OK\r\n:2\r\n"
            b"-ERR Protocol error: inline commands not accepted: b'PING'\r\n"
        )
        assert _recv_exactly(sock, len(want)) == want
        assert sock.recv(64) == b""  # then the server closes
    finally:
        sock.close()
    c = Client(mini_server.port)
    assert c.call(b"GET", b"a") == b"1"  # the commands before it applied
    c.close()


def test_multi_mib_value_round_trip(client):
    value = bytes(range(256)) * (5 * 4096) + b"\r\n"  # 5 MiB and a CRLF
    assert client.call(b"SET", b"big", value) == b"OK"
    assert client.call(b"GET", b"big") == value
    assert client.call(b"HSET", b"h", b"f", value, b"g", b"1") == 2
    assert client.call(b"HGETALL", b"h") == [b"f", value, b"g", b"1"]


def test_drop_connections_ends_every_serving_thread(mini_server):
    clients = [Client(mini_server.port) for _ in range(3)]
    for c in clients:
        assert c.call(b"SET", b"k", b"v") == b"OK"
    # One connection holds a cut command, one a cut bulk payload.
    clients[1].sock.sendall(b"*2\r\n$3\r\nGET\r\n")
    clients[2].sock.sendall(b"*2\r\n$3\r\nGET\r\n$100\r\nabc")
    serving = list(mini_server._conns.values())
    assert len(serving) == 3
    mini_server.drop_connections()
    for t in serving:
        t.join(timeout=5)
        assert not t.is_alive()
    for c in clients:
        c.close()
    c = Client(mini_server.port)
    assert c.call(b"GET", b"k") == b"v"
    c.close()


def test_closed_connections_are_forgotten(mini_server):
    # Each serving thread drops itself and its socket when its client
    # leaves, so a long-lived server holds only what is still open.
    for _ in range(50):
        c = Client(mini_server.port)
        assert c.call(b"SET", b"k", b"v") == b"OK"
        c.close()
    deadline = time.monotonic() + 5
    while mini_server._conns and time.monotonic() < deadline:
        time.sleep(0.01)
    assert mini_server._conns == {}


def test_stop_leaves_no_thread_and_no_connection():
    server = MiniRespServer().start()
    port = server.port
    clients = [Client(port) for _ in range(3)]
    for c in clients:
        assert c.call(b"SET", b"k", b"v") == b"OK"
    clients[1].sock.sendall(b"*2\r\n$3\r\nGET\r\n")  # a cut command
    serving = list(server._conns.values())
    assert len(serving) == 3
    server.stop()
    assert not server._acceptor.is_alive()
    assert not any(t.is_alive() for t in serving)
    assert server._conns == {}
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=5)
    for c in clients:
        c.close()


def test_variadic_writes_count_each_entry_once(client):
    assert client.call(b"SADD", b"s", b"a", b"a", b"b") == 2
    assert client.call(b"SREM", b"s", b"a", b"a", b"zz") == 1
    assert client.call(b"HSET", b"h", b"f", b"1", b"g", b"2") == 2
    assert client.call(b"HDEL", b"h", b"f", b"f", b"zz") == 1
    assert client.call(b"HDEL", b"h", b"g") == 1
    assert client.call(b"SREM", b"s", b"b") == 1
    assert client.call(b"KEYS", b"*") == []  # both emptied keys went


def test_argument_is_checked_before_the_key_type(client):
    # As Redis: a refused integer argument wins over WRONGTYPE, and
    # WRONGTYPE wins before anything is counted or written.
    client.call(b"RPUSH", b"L", b"x")
    assert client.call(b"INCRBY", b"L", b"x").message == _NOT_INT
    assert client.call(b"HINCRBY", b"L", b"f", b"x").message == _NOT_INT
    for command in (
        (b"INCRBY", b"L", b"1"),
        (b"HINCRBY", b"L", b"f", b"1"),
        (b"HDEL", b"L", b"x"),
        (b"SREM", b"L", b"x"),
        (b"SADD", b"L", b"x"),
    ):
        assert_error(client.call(*command), "WRONGTYPE")
    assert client.call(b"LRANGE", b"L", b"0", b"-1") == [b"x"]
