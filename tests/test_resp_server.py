"""Socket-level behaviour of the bundled RESP server."""

import socket
import threading

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


def test_ping(client):
    assert client.call(b"PING") == b"PONG"


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
    assert client.call(b"HGET", b"h", b"f") == b"-5"
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
    assert client.call(b"HGET", b"h", b"f") == b"w"
    assert client.call(b"HGET", b"h", b"nope") is None
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
    assert client.call(b"HGET", b"h", b"f") == b"0"
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
    assert client.call(b"LLEN", b"L") == 3
    assert client.call(b"LRANGE", b"L", b"0", b"-1") == [b"a", b"b", b"c"]
    assert client.call(b"LRANGE", b"L", b"1", b"1") == [b"b"]
    assert client.call(b"LRANGE", b"L", b"-2", b"-1") == [b"b", b"c"]
    assert client.call(b"LRANGE", b"L", b"5", b"9") == []
    assert client.call(b"LRANGE", b"L", b"0", b"-5") == []
    assert client.call(b"LLEN", b"missing") == 0
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
    assert_error(client.call(b"PING", b"x", b"y"), "wrong number of arguments")


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
