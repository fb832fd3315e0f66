"""Synthetic traffic: flow generation, replay, flow files."""

import pytest

from flexstate.errors import FlowFileError
from flexstate.runtime import Packet
from flexstate.trafficgen import (
    FLOWFILE_HEADER,
    generate_flows,
    parse_flow_file,
    read_flow_file,
    render_flow_file,
    replay,
    write_flow_file,
)


def test_flows_deterministic_by_seed():
    assert generate_flows(1000, seed=42) == generate_flows(1000, seed=42)
    assert generate_flows(1000, seed=42) != generate_flows(1000, seed=43)


def test_flows_distinct_and_in_range():
    flows = generate_flows(50000, seed=0)
    assert len(flows) == len(set(flows)) == 50000
    for src, dst, sport, dport, proto in flows[:2000]:
        assert 0xC6120000 <= src <= 0xC612FFFF  # 198.18.0.0/16
        assert 0xC6130000 <= dst <= 0xC613FFFF  # 198.19.0.0/16
        assert 1024 <= sport <= 65535
        assert 1024 <= dport <= 65535
        assert proto in (6, 17)


def test_replay_packets_equal_namedtuple_built_ones():
    flows = generate_flows(50, seed=3)
    packets = list(replay(flows, packet_size=256, budget=50))
    for flow, pkt in zip(flows, packets):
        assert type(pkt) is Packet
        assert pkt == Packet(*flow, 256)
        assert pkt.size == 256
        assert pkt.meta is None


def test_replay_budget_exact():
    flows = generate_flows(10, seed=1)
    packets = list(replay(flows, budget=25))
    assert len(packets) == 25
    # Round-robin over the flow list.
    first = packets[0]
    again = packets[10]
    assert (first.src_ip, first.src_port) == (again.src_ip, again.src_port)


def test_replay_packet_size():
    flows = generate_flows(3, seed=2)
    for p in replay(flows, packet_size=128, budget=6):
        assert p.size == 128
    with pytest.raises(FlowFileError, match="packet_size below minimum"):
        replay(flows, packet_size=10, budget=6)


def test_replay_rejects_empty():
    with pytest.raises(FlowFileError):
        next(iter(replay([], budget=10)))


def test_flow_file_round_trip(tmp_path):
    flows = generate_flows(500, seed=3)
    path = tmp_path / "flows.txt"
    write_flow_file(path, flows)
    assert read_flow_file(path) == flows
    text = path.read_text()
    assert text.startswith(FLOWFILE_HEADER + "\n")


def test_flow_file_render_frozen():
    flows = [(0xC6120001, 0xC6130002, 5000, 80, 6)]
    text = render_flow_file(flows)
    lines = text.strip().split("\n")
    assert lines[0] == FLOWFILE_HEADER
    assert lines[1] == "198.18.0.1,198.19.0.2,5000,80,6"


@pytest.mark.parametrize(
    "body",
    [
        "",  # empty file
        "not-the-header\n198.18.0.1,198.19.0.2,5000,80,6\n",
        FLOWFILE_HEADER + "\n198.18.0.1,198.19.0.2,5000,80\n",  # four fields
        FLOWFILE_HEADER + "\n198.18.0.1,198.19.0.2,5000,80,6,9\n",  # six fields
        FLOWFILE_HEADER + "\n198.18.0.01,198.19.0.2,5000,80,6\n",  # leading zero
        FLOWFILE_HEADER + "\n198.18.0.256,198.19.0.2,5000,80,6\n",  # octet range
        FLOWFILE_HEADER + "\nnotanip,198.19.0.2,5000,80,6\n",
        FLOWFILE_HEADER + "\n198.18.0.1,198.19.0.2,70000,80,6\n",  # port range
        FLOWFILE_HEADER + "\n198.18.0.1,198.19.0.2,5000,80,300\n",  # proto range
        FLOWFILE_HEADER + "\n198.18.0.1,198.19.0.2,8\u00b2,80,6\n",  # superscript port
        FLOWFILE_HEADER + "\n198.18.0.\u00b2,198.19.0.2,5000,80,6\n",  # superscript octet
        FLOWFILE_HEADER + "\n198.18.0.\u0661,198.19.0.2,5000,80,6\n",  # Arabic-Indic 1
        FLOWFILE_HEADER + "\n",  # no flows
        pytest.param(
            FLOWFILE_HEADER + "\n198.18.0.1,198.19.0.2,5000,80," + "6" * 5000 + "\n",
            id="digits-past-int-limit",
        ),
    ],
)
def test_flow_file_rejects_bad_input(body):
    with pytest.raises(FlowFileError):
        parse_flow_file(body)


def test_flow_file_skips_blank_lines():
    text = FLOWFILE_HEADER + "\n\n198.18.0.1,198.19.0.2,5000,80,6\n\n"
    assert parse_flow_file(text) == [(0xC6120001, 0xC6130002, 5000, 80, 6)]


@pytest.mark.parametrize(
    "raw, field",
    [
        ("²".encode("utf-8"), "'²'"),  # a superscript two, as UTF-8
        (b"\xff", "'\\udcff'"),  # not UTF-8 at all
    ],
    ids=["superscript", "invalid-utf8"],
)
def test_read_flow_file_refuses_non_ascii_by_line(tmp_path, raw, field):
    # Refused as the bad field of its line, not as an undecodable byte offset.
    path = tmp_path / "flows.txt"
    good = b"198.18.0.1,198.19.0.2,5000,80,6\n"
    path.write_bytes(FLOWFILE_HEADER.encode("ascii") + b"\n" + good + good[:-2] + raw + b"\n")
    with pytest.raises(FlowFileError) as caught:
        read_flow_file(path)
    assert str(caught.value) == f"line 3: bad protocol {field}"
