"""Deterministic flow and packet generation.

Flows are distinct 5-tuples drawn seeded from the benchmark address ranges
(198.18.0.0/16 -> 198.19.0.0/16). Replay prebuilds one packet per flow and
cycles, so the packet stream for (seed, n_flows, size) is a pure function
of its arguments.

Flow files are line based:

    flexstate-flows v1
    198.18.31.4,198.19.200.17,4242,80,6

Header first, then one flow per line as src_ip,dst_ip,src_port,dst_port,
proto with dotted-quad addresses.
"""

from __future__ import annotations

import itertools
import random

from .errors import FlowFileError
from .runtime import DEFAULT_PACKET_SIZE, MIN_PACKET_SIZE, Packet

FLOWFILE_HEADER = "flexstate-flows v1"

_SRC_BASE = 0xC6120000  # 198.18.0.0
_DST_BASE = 0xC6130000  # 198.19.0.0


def generate_flows(n_flows: int, seed: int) -> list[tuple]:
    """n distinct 5-tuples; collisions are redrawn, order is stable."""
    rng = random.Random(seed)
    seen: set[tuple] = set()
    flows: list[tuple] = []
    while len(flows) < n_flows:
        flow = (
            _SRC_BASE | rng.getrandbits(16),
            _DST_BASE | rng.getrandbits(16),
            rng.randint(1024, 65535),
            rng.randint(1024, 65535),
            rng.choice((6, 17)),
        )
        if flow in seen:
            continue
        seen.add(flow)
        flows.append(flow)
    return flows


def replay(
    flows: list[tuple],
    *,
    packet_size: int = DEFAULT_PACKET_SIZE,
    budget: int | None = None,
):
    """Packets cycling through flows; finite iff budget is given.

    Each flow's packet is built once, with tuple.__new__ over the five
    flow fields, packet_size and a None meta: the same Packet that
    NamedTuple's generated __new__ would build, for less setup time.
    """
    if not flows:
        raise FlowFileError("cannot replay an empty flow list")
    if packet_size < MIN_PACKET_SIZE:
        raise FlowFileError(f"packet_size below minimum {MIN_PACKET_SIZE}")
    new = tuple.__new__
    prebuilt = [new(Packet, (*flow, packet_size, None)) for flow in flows]
    stream = itertools.cycle(prebuilt)
    if budget is None:
        return stream
    return itertools.islice(stream, budget)


def _ip_text(ip: int) -> str:
    return f"{ip >> 24 & 255}.{ip >> 16 & 255}.{ip >> 8 & 255}.{ip & 255}"


def _is_decimal(text: str) -> bool:
    """Whether text is ASCII decimal digits only: str.isdigit alone also
    takes other scripts' digits and superscripts such as '²'."""
    return text.isascii() and text.isdigit()


def _ip_value(text: str, lineno: int) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise FlowFileError(f"line {lineno}: bad address {text!r}")
    value = 0
    for part in parts:
        if not _is_decimal(part) or (len(part) > 1 and part[0] == "0") or int(part) > 255:
            raise FlowFileError(f"line {lineno}: bad address {text!r}")
        value = (value << 8) | int(part)
    return value


def _int_field(text: str, lineno: int, what: str, top: int) -> int:
    if not _is_decimal(text):
        raise FlowFileError(f"line {lineno}: bad {what} {text!r}")
    value = int(text)
    if value > top:
        raise FlowFileError(f"line {lineno}: {what} {value} out of range")
    return value


def render_flow_file(flows: list[tuple]) -> str:
    lines = [FLOWFILE_HEADER]
    for src_ip, dst_ip, src_port, dst_port, proto in flows:
        lines.append(
            f"{_ip_text(src_ip)},{_ip_text(dst_ip)},{src_port},{dst_port},{proto}"
        )
    return "\n".join(lines) + "\n"


def parse_flow_file(text: str) -> list[tuple]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != FLOWFILE_HEADER:
        raise FlowFileError(f"missing {FLOWFILE_HEADER!r} header")
    flows = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 5:
            raise FlowFileError(f"line {lineno}: expected 5 comma-separated fields")
        flows.append(
            (
                _ip_value(fields[0], lineno),
                _ip_value(fields[1], lineno),
                _int_field(fields[2], lineno, "port", 65535),
                _int_field(fields[3], lineno, "port", 65535),
                _int_field(fields[4], lineno, "protocol", 255),
            )
        )
    if not flows:
        raise FlowFileError("flow file has no flows")
    return flows


def write_flow_file(path: str, flows: list[tuple]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(render_flow_file(flows))


def read_flow_file(path: str) -> list[tuple]:
    with open(path, "r", encoding="ascii") as fh:
        return parse_flow_file(fh.read())
