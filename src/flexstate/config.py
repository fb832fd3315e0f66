"""Runtime configuration.

Config files are plain text: one or more `key: value;` statements per line,
`#` starts a comment. Recognized keys:

    NF id: nf1;
    NF instance id: ins1;
    driver: flatkvs;
    endpoint: local;
    flush interval us: 1000;

Switching the store means editing `driver` (and `endpoint` for networked
stores); nothing else in a program changes. Unknown keys are rejected; for
repeated keys the last statement wins.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadDuration, ConfigSyntaxError, MissingField, UnknownDriver
from .keys import check_token
from .limits import is_decimal

DEFAULT_FLUSH_INTERVAL_US = 1000

_KEY_TO_FIELD = {
    "NF id": "nf_id",
    "NF instance id": "instance_id",
    "driver": "driver_label",
    "endpoint": "endpoint",
    "flush interval us": "flush_interval_us",
}

_REQUIRED = ("nf_id", "instance_id", "driver_label")


@dataclass
class FlexConfig:
    nf_id: str
    instance_id: str
    driver_label: str
    endpoint: str = "local"
    flush_interval_us: int = DEFAULT_FLUSH_INTERVAL_US

    def validate(self) -> "FlexConfig":
        check_token(self.nf_id, "nf id")
        check_token(self.instance_id, "instance id")
        from . import drivers

        if self.driver_label not in drivers.known_labels():
            raise UnknownDriver(
                f"driver {self.driver_label!r}; known: {sorted(drivers.known_labels())}"
            )
        check_flush_interval(self.flush_interval_us)
        parse_endpoint(self.endpoint)
        return self


def check_flush_interval(interval_us) -> None:
    """Refuse a flush interval that is not a positive int of microseconds."""
    if type(interval_us) is not int or interval_us <= 0:  # a bool is refused
        raise BadDuration(
            f"flush interval must be a positive integer of microseconds, "
            f"got {interval_us!r}"
        )


def parse_endpoint(endpoint: str) -> tuple[str, int] | None:
    """Return (host, port) for networked endpoints, None for "local"."""
    if endpoint == "local":
        return None
    host, sep, port_text = endpoint.rpartition(":")
    if not sep or not host:
        raise ConfigSyntaxError(f"endpoint {endpoint!r} must be host:port or 'local'")
    if not is_decimal(port_text):
        raise ConfigSyntaxError(f"endpoint port {port_text!r} is not decimal")
    port = int(port_text)
    if not 0 < port < 65536:
        raise ConfigSyntaxError(f"endpoint port {port} out of range")
    return host, port


def parse_config(text: str) -> FlexConfig:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        statements = line.split(";")
        if statements[-1].strip():
            raise ConfigSyntaxError(f"line {lineno}: statement missing trailing ';'")
        for stmt in statements[:-1]:
            stmt = stmt.strip()
            if not stmt:
                continue
            key, sep, value = stmt.partition(":")
            if not sep:
                raise ConfigSyntaxError(f"line {lineno}: {stmt!r} is not 'key: value'")
            key = key.strip()
            value = value.strip()
            if key not in _KEY_TO_FIELD:
                raise ConfigSyntaxError(f"line {lineno}: unknown key {key!r}")
            if not value:
                raise ConfigSyntaxError(f"line {lineno}: empty value for {key!r}")
            if key == "flush interval us":
                if not is_decimal(value):
                    raise BadDuration(f"line {lineno}: flush interval {value!r} is not decimal")
                values["flush_interval_us"] = int(value)
            else:
                values[_KEY_TO_FIELD[key]] = value
    for field_name in _REQUIRED:
        if field_name not in values:
            label = next(k for k, v in _KEY_TO_FIELD.items() if v == field_name)
            raise MissingField(f"config is missing required key {label!r}")
    return FlexConfig(**values).validate()


def load_config(path: str) -> FlexConfig:
    # Any byte decodes, so a non-ASCII one is refused as a bad value of its line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_config(fh.read())
