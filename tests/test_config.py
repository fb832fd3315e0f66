"""Operator configuration: parsing and validation."""

import pytest

from flexstate.config import (
    load_config,
    parse_config,
    parse_endpoint,
)
from flexstate.errors import (
    BadDuration,
    ConfigSyntaxError,
    MissingField,
    UnknownDriver,
)

FULL = (
    "NF id: nf1;\n"
    "NF instance id: ins1;\n"
    "driver: flatkvs;\n"
    "endpoint: local;\n"
    "flush interval us: 1000;\n"
)


def test_parse_full_file():
    cfg = parse_config(FULL)
    assert cfg.nf_id == "nf1"
    assert cfg.instance_id == "ins1"
    assert cfg.driver_label == "flatkvs"
    assert cfg.endpoint == "local"
    assert cfg.flush_interval_us == 1000


def test_defaults_for_optional_fields():
    cfg = parse_config("NF id: nf1; NF instance id: ins1; driver: tablestore;")
    assert cfg.endpoint == "local"
    assert cfg.flush_interval_us == 1000


def test_multiple_statements_per_line_and_comments():
    text = (
        "# deployment alpha\n"
        "NF id: nf2; NF instance id: ins9;  # identity\n"
        "driver: resp; endpoint: 127.0.0.1:6379;\n"
        "\n"
        "flush interval us: 500;\n"
    )
    cfg = parse_config(text)
    assert cfg.nf_id == "nf2"
    assert cfg.driver_label == "resp"
    assert cfg.endpoint == "127.0.0.1:6379"
    assert cfg.flush_interval_us == 500


def test_last_assignment_wins():
    cfg = parse_config(FULL + "driver: tablestore;\n")
    assert cfg.driver_label == "tablestore"


def test_missing_semicolon_rejected():
    with pytest.raises(ConfigSyntaxError):
        parse_config("NF id: nf1\nNF instance id: ins1; driver: flatkvs;")


def test_unknown_key_rejected():
    with pytest.raises(ConfigSyntaxError):
        parse_config(FULL + "colour: blue;\n")


def test_missing_required_field():
    with pytest.raises(MissingField):
        parse_config("NF id: nf1; driver: flatkvs;")


def test_zero_interval_rejected():
    with pytest.raises(BadDuration):
        parse_config("NF id: a; NF instance id: b; driver: flatkvs; flush interval us: 0;")


def test_negative_interval_rejected():
    with pytest.raises(BadDuration):
        parse_config(
            "NF id: a; NF instance id: b; driver: flatkvs; flush interval us: -5;"
        )


def test_non_numeric_interval_rejected():
    with pytest.raises(BadDuration):
        parse_config(
            "NF id: a; NF instance id: b; driver: flatkvs; flush interval us: fast;"
        )


def test_unknown_driver_rejected():
    with pytest.raises(UnknownDriver):
        parse_config("NF id: a; NF instance id: b; driver: nosuch;")


def test_endpoint_parsing():
    assert parse_endpoint("local") is None
    assert parse_endpoint("127.0.0.1:6379") == ("127.0.0.1", 6379)
    assert parse_endpoint("example.org:1") == ("example.org", 1)
    with pytest.raises(ConfigSyntaxError):
        parse_endpoint("no-port")
    with pytest.raises(ConfigSyntaxError):
        parse_endpoint("host:0")
    with pytest.raises(ConfigSyntaxError):
        parse_endpoint("host:notaport")


def test_load_config(tmp_path):
    path = tmp_path / "flex.conf"
    path.write_text(FULL)
    assert load_config(path) == parse_config(FULL)
