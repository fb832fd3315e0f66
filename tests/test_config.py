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
    InvalidToken,
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


@pytest.mark.parametrize(
    "value",
    ["\u0661\u0660", "1_000", "+1000"],
    ids=["arabic-indic", "underscore", "plus"],
)
def test_interval_outside_ascii_digits_rejected(value):
    with pytest.raises(BadDuration, match="is not decimal"):
        parse_config(
            f"NF id: a; NF instance id: b; driver: flatkvs; flush interval us: {value};"
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
    # int() also reads these as 80: a port is ASCII decimal digits only.
    for port in ("\u0668\u0660", "+80", "8_0", " 80", "80 "):
        with pytest.raises(ConfigSyntaxError, match="is not decimal"):
            parse_endpoint(f"127.0.0.1:{port}")


@pytest.mark.parametrize(
    "raw, shown",
    [("\u00b2".encode("utf-8"), "'nf\u00b2'"), (b"\xff", "'nf\\udcff'")],
    ids=["superscript", "invalid-utf8"],
)
def test_load_config_refuses_non_ascii_as_a_bad_value(tmp_path, raw, shown):
    # Refused as the value it spoils, not as an undecodable byte offset.
    path = tmp_path / "flex.conf"
    path.write_bytes(b"NF id: nf" + raw + b";\nNF instance id: ins1;\ndriver: flatkvs;\n")
    with pytest.raises(InvalidToken) as caught:
        load_config(path)
    assert str(caught.value) == f"nf id {shown} must be printable ASCII without '@'"


def test_load_config_reads_non_ascii_comments(tmp_path):
    path = tmp_path / "flex.conf"
    path.write_bytes(FULL.encode("ascii") + "# caf\u00e9\n".encode("utf-8"))
    assert load_config(path) == parse_config(FULL)


def test_load_config(tmp_path):
    path = tmp_path / "flex.conf"
    path.write_text(FULL)
    assert load_config(path) == parse_config(FULL)
