"""Store key grammar.

Every structure lives under one flat key of the form

    nf@instance@core@Type@id

The five fields are joined with '@', so '@' is banned inside tokens. This
makes keys self-describing (any driver can recover owner, core, and type
from the key alone) and gives each core its own disjoint key range, which
is what lets per-core caches write back without cross-core coordination.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from .errors import InvalidId, InvalidToken
from .limits import MAX_ID_BYTES

SEPARATOR = "@"

# Printable ASCII except '@' (0x40) and whitespace.
_TOKEN_RE = re.compile(r"[!-?A-~]+")

_CORE_RE = re.compile(r"0|[1-9][0-9]*")


class StructureType(enum.Enum):
    """Canonical type tokens as they appear inside keys."""

    NAME_VALUE = "Namevalue"
    COUNTER = "Counter"
    LIST = "List"
    SET = "Set"
    MAP = "Map"
    COUNTER_MAP = "Countermap"

    @property
    def token(self) -> str:
        return self.value


_TYPE_BY_TOKEN = {t.value: t for t in StructureType}


def check_token(text: str, what: str) -> str:
    if not isinstance(text, str) or not _TOKEN_RE.fullmatch(text):
        raise InvalidToken(f"{what} {text!r} must be printable ASCII without '@'")
    return text


def check_structure_id(structure_id: str) -> str:
    if not isinstance(structure_id, str) or not _TOKEN_RE.fullmatch(structure_id):
        raise InvalidId(
            f"structure id {structure_id!r} must be printable ASCII without '@'"
        )
    if len(structure_id.encode("ascii")) > MAX_ID_BYTES:
        raise InvalidId(f"structure id longer than {MAX_ID_BYTES} bytes")
    return structure_id


@dataclass(frozen=True, slots=True)
class StoreKey:
    nf_id: str
    instance_id: str
    core_id: int
    structure_type: StructureType
    structure_id: str
    # render() as ASCII bytes, computed once: the wire drivers send it with
    # every command. Not part of equality, hash or repr.
    encoded: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "encoded", self.render().encode("ascii"))

    def render(self) -> str:
        return SEPARATOR.join(
            (
                self.nf_id,
                self.instance_id,
                str(self.core_id),
                self.structure_type.token,
                self.structure_id,
            )
        )

    def __str__(self) -> str:
        return self.render()


def build_key(
    nf_id: str,
    instance_id: str,
    core_id: int,
    structure_type: StructureType,
    structure_id: str,
) -> StoreKey:
    check_token(nf_id, "nf id")
    check_token(instance_id, "instance id")
    if not isinstance(core_id, int) or isinstance(core_id, bool) or core_id < 0:
        raise InvalidToken(f"core id {core_id!r} must be a non-negative integer")
    if not isinstance(structure_type, StructureType):
        raise InvalidToken(f"unknown structure type {structure_type!r}")
    check_structure_id(structure_id)
    return StoreKey(nf_id, instance_id, core_id, structure_type, structure_id)


def parse_key(text: str) -> StoreKey:
    """Inverse of StoreKey.render; rejects anything render cannot produce."""
    parts = text.split(SEPARATOR)
    if len(parts) != 5:
        raise InvalidToken(f"key {text!r} must have 5 '@'-separated fields")
    nf_id, instance_id, core_text, type_token, structure_id = parts
    if not _CORE_RE.fullmatch(core_text):
        raise InvalidToken(f"core field {core_text!r} is not a decimal integer")
    structure_type = _TYPE_BY_TOKEN.get(type_token)
    if structure_type is None:
        raise InvalidToken(f"unknown type token {type_token!r}")
    check_token(nf_id, "nf id")
    check_token(instance_id, "instance id")
    check_structure_id(structure_id)
    return StoreKey(nf_id, instance_id, int(core_text), structure_type, structure_id)


def key_prefix(nf_id: str, instance_id: str) -> str:
    """Prefix covering every key of one NF instance, all cores and types."""
    check_token(nf_id, "nf id")
    check_token(instance_id, "instance id")
    return f"{nf_id}{SEPARATOR}{instance_id}{SEPARATOR}"
