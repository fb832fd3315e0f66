"""Size and range limits enforced at the API boundary."""

from .errors import Overflow, TypeConflict

MAX_ID_BYTES = 128
MAX_MAP_KEY_BYTES = 1024
MAX_ELEMENT_BYTES = 1024
MAX_BLOB_BYTES = 65536

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def check_int64(value: int) -> int:
    """Return value, or raise Overflow when it leaves the signed 64-bit range."""
    if not INT64_MIN <= value <= INT64_MAX:
        raise Overflow(f"{value} outside signed 64-bit range")
    return value


def check_int(value: int) -> int:
    """Return value if an int (not bool) in int64; else raise TypeError or Overflow."""
    if type(value) is int and INT64_MIN <= value <= INT64_MAX:
        return value
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected int, not {type(value).__name__}")
    return check_int64(value)


def as_int(raw) -> int:
    """Parse a stored counter value; raise TypeConflict when it is not one."""
    try:
        return int(raw)
    except (ValueError, TypeError):
        raise TypeConflict(f"value {raw!r} is not an integer") from None
