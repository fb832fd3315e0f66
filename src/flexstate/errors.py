"""Exception hierarchy shared across the library.

Everything raised on purpose derives from StateError so callers can catch
one base. Driver/transport failures and configuration problems get their
own branches.
"""


class StateError(Exception):
    """Base class for all library errors."""


class InvalidId(StateError):
    """Structure id is empty, too long, or contains forbidden characters."""


class InvalidToken(StateError):
    """A key token (nf id, instance id, core id) failed validation."""


class TypeConflict(StateError):
    """An operation addressed a structure or stored value of another type."""


class KeyTooLarge(StateError):
    """A map key exceeded the 1 KiB limit."""


class ValueTooLarge(StateError):
    """A stored value exceeded its size limit (64 KiB blob, 1 KiB element)."""


class Overflow(StateError):
    """A counter operation left the signed 64-bit range."""


class IndexOutOfRange(StateError, IndexError):
    """A list index was outside [0, len)."""


class StoreUnavailable(StateError):
    """A waiting call could not reach the backing store in time."""


class BackpressureSignal(StateError):
    """The pending-mutation log is full; the caller must slow down."""


class EmptyServerList(StateError):
    """A load balancer was configured with no servers."""


class ConnectionLost(StateError):
    """The transport to the backing store failed mid-operation."""


class ProtocolError(StateError):
    """The peer sent bytes that do not parse as a valid reply."""


class BindFailure(StateError):
    """The bundled server could not bind its listen address."""


class FlowFileError(StateError):
    """A flow file has a bad header, line syntax, or field range."""


class ConfigError(StateError):
    """Base class for configuration problems."""


class ConfigSyntaxError(ConfigError):
    """A config line does not follow the `key: value;` form."""


class UnknownDriver(ConfigError):
    """The configured driver label is not registered."""


class MissingField(ConfigError):
    """A required config field was not provided."""


class BadDuration(ConfigError):
    """A time interval was zero, negative, or not an integer."""
