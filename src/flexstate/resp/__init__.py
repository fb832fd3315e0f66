from .protocol import RespError, encode_command, read_reply
from .server import MiniRespServer

__all__ = [
    "RespError",
    "encode_command",
    "read_reply",
    "MiniRespServer",
]
