"""Typed reads of parsed JSON config values; every error names its key path."""

import json
from typing import get_args

from .errors import ConfigError

KINDS = {int: "an integer", float: "a number", str: "a string", list: "an array", dict: "an object"}
JSON_NAMES = {**KINDS, int: "a number", bool: "a boolean", type(None): "null"}


def read(value, kind, key: str):
    """``value`` as a JSON value of ``kind``, else a ConfigError naming ``key``.

    ``kind`` is int (an integral number; nothing is truncated), float (any
    number), str, list, dict, or an array of integers: ``tuple[int, ...]``
    of any length or ``tuple[int, int]`` of exactly two, returned as a tuple.
    A boolean is neither an integer nor a number: JSON true is not 1.
    """
    items = get_args(kind)
    if items:
        array = read(value, list, key)
        if items[-1] is not Ellipsis and len(array) != len(items):
            raise ConfigError(f"config key '{key}' must hold {len(items)} entries, got {len(array)}")
        return tuple(read(item, items[0], key) for item in array)
    if not isinstance(value, bool):
        if kind is int and isinstance(value, float) and value.is_integer():
            return int(value)
        if kind is float and isinstance(value, (int, float)):
            try:
                return float(value)
            except OverflowError:
                raise ConfigError(f"config key '{key}' must be a number in the double range") from None
        if isinstance(value, kind):
            return value
    shown = JSON_NAMES[type(value)]
    if not isinstance(value, (list, dict, type(None))):
        shown += f" {json.dumps(value)}"
    raise ConfigError(f"config key '{key}' must be {KINDS[kind]}, got {shown}")


def read_object(value, key: str, known, required=(), noun: str = "config") -> dict:
    """``value`` as a JSON object that holds every ``required`` key and no key
    outside ``known``, else a ConfigError naming the key path below ``key``
    ("" for the top level); ``noun`` names the file in those messages.  An
    unknown key is refused, so a misspelling is not silently a default."""
    obj = read(value, dict, key)
    prefix = f"{key}." if key else ""
    for name in obj:
        if name not in known:
            raise ConfigError(f"unknown {noun} key '{prefix}{name}'")
    for name in required:
        if name not in obj:
            raise ConfigError(f"missing {noun} key '{prefix}{name}'")
    return obj
