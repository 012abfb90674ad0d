"""Typed loading of JSON documents into config dataclasses.

Shapes and JSON types are checked here, from each dataclass's fields and
type hints; ranges stay in each class's ``__post_init__``.
"""

from __future__ import annotations

import json
import types
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

from .errors import ConfigError


def read_json(path, error=ConfigError):
    """Parse a JSON file; unparsable text raises ``error(message)``."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise error(f"{path}: {exc}") from exc


def from_json(cls, doc, block: str, error=ConfigError):
    """Build dataclass ``cls`` from the JSON object ``doc`` named ``block``.

    Rejects a non-object, unknown or missing keys, and values of the wrong
    JSON type (a bool is never a number; an int in a float field becomes a
    float).  Nested dataclass fields recurse.  Every failure, including a
    ``ConfigError`` from ``__post_init__``, is raised as ``error(message)``.
    """
    if not isinstance(doc, dict):
        raise error(f"{block} must be a JSON object, got {doc!r}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise error(f"unknown {block} keys: {unknown}")
    missing = [name for name, f in known.items() if name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise error(f"{block} lacks keys {missing}")
    hints = get_type_hints(cls)
    values = {name: json_value(hints[name], value, f"{block}.{name}", error)
              for name, value in doc.items()}
    try:
        return cls(**values)
    except ConfigError as exc:
        raise error(f"{block}: {exc}") from exc


def json_value(hint, value, where: str, error):
    """Check one JSON value ``where`` against ``hint``; returns it converted.

    A bool is never a number, an int in a float position becomes a float,
    and a list matches a tuple hint item by item.
    """
    if is_dataclass(hint):
        return from_json(hint, value, where, error)
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
    elif origin is tuple:
        variadic = args[-1:] == (...,)
        if not isinstance(value, (list, tuple)) or not (variadic or len(value) == len(args)):
            raise error(f"{where} must be a list matching {hint}, got {value!r}")
        items = args[:1] * len(value) if variadic else args
        return tuple(json_value(item, v, f"{where}[{i}]", error)
                     for i, (item, v) in enumerate(zip(items, value)))
    if hint is float and type(value) is int:
        return float(value)
    if not isinstance(value, hint) or (isinstance(value, bool) and hint is not bool):
        raise error(f"{where} must be {hint.__name__}, got {value!r}")
    return value
