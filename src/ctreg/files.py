"""ctreg's files: one layer reads and writes the layout of each format, and
every output file is written whole or not at all.

A layout is a dataclass whose fields, in declared order, are the keys of a
JSON block (a model file and its ``centering``, ``kernel`` and ``config``
blocks; a scenario and its ``coef_pattern``) or the cells of a CSV row (a
results table).  ``_from_fields`` reads a block into its layout and
``_to_fields``, its twin, writes a layout's fields from any object that has
them.  Each value passes through the converter of its field's annotated
type, if there is one; a field whose type is itself a layout is a nested
block, read and written the same way.  A block that names its layout by a
kind under one key, ``model_kind`` or a pattern's ``kind``, is read through
``_tagged``, and every such block is written through ``_to_tagged``; a
kernel block is one too, but ``KernelSpec`` declares its ``kind`` and
checks it, so it is read as a plain layout, and each kind writes only its
own fields.

A reader refuses what its layout does not declare and names the key's
whole path: a missing field raises ``KeyError('centering.x_means')``, a
key that is not a field ``ValueError("KernelSpec has no field 'width'")``
and a block that is not a JSON object ``ValueError('kernel must be a JSON
object, got [1]')``.  A field with a default may be left out.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import os
import secrets
import tempfile
import typing
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from .errors import UsageError

# a converter for each annotated type: a reader's is called as
# convert(value, key path), a writer's as convert(value)
Converters = Dict[Any, Callable[..., Any]]

_hints = functools.lru_cache(maxsize=None)(typing.get_type_hints)


def _directory(path: str) -> str:
    return os.path.dirname(os.path.abspath(path))


def _unwritable(path: str, exc: OSError) -> UsageError:
    return UsageError(f"cannot write {path}: {exc.strerror or exc}")


def check_writable(path: str) -> None:
    """Raise the UsageError that ``atomic_write`` would for a missing or
    read-only directory or a path that is a directory, so a long run can
    fail before its work."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: Is a directory")
    try:
        tempfile.TemporaryFile(dir=_directory(path)).close()
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def atomic_write(path: str, text: str) -> None:
    """Write text to path as given (no newline translation) through a
    temporary file in the same directory, so a failed write leaves no
    partial file.  The file gets the mode of any new file under the umask
    (``mkstemp`` would make it 0600).  Any OSError, such as a missing or
    read-only directory or a path that is a directory, is a UsageError
    that names path."""
    tmp = os.path.join(_directory(path), f".ctreg-{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "x", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_json(path: str, what: str) -> Any:
    """The JSON document in path; a file that cannot be read or decoded, or
    that is not JSON, is a usage error naming what it should hold."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} {path} is not valid JSON") from exc


def _json_float(value: Any, path: str) -> Any:
    """A JSON number as a float; anything else unconverted, so that the
    field's own check rejects it by name (a string is not a number)."""
    return float(value) if isinstance(value, numbers.Real) else value


def _coerce(hint: Any, value: Any, convert: Converters, path: Optional[str] = None) -> Any:
    """``value`` of a field of annotated type ``hint`` (t, or Optional[t],
    whose None is kept) through ``convert[t]``, or as a nested block if t
    is a layout, else unchanged; a reader passes the key path, a writer
    None."""
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        hint = next(arg for arg in args if arg is not type(None))
    if hint in convert:
        return convert[hint](value) if path is None else convert[hint](value, path)
    if not dataclasses.is_dataclass(hint):
        return value
    if path is None:
        return _to_fields(hint, value, convert)
    return _from_fields(hint, value, convert, path + ".")


def _block(data: Any, name: str) -> Dict[str, Any]:
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object, got {data!r:.80}")
    return data


def _from_fields(cls: Any, data: Any, convert: Converters, path: str = "") -> Any:
    """An instance of the layout ``cls`` from the block ``data`` at key
    path ``path`` ("" at the top, else ending in "."), each field read by
    ``_coerce``; a field with a default may be left out."""
    hints = _hints(cls)
    for key in _block(data, path[:-1] or cls.__name__):
        if key not in hints:
            raise ValueError(f"{cls.__name__} has no field {key!r}")
    for field in dataclasses.fields(cls):
        if field.name not in data and field.default is dataclasses.MISSING:
            raise KeyError(path + field.name)
    return cls(**{key: _coerce(hints[key], data[key], convert, path + key) for key in data})


def _to_fields(
    cls: Any, source: Any, convert: Converters, names: Optional[Sequence[str]] = None
) -> Dict[str, Any]:
    """The block of the layout ``cls``: its fields (or those named), in
    declared order, read from ``source`` with getattr and written by
    ``_coerce``.  Nothing is copied but what a converter makes."""
    hints = _hints(cls)
    if names is None:
        names = [field.name for field in dataclasses.fields(cls)]
    return {name: _coerce(hints[name], getattr(source, name), convert) for name in names}


def _tagged(
    data: Any, tag: str, layouts: Mapping[str, Any], path: str = "", what: str = ""
) -> Tuple[str, Any, Dict[str, Any]]:
    """(kind, layouts[kind], fields) of the block ``data`` at ``path`` whose
    key ``tag`` holds its kind: fields are the keys to read with that
    layout, the tag among them only if the layout declares it.  A missing
    tag raises KeyError(path + tag), and a kind that is not a key of
    layouts ValueError('unknown <what> <kind>'), what by default the tag's
    key path."""
    block = _block(data, path[:-1] or "the file")
    if tag not in block:
        raise KeyError(path + tag)
    kind = block[tag]
    if not isinstance(kind, str) or kind not in layouts:
        raise ValueError(f"unknown {what or path + tag} {kind!r}")
    declared = tag in _hints(layouts[kind])
    return kind, layouts[kind], {k: v for k, v in block.items() if declared or k != tag}


def _to_tagged(
    tag: str, kind: str, source: Any, convert: Converters, names: Optional[Sequence] = None
) -> Dict[str, Any]:
    """The block that ``_tagged`` reads, led by its tag: the fields of the
    layout ``type(source)`` (or those named) as ``_to_fields`` writes them."""
    return {tag: kind, **_to_fields(type(source), source, convert, names)}
