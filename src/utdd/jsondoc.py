"""Strict readers and one atomic writer for the package's JSON documents.

Each document is read through a table from key to reader.  A reader is a
:func:`json_scalar` kind or a callable, such as one built on
:func:`json_object` or :func:`json_array`.  Every fault raises
:class:`InvalidArgumentError` naming its path from the root, such as
``stages[1].lookup[3]``.  An absent optional key is left out of the result,
so defaults live only in the dataclasses built from it.  Standard library only.
"""

from __future__ import annotations

import json
import os
import sys

from .errors import InvalidArgumentError

__all__ = ["json_scalar", "json_object", "json_array", "json_version", "write_json"]

# JSON types accepted per kind, compared exactly: a bool is an int to Python.
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "string": (str,)}


class _Fault(InvalidArgumentError):
    """A fault at ``path`` in a JSON document; outer readers prefix their key."""

    def __init__(self, reason: str, path: str = ""):
        super().__init__(reason)
        self.reason = reason
        self.path = path

    def __str__(self) -> str:
        return f"{self.path.lstrip('.') or 'document'}: {self.reason}"


def json_scalar(value, kind: str):
    """``value`` as a JSON ``"int"``, ``"float"``, ``"bool"`` or ``"string"``, else TypeError.

    Types compare exactly (a bool is no number, a float no int).  A float
    must be finite: NaN, ±Infinity and integers beyond the float range are
    refused.  A JSON integer is a valid float and comes back as one.
    """
    if type(value) in _JSON_TYPES[kind] and (kind != "float" or abs(value) <= sys.float_info.max):
        return float(value) if kind == "float" else value
    raise TypeError(f"must be a JSON {kind}, got {value!r}")


def _read_at(step: str, reader, value):
    """``reader`` applied to ``value``; a fault's path gets ``step`` in front."""
    try:
        return json_scalar(value, reader) if isinstance(reader, str) else reader(value)
    except _Fault as exc:
        exc.path = step + exc.path
        raise
    except (TypeError, ValueError) as exc:
        raise _Fault(str(exc), step) from None


def _object(doc) -> dict:
    if type(doc) is not dict:
        raise _Fault(f"must be a JSON object, got {doc!r}")
    return doc


def json_object(doc, readers: dict, required=()) -> dict:
    """``{key: value read by readers[key]}`` for each key of the JSON object ``doc``.

    Every key in ``required`` must be present and every key present must
    have a reader.
    """
    _object(doc)
    for key in required:
        if key not in doc:
            raise _Fault("required key is missing", f".{key}")
    for key in doc:
        if key not in readers:
            raise _Fault("unknown key", f".{key}")
    return {key: _read_at(f".{key}", readers[key], value) for key, value in doc.items()}


def json_array(reader):
    """A reader of a JSON array whose items ``reader`` reads; it returns a tuple."""

    def read(doc) -> tuple:
        if type(doc) is not list:
            raise _Fault(f"must be a JSON array, got {doc!r}")
        return tuple(_read_at(f"[{i}]", reader, item) for i, item in enumerate(doc))

    return read


def json_version(doc, version: int, writer: str) -> dict:
    """``doc`` without its ``"version"`` key, which must be the integer ``version``;
    the refusal of any other names ``writer``, the command that writes it."""
    found = _object(doc).get("version")
    if type(found) is not int or found != version:
        raise _Fault(
            f"format version {found!r} is not supported; "
            f"run {writer} again to write a version {version} file"
        )
    return {key: value for key, value in doc.items() if key != "version"}


def write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON through a temporary file beside ``path``
    and :func:`os.replace`, so a failed write leaves ``path`` as it was.

    NaN and infinities are refused with ValueError: they are not JSON.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, allow_nan=False)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
