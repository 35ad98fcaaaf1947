"""Reading input files (stage configs, JSON lines, headed CSV tables), the record decorator of the configs
and the one float sum of the data path."""

from __future__ import annotations

import json
import math
import re
import sys
from datetime import datetime
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator

_raw_decode = json.JSONDecoder().raw_decode

_KINDS = {
    float: "a finite number",
    int: "an integer",
    str: "a string",
    list: "a list of strings",
    dict: "a JSON object",
}


def load_json_object(path: str | Path) -> dict:
    """Read a JSON file whose top level must be an object, naming the file if not."""
    text = "".join(line for _, line in read_lines(path))
    try:
        obj = parse_json(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: top level must be a JSON object, got {type(obj).__name__}")
    return obj


def parse_json(text: str):
    """json.loads(text), quicker when the document starts at the first character.

    A document nested too deeply for the parser, or holding an integer of
    more digits than int() converts (sys.get_int_max_str_digits()), raises
    JSONDecodeError instead of RecursionError or ValueError.
    """
    try:
        try:
            obj, end = _raw_decode(text)
            if not text[end:].strip(" \t\n\r"):
                return obj
        except json.JSONDecodeError:
            pass
        return json.loads(text)  # leading whitespace, a byte-order mark, extra data or an error
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, _error_position(text, True)) from None
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # the only other error the parser raises
        raise json.JSONDecodeError(str(exc).partition(";")[0], text, _error_position(text, False)) from None


# a string, a number (its integer digits, then any fraction and exponent) or a bracket;
# compiled on the first error only, so that no command pays for it at start-up
_TOKEN = r'"(?:[^"\\]|\\.)*"|-?(\d+)([.eE][-+.\deE]*)?|[\[\]{}]'


def _error_position(text: str, nesting: bool) -> int:
    """Where the parser gave up on text that is valid JSON up to there.

    For nesting, the first bracket at the deepest nesting; otherwise the first
    integer literal of more digits than int() converts.
    """
    limit = sys.get_int_max_str_digits()
    depth = deepest = where = 0
    for m in re.finditer(_TOKEN, text):
        first = text[m.start()]
        if first in "[{":
            depth += 1
            if depth > deepest:
                deepest, where = depth, m.start()
        elif first in "]}":
            depth -= 1
        elif not nesting and m.group(2) is None and len(m.group(1) or "") > limit:
            return m.start()
    return where


def read_lines(path: str | Path, report: Callable[[str], object] | None = None) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) for each line of a UTF-8 text file, in file order, numbered from 1.

    Each line is decoded on its own, so a fault is met at the first line that holds one, whatever
    follows. A line that is not UTF-8 raises ValueError naming the file, the line and the line's own
    decode error; given report, it goes to report as "line N: not UTF-8 (...)" and is skipped.
    """
    # a strict read decodes whole chunks, so its error names no line and could not skip just the bad one;
    # surrogateescape reads each byte that fails to decode as a lone surrogate, which encodes back to the byte
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as bad:
                    if report is None:
                        raise ValueError(f"{path}: line {lineno}: {bad}") from None
                    report(f"line {lineno}: not UTF-8 ({bad})")
                    continue
            yield lineno, line


# a character that json.loads reads as itself in a string: not a control character, quote or backslash (a
# class of ranges up to U+10FFFF matches quicker, but takes re 3 ms to compile); a non-empty string of them;
# and a number with a fraction or an exponent, as repr writes a float (-0 decodes to the int 0, which
# float() reads as -0.0)
JSON_CHAR = r'[^"\\\x00-\x1f]'
JSON_TEXT = f'"({JSON_CHAR}+)"'
JSON_FLOAT = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"


def dumps_pattern(fields: dict[str, str]) -> str:
    """The pattern of a line as json.dumps writes an object of these keys in this order, each value matching
    its pattern in fields: ", " and ": " between them, then the line's end."""
    return r"\{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + r"\}\n?"


def json_object_line(line: str) -> dict:
    """The JSON object on one line of a JSON-lines file; a line holding none raises ValueError with the reason."""
    try:
        obj = parse_json(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from None
    if type(obj) is not dict:
        raise ValueError(f"not a JSON object ({type(obj).__name__})")
    return obj


def config_value(obj: dict, key: str, kind: type, where: str | Path):
    """obj[key] checked against kind.

    float takes a finite JSON number (no boolean) and returns a float, int a
    JSON integer, str a string, list a list of strings (returned as a tuple)
    and dict an object. Anything else, or no key at all, raises ValueError
    naming where the object came from and the key.
    """
    if key not in obj:
        raise ValueError(f"{where}: missing field {key!r}")
    value = obj[key]
    if kind is float:
        if type(value) is float and math.isfinite(value):
            return value
        if type(value) is int and abs(value) <= sys.float_info.max:
            return float(value)
    elif kind is list:
        if type(value) is list and all(type(item) is str for item in value):
            return tuple(value)
    elif type(value) is kind:
        return value
    got = type(value).__name__ if isinstance(value, (str, list, dict)) else repr(value)
    raise ValueError(f"{where}: {key!r} must be {_KINDS[kind]}, got {got}")


def add_in_order(values: Iterable[float]) -> float:
    """The values added left to right from 0.0, the bits of Python 3.11's sum(); from 3.12 sum() compensates."""
    total = 0.0
    for value in values:
        total += value
    return total


def record(base: type) -> type:
    """Class decorator: the NamedTuple class base, subclassed under its name. Each construction, _replace's
    too, gives a field that defaults to [] or {} a new empty one, then runs base._check if base has one."""
    shared = {id(v) for v in base._field_defaults.values() if type(v) in (list, dict)}
    check = getattr(base, "_check", lambda self: None)

    def __new__(cls, *args, **kwargs):
        self = base.__new__(cls, *args, **kwargs)
        if shared.intersection(map(id, self)):
            self = tuple.__new__(cls, [type(v)() if id(v) in shared else v for v in self])
        check(self)
        return self

    # namedtuple's own _make, which _replace calls, builds the tuple without __new__
    return type(base.__name__, (base,), {
        "__slots__": (), "__new__": __new__, "_make": classmethod(lambda cls, values: cls(*values)),
        "__module__": base.__module__, "__doc__": base.__doc__})


def config_from_dict(cls: type, obj: dict, where: str | Path, **nested: Callable):
    """The config record cls, a NamedTuple, built from a JSON object; absent fields keep their defaults.

    Each value must have the kind of its field's default (see config_value),
    where a tuple default takes a list of strings. A field named in nested
    takes a JSON object, which nested[name](object, where) turns into the
    field's value. A key that is no field of cls, or a value of another kind,
    raises ValueError naming where and the key; a ValueError from cls itself
    is raised again with where in front.
    """
    defaults = cls._field_defaults
    values = {}
    for key in obj:
        if key not in defaults:
            raise ValueError(f"{where}: unknown key {key!r}")
        if key in nested:
            values[key] = nested[key](config_value(obj, key, dict, where), f"{where}: {key!r}")
        else:
            kind = list if type(defaults[key]) is tuple else type(defaults[key])
            values[key] = config_value(obj, key, kind, where)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_csv(path: str | Path, names: tuple[str, ...], what: str, row: Callable[..., None]) -> None:
    """Call row once per non-blank data line of a headed CSV file, in file order, with the line's fields
    in the columns of names, in that order; names are two or more, as one would pass the bare field.

    A header that lacks one of names, or names it twice, raises ValueError naming the file and the
    column. A line too short for a column, holding a double quote (quoted fields are not parsed) or not
    UTF-8, or a ValueError from row, raises ValueError naming the file and the line.
    """
    lines = read_lines(path)
    header = next(lines, (1, ""))[1].strip().split(",")
    for name in names:
        if header.count(name) != 1:
            problem = "lacks a" if name not in header else "repeats the"
            raise ValueError(f"{path}: {what} CSV {problem} {name!r} column")
    pick = itemgetter(*map(header.index, names))
    # a file iterator yields no empty string, so isspace() finds the blank lines
    for lineno, line in lines:
        if not line.isspace():
            try:
                if '"' in line:
                    raise ValueError("quoted fields are not supported")
                row(*pick(line.rstrip("\n").split(",")))
            except (ValueError, IndexError) as exc:
                reason = "too few fields" if isinstance(exc, IndexError) else str(exc)
                raise ValueError(f"{path}: line {lineno}: {reason}") from None


# the separators of YYYY-MM-DDTHH:MM:SS±HH:MM at positions 4, 7, ..., 22
_ISOFORMAT_SEPARATORS = ("--T::+:", "--T::-:")
# a date as fromisoformat reads it (YYYY-MM-DD, YYYYMMDD, YYYY-Www[-D] or YYYYWww[D]), T, t or a space,
# HH[[:]MM[[:]SS[(.|,)f]]] and an optional offset ±HH[[:]MM[[:]SS[(.|,)f]]]
_HMS = r"[0-9]{2}(?::?[0-9]{2}(?::?[0-9]{2}(?:[.,][0-9]+)?)?)?"
_TIMESTAMP = (r"[0-9]{4}(?:-[0-9]{2}-[0-9]{2}|[0-9]{4}|-W[0-9]{2}(?:-[0-9])?|W[0-9]{2,3})[Tt ]"
              + _HMS + f"(?:[+-]{_HMS})?")


def parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 timestamp in the form _TIMESTAMP states, with a UTC offset or a trailing Z or z.
    fromisoformat alone also takes any character, a digit too, between the date and the time or before
    the offset, and reads a fraction after the hours or the minutes as one of a second."""
    if raw[-1:] in ("Z", "z"):  # fromisoformat takes a trailing Z since Python 3.11, but not z
        raw = raw[:-1] + "+00:00"
    # fromisoformat reads only digits between these separators; re compiles the pattern on the first other text
    if not (len(raw) == 25 and raw[4:23:3] in _ISOFORMAT_SEPARATORS or re.fullmatch(_TIMESTAMP, raw)):
        raise ValueError("not a date, then T, t or a space, then a time with a fraction only after the seconds")
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        raise ValueError("timestamp lacks a UTC offset")
    return ts


def isoformat_text(raw: str, ts: datetime) -> str:
    """ts.isoformat() for ts = parse_timestamp(raw), taken from raw when raw already reads so.

    That is when raw has the 25 characters YYYY-MM-DDTHH:MM:SS±HH:MM, with an
    hour below 24, offset minutes below 60 and not -00:00: fromisoformat reads
    +05:75 as +06:15 and -00:00 as +00:00. Each other character of raw is an
    ASCII digit, or fromisoformat would not have read it. A timestamp as the
    chain writes them is taken as is, which is a quarter of isoformat()'s cost.
    """
    if (len(raw) == 25 and raw[4:23:3] in _ISOFORMAT_SEPARATORS and raw[11:13] < "24"
            and raw[23] < "6" and raw[19:] != "-00:00"):
        return raw
    return ts.isoformat()
