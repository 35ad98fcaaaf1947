"""The earlier ``sentindex.inputs.parse_timestamp``, kept as a reference for tests.

It calls ``datetime.fromisoformat`` first and then patches two of its
quirks: any character between the date and the time, and any one character
before the UTC offset. It still reads a fraction after the hours or the
minutes, of the time or of the offset, as a fraction of a second. The
package's parser must accept what this one accepts, those texts aside, and
give the same instant and offset.
"""

from __future__ import annotations

import re
from datetime import datetime

# a date in a form fromisoformat reads (calendar or week, extended or basic), then T, t or a space
_DATE_TIME = r"[0-9]{4}(?:-[0-9]{2}-[0-9]{2}|[0-9]{4}|-W[0-9]{2}(?:-[0-9])?|W[0-9]{2,3})[Tt ]"


def parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 timestamp with offset, date and time parted by T, t or a space and the offset
    right after a digit of the time; naive ones are rejected."""
    # fromisoformat takes a trailing Z since Python 3.11, but not z, so both are rewritten
    if raw[-1:] in ("Z", "z"):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        raise ValueError("timestamp lacks a UTC offset")
    # a YYYY-MM-DD date ends at the 10th character; re compiles the pattern on the first other stamp
    if (raw[10:11] != "T" or raw[4] != "-" or raw[5] == "W") and not re.match(_DATE_TIME, raw):
        raise ValueError("date and time are not parted by T, t or a space")
    # fromisoformat also skips any one character before the offset, which starts at the last + or -;
    # the usual ±HH:MM is tried first, as the two searches take four times as long
    sign = -6 if raw[-6] in "+-" else max(raw.rfind("+"), raw.rfind("-"))
    if not "0" <= raw[sign - 1] <= "9":
        raise ValueError("the UTC offset does not follow a digit of the time")
    return ts
