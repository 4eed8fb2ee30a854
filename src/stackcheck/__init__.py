"""Stack buffer-overflow detection, patching and validation for
disassembled x86-64 programs."""

import json
from functools import cache
from pathlib import Path

__version__ = "0.1.0"

DATA = Path(__file__).with_name("data")


class MalformedData(Exception):
    """A user data file (--templates, --libc-db, --buffers) not of its shape."""


@cache
def load_data(name: str | None, parse, path: str | None = None):
    """`parse` applied to the bytes of the bundled data file `name`, or of
    the file at a user-supplied `path` (`name` is then not read). Every
    data file is read here, each once per process: callers share the
    result and must not mutate it, and a file rewritten within a process
    keeps its first read. An exception is not cached, so a missing or
    malformed file raises again on every call."""
    return parse((DATA / name if path is None else Path(path)).read_bytes())


def parse_json(data: bytes):
    """The JSON value in data; MalformedData if it is not UTF-8 JSON."""
    try:
        return json.loads(data)
    except ValueError as exc:
        raise MalformedData(f"not JSON: {exc}")
