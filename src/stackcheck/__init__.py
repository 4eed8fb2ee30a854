"""Stack buffer-overflow detection, patching and validation for
disassembled x86-64 programs."""

import json
from functools import cache
from importlib import resources
from pathlib import Path

__version__ = "0.1.0"


class MalformedData(Exception):
    """A user data file (--templates, --libc-db, --buffers) not of its shape."""


@cache
def load_data(name: str, parse, path: str | None = None):
    """`parse` applied to the bundled data file `name`, or to the bytes of
    the file at a user-supplied `path`: each is read and parsed once per
    process, and callers share the result and must not mutate it."""
    if path is None:
        return parse(resources.files(__name__).joinpath(f"data/{name}").read_text())
    return parse(Path(path).read_bytes())


def parse_json(data: str | bytes):
    """The JSON value in data; MalformedData if it is not UTF-8 JSON."""
    try:
        return json.loads(data)
    except ValueError as exc:
        raise MalformedData(f"not JSON: {exc}")
