"""Stack buffer-overflow detection, patching and validation for
disassembled x86-64 programs."""

from functools import cache
from importlib import resources
from pathlib import Path

__version__ = "0.1.0"


def load_data(name: str, parse, path: str | None = None):
    """`parse` applied to the bundled data file `name`, once per process
    (callers share the result and must not mutate it), or to the file at a
    user-supplied `path`, read on every call."""
    if path is None:
        return _bundled(name, parse)
    return parse(Path(path).read_text(encoding="utf-8"))


@cache
def _bundled(name: str, parse):
    return parse(resources.files(__name__).joinpath(f"data/{name}").read_text())
