"""How artifacts reach disk. Every file is UTF-8 with ``\\n`` line ends,
written beside its target and moved over it with ``os.replace``: a reader
sees the old file or the new one, and a failed write leaves the old file
and no temporary file behind. Each file moved into place is recorded in
every open ``recorded()`` block."""

from __future__ import annotations

import contextlib
import csv
import json
import os
import shutil
from pathlib import Path

from .errors import ParseError

_blocks: list[list[Path]] = []  # the open recorded() blocks, innermost last


@contextlib.contextmanager
def recorded():
    """The path of each file written in the block, in write order."""
    paths: list[Path] = []
    _blocks.append(paths)
    try:
        yield paths
    finally:
        _blocks.pop()  # by position: an outer block's list may equal this one


def _replace(path, fill, binary: bool = False) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    text = {} if binary else {"encoding": "utf-8", "newline": ""}
    try:
        # "x" creates the file with the mode a plain open(path, "w") gives
        with open(tmp, "xb" if binary else "x", **text) as fh:
            fill(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    for paths in _blocks:
        paths.append(path)


def write_json(path, doc, indent: int | None = 2) -> None:
    """``doc`` and a newline; ``indent=None`` writes it on one line."""
    _replace(path, lambda fh: fh.write(json.dumps(doc, indent=indent) + "\n"))


def write_text(path, parts) -> None:
    """Each string of ``parts`` in turn."""
    _replace(path, lambda fh: fh.writelines(parts))


def write_csv(path, header, rows) -> None:
    """A bool cell as 1 or 0, the rest as ``csv`` writes them: a float as its
    ``repr``, None as an empty cell."""
    def fill(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([int(v) if isinstance(v, bool) else v for v in row] for row in rows)
    _replace(path, fill)


def copy_file(src, dst) -> None:
    """The bytes of ``src``, streamed a buffer at a time."""
    with open(src, "rb") as source:
        _replace(dst, lambda fh: shutil.copyfileobj(source, fh), binary=True)


def read_json(path, build):
    """``build(doc)`` for the JSON in ``path``; bad JSON, a missing key or a
    value ``build`` rejects with a ValueError or a TypeError is a ParseError
    naming ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return build(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path} is not valid JSON: {exc.msg}", line=exc.lineno) from None
        except KeyError as exc:
            raise ParseError(f"{path} lacks the field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
