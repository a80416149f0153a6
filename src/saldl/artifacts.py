"""How artifacts reach disk. Every file is UTF-8 with ``\\n`` line ends,
written beside its target and moved over it with ``os.replace``: a reader
sees the old file or the new one, and a failed write leaves the old file
and no temporary file behind."""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

from .errors import ParseError


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


def write_json(path, doc, indent: int | None = 2) -> None:
    """``doc`` and a newline; ``indent=None`` writes it on one line."""
    _replace(path, lambda fh: fh.write(json.dumps(doc, indent=indent) + "\n"))


def write_text(path, parts) -> None:
    """Each string of ``parts`` in turn."""
    _replace(path, lambda fh: fh.writelines(parts))


def write_csv(path, header, rows) -> None:
    def fill(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    _replace(path, fill)


def copy_file(src, dst) -> None:
    data = Path(src).read_bytes()
    _replace(dst, lambda fh: fh.write(data), binary=True)


def read_json(path, build):
    """``build(doc)`` for the JSON in ``path``; bad JSON or a missing key is a ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return build(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path} is not valid JSON: {exc.msg}", line=exc.lineno) from None
        except KeyError as exc:
            raise ParseError(f"{path} lacks the field {exc}") from None
