"""Artifact writer tests: a failed write leaves the old file and no
temporary file behind, a written file gets a plain open()'s mode, and
every open ``recorded()`` block lists each file written."""

import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest

from saldl import artifacts
from saldl.artifacts import copy_file, read_json, recorded, write_csv, write_json
from saldl.errors import ParseError


def _old_file(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"old bytes\n")
    return path


def test_csv_rows_failing_midway_keep_the_old_file(tmp_path):
    path = _old_file(tmp_path, "rows.csv")

    def rows():
        yield [1, 2]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(path, ["a", "b"], rows())
    assert path.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["rows.csv"]


def test_failed_replace_keeps_the_old_file(tmp_path, monkeypatch):
    path = _old_file(tmp_path, "doc.json")

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(artifacts.os, "replace", fail)
    with recorded() as paths, pytest.raises(OSError, match="replace failed"):
        write_json(path, {"a": 1})
    assert path.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["doc.json"]
    assert paths == []


@pytest.mark.parametrize("umask", [0o022, 0o002])
def test_written_file_has_plain_open_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w", encoding="utf-8") as fh:
            fh.write("x")
        write_json(tmp_path / "doc.json", [1])
        write_csv(tmp_path / "rows.csv", ["a"], [[1]])
        copy_file(tmp_path / "plain.txt", tmp_path / "copy.txt")
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["plain.txt", "doc.json", "rows.csv", "copy.txt"],
                                  0o666 & ~umask)


def test_formats(tmp_path):
    write_json(tmp_path / "a.json", {"k": [1.5, None]})
    write_json(tmp_path / "b.json", {"k": [1.5, None]}, indent=None)
    write_csv(tmp_path / "c.csv", ["x", "y"], [["a,b", 0.1], [1, ""]])
    assert (tmp_path / "a.json").read_bytes() == (
        json.dumps({"k": [1.5, None]}, indent=2) + "\n").encode()
    assert (tmp_path / "b.json").read_bytes() == b'{"k": [1.5, null]}\n'
    assert (tmp_path / "c.csv").read_bytes() == b'x,y\n"a,b",0.1\n1,\n'


def test_csv_cells(tmp_path):
    # a bool as 1 or 0; a float or np.float64 as the repr of the float
    floats = [0.1, -0.0, 5e-324, 1e16, math.inf, -math.inf, 1 / 3, 2.0 ** 70]
    write_csv(tmp_path / "c.csv", ["v"], [[True], [False], [None], [3], [np.int64(4)],
                                          *([v] for v in floats),
                                          *([np.float64(v)] for v in floats)])
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines == ["v", "1", "0", '""', "3", "4", *[repr(float(v)) for v in floats * 2]]


def test_recorded_lists_each_write_in_order(tmp_path):
    (tmp_path / "src.txt").write_text("x")
    with recorded() as paths:
        write_json(tmp_path / "a.json", 1)
        write_csv(str(tmp_path / "b.csv"), ["h"], [])
        copy_file(tmp_path / "src.txt", tmp_path / "c.txt")
        write_json(tmp_path / "a.json", 2)
    assert paths == [tmp_path / "a.json", tmp_path / "b.csv", tmp_path / "c.txt",
                     tmp_path / "a.json"]


def test_inner_block_with_equal_list_leaves_outer_open(tmp_path):
    with recorded() as outer:
        with recorded() as inner:
            write_json(tmp_path / "a.json", 1)
        assert inner == outer == [tmp_path / "a.json"]
        write_json(tmp_path / "b.json", 1)  # the outer block still records
    assert outer == [tmp_path / "a.json", tmp_path / "b.json"]
    assert inner == [tmp_path / "a.json"]
    assert artifacts._blocks == []


def test_write_outside_any_block_keeps_nothing(tmp_path):
    write_json(tmp_path / "a.json", 1)
    assert artifacts._blocks == []
    with recorded() as paths:
        write_json(tmp_path / "b.json", 1)
    assert paths == [tmp_path / "b.json"]


def test_copy_is_byte_exact(tmp_path):
    src = tmp_path / "src.bin"
    src.write_bytes(b"a\r\nb\xff\n")
    copy_file(src, _old_file(tmp_path, "dst.bin"))
    assert (tmp_path / "dst.bin").read_bytes() == b"a\r\nb\xff\n"


def test_copy_streams_the_file(tmp_path):
    # before, the copy read the whole file into memory: a peak of its size
    src = tmp_path / "src.bin"
    src.write_bytes(bytes(range(256)) * (1 << 14) + b"end\n")  # just over 4 MiB
    tracemalloc.start()
    try:
        with recorded() as paths:
            copy_file(src, tmp_path / "dst.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024
    assert paths == [tmp_path / "dst.bin"]
    assert (tmp_path / "dst.bin").read_bytes() == src.read_bytes()


def test_value_the_builder_rejects_is_a_parse_error_naming_the_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"n": "x"}')
    with pytest.raises(ParseError, match=r"doc\.json: invalid literal for int"):
        read_json(path, lambda doc: int(doc["n"]))
