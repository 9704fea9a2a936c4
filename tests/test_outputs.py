import re

import numpy as np
import pytest

from grasscat.errors import DataError
from grasscat.modelfile import ModelFile, save_model
from grasscat.outputs import (
    FLOAT_SPEC,
    SvgCanvas,
    _csv_line,
    _csv_rows,
    _level_rows,
    fmt_float,
    write_csv,
)
from grasscat.schema import VariableDecl, VariableKind, VariableSchema
from grasscat.structure import StructuredParams


def test_write_csv_cells(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(
        str(path),
        ["a,b", 'say "hi"', "two\nlines", "plain"],
        [
            [0.1, float("nan"), float("-inf"), np.float64(1e-300)],
            [3, np.int64(-7), True, False],
            ["x,y", 'q"t', "n\nl", "ok"],
        ],
    )
    assert path.read_bytes() == (
        b'"a,b","say ""hi""","two\nlines",plain\n'
        b"0.10000000000000001,nan,-inf,1e-300\n"
        b"3,-7,True,False\n"
        b'"x,y","q""t","n\nl",ok\n'
    )


def test_csv_rows_match_csv_line_on_levels():
    levels = np.random.default_rng(5).integers(-3, 12, (200, 7)).astype(np.int64)
    assert _csv_rows(levels) == [_csv_line(row) for row in levels.tolist()]
    assert _csv_rows(levels[:0]) == []


def test_csv_rows_match_csv_line_on_floats():
    special = [float("nan"), -float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
               5e-324, -5e-324, 1e-300, 0.1, 1.0 / 3.0, 1e300, -2.5]
    rng = np.random.default_rng(6)
    floats = np.concatenate([special, rng.normal(0.0, 1e3, 39)]).reshape(-1, 2)
    ids = np.arange(len(floats), dtype=np.int64) * 7 - 20
    got = _csv_rows(ids, floats, ids[::-1])
    want = [_csv_line([i, *row, j]) for i, row, j in
            zip(ids.tolist(), floats.tolist(), ids[::-1].tolist())]
    assert got == want
    assert got[0].split(",")[1:3] == ["nan", "nan"]
    assert [fmt_float(x) for x in special] == [format(x, FLOAT_SPEC) for x in special]


def test_level_rows_match_csv_rows():
    rng = np.random.default_rng(7)
    for dtype, top in ((np.uint8, 255), (np.uint16, 300), (np.int64, 12)):
        levels = rng.integers(0, top + 1, (500, 6)).astype(dtype)
        assert _level_rows(levels) == _csv_rows(levels)
    assert _level_rows(np.zeros((0, 6), dtype=np.uint8)) == []
    assert _level_rows(np.zeros((3, 0), dtype=np.uint8)) == ["", "", ""]  # no variables


def test_write_csv_takes_lines_cells_and_iterators(tmp_path):
    path = tmp_path / "rows.csv"
    lines = _csv_rows(np.arange(6).reshape(3, 2))
    want = b"a,b\n0,1\n2,3\n4,5\n"
    for rows in (lines, iter(lines), [lines[0], [2, 3], lines[2]], [[0, 1], (2, 3), [4, 5]]):
        write_csv(str(path), ["a", "b"], rows)
        assert path.read_bytes() == want
    write_csv(str(path), ["a", "b"], [])
    assert path.read_bytes() == b"a,b\n"


def test_circles_format_each_coordinate_as_before():
    rng = np.random.default_rng(7)
    cx, cy, r = rng.normal(300.0, 100.0, (3, 40))
    canvas = SvgCanvas(10, 10)
    canvas.circles(cx, cy, r)
    assert canvas._parts[2:] == [
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{z:.2f}" fill="steelblue" fill-opacity="0.6"/>'
        for x, y, z in zip(cx, cy, r)
    ]


def test_every_writer_names_the_file_it_cannot_write(tmp_path):
    """CSV, SVG and model files share one writer; each failure is a
    DataError naming the path, and a model file says so."""
    path = str(tmp_path / "missing" / "out")
    with pytest.raises(DataError, match=f"^cannot write {re.escape(path)}: "):
        write_csv(path, ["a"], [[1]])
    with pytest.raises(DataError, match=f"^cannot write {re.escape(path)}: "):
        SvgCanvas(10, 10).save(path)
    schema = VariableSchema([VariableDecl("x", VariableKind.CATEGORICAL, 2)])
    mf = ModelFile("grassmann", schema, StructuredParams.independent(schema, [[0.0]]), None)
    with pytest.raises(DataError, match=f"^cannot write model file {re.escape(path)}: "):
        save_model(mf, path)
