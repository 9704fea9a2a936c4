import numpy as np

from grasscat.outputs import write_csv


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
