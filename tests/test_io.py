import math

import numpy as np

from rfcond.io import jsonable, write_csv


def test_jsonable_encodes_each_kind_of_value():
    cases = [
        (1.5, 1.5, float), (np.float64(-0.25), -0.25, float),
        (math.inf, "inf", str), (-math.inf, "-inf", str), (math.nan, "nan", str),
        (np.float64(np.inf), "inf", str), (np.float64(np.nan), "nan", str),
        (True, True, bool), (np.bool_(False), False, bool),
        (np.int64(7), 7, int), (3, 3, int), ("N=m", "N=m", str), (None, None, type(None)),
    ]
    for value, want, kind in cases:
        got = jsonable(value)
        assert got == want and type(got) is kind, (value, got)
    nested = {"a": [np.float64(1.0), (np.int64(2), math.inf)], 3: {"b": np.array([0.5, np.nan])}}
    assert jsonable(nested) == {"a": [1.0, [2, "inf"]], "3": {"b": [0.5, "nan"]}}


def test_write_csv_bytes_of_a_mixed_row(tmp_path):
    row = [0.1, np.float64(2.5e-300), math.inf, np.float64(-np.inf), math.nan, True,
           np.bool_(True), np.int64(-3), 4, "a,b", None, "pseudoinverse"]
    write_csv(tmp_path / "t.csv", [f"c{i}" for i in range(len(row))], [row, [1.0] * len(row)])
    assert (tmp_path / "t.csv").read_bytes() == (
        b"c0,c1,c2,c3,c4,c5,c6,c7,c8,c9,c10,c11\n"
        b'0.1,2.5e-300,inf,-inf,nan,True,True,-3,4,"a,b",,pseudoinverse\n'
        b"1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0\n")
