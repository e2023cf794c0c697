import io

import numpy as np
import pytest

import bddist.formatting
from bddist.errors import InvalidInputError
from bddist.formatting import write_csv

HEADER = ["float", "np_float64", "int", "np_int64", "str", "none", "np_float32", "large"]
ROW = [0.1 + 0.2, np.float64(1.0) / 3.0, 7, np.int64(-2), "code", None, np.float32(0.5),
       1234567.0]


@pytest.mark.parametrize("precision,line", [
    ("human", "0.3,0.333333,7,-2,code,,0.5,1.23457e+06"),
    ("full", "0.30000000000000004,0.3333333333333333,7,-2,code,,0.5,1234567.0"),
], ids=["human", "full"])
def test_each_value_becomes_one_cell(precision, line):
    out = io.StringIO()
    write_csv(out, HEADER, [ROW, [None] * len(ROW)], precision)
    assert out.getvalue() == ",".join(HEADER) + f"\n{line}\n" + "," * (len(ROW) - 1) + "\n"


def test_human_is_the_default_precision():
    default, human = io.StringIO(), io.StringIO()
    write_csv(default, HEADER, [ROW])
    write_csv(human, HEADER, [ROW], "human")
    assert default.getvalue() == human.getvalue()


def test_unknown_precision_raises_before_writing():
    out = io.StringIO()
    with pytest.raises(InvalidInputError,
                       match="precision must be 'human' or 'full', got 'bogus'"):
        write_csv(out, HEADER, [ROW], precision="bogus")
    assert out.getvalue() == ""


def test_write_csv_is_the_only_cell_formatter():
    assert not hasattr(bddist.formatting, "format_number")
