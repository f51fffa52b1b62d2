"""The CSV layer against the csv-module readers and writers it replaced.

``qha.io.read_table`` parses the plain form with one ``np.loadtxt`` call
and hands everything else to the csv route.  The oracles in
``tests/_reference.py`` are the readers and writers as they stood on the
``csv`` module with per-field ``int``/``float``, so verdicts and accepted
values must match them bit for bit; the index,re,im reader must also give
the same message.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import _reference as ref
from qha.cli import emit_csv
from qha.groups import (
    FiniteAbelianGroup,
    GroupFunction,
    _read_indexed_csv,
    read_group_function,
    write_group_function,
)

H = "index,re,im\n"

EDGE_FILES = {
    "plain": H + "0,1.5,-2\n1,0.25,3e-5\n",
    "crlf": "index,re,im\r\n0,1.5,-2\r\n1,0.25,3e-5\r\n",
    "manifest_crlf": '# manifest: {"a": "b,\\"c", "n": [1, 2]}\nindex,re,im\r\n0,1,2\r\n',
    "lone_cr": "index,re,im\r0,1,2\r1,3,4\r",
    "cr_then_crlf": H + "0,1,2\r\r\n1,3,4\n",
    "signed_zero": H + "0,-0,-0.0\n1,0,0\n",
    "subnormal_and_underflow": H + "0,4.9e-324,1e-400\n",
    "nan": H + "0,1,2\n1,nan,0\n",
    "inf": H + "0,1,inf\n",
    "Infinity": H + "0,-Infinity,0\n",
    "overflow_to_inf": H + "0,1e400,0\n",
    "underscore_value": H + "0,1_0,0\n",
    "underscore_index_0_0": H + "0_0,1,0\n",
    "underscore_index_1_0": H + "1_0,1,0\n",
    "float_index": H + "3.0,1,0\n",
    "exponent_index": H + "1e0,1,0\n",
    "hex_value": H + "0,0x1p3,0\n",
    "plus_signs": H + "+1,+1.5,-2\n",
    "spaces": H + " 0 , 1.5 ,  2\n",
    "tabs": H + "\t0\t,\t1.5\t,2\t\n",
    "vt_ff": H + "0,\x0b1.5\x0c,2\n",
    "quoted_value": H + '0,"1.5",2\n',
    "quoted_index": H + '"0",1.5,2\n',
    "empty_field": H + "0,,2\n",
    "trailing_comma": H + "0,1,2,\n",
    "short_row": H + "0,1\n",
    "whitespace_line": H + "0,1,2\n   \n1,3,4\n",
    "tab_line": H + "0,1,2\n\t\n",
    "blank_lines": H + "\n0,1,2\n\n1,3,4\n\n\n",
    "trailing_blank_crlf": "index,re,im\r\n0,1,2\r\n\r\n\r\n",
    "mid_file_comment": H + "0,1,2\n# note\n1,3,4\n",
    "indented_hash": H + "0,1,2\n #x,1,2\n",
    "bom": "\ufeffindex,re,im\n0,1,2\n",
    "header_only": H,
    "header_only_blank_lines": H + "\n\n",
    "header_only_whitespace": H + "  \n",
    "no_header": "0,1,2\n",
    "empty_file": "",
    "comment_only": "# x\n",
    "header_spaces": " index , re ,im\n0,1,2\n",
    "wrong_header": "idx,re,im\n0,1,2\n",
    "non_ascii_comment": "# café\nindex,re,im\n0,1,2\n",
    "arabic_indic_digit": H + "٣,1,2\n",
    "non_ascii_in_index": H + "1Ǿ2,1,2\n",
    "unit_separator": H + "\x1f0,1,2\n",
    "file_separator_value": H + "0,\x1c1,2\n",
    "nul": H + "0,1\x00,2\n",
    "quote_closes_in_comment": '# a,"b\n# c"\nindex,re,im\n0,1,2\n',
    "quote_swallows_header": '# a,"b\nindex,re,im\n# c"\nindex,re,im\n0,1,2\n',
    "quote_never_closed": '# a,"b\nindex,re,im\n0,1,2\n',
    "huge_index": H + "99999999999999999999,1,2\n",
    "negative_index": H + "-1,1,2\n",
    "nonfinite_before_bad_index": H + "x,nan,0\n",
    "errors_on_later_rows": H + "0,1,2\n1,x,2\n2,1,2,\n",
}

def _write(tmp_path, text: str, name="f.csv"):
    path = tmp_path / name
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


def _indexed(reader, path):
    """Verdict, message and exact values of an index,re,im reader."""
    try:
        indices, values = reader(path)
    except ValueError as exc:
        return ("rejected", str(exc))
    return ("accepted", [int(i) for i in indices], _bits(values))


class TestReaderAgainstCsvRoute:
    @pytest.mark.parametrize("name", sorted(EDGE_FILES))
    def test_indexed_edge_file(self, tmp_path, name):
        path = _write(tmp_path, EDGE_FILES[name])
        assert _indexed(_read_indexed_csv, path) == _indexed(ref.read_indexed_csv, path)

    def test_edge_table_covers_both_verdicts(self, tmp_path):
        verdicts = {_indexed(_read_indexed_csv, _write(tmp_path, t))[0] for t in EDGE_FILES.values()}
        assert verdicts == {"accepted", "rejected"}

    @pytest.mark.parametrize(
        "indices", [[0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 2], [0, 1, 2, 3, 4], [-1, 0, 1, 2]]
    )
    def test_group_function_index_order(self, tmp_path, indices):
        text = H + "".join(f"{i},{i}.5,0\n" for i in indices)
        path = _write(tmp_path, text)
        group = FiniteAbelianGroup((4,))
        expected = ref.read_indexed_csv(path)[0] == list(range(4))
        if expected:
            assert _bits(read_group_function(path, group).values) == _bits(
                ref.read_indexed_csv(path)[1]
            )
        else:
            with pytest.raises(ValueError, match="expected indices"):
                read_group_function(path, group)


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.17g}"),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.integers(-3, 12).map(str),
)
ODD_FIELDS = st.sampled_from([
    "nan", "-inf", "Infinity", "1_0", "0_0", " 1", "2 ", "\t3", "+4", "-0", "3.0", "1e0",
    '"5"', "", "#6", "0x10", "1e400", "\x1c1", "٣", "1 2", "7\x0b",
])
FIELDS = st.one_of(NUMBERS, ODD_FIELDS)
ODD_LINES = st.sampled_from(["", "# c", "   ", '"#",1,2', "0,1", "0,1,2,", " #,1,2"])


@st.composite
def _corrupted(draw, lines):
    """Up to two odd fields or odd lines in otherwise well-formed rows."""
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines)))
        if draw(st.booleans()) and i < len(lines):
            fields = lines[i].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(ODD_FIELDS)
            lines[i] = ",".join(fields)
        else:
            lines.insert(i, draw(ODD_LINES))
    return lines


def _joined(draw, lines):
    end = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [draw(st.sampled_from([end] * 9 + ["\r"])) for _ in lines]
    return "".join(line + e for line, e in zip(lines, ends))


@st.composite
def csv_texts(draw, header):
    prelude = draw(st.lists(st.sampled_from(["", "# x", '# m: {"k": "a,b"}', '# a,"b']), max_size=2))
    head = draw(st.sampled_from([",".join(header)] * 3 + [" " + ", ".join(header), "x,y,z"]))
    rows = [f"{i},{draw(NUMBERS)},{draw(NUMBERS)}" for i in range(draw(st.integers(0, 6)))]
    return _joined(draw, [*prelude, head, *draw(_corrupted(rows))])


PROPERTY = settings(max_examples=60, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@PROPERTY
@given(text=csv_texts(("index", "re", "im")))
def test_indexed_reader_matches_csv_route(tmp_path, text):
    path = _write(tmp_path, text)
    assert _indexed(_read_indexed_csv, path) == _indexed(ref.read_indexed_csv, path)


SPECIAL = [0.0, -0.0, 5e-324, -1.7976931348623157e308, 1e16, 1 / 3, 0.1, -2.5e-300]


class TestWritersAgainstCsvWriter:
    @pytest.mark.parametrize("comment", [None, 'manifest: {"k": "v"}'])
    def test_group_function_bytes(self, tmp_path, comment):
        group = FiniteAbelianGroup((3, 4))
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        vals[: len(SPECIAL) // 2] = [complex(a, b) for a, b in zip(SPECIAL[::2], SPECIAL[1::2])]
        f = GroupFunction(group, vals)
        write_group_function(f, tmp_path / "new.csv", comment)
        ref.write_group_function(f, tmp_path / "old.csv", comment)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        indices, back = _read_indexed_csv(tmp_path / "new.csv")
        assert indices.tolist() == list(range(12)) and _bits(back) == _bits(f.values)

    ROWS = [
        ("a", True, 1, np.int64(-3), 0.1),
        ("b", np.bool_(False), 2, np.float32(1 / 3), np.float64(-0.0)),
        ("c", False, 10**20, 5e-324, -1.7976931348623157e308),
    ]

    @pytest.mark.parametrize("rows", [ROWS, []])
    @pytest.mark.parametrize("manifest", [None, {"subcommand": "x", "params": {"n": 3}}])
    def test_emit_csv_bytes(self, tmp_path, capsys, rows, manifest):
        header = ("name", "flag", "count", "x", "y")
        comment = None if manifest is None else "manifest: " + json.dumps(manifest, sort_keys=True)
        emit_csv(tmp_path / "new.csv", header, rows, comment)
        ref.emit_csv(tmp_path / "old.csv", header, rows, manifest)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        emit_csv("-", header, rows, comment)
        new_out = capsys.readouterr().out
        ref.emit_csv("-", header, rows, manifest)
        assert new_out == capsys.readouterr().out

    def test_emit_csv_without_header(self, tmp_path):
        emit_csv(tmp_path / "new.csv", (), [(1, 2.5)])
        ref.emit_csv(tmp_path / "old.csv", (), [(1, 2.5)])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
