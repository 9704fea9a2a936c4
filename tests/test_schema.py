import csv
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasscat.errors import (
    DataError,
    EnumerationCapError,
    InvalidStateError,
    SchemaError,
)
import grasscat.schema
from grasscat.schema import (
    DummyState,
    Record,
    VariableDecl,
    VariableKind,
    VariableSchema,
    _distinct_levels,
    allowed_levels,
    allowed_table,
    decode_state,
    encode_record,
    enumerate_allowed_states,
    levels_of_bits,
    load_data_levels,
    load_data_rows,
    load_schema,
    schema_from_dict,
    schema_to_dict,
    table_rows,
)

CAT = VariableKind.CATEGORICAL
ORD = VariableKind.ORDINAL


def iter_records(schema: VariableSchema):
    """All records in lexicographic order (first variable most significant),
    one at a time: the reference the allowed-state table is checked against."""
    for combo in itertools.product(*(range(v.levels) for v in schema.variables)):
        yield Record(combo)


def test_block_layout():
    schema = VariableSchema(
        [VariableDecl("a", CAT, 2), VariableDecl("b", CAT, 3), VariableDecl("c", ORD, 4)]
    )
    assert schema.q == 6
    assert schema.blocks == ((0, 1), (1, 3), (3, 6))
    assert schema.n_states() == 24


def test_levels_must_be_at_least_two():
    with pytest.raises(SchemaError):
        VariableDecl("x", CAT, 1)


def test_duplicate_names_rejected():
    with pytest.raises(SchemaError):
        VariableSchema([VariableDecl("x", CAT, 2), VariableDecl("x", ORD, 3)])


class TestEncode:
    def test_categorical_level_is_one_hot(self):
        schema = VariableSchema([VariableDecl("x", CAT, 4)])
        assert encode_record(schema, Record((2,))).bits == (0, 1, 0)

    def test_ordinal_level_is_prefix(self):
        schema = VariableSchema([VariableDecl("x", ORD, 4)])
        assert encode_record(schema, Record((2,))).bits == (1, 1, 0)

    def test_base_level_is_all_zero(self):
        for kind in (CAT, ORD):
            schema = VariableSchema([VariableDecl("x", kind, 4)])
            assert encode_record(schema, Record((0,))).bits == (0, 0, 0)

    def test_out_of_range_level_names_variable(self):
        schema = VariableSchema([VariableDecl("Age", CAT, 3)])
        with pytest.raises(SchemaError, match="Age"):
            encode_record(schema, Record((3,)))
        with pytest.raises(SchemaError, match="Age"):
            encode_record(schema, Record((-1,)))


class TestDecode:
    def test_full_ordinal_prefix(self):
        schema = VariableSchema([VariableDecl("x", ORD, 4)])
        assert decode_state(schema, DummyState((1, 1, 1))).values == (3,)

    def test_zero_categorical_block_is_base(self):
        schema = VariableSchema([VariableDecl("x", CAT, 4)])
        assert decode_state(schema, DummyState((0, 0, 0))).values == (0,)

    def test_two_hot_categorical_rejected(self):
        schema = VariableSchema([VariableDecl("x", CAT, 4)])
        with pytest.raises(InvalidStateError, match="x"):
            decode_state(schema, DummyState((1, 1, 0)))

    def test_gap_in_ordinal_prefix_rejected(self):
        schema = VariableSchema([VariableDecl("x", ORD, 4)])
        with pytest.raises(InvalidStateError, match="x"):
            decode_state(schema, DummyState((1, 0, 1)))


class TestEnumerate:
    def test_single_categorical(self):
        schema = VariableSchema([VariableDecl("x", CAT, 4)])
        assert len(enumerate_allowed_states(schema)) == 4

    def test_mixed_count_is_product_of_levels(self):
        schema = VariableSchema(
            [VariableDecl("a", CAT, 2), VariableDecl("b", CAT, 3), VariableDecl("c", ORD, 4)]
        )
        states = enumerate_allowed_states(schema)
        assert len(states) == 24
        assert len(set(states)) == 24

    def test_matches_filtered_power_set(self):
        schema = VariableSchema(
            [VariableDecl("a", CAT, 2), VariableDecl("b", CAT, 3), VariableDecl("c", ORD, 4)]
        )
        allowed = set(s.bits for s in enumerate_allowed_states(schema))
        by_filter = set()
        for bits in itertools.product((0, 1), repeat=schema.q):
            try:
                decode_state(schema, DummyState(bits))
            except InvalidStateError:
                continue
            by_filter.add(bits)
        assert allowed == by_filter

    def test_empty_schema_has_one_state(self):
        schema = VariableSchema([])
        states = enumerate_allowed_states(schema)
        assert states == [DummyState(())]

    def test_lexicographic_in_record_space(self):
        schema = VariableSchema([VariableDecl("a", CAT, 2), VariableDecl("b", ORD, 3)])
        recs = list(iter_records(schema))
        assert recs[:3] == [Record((0, 0)), Record((0, 1)), Record((0, 2))]
        assert recs[3] == Record((1, 0))

    def test_cap(self, monkeypatch):
        schema = VariableSchema([VariableDecl(f"v{i}", CAT, 10) for i in range(8)])
        monkeypatch.setenv("GRASSCAT_CAP", str(10**6))
        with pytest.raises(EnumerationCapError):
            enumerate_allowed_states(schema)


@st.composite
def schemas_and_records(draw):
    n = draw(st.integers(1, 4))
    decls = []
    for i in range(n):
        kind = draw(st.sampled_from([CAT, ORD]))
        levels = draw(st.integers(2, 5))
        decls.append(VariableDecl(f"v{i}", kind, levels))
    schema = VariableSchema(decls)
    values = tuple(draw(st.integers(0, v.levels - 1)) for v in schema.variables)
    return schema, Record(values)


@given(schemas_and_records())
@settings(max_examples=200, deadline=None)
def test_round_trip(schema_record):
    schema, rec = schema_record
    assert decode_state(schema, encode_record(schema, rec)) == rec


@st.composite
def schemas(draw):
    decls = [
        VariableDecl(f"v{i}", draw(st.sampled_from([CAT, ORD])), draw(st.integers(2, 5)))
        for i in range(draw(st.integers(0, 4)))
    ]
    return VariableSchema(decls)


class TestAllowedTable:
    @given(schemas())
    @settings(max_examples=200, deadline=None)
    def test_matches_record_by_record_encoding(self, schema):
        bits, levels = allowed_table(schema)
        records = list(iter_records(schema))
        assert bits.tolist() == [list(encode_record(schema, r).bits) for r in records]
        assert levels.tolist() == [list(r.values) for r in records]
        assert bits.shape == (schema.n_states(), schema.q)
        assert levels.shape == (schema.n_states(), len(schema))
        assert not bits.flags.writeable and not levels.flags.writeable
        assert np.array_equal(levels_of_bits(schema, bits), levels)
        dims = [v.levels for v in schema.variables]
        for r, row in enumerate(levels.tolist()):
            assert np.ravel_multi_index(tuple(row), dims) == r

    @given(schemas())
    @settings(max_examples=200, deadline=None)
    def test_table_rows_number_the_table(self, schema):
        bits, levels = allowed_table(schema)
        rows = table_rows(schema, levels)
        assert rows.dtype == np.int64
        assert np.array_equal(rows, np.arange(schema.n_states()))
        assert np.array_equal(table_rows(schema, allowed_levels(schema, bits)), rows)

    def test_table_rows_put_the_first_variable_first(self):
        schema = VariableSchema([VariableDecl("a", CAT, 3), VariableDecl("b", ORD, 3)])
        assert table_rows(schema, np.array([[1, 0], [0, 1], [2, 1]])).tolist() == [3, 1, 7]

    def test_allowed_levels_refuses_every_disallowed_row(self):
        schema = VariableSchema([VariableDecl("c", CAT, 3), VariableDecl("o", ORD, 4)])
        allowed = set(map(tuple, allowed_table(schema)[0].tolist()))
        message = "^an observed state is not an allowed dummy state$"
        for row in itertools.product((0, 1), repeat=schema.q):
            bits = np.array([row])
            if row in allowed:
                assert np.array_equal(allowed_levels(schema, bits), levels_of_bits(schema, bits))
            else:
                with pytest.raises(InvalidStateError, match=message):
                    allowed_levels(schema, bits)
                with pytest.raises(InvalidStateError, match=message):  # one bad row in a batch
                    allowed_levels(schema, np.vstack([allowed_table(schema)[0], bits]))
        with pytest.raises(InvalidStateError, match=message):  # a set bit reads 1, not 2
            allowed_levels(schema, np.array([[0, 2, 0, 0, 0]]))

    def test_levels_dtype_is_smallest_unsigned(self):
        small = VariableSchema([VariableDecl("a", CAT, 3), VariableDecl("b", ORD, 256)])
        assert allowed_table(small)[1].dtype == np.uint8
        wide = VariableSchema([VariableDecl("a", CAT, 257)])
        assert allowed_table(wide)[1].dtype == np.uint16

    def test_cached_per_schema_instance(self):
        schema = VariableSchema([VariableDecl("a", CAT, 3), VariableDecl("b", ORD, 4)])
        first = allowed_table(schema)
        assert allowed_table(schema)[0] is first[0]
        assert allowed_table(schema)[1] is first[1]

    def test_cap_checked_on_every_call(self, monkeypatch):
        schema = VariableSchema([VariableDecl("x", CAT, 4)])
        monkeypatch.setenv("GRASSCAT_CAP", "4")
        assert len(allowed_table(schema)[0]) == 4
        monkeypatch.setenv("GRASSCAT_CAP", "3")
        with pytest.raises(EnumerationCapError):
            allowed_table(schema)
        with pytest.raises(EnumerationCapError):
            enumerate_allowed_states(schema)
        monkeypatch.setenv("GRASSCAT_CAP", "2")
        with pytest.raises(EnumerationCapError):
            allowed_table(schema)

    def test_over_cap_schema_builds_nothing(self, monkeypatch):
        def no_build(schema):
            raise AssertionError("table built before the cap check")

        monkeypatch.setattr(grasscat.schema, "_build_allowed_table", no_build)
        schema = VariableSchema([VariableDecl(f"v{i}", CAT, 10) for i in range(7)])
        with pytest.raises(EnumerationCapError):
            allowed_table(schema)
        monkeypatch.setenv("GRASSCAT_CAP", "3")
        with pytest.raises(EnumerationCapError):
            allowed_table(VariableSchema([VariableDecl("x", CAT, 4)]))

    def test_levels_of_bits_on_disallowed_rows_stays_in_range(self):
        schema = VariableSchema([VariableDecl("c", CAT, 3), VariableDecl("o", ORD, 3)])
        rows = np.asarray(list(itertools.product((0, 1), repeat=schema.q)))
        levels = levels_of_bits(schema, rows)
        assert levels.shape == (len(rows), 2)
        assert levels.min() >= 0
        assert (levels.max(axis=0) <= [2, 2]).all()


class TestSchemaFile:
    def test_round_trip_dict(self):
        schema = VariableSchema([VariableDecl("a", CAT, 2), VariableDecl("b", ORD, 5)])
        assert schema_from_dict(schema_to_dict(schema)) == schema

    def test_unknown_fields_rejected(self):
        with pytest.raises(SchemaError, match="unknown"):
            schema_from_dict({"variables": [], "extra": 1})
        with pytest.raises(SchemaError, match="unknown"):
            schema_from_dict(
                {"variables": [{"name": "a", "kind": "ordinal", "levels": 2, "x": 0}]}
            )

    def test_bad_kind_rejected(self):
        with pytest.raises(SchemaError, match="kind"):
            schema_from_dict({"variables": [{"name": "a", "kind": "real", "levels": 2}]})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "schema document must be an object, got list"),
            ({}, 'schema document must contain a "variables" list'),
            ({"variables": {"a": 1}}, 'schema document must contain a "variables" list'),
            ({"variables": ["a"]}, "variables[0] must be an object"),
            ({"variables": [{"name": 1, "kind": "ordinal", "levels": 2}]},
             "variables[0]: name must be a string"),
            ({"variables": [{"name": "a", "kind": "ordinal", "levels": "2"}]},
             "variables[0]: levels must be an integer"),
            ({"variables": [{"name": "a", "kind": "ordinal", "levels": True}]},
             "variables[0]: levels must be an integer"),
        ],
        ids=["not-object", "no-variables", "variables-not-list", "entry-not-object",
             "name-not-string", "levels-string", "levels-bool"],
    )
    def test_each_document_check_names_its_fault(self, tmp_path, doc, message):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=rf"^{re.escape(message)}$"):
            load_schema(str(path))

    def test_unreadable_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(DataError, match=rf"^cannot read schema file {re.escape(str(path))}: "):
            load_schema(str(path))

    def test_load_files(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(
            '{"variables": [{"name": "a", "kind": "categorical", "levels": 3}]}'
        )
        schema = load_schema(str(path))
        assert schema.q == 2

        data = tmp_path / "data.csv"
        data.write_text("a\n0\n2\n1\n")
        rows = load_data_rows(schema, str(data))
        assert [r.values for r in rows] == [(0,), (2,), (1,)]

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(
            '{"variables": [{"name": "a", "kind": "categorical", "levels": 3}]}'
        )
        schema = load_schema(str(path))
        data = tmp_path / "data.csv"
        data.write_text("b\n0\n")
        with pytest.raises(DataError, match="header"):
            load_data_rows(schema, str(data))

    def test_row_error_carries_line_number(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(
            '{"variables": [{"name": "a", "kind": "categorical", "levels": 3}]}'
        )
        schema = load_schema(str(path))
        data = tmp_path / "data.csv"
        data.write_text("a\n1\n7\n")
        with pytest.raises(DataError, match=":3"):
            load_data_rows(schema, str(data))


def _ref_load(schema, path):
    """The per-row loader load_data_levels replaced, kept as its reference."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read data file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            return _ref_load_rows(schema, path, reader)
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start : exc.end]
            raise DataError(f"data file {path} is not UTF-8 text: {exc.reason} {bad!r}") from None
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def _ref_load_rows(schema, path, reader):
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"data file {path} is empty") from None
    if tuple(header) != schema.names:
        raise DataError(
            f"data header {header} does not match schema variables {list(schema.names)}"
        )
    rows = []
    for i, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(schema):
            raise DataError(f"{path}:{i}: expected {len(schema)} cells, got {len(row)}")
        try:
            values = tuple(int(cell) for cell in row)
        except ValueError as exc:
            raise DataError(f"{path}:{i}: non-integer cell ({exc})") from None
        try:
            encode_record(schema, Record(values))
        except SchemaError as exc:
            raise DataError(f"{path}:{i}: {exc}") from None
        rows.append(Record(values))
    if not rows:
        raise DataError(f"data file {path} contains no rows")
    return rows


def _assert_matches_reference(schema, path):
    got = _load_outcome(load_data_rows, schema, str(path))
    assert got == _load_outcome(_ref_load, schema, str(path))
    if isinstance(got, list):
        levels = load_data_levels(schema, str(path))
        assert levels.dtype == np.int64
        assert levels.shape == (len(got), len(schema))
        assert levels.tolist() == [list(r.values) for r in got]


def _load_outcome(load, schema, path):
    try:
        rows = load(schema, path)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    assert all(type(v) is int for r in rows for v in r.values)
    return rows


LOADER_SCHEMA = VariableSchema([VariableDecl("a", CAT, 3), VariableDecl("b", ORD, 12)])
NO_VARIABLES = VariableSchema([])
BIG = str(10**30)
HUGE_FIELD = "x" * 200_000  # beyond the csv module's field limit

LOADER_CORPUS = {
    "valid": "a,b\n0,1\n2,11\n1,0\n",
    "wrong_cell_count": "a,b\n0,1\n1\n",
    "trailing_comma": "a,b\n0,1,\n",
    "whitespace_line": "a,b\n0,1\n   \n",
    "non_integer": "a,b\n0,1\n0,x\n",
    "non_integer_first_cell_named": "a,b\nq,r\n",
    "float_cell": "a,b\n1.5,0\n",
    "negative_level": "a,b\n0,1\n-1,0\n",
    "level_above_block": "a,b\n0,1\n3,0\n",
    "level_above_second_block": "a,b\n0,12\n",
    "big_level": f"a,b\n0,{BIG}\n",
    "big_negative_level": f"a,b\n-{BIG},0\n",
    "blank_lines_between_rows": "a,b\n0,1\n\n\n2,3\n\n",
    "blank_lines_before_error": "a,b\n0,1\n\n\n5,0\n",
    "range_before_parse": "a,b\n0,1\n3,0\n0,y\n",
    "parse_before_range": "a,b\n0,y\n3,0\n",
    "count_before_range": "a,b\n0\n9,9\n",
    "range_before_count": "a,b\n9,0\n1\n",
    "parse_before_count": "a,b\n0,1.5\n1\n",
    "count_before_parse": "a,b\n1,2,3\n0,z\n",
    "header_only": "a,b\n",
    "header_and_blank_lines": "a,b\n\n\n",
    "empty_file": "",
    "header_mismatch": "b,a\n0,0\n",
    "plus_and_underscore_cells": "a,b\n +1 ,1_0\n",
    "quoted_cells": 'a,b\n"2","3"\n',
    "range_before_csv_error": f"a,b\n9,0\n{HUGE_FIELD}\n",
    "csv_error": f"a,b\n0,0\n{HUGE_FIELD}\n",
    "csv_error_in_header": f"{HUGE_FIELD}\n0,0\n",
    "crlf_line_ends": "a,b\r\n0,1\r\n2,11\r\n",
    "no_final_newline": "a,b\n0,1\n2,11",
    "trailing_blank_line": "a,b\n0,1\n2,11\n\n",
    "leading_zeros": "a,b\n002,007\n00,0\n",
    "leading_zeros_out_of_range": "a,b\n0,1\n007,0\n",
    "cell_18_digits": f"a,b\n0,{'0' * 17}9\n{'0' * 18},0\n",
    "cell_18_digits_out_of_range": f"a,b\n0,1\n0,{'9' * 18}\n",
    "cell_19_digits": f"a,b\n0,{'0' * 18}9\n",
    "cell_19_digits_out_of_range": f"a,b\n0,{'9' * 19}\n",
    "cell_20_digits": f"a,b\n0,{'0' * 19}9\n",
    "cell_20_digits_out_of_range": f"a,b\n{'9' * 20},0\n",
    "header_with_quote": '"a",b\n0,1\n2,11\n',
    "header_with_bom": "\ufeffa,b\n0,1\n",
    "header_with_cr": "a,b\r0,1\n2,11\n",
    "header_with_crlf": "a,b\r\n0,1\n2,11\n",
    "unterminated_quote_in_header": '"a,b\n0,1\n',
    "no_variables_blank_rows": (NO_VARIABLES, "\n\n\n"),
    "no_variables_cell": (NO_VARIABLES, "\n\n0\n"),
    "no_variables_header": (NO_VARIABLES, "a\n\n"),
}


class TestLoaderParity:
    @pytest.mark.parametrize("name", sorted(LOADER_CORPUS))
    def test_matches_per_row_reference(self, tmp_path, name):
        entry = LOADER_CORPUS[name]
        schema, text = entry if isinstance(entry, tuple) else (LOADER_SCHEMA, entry)
        path = tmp_path / f"{name}.csv"
        path.write_text(text, encoding="utf-8", newline="")
        _assert_matches_reference(schema, path)

    def test_plus_and_underscore_cells_parse_as_int(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(LOADER_CORPUS["plus_and_underscore_cells"])
        assert load_data_rows(LOADER_SCHEMA, str(path)) == [Record((1, 10))]

    @pytest.mark.parametrize("text", [b"\xff,b\n0,0\n", b"a,b\n0,0\n1,\xff\n", b"a,b\n9,0\n1,\xff\n"])
    def test_undecodable_bytes_match_reference(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text)
        got = _load_outcome(load_data_rows, LOADER_SCHEMA, str(path))
        assert got == _load_outcome(_ref_load, LOADER_SCHEMA, str(path))
        assert got[0] is DataError

    def test_missing_file(self, tmp_path):
        path = str(tmp_path / "absent.csv")
        got = _load_outcome(load_data_rows, LOADER_SCHEMA, path)
        assert got == _load_outcome(_ref_load, LOADER_SCHEMA, path)
        assert got[0] is DataError

    @given(
        st.lists(
            st.lists(
                st.sampled_from(["0", "1", "2", "3", "11", "12", "-1", "x", "", " +1 ", "1_0", "1.5", BIG]),
                min_size=0,
                max_size=3,
            ),
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_random_files_match_reference(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("loader") / "data.csv"
        path.write_text("a,b\n" + "".join(",".join(r) + "\n" for r in rows))
        got = _load_outcome(load_data_rows, LOADER_SCHEMA, str(path))
        assert got == _load_outcome(_ref_load, LOADER_SCHEMA, str(path))

    @given(
        st.sampled_from(["a,b\n", "a,b\r\n", '"a",b\n', "a,b", ""]),
        st.text(alphabet='0129,\n\r" +-x', max_size=40),
    )
    @settings(max_examples=400, deadline=None)
    def test_random_bytes_match_reference(self, tmp_path_factory, header, body):
        path = tmp_path_factory.mktemp("loader") / "data.csv"
        path.write_bytes((header + body).encode("ascii"))
        _assert_matches_reference(LOADER_SCHEMA, path)

    def test_undecodable_byte_past_first_chunk_matches_reference(self, tmp_path):
        # the text is decoded by 8 KiB chunk, so the rows read before the
        # bad byte depend on the chunking, which must match the reference
        for bad_row in (100, 3000):
            rows = ["0,1"] * 4000
            rows[bad_row] = "9,0"
            rows[3500] = "1,\xff"
            path = tmp_path / f"data{bad_row}.csv"
            path.write_bytes(("a,b\n" + "\n".join(rows) + "\n").encode("latin-1"))
            got = _load_outcome(load_data_rows, LOADER_SCHEMA, str(path))
            assert got == _load_outcome(_ref_load, LOADER_SCHEMA, str(path))
            assert got[0] is DataError

    def test_bench_shaped_file_takes_the_bulk_path(self, tmp_path, monkeypatch):
        # one row per line, "\n" line ends, one- and two-digit cells, as
        # bench/data.py writes them; a bulk path that always fell back
        # would pass every parity test
        schema = VariableSchema(
            [VariableDecl("c", CAT, 4), VariableDecl("o", ORD, 12), VariableDecl("x", CAT, 2)]
        )
        rng = np.random.default_rng(5)
        levels = rng.integers(0, [4, 12, 2], size=(500, 3))
        path = tmp_path / "data.csv"
        lines = ["c,o,x"] + [",".join(map(str, row)) for row in levels.tolist()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
        expected = [list(r.values) for r in _ref_load(schema, str(path))]

        def no_loop(*args):
            raise AssertionError("fell back to the per-line loop")

        monkeypatch.setattr(grasscat.schema, "_loop_levels", no_loop)
        got = load_data_levels(schema, str(path))
        assert got.dtype == np.int64
        assert got.tolist() == expected == levels.tolist()


def _ref_distinct_levels(levels):
    """The np.unique(axis=0) body _distinct_levels replaced, kept as its reference."""
    distinct, first, counts = np.unique(levels, axis=0, return_index=True, return_counts=True)
    order = np.argsort(first)
    return distinct[order], first[order], counts[order]


class TestDistinctLevels:
    @given(
        st.integers(1, 40),
        st.integers(0, 5),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_unique_rows_reference(self, n, k, top, seed):
        levels = np.random.default_rng(seed).integers(0, top, size=(n, k))
        got = _distinct_levels(levels)
        ref = _ref_distinct_levels(levels)
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype
            assert np.array_equal(g, r)

    @pytest.mark.parametrize(
        "levels",
        [
            np.array([[3, 1]]),
            np.array([[1, 2], [1, 2], [0, 5], [1, 2], [0, 5]]),
            np.zeros((4, 0), dtype=np.int64),
            np.array([[-1, 2**62], [2**62, -1], [-1, 2**62]]),
        ],
        ids=["one_row", "repeated_rows", "no_variables", "wide_values"],
    )
    def test_edge_cases_match_reference(self, levels):
        for g, r in zip(_distinct_levels(levels), _ref_distinct_levels(levels)):
            assert g.dtype == r.dtype
            assert np.array_equal(g, r)


def test_index_labels():
    schema = VariableSchema([VariableDecl("W", CAT, 2), VariableDecl("E", ORD, 3)])
    assert schema.index_labels() == ("W=1", "E>=1", "E>=2")


def test_env_cap_override(monkeypatch):
    schema = VariableSchema([VariableDecl("x", CAT, 4)])
    monkeypatch.setenv("GRASSCAT_CAP", "3")
    with pytest.raises(EnumerationCapError):
        enumerate_allowed_states(schema)
    monkeypatch.setenv("GRASSCAT_CAP", "4")
    assert len(enumerate_allowed_states(schema)) == 4
    for bad in ("abc", "0", "-3", "2.5"):
        monkeypatch.setenv("GRASSCAT_CAP", bad)
        with pytest.raises(EnumerationCapError, match="GRASSCAT_CAP"):
            enumerate_allowed_states(schema)
