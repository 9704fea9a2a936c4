import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasscat.errors import (
    DataError,
    EnumerationCapError,
    InvalidStateError,
    SchemaError,
)
from grasscat.schema import (
    DummyState,
    Record,
    VariableDecl,
    VariableKind,
    VariableSchema,
    decode_state,
    encode_record,
    enumerate_allowed_states,
    iter_records,
    load_data_rows,
    load_schema,
    schema_from_dict,
    schema_to_dict,
)

CAT = VariableKind.CATEGORICAL
ORD = VariableKind.ORDINAL


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

    def test_cap(self):
        schema = VariableSchema([VariableDecl(f"v{i}", CAT, 10) for i in range(8)])
        with pytest.raises(EnumerationCapError):
            enumerate_allowed_states(schema, cap=10**6)


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
