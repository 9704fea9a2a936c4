"""Variable schemas and the dummy-bit encoding of categorical/ordinal records.

A schema declares an ordered list of variables.  A categorical variable with
``levels`` categories (level 0 is the base category) occupies a block of
``levels - 1`` dummy bits, at most one of which may be set (one-hot).  An
ordinal variable with ``levels`` levels occupies ``levels - 1`` bits encoding
the flags "at least 1", "at least 2", ... so the set bits of a valid block
form a left-flushed prefix.  Binary variables are categorical with 2 levels.

Block order in the combined dummy vector follows declaration order; nothing
is reordered behind the user's back.

The allowed states, the Cartesian product of the block patterns, are one
cached table per schema (:func:`allowed_table`) that every enumeration reads.
The maps from the dummy bits to their variables and to the levels' logits
(:class:`BlockMaps`) are cached per schema too.

A data file is read into one (n, len(schema)) levels array
(:func:`load_data_levels`), range-checked as one array and encoded by the
one vectorized encoder, :func:`bits_of_levels`.  A plain file (digits,
``,`` and ``\\n`` only, a full row on every line, every level in range) is
parsed in bulk by numpy; every other file is read by the csv line loop,
which also names the first faulty line of a bad file.
:func:`load_data_rows` is the Record view of that array.
:func:`encode_record` and :func:`decode_state` encode and decode one record
at a time; they are the reference that the array paths are tested against.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .caps import check_cap
from .errors import DataError, InvalidStateError, SchemaError


class VariableKind(Enum):
    CATEGORICAL = "categorical"
    ORDINAL = "ordinal"


@dataclass(frozen=True)
class VariableDecl:
    """One declared variable: a name, a kind, and its level count (>= 2)."""

    name: str
    kind: VariableKind
    levels: int

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("variable name must be nonempty")
        if not isinstance(self.levels, int) or self.levels < 2:
            raise SchemaError(
                f"variable {self.name!r}: levels must be an integer >= 2, got {self.levels!r}"
            )

    @property
    def block_size(self) -> int:
        return self.levels - 1


@dataclass(frozen=True)
class DummyState:
    """A length-q bit vector obeying the per-block one-hot / prefix constraints."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise InvalidStateError(f"bits must be 0/1, got {self.bits!r}")


@dataclass(frozen=True)
class Record:
    """Per-variable integer levels, one per declared variable."""

    values: tuple[int, ...]


class VariableSchema:
    """Ordered variable declarations plus the derived dummy-index layout."""

    def __init__(self, variables: Iterable[VariableDecl]):
        self.variables: tuple[VariableDecl, ...] = tuple(variables)
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate variable names in {names}")
        blocks = []
        start = 0
        for v in self.variables:
            blocks.append((start, start + v.block_size))
            start += v.block_size
        self.blocks: tuple[tuple[int, int], ...] = tuple(blocks)
        self.q: int = start

    def __len__(self) -> int:
        return len(self.variables)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VariableSchema) and self.variables == other.variables

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{v.name}:{v.kind.value}({v.levels})" for v in self.variables
        )
        return f"VariableSchema[{inner}]"

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def n_states(self) -> int:
        n = 1
        for v in self.variables:
            n *= v.levels
        return n

    @functools.cached_property
    def _allowed(self) -> tuple[np.ndarray, np.ndarray]:
        return _build_allowed_table(self)

    @functools.cached_property
    def block_maps(self) -> "BlockMaps":
        """The bit-to-variable and b-to-beta maps, built on first use."""
        return BlockMaps.of(self)

    def index_labels(self) -> tuple[str, ...]:
        """Human-readable label per dummy bit, e.g. ``Age=2`` or ``Edu>=3``."""
        labels: list[str] = []
        for v in self.variables:
            op = "=" if v.kind is VariableKind.CATEGORICAL else ">="
            labels.extend(f"{v.name}{op}{l}" for l in range(1, v.levels))
        return tuple(labels)


def encode_record(schema: VariableSchema, rec: Record) -> DummyState:
    """Map per-variable levels to the constrained dummy bit vector.

    Categorical level l sets bit l of the block (level 0 sets none); ordinal
    level l sets the first l bits of the block.
    """
    if len(rec.values) != len(schema):
        raise SchemaError(
            f"record has {len(rec.values)} values, schema declares {len(schema)} variables"
        )
    bits = [0] * schema.q
    for j, (v, level) in enumerate(zip(schema.variables, rec.values)):
        if int(level) != level or not (0 <= level <= v.block_size):
            raise SchemaError(
                f"variable {v.name!r}: level {level!r} out of range 0..{v.block_size}"
            )
        level = int(level)
        s, _ = schema.blocks[j]
        if v.kind is VariableKind.CATEGORICAL:
            if level > 0:
                bits[s + level - 1] = 1
        else:
            for l in range(level):
                bits[s + l] = 1
    return DummyState(tuple(bits))


def decode_state(schema: VariableSchema, state: DummyState) -> Record:
    """Inverse of :func:`encode_record`; rejects invariant-violating bit patterns."""
    if len(state.bits) != schema.q:
        raise InvalidStateError(
            f"state has {len(state.bits)} bits, schema dummy dimension is {schema.q}"
        )
    values: list[int] = []
    for j, v in enumerate(schema.variables):
        s, e = schema.blocks[j]
        block = state.bits[s:e]
        if v.kind is VariableKind.CATEGORICAL:
            ones = [i for i, b in enumerate(block) if b]
            if len(ones) > 1:
                raise InvalidStateError(
                    f"variable {v.name!r}: block {block} is not one-hot"
                )
            values.append(ones[0] + 1 if ones else 0)
        else:
            level = sum(block)
            if block != (1,) * level + (0,) * (len(block) - level):
                raise InvalidStateError(
                    f"variable {v.name!r}: block {block} is not a left-flushed prefix"
                )
            values.append(level)
    return Record(tuple(values))


def _build_allowed_table(schema: VariableSchema) -> tuple[np.ndarray, np.ndarray]:
    counts = [v.levels for v in schema.variables]
    dtype = np.min_scalar_type(max(counts, default=1) - 1)
    if counts:
        levels = np.indices(counts, dtype=dtype).reshape(len(counts), -1).T
    else:  # np.indices(()) has no state axis to reshape
        levels = np.zeros((1, 0), dtype=dtype)
    bits = bits_of_levels(schema, levels)
    bits.flags.writeable = False
    levels.flags.writeable = False
    return bits, levels


@dataclass(frozen=True)
class BlockMaps:
    """Maps from the q dummy bits to their variables and to beta, built once
    per schema (``VariableSchema.block_maps``).

    ``sizes`` are the block sizes, ``var[r]`` is the variable of bit r, and
    ``ordinal`` flags the ordinal variables as a (variables, 1) column.
    ``beta_of_b`` is the (q, q) 0/1 map from b laid end to end to the logit
    of the level ending on each bit, and ``members`` are the (variables, q)
    0/1 bit memberships.
    """

    sizes: tuple[int, ...]
    var: np.ndarray
    ordinal: np.ndarray
    beta_of_b: np.ndarray
    members: np.ndarray

    @classmethod
    def of(cls, schema: "VariableSchema") -> "BlockMaps":
        q, k = schema.q, len(schema)
        sizes = tuple(v.block_size for v in schema.variables)
        bit_var = np.repeat(np.arange(k), sizes)
        ordinal_col = np.array(
            [v.kind is VariableKind.ORDINAL for v in schema.variables], dtype=bool
        ).reshape(k, 1)
        # beta_r sums b over bit r alone (categorical) or its block's bits up to r
        same = np.tril(bit_var[:, None] == bit_var)
        return cls(
            sizes=sizes,
            var=bit_var,
            ordinal=ordinal_col,
            beta_of_b=(same & (ordinal_col[bit_var] | np.eye(q, dtype=bool))).astype(float),
            members=(np.arange(k)[:, None] == bit_var).astype(float),
        )


def allowed_table(schema: VariableSchema) -> tuple[np.ndarray, np.ndarray]:
    """The allowed states as read-only arrays: (n, q) 0/1 ``bits`` and
    (n, len(schema)) ``levels`` in the smallest unsigned dtype.  Row r is the
    state whose levels have mixed-radix code r, first variable most
    significant.  Built once per schema instance; the enumeration cap
    (:func:`grasscat.caps.check_cap`, 2**20 states unless GRASSCAT_CAP sets
    it) is checked on every call and raises EnumerationCapError."""
    check_cap(schema.n_states(), "schema", "allowed states")
    return schema._allowed


def table_rows(schema: VariableSchema, levels: np.ndarray) -> np.ndarray:
    """The :func:`allowed_table` row of every row of an (n, len(schema))
    array of in-range levels: its mixed-radix code, as an int64 vector."""
    radices = [v.levels for v in schema.variables]
    place = [math.prod(radices[j + 1:]) for j in range(len(radices))]
    return np.asarray(levels, dtype=np.int64) @ np.array(place, dtype=np.int64)


def allowed_levels(schema: VariableSchema, bits: np.ndarray) -> np.ndarray:
    """:func:`levels_of_bits` of an (n, q) dummy matrix whose every row is an
    allowed state; InvalidStateError when a row does not encode its levels."""
    levels = levels_of_bits(schema, bits)
    if not np.array_equal(bits_of_levels(schema, levels), bits):
        raise InvalidStateError("an observed state is not an allowed dummy state")
    return levels


def bits_of_levels(schema: VariableSchema, levels: np.ndarray) -> np.ndarray:
    """The (n, q) int8 dummy matrix of an (n, len(schema)) array of levels:
    categorical level l sets bit l of its block, ordinal level l the first l
    bits.  Levels are not validated: an out-of-range level sets no bit or a
    whole block."""
    levels = np.asarray(levels)
    bits = np.zeros((len(levels), schema.q), dtype=np.int8)
    for j, v in enumerate(schema.variables):
        s, e = schema.blocks[j]
        steps = np.arange(1, v.levels)
        col = levels[:, j : j + 1]
        bits[:, s:e] = col == steps if v.kind is VariableKind.CATEGORICAL else col >= steps
    return bits


def levels_of_bits(schema: VariableSchema, bits: np.ndarray) -> np.ndarray:
    """Per-variable levels of every row of an (n, q) dummy matrix.  Rows are
    not validated: a disallowed row still gets levels in range."""
    bits = np.asarray(bits) != 0
    out = np.zeros((bits.shape[0], len(schema)), dtype=np.int64)
    for j, v in enumerate(schema.variables):
        s, e = schema.blocks[j]
        block = bits[:, s:e]
        if v.kind is VariableKind.CATEGORICAL:
            out[:, j] = np.where(block.any(axis=1), block.argmax(axis=1) + 1, 0)
        else:
            out[:, j] = block.sum(axis=1)
    return out


def enumerate_allowed_states(schema: VariableSchema) -> list[DummyState]:
    """The :func:`allowed_table` states as DummyState, under the same cap."""
    bits, _ = allowed_table(schema)
    return [DummyState(tuple(row)) for row in bits.tolist()]


# -- schema file format ----------------------------------------------------

def schema_to_dict(schema: VariableSchema) -> dict:
    return {
        "variables": [
            {"name": v.name, "kind": v.kind.value, "levels": v.levels}
            for v in schema.variables
        ]
    }


def schema_from_dict(obj: object) -> VariableSchema:
    if not isinstance(obj, dict):
        raise SchemaError(f"schema document must be an object, got {type(obj).__name__}")
    unknown = set(obj) - {"variables"}
    if unknown:
        raise SchemaError(f"unknown schema fields: {sorted(unknown)}")
    if "variables" not in obj or not isinstance(obj["variables"], list):
        raise SchemaError('schema document must contain a "variables" list')
    decls = []
    for i, entry in enumerate(obj["variables"]):
        if not isinstance(entry, dict):
            raise SchemaError(f"variables[{i}] must be an object")
        unknown = set(entry) - {"name", "kind", "levels"}
        if unknown:
            raise SchemaError(f"variables[{i}]: unknown fields {sorted(unknown)}")
        try:
            kind = VariableKind(entry.get("kind"))
        except ValueError:
            raise SchemaError(
                f"variables[{i}]: kind must be 'categorical' or 'ordinal', "
                f"got {entry.get('kind')!r}"
            ) from None
        name = entry.get("name")
        if not isinstance(name, str):
            raise SchemaError(f"variables[{i}]: name must be a string")
        levels = entry.get("levels")
        if not isinstance(levels, int) or isinstance(levels, bool):
            raise SchemaError(f"variables[{i}]: levels must be an integer")
        decls.append(VariableDecl(name, kind, levels))
    return VariableSchema(decls)


def _read_json(path: str, what: str) -> object:
    """The JSON document in the ``what`` file at ``path``.  A file that
    cannot be read raises DataError; one that is not UTF-8, not JSON or
    nested past the parser's recursion limit raises SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError too
        raise SchemaError(f"{what} file {path} is not valid JSON: {exc}") from exc


def load_schema(path: str) -> VariableSchema:
    return schema_from_dict(_read_json(path, "schema"))


# -- data file format ------------------------------------------------------

def _out_of_range_rows(schema: VariableSchema, levels: np.ndarray) -> np.ndarray:
    """Indices of the rows of an (n, len(schema)) levels array that hold a
    level outside its variable's range 0..levels-1."""
    sizes = np.array([v.block_size for v in schema.variables], dtype=np.int64)
    return np.flatnonzero(((levels < 0) | (levels > sizes)).any(axis=1))


def _checked_record(schema: VariableSchema, i: int, row: Record | Sequence[int]) -> Record:
    """Row ``i`` as a Record, checked by the one-record reference encoder."""
    rec = row if isinstance(row, Record) else Record(tuple(int(v) for v in row))
    try:
        encode_record(schema, rec)
    except SchemaError as exc:
        raise DataError(f"row {i}: {exc}") from exc
    return rec


def _levels_of_rows(
    schema: VariableSchema, rows: Iterable[Record | Sequence[int]] | np.ndarray
) -> np.ndarray:
    """The (n, len(schema)) int64 levels of Records, level sequences or a
    levels array.  An integer array of that shape is range-checked whole;
    anything else is checked row by row, where a Record's values must be
    integers in range (``int(v) == v``) and a sequence's go through ``int``.
    A bad row raises ``DataError("row {i}: ...")`` for the first such row,
    caused by the encoder's SchemaError, and no rows raise
    ``DataError("dataset is empty")``."""
    k = len(schema)
    if (
        isinstance(rows, np.ndarray)
        and rows.dtype.kind in "iub"
        and rows.ndim == 2
        and rows.shape[1] == k
    ):
        bad = _out_of_range_rows(schema, rows)
        if bad.size:
            _checked_record(schema, int(bad[0]), rows[bad[0]])  # raises
        levels = rows.astype(np.int64, copy=False)
    else:
        values = [
            [int(v) for v in _checked_record(schema, i, r).values] for i, r in enumerate(rows)
        ]
        levels = np.array(values, dtype=np.int64).reshape(len(values), k)
    if not len(levels):
        raise DataError("dataset is empty")
    return levels


def _distinct_levels(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a levels array in first-occurrence order, with
    the index of each one's first row and its count.

    Each row is one opaque key: its int64 cells viewed as a single void
    scalar, so one 1-D ``np.unique`` sorts the keys.  A leading zero cell
    gives every key at least 8 bytes, so a schema with no variables still
    has one (empty) key per row.
    """
    n, k = levels.shape
    keyed = np.zeros((n, k + 1), dtype=np.int64)
    keyed[:, 1:] = levels
    keys = keyed.view(np.dtype((np.void, keyed.itemsize * (k + 1))))[:, 0]
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    first = first[order]
    return levels[first], first, counts[order]


_CELL_DIGITS = 18  # 10**18 - 1 < 2**63, so no strict cell overflows int64
_POW10 = 10 ** np.arange(_CELL_DIGITS, dtype=np.int64)


def _strict_levels(schema: VariableSchema, data: bytes) -> np.ndarray | None:
    """The levels of a data file's bytes parsed in bulk, or None if the file
    is not strict or holds a level out of range.

    A strict file has a header line (no ``"`` or ``\\r``) whose csv cells are
    the schema names, then one or more lines of exactly ``len(schema)``
    cells of 1 to 18 ASCII digits, separated by one ``,`` and each ended by
    ``\\n``.  Python's ``int`` reads such a file to the same levels, so only
    the files this rejects need the per-line loop.
    """
    import csv

    k = len(schema)
    end = data.find(b"\n")
    head = data[:end]
    if end < 0 or b'"' in head or b"\r" in head:
        return None
    try:
        header = next(csv.reader([head.decode("utf-8")]), [])
    except (UnicodeDecodeError, csv.Error):
        return None
    if tuple(header) != schema.names:
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=end + 1)
    if not body.size or body[-1] != ord("\n"):
        return None
    digits = body - np.uint8(ord("0"))  # wraps: only '0'..'9' fall below 10
    ends = np.flatnonzero(digits >= 10)  # the byte that closes each cell
    seps = body[ends]
    n = int(np.count_nonzero(seps == ord("\n")))
    if seps.size != n * k:
        return None
    pattern = np.full(k, ord(","), dtype=np.uint8)
    pattern[-1] = ord("\n")
    if not (seps.reshape(n, k) == pattern).all():
        return None
    widths = np.diff(ends, prepend=-1) - 1
    width = int(widths.max())
    if widths.min() < 1 or width > _CELL_DIGITS:
        return None
    # cells right-aligned in a (cells, width) table; a place past a cell's
    # width reads an earlier byte (or wraps to the last ones) and is masked to 0
    place = np.arange(width - 1, -1, -1)
    table = np.where(place < widths[:, None], digits[ends[:, None] - 1 - place], 0)
    levels = (table @ _POW10[place]).reshape(n, k)
    if _out_of_range_rows(schema, levels).size:
        return None
    return levels


def load_data_levels(schema: VariableSchema, path: str) -> np.ndarray:
    """Read a CSV of integer levels, with a header matching the schema names,
    into one (n, len(schema)) int64 array.

    The file is read once.  A strict file (see :func:`_strict_levels`: plain
    digits, ``,`` and ``\\n``, a full row on every line) with every level in
    range is parsed in bulk.  Any other file is read line by line, where
    cells are parsed with ``int`` and blank lines are skipped.  Reading
    stops at the first line with a wrong cell count, a non-integer cell or a
    csv error, or at bytes that are not UTF-8; the levels read before it are
    then range-checked as one array, and the DataError of the earlier faulty
    line is raised (the header is line 1).
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read data file {path}: {exc}") from exc
    levels = _strict_levels(schema, data)
    return _loop_levels(schema, path, data) if levels is None else levels


def _loop_levels(schema: VariableSchema, path: str, data: bytes) -> np.ndarray:
    """:func:`load_data_levels` for any file, one csv line at a time."""
    import csv
    import io

    k = len(schema)
    rows: list[tuple[int, ...]] = []
    lines: list[int] = []
    fault: DataError | None = None
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"data file {path} is empty")
            if tuple(header) != schema.names:
                raise DataError(
                    f"data header {header} does not match schema variables {list(schema.names)}"
                )
            for i, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != k:
                    fault = DataError(f"{path}:{i}: expected {k} cells, got {len(row)}")
                    break
                try:
                    rows.append(tuple(map(int, row)))
                except ValueError as exc:
                    fault = DataError(f"{path}:{i}: non-integer cell ({exc})")
                    break
                lines.append(i)
        except csv.Error as exc:  # raised after the rows before it are checked
            fault = DataError(f"{path}:{reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:  # decoded by the chunk: no line or offset to name
            bad = exc.object[exc.start : exc.end]
            fault = DataError(f"data file {path} is not UTF-8 text: {exc.reason} {bad!r}")
    try:
        levels = np.array(rows, dtype=np.int64).reshape(len(rows), k)
    except OverflowError:  # a level beyond int64 is out of range
        levels = np.array(rows, dtype=object).reshape(len(rows), k)
    bad = _out_of_range_rows(schema, levels)
    if bad.size:
        r = int(bad[0])
        try:
            encode_record(schema, Record(rows[r]))
        except SchemaError as exc:
            raise DataError(f"{path}:{lines[r]}: {exc}") from None
    if fault is not None:
        raise fault
    if not rows:
        raise DataError(f"data file {path} contains no rows")
    return levels


def load_data_rows(schema: VariableSchema, path: str) -> list[Record]:
    """The rows of :func:`load_data_levels` as Records of Python ints."""
    return [Record(tuple(row)) for row in load_data_levels(schema, path).tolist()]
