"""Deterministic CSV and SVG emitters.

All numeric output is formatted with 17 significant digits (full float64
round trip), lines end with LF, and nothing depends on wall-clock time, so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

FLOAT_SPEC = ".17g"  # every float cell: 17 significant digits, a float64 round trip


def fmt_float(x: float) -> str:
    """17-significant-digit decimal form, stable across runs."""
    return format(float(x), FLOAT_SPEC)


def _csv_cell(value) -> str:
    # the text of a float or an int never holds a comma, quote or newline
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(cells: Sequence) -> str:
    """One CSV line of cells, without its line ending."""
    return ",".join(_csv_cell(c) for c in cells)


def _fill_rows(template: str, *columns: np.ndarray) -> list[str]:
    """``template % row`` for every row of the columns set side by side, one
    ``%`` per row.  Each column argument is an (n,) or (n, k) array."""
    cols = [c for a in columns for c in (a[:, None] if a.ndim == 1 else a).T.tolist()]
    return [template % row for row in zip(*cols)]


def _csv_rows(*columns: np.ndarray) -> list[str]:
    """The CSV lines of numeric columns set side by side: ``%d`` for integer
    columns, ``FLOAT_SPEC`` for float ones, so each line is the one
    :func:`_csv_line` gives for the same int and float cells."""
    specs = []
    for a in columns:
        spec = "%d" if np.issubdtype(a.dtype, np.integer) else "%" + FLOAT_SPEC
        specs += [spec] * (1 if a.ndim == 1 else a.shape[1])
    return _fill_rows(",".join(specs), *columns)


def _level_rows(levels: np.ndarray) -> list[str]:
    """The :func:`_csv_rows` lines of an (n, k) array of nonnegative integer
    levels: each level's text comes from one table, and each line is
    joined once."""
    text = np.array([str(l) for l in range(int(levels.max(initial=0)) + 1)], dtype=object)
    return [",".join(row) for row in text[levels].tolist()]


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """RFC-4180 cells, LF line endings.  A row given as a str is a line that
    :func:`_csv_line` or :func:`_csv_rows` already formatted, written as is."""
    lines = [_csv_line(header), *rows]
    try:
        text = "\n".join(lines)  # every row is a formatted line
    except TypeError:
        text = "\n".join(row if isinstance(row, str) else _csv_line(row) for row in lines)
    _write_text(path, text + "\n")


def _write_text(path: str, text: str, what: str = "") -> None:
    """Write ``text`` to ``path`` as UTF-8 with no newline translation;
    DataError "cannot write {what}{path}: ..." on any OSError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {what}{path}: {exc}") from exc


class SvgCanvas:
    """Minimal SVG assembly with fixed-precision coordinates."""

    _SPEC = ".2f"  # every coordinate and length

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self._parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        ]

    @staticmethod
    def _f(x: float) -> str:
        return format(x, SvgCanvas._SPEC)

    def line(self, x1, y1, x2, y2, stroke="black", width=1.0):
        self._parts.append(
            f'<line x1="{self._f(x1)}" y1="{self._f(y1)}" x2="{self._f(x2)}" '
            f'y2="{self._f(y2)}" stroke="{stroke}" stroke-width="{width}"/>'
        )

    def circles(self, cx: np.ndarray, cy: np.ndarray, r: np.ndarray,
                fill="steelblue", opacity=0.6):
        """One circle per entry of the equal-length coordinate arrays."""
        c = "%" + self._SPEC
        self._parts.extend(_fill_rows(
            f'<circle cx="{c}" cy="{c}" r="{c}" fill="{fill}" fill-opacity="{opacity}"/>',
            cx, cy, r,
        ))

    def polygon(self, points: Sequence[tuple[float, float]], fill="crimson"):
        pts = " ".join(f"{self._f(x)},{self._f(y)}" for x, y in points)
        self._parts.append(f'<polygon points="{pts}" fill="{fill}"/>')

    def text(self, x, y, content: str, size=12, anchor="start", rotate: float | None = None,
             fill="black"):
        transform = (
            f' transform="rotate({self._f(rotate)} {self._f(x)} {self._f(y)})"'
            if rotate is not None
            else ""
        )
        safe = (
            content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        )
        self._parts.append(
            f'<text x="{self._f(x)}" y="{self._f(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}" fill="{fill}"{transform}>'
            f"{safe}</text>"
        )

    def save(self, path: str) -> None:
        _write_text(path, "\n".join(self._parts) + "\n</svg>\n")
