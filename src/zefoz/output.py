"""Deterministic tabular output: CSV and JSON-record files.

Numbers are written with 9 significant digits, ``.`` decimal separator,
no locale dependence. Identical rows and header always produce identical
bytes; headers carry no timestamps for exactly that reason.

Cells are formatted by exact type: ``float`` with ``f"{x:.9g}"`` (which
already prints ``nan``, ``inf`` and ``-inf``), ``int`` with ``str`` and
``str`` as is, with no numpy call per cell. Bools print as ``1``/``0``,
numpy integers as ints and any other number through ``float``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def format_cell(value) -> str:
    kind = type(value)
    if kind is float:
        return f"{value:.9g}"
    if kind is int:
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def _json_value(value) -> str:
    if isinstance(value, str):
        return f'"{value}"'
    return format_cell(value)


def render_csv(
    rows: Iterable[Sequence], columns: Sequence[str], header_lines: Sequence[str] = ()
) -> str:
    out = [f"# {line}" for line in header_lines]
    out.append(",".join(columns))
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row has {len(row)} cells for {len(columns)} columns")
        out.append(",".join(map(format_cell, row)))
    return "\n".join(out) + "\n"


def render_json_records(
    rows: Iterable[Sequence], columns: Sequence[str], header_lines: Sequence[str] = ()
) -> str:
    out = [f"# {line}" for line in header_lines]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row has {len(row)} cells for {len(columns)} columns")
        cells = (f'"{name}": {_json_value(value)}' for name, value in zip(columns, row))
        out.append("{" + ", ".join(cells) + "}")
    return "\n".join(out) + "\n"


def write_table(
    path: str,
    rows: Iterable[Sequence],
    columns: Sequence[str],
    out_format: str = "csv",
    header_lines: Sequence[str] = (),
) -> str:
    """Write rows to ``path`` in the requested format; returns the path."""
    if out_format == "csv":
        text = render_csv(rows, columns, header_lines)
    elif out_format == "json-records":
        text = render_json_records(rows, columns, header_lines)
    else:
        raise ValueError(f"unknown output format {out_format!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"could not write {path!r}: {exc}") from exc
    return path
