"""The list-of-rows CSV loader, kept as the oracle for `tabular.load_csv`.

It reads every row into a list of stripped strings, copies the kept cells
into a second list, and fills the object array row by row. Each cell is
its own `str`. It is slow and memory-hungry, and plainly correct.
"""

from __future__ import annotations

import csv

import numpy as np

from fairfix.tabular import DataError, Dataset, EmptyAfterCleaning, MissingColumn, Schema


def load_csv(path, schema: Schema) -> Dataset:
    """Load an RFC-4180 CSV with header; rows with missing cells are dropped."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [[c.strip() for c in row] for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"{path} is not a UTF-8 CSV file: {e}") from None
    if header is None:
        raise EmptyAfterCleaning(f"{path} is empty")
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):  # columns are looked up by name
        raise DataError(f"{path} repeats a column name in its header")

    for col in (schema.label, schema.protected, *schema.drop, *schema.categorical):
        if col not in header:
            raise MissingColumn(col)

    keep = [
        i
        for i, name in enumerate(header)
        if name not in (schema.label, schema.protected) and name not in schema.drop
    ]
    if not keep:
        raise EmptyAfterCleaning("no feature columns retained by schema")
    li = header.index(schema.label)
    zi = header.index(schema.protected)

    kept_rows, y, z = [], [], []
    dropped = 0
    needed = keep + [li, zi]
    for row in rows:
        if len(row) != len(header) or any(row[i] == "" for i in needed):
            dropped += 1
            continue
        kept_rows.append([row[i] for i in keep])
        y.append(1 if row[li] == schema.favorable else 0)
        z.append(0 if row[zi] == schema.unprivileged else 1)
    if not kept_rows:
        raise EmptyAfterCleaning(f"no usable rows in {path}")

    cells = np.empty((len(kept_rows), len(keep)), dtype=object)
    for i, row in enumerate(kept_rows):
        cells[i] = row
    return Dataset(
        feature_names=tuple(header[i] for i in keep),
        cells=cells,
        y=np.array(y),
        z=np.array(z),
        provenance={"source": str(path), "dropped_rows": dropped},
        categorical_override=frozenset(schema.categorical),
    )
