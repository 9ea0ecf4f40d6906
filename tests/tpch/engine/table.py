"""A tiny columnar table with the operators the 22 queries need."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["Table"]


class Table:
    """Columns are equal-length numpy arrays keyed by name."""

    def __init__(self, columns: Dict[str, np.ndarray]):
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: { {k: len(v) for k, v in columns.items()} }")
        self.cols = dict(columns)
        self.n = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, name: str) -> np.ndarray:
        return self.cols[name]

    def __contains__(self, name: str) -> bool:
        return name in self.cols

    @property
    def names(self) -> List[str]:
        return list(self.cols)

    # -- relational operators ----------------------------------------------
    def filter(self, mask: np.ndarray) -> "Table":
        return Table({k: v[mask] for k, v in self.cols.items()})

    def select(self, names: Sequence[str]) -> "Table":
        return Table({k: self.cols[k] for k in names})

    def with_column(self, name: str, values: np.ndarray) -> "Table":
        out = dict(self.cols)
        out[name] = values
        return Table(out)

    def take(self, idx: np.ndarray) -> "Table":
        return Table({k: v[idx] for k, v in self.cols.items()})

    def head(self, n: int) -> "Table":
        return Table({k: v[:n] for k, v in self.cols.items()})

    def concat(self, other: "Table") -> "Table":
        if set(self.cols) != set(other.cols):
            raise ValueError("schema mismatch in concat")
        return Table({k: np.concatenate([self.cols[k], other.cols[k]])
                      for k in self.cols})

    def join(self, other: "Table", left_on: str, right_on: str) -> "Table":
        """Inner hash join; right side is the build side.

        Column name collisions keep the left value (TPC-H queries always
        join on distinct key names, so nothing is lost in practice).
        """
        build: Dict[int, List[int]] = {}
        rkeys = other.cols[right_on]
        for i, k in enumerate(rkeys.tolist()):
            build.setdefault(k, []).append(i)
        lidx: List[int] = []
        ridx: List[int] = []
        for i, k in enumerate(self.cols[left_on].tolist()):
            hits = build.get(k)
            if hits:
                for j in hits:
                    lidx.append(i)
                    ridx.append(j)
        li = np.asarray(lidx, dtype=np.int64)
        ri = np.asarray(ridx, dtype=np.int64)
        out = {k: v[li] for k, v in self.cols.items()}
        for k, v in other.cols.items():
            if k not in out:
                out[k] = v[ri]
        return Table(out)

    def semi_join(self, other: "Table", left_on: str,
                  right_on: str, anti: bool = False) -> "Table":
        keys = set(other.cols[right_on].tolist())
        mask = np.fromiter(((k in keys) != anti
                            for k in self.cols[left_on].tolist()),
                           dtype=bool, count=self.n)
        return self.filter(mask)

    def group_by(self, keys: Sequence[str],
                 aggs: Dict[str, Tuple[str, str]]) -> "Table":
        """Group by ``keys``; ``aggs`` maps output name -> (op, column).

        ops: sum, mean, count, min, max.  'count' ignores its column.
        """
        if self.n == 0:
            out = {k: self.cols[k][:0] for k in keys}
            for name, (op, col) in aggs.items():
                out[name] = np.zeros(0)
            return Table(out)
        groups: Dict[tuple, List[int]] = {}
        key_cols = [self.cols[k] for k in keys]
        for i in range(self.n):
            gk = tuple(c[i] for c in key_cols)
            groups.setdefault(gk, []).append(i)
        ordered = list(groups.items())
        out: Dict[str, np.ndarray] = {}
        for ki, k in enumerate(keys):
            out[k] = np.asarray([gk[ki] for gk, _ in ordered])
        for name, (op, col) in aggs.items():
            vals = []
            for _gk, idx in ordered:
                if op == "count":
                    vals.append(len(idx))
                    continue
                data = self.cols[col][idx]
                if op == "sum":
                    vals.append(data.sum())
                elif op == "mean":
                    vals.append(data.mean())
                elif op == "min":
                    vals.append(data.min())
                elif op == "max":
                    vals.append(data.max())
                else:
                    raise ValueError(f"unknown aggregate {op!r}")
            out[name] = np.asarray(vals)
        return Table(out)

    def sort(self, by: Sequence[Tuple[str, bool]]) -> "Table":
        """Sort by [(column, ascending), ...] with stable multi-key order."""
        idx = np.arange(self.n)
        for col, asc in reversed(by):
            vals = self.cols[col][idx]
            if asc:
                order = np.argsort(vals, kind="stable")
            elif vals.dtype.kind in "if":
                order = np.argsort(-vals, kind="stable")  # stable descending
            else:
                order = np.argsort(vals, kind="stable")[::-1]
            idx = idx[order]
        return self.take(idx)

    # -- plumbing ---------------------------------------------------------------
    def rows(self) -> List[tuple]:
        names = self.names
        return [tuple(self.cols[k][i] for k in names) for i in range(self.n)]

    def to_dicts(self) -> List[dict]:
        names = self.names
        return [{k: self.cols[k][i] for k in names} for i in range(self.n)]

    @staticmethod
    def from_rows(names: Sequence[str], rows: Iterable[tuple]) -> "Table":
        rows = list(rows)
        cols = {}
        for i, name in enumerate(names):
            cols[name] = np.asarray([r[i] for r in rows])
        if not rows:
            cols = {name: np.zeros(0) for name in names}
        return Table(cols)
