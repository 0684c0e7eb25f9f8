"""Mutable graphs: versioned snapshots under batched mutation.

:class:`MutableGraph` wraps a :class:`~repro.datasets.catalog.GraphData`
and applies :class:`~repro.dyngraph.delta.GraphDelta` batches to it.  Two
invariants drive the design:

1. **Snapshots are immutable.**  Every ``apply`` builds *new* adjacency /
   feature matrices (sharing unchanged buffers where safe) and bumps the
   version; the previous snapshot keeps its bytes.  Compiled programs,
   cached responses and in-flight batches hold references to old
   versions, so mutation must never write through them.
2. **Applied deltas are exact.**  ``apply`` filters the requested delta
   against the current structure — inserting a present edge is a value
   update, deleting an absent edge is a no-op — and returns an
   :class:`~repro.dyngraph.delta.AppliedDelta` describing precisely which
   coordinates flipped population.  That record is what makes O(delta)
   incremental re-profiling *exact* rather than approximate.

Within one delta, deletes apply first, then inserts, then feature
updates; duplicate coordinates within a class resolve to the last
occurrence (sequential-assignment semantics).

Snapshots of mutated versions carry a serving content fingerprint
(``dyn:<uid>:v<version>``) piggybacked on the memo
:func:`repro.engine.keys.graph_content_digest` keeps, so request
fingerprinting of a dynamic graph is O(1) instead of an O(nnz) content
hash per version.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from repro.datasets.catalog import GraphData
from repro.dyngraph.delta import AppliedDelta, GraphDelta
from repro.formats.dense import DTYPE

_graph_uids = itertools.count()


def _csr_lower_bound(
    mat: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Where each (row, col) sits, or would be inserted, in the canonical
    CSR's ``indices`` / ``data``: every query bisects its own row, all of
    them in step, so the cost is O(delta * log(row nnz)) with no Python
    iteration per edge and no pass over what is stored."""
    indptr, indices = mat.indptr, mat.indices
    lo = indptr[rows].astype(np.int64)
    hi = indptr[rows + 1].astype(np.int64)
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        # a settled query (lo == hi) may point one past the last stored
        # entry: read it clipped, and leave it where it is
        below = (indices.take(mid, mode="clip") < cols) & (lo < hi)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return lo


def _csr_find(mat: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Data-array position of each (row, col), or -1 when absent."""
    if not mat.nnz:
        return np.full(rows.size, -1, dtype=np.int64)
    pos = _csr_lower_bound(mat, rows, cols)
    # past its row's end a position holds another row's entry, or none
    found = (pos < mat.indptr[rows + 1]) & (mat.indices.take(pos, mode="clip") == cols)
    return np.where(found, pos, -1)


def _dedup_last(rows: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """Indices keeping the *last* occurrence of each (row, col) pair."""
    if rows.size < 2:
        return np.arange(rows.size)
    keys = rows * np.int64(width) + cols
    # np.unique keeps the first occurrence; reverse so "first" means last
    _, first = np.unique(keys[::-1], return_index=True)
    return np.sort(rows.size - 1 - first)


def _rebuild_csr(
    mat: sp.csr_matrix,
    data: np.ndarray,
    keep: np.ndarray,
    add_rows: np.ndarray,
    add_cols: np.ndarray,
    add_vals: np.ndarray,
) -> sp.csr_matrix:
    """New canonical CSR = old entries under ``keep`` mask + additions.

    The kept entries are already in canonical order, so the (few, absent,
    duplicate-free) additions are sorted among themselves and merged in
    at their insertion points; nothing sorts what is stored.
    """
    n_rows = mat.shape[0]
    order = np.lexsort((add_cols, add_rows))
    add_rows, add_cols = add_rows[order], add_cols[order]
    gone = np.flatnonzero(~keep)
    # where each addition lands: its insertion point among the old
    # entries, less the removed ones before it, plus the additions before it
    slot = _csr_lower_bound(mat, add_rows, add_cols)
    slot -= np.searchsorted(gone, slot)
    slot += np.arange(order.size)
    total = keep.size - gone.size + order.size
    old = np.ones(total, dtype=bool)
    old[slot] = False
    idx_dtype = sp.get_index_dtype(maxval=max(total, *mat.shape))
    indices = np.empty(total, dtype=idx_dtype)
    indices[old] = mat.indices[keep]
    indices[slot] = add_cols
    vals = np.empty(total, dtype=DTYPE)
    vals[old] = data[keep]
    vals[slot] = add_vals[order]
    # every row gains its additions and loses its removals
    gone_rows = np.searchsorted(mat.indptr, gone, "right") - 1
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(add_rows, minlength=n_rows)
        - np.bincount(gone_rows, minlength=n_rows),
        out=indptr[1:],
    )
    indptr += mat.indptr
    out = sp.csr_matrix((vals, indices, indptr.astype(idx_dtype)), shape=mat.shape)
    out.has_canonical_format = True  # by construction; spares the O(nnz) check
    return out


class MutableGraph:
    """A graph that evolves in place through versioned batched deltas."""

    def __init__(
        self,
        data: GraphData,
        *,
        graph_id: str | None = None,
        symmetric: bool | None = None,
    ) -> None:
        a = data.a.tocsr()
        if not a.has_canonical_format:
            a = a.copy()
            a.sum_duplicates()
        if a.nnz and np.any(a.data == 0):
            a = a.copy()
            a.eliminate_zeros()
        if not a.has_sorted_indices:
            a = a.copy()
            a.sort_indices()
        if a.dtype != DTYPE:
            a = a.astype(DTYPE)
        if a.nnz and a.data.min() < 0:
            raise ValueError(
                "dyngraph requires nonnegative adjacency weights (degree "
                "cancellation would decouple operand structure from A)"
            )
        self._uid = next(_graph_uids)
        self.graph_id = graph_id or f"{data.name}@dyn{self._uid}"
        self._data = replace(data, name=self.graph_id, a=a)
        self.symmetric = data.spec.symmetric if symmetric is None else symmetric
        self.version = 0
        #: applied-delta history, oldest first (the versioned change log)
        self.log: list[AppliedDelta] = []

    # -- introspection ---------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._data.num_vertices

    @property
    def nnz(self) -> int:
        return int(self._data.a.nnz)

    def snapshot(self) -> GraphData:
        """The current immutable version of the graph."""
        return self._data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MutableGraph({self.graph_id}, v{self.version}, "
            f"|V|={self.num_vertices}, nnz(A)={self.nnz})"
        )

    # -- mutation --------------------------------------------------------
    def apply(self, delta: GraphDelta) -> AppliedDelta:
        """Apply one batched mutation; returns its exact effect.

        A delta with no effective change (all no-ops) leaves the version
        untouched and is not logged.
        """
        n = self.num_vertices
        a = self._data.a

        ins_r, ins_c, ins_v = delta.insert_rows, delta.insert_cols, delta.insert_vals
        del_r, del_c = delta.delete_rows, delta.delete_cols
        for name, arr in (("insert", ins_r), ("insert", ins_c),
                          ("delete", del_r), ("delete", del_c)):
            if arr.size and arr.max() >= n:
                raise IndexError(f"edge {name} index out of range for |V|={n}")

        if self.symmetric:
            # an undirected edge is one entity: canonicalise to (lo, hi)
            # BEFORE dedup so (r, c) and (c, r) requests collapse (last
            # wins for both directions), then mirror — dedup-after-mirror
            # would let conflicting directions produce an asymmetric A
            lo, hi = np.minimum(ins_r, ins_c), np.maximum(ins_r, ins_c)
            keep_i = _dedup_last(lo, hi, n)
            ins_r, ins_c, ins_v = lo[keep_i], hi[keep_i], ins_v[keep_i]
            ins_r, ins_c = (
                np.concatenate((ins_r, ins_c)), np.concatenate((ins_c, ins_r))
            )
            ins_v = np.concatenate((ins_v, ins_v))
            lo, hi = np.minimum(del_r, del_c), np.maximum(del_r, del_c)
            keep_d = _dedup_last(lo, hi, n)
            del_r, del_c = lo[keep_d], hi[keep_d]
            off = del_r != del_c  # never mirror a diagonal delete onto itself
            del_r, del_c = (
                np.concatenate((del_r, del_c[off])),
                np.concatenate((del_c, del_r[off])),
            )
        else:
            keep_i = _dedup_last(ins_r, ins_c, n)
            ins_r, ins_c, ins_v = ins_r[keep_i], ins_c[keep_i], ins_v[keep_i]
            keep_d = _dedup_last(del_r, del_c, n)
            del_r, del_c = del_r[keep_d], del_c[keep_d]

        pos = _csr_find(
            a, np.concatenate((del_r, ins_r)), np.concatenate((del_c, ins_c))
        )
        # deletes first: a pair both deleted and inserted ends up present
        del_pos, ins_pos = pos[: del_r.size], pos[del_r.size :]
        hit = del_pos >= 0
        removed_rows, removed_cols, removed_pos = del_r[hit], del_c[hit], del_pos[hit]
        # ...but only if the insert is not re-creating a just-deleted edge
        if removed_pos.size and ins_pos.size:
            recreated = np.isin(ins_pos, removed_pos)
            # re-created edges are additions (their old entry is removed)
            ins_pos = np.where(recreated, -1, ins_pos)

        present = ins_pos >= 0
        upd_pos, upd_vals = ins_pos[present], ins_v[present]
        changed = a.data[upd_pos] != upd_vals.astype(DTYPE)
        updated_rows, updated_cols = ins_r[present][changed], ins_c[present][changed]
        upd_pos, upd_vals = upd_pos[changed], upd_vals[changed]
        added_rows, added_cols = ins_r[~present], ins_c[~present]
        added_vals = ins_v[~present].astype(DTYPE)

        a_changed = bool(
            added_rows.size or removed_rows.size or upd_pos.size
        )
        if a_changed:
            data = a.data.copy()
            if upd_pos.size:
                data[upd_pos] = upd_vals
            if added_rows.size or removed_rows.size:
                keep = np.ones(a.nnz, dtype=bool)
                keep[removed_pos] = False
                a_new = _rebuild_csr(a, data, keep, added_rows, added_cols, added_vals)
            else:
                a_new = sp.csr_matrix((data, a.indices, a.indptr), shape=a.shape)
        else:
            a_new = a

        h_rows, h_cols, h_old, h_new, h0_new = self._apply_features(delta)

        changed = bool(a_changed or h_rows.size)
        applied = AppliedDelta(
            version_from=self.version,
            version_to=self.version + changed,
            a_added_rows=added_rows, a_added_cols=added_cols,
            a_added_vals=added_vals,
            a_removed_rows=removed_rows, a_removed_cols=removed_cols,
            a_updated_rows=updated_rows, a_updated_cols=updated_cols,
            h_rows=h_rows, h_cols=h_cols,
            h_old_vals=h_old, h_new_vals=h_new,
            touched_vertices=np.unique(np.concatenate(
                (added_rows, added_cols, removed_rows, removed_cols,
                 updated_rows, updated_cols)
            )) if changed else np.empty(0, np.int64),
        )
        if not changed:
            return applied
        self.version += 1
        self._data = replace(self._data, a=a_new, h0=h0_new)
        # O(1) serving fingerprint for this version (see module docstring)
        self._data._serve_content_digest = (
            id(self._data.a),
            id(self._data.h0),
            f"dyn:{self._uid}:v{self.version}",
        )
        self.log.append(applied)
        return applied

    def _apply_features(
        self, delta: GraphDelta
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, object]:
        """Apply feature assignments; returns (rows, cols, old, new, h0_new)."""
        h0 = self._data.h0
        f_r, f_c, f_v = delta.feature_rows, delta.feature_cols, delta.feature_vals
        empty = (np.empty(0, np.int64),) * 2 + (np.empty(0, DTYPE),) * 2
        if f_r.size == 0:
            return (*empty, h0)
        nrows, ncols = h0.shape
        if f_r.max() >= nrows or f_c.max() >= ncols:
            raise IndexError(f"feature update out of range for shape {h0.shape}")
        keep = _dedup_last(f_r, f_c, ncols)
        f_r, f_c, f_v = f_r[keep], f_c[keep], f_v[keep].astype(DTYPE)

        if sp.issparse(h0):
            h0 = h0.tocsr()
            pos = _csr_find(h0, f_r, f_c)
            old = np.where(pos >= 0, h0.data[np.maximum(pos, 0)], DTYPE(0))
            changed = old != f_v
            f_r, f_c, f_v, pos, old = (
                f_r[changed], f_c[changed], f_v[changed], pos[changed], old[changed]
            )
            if f_r.size == 0:
                return (*empty, self._data.h0)
            data = h0.data.copy()
            present = pos >= 0
            # in-structure assignments (including assigning 0: the entry
            # becomes an explicit zero only transiently — removed below)
            data[pos[present]] = f_v[present]
            new_r, new_c, new_v = f_r[~present], f_c[~present], f_v[~present]
            dead = np.zeros(h0.nnz, dtype=bool)
            zeroed = present & (f_v == 0)
            dead[pos[zeroed]] = True
            if new_v.size or dead.any():
                live = np.flatnonzero(new_v != 0)
                h0_new = _rebuild_csr(
                    h0, data, ~dead, new_r[live], new_c[live], new_v[live]
                )
            else:
                h0_new = sp.csr_matrix((data, h0.indices, h0.indptr), shape=h0.shape)
            return f_r, f_c, old.astype(DTYPE), f_v, h0_new

        old = np.asarray(h0)[f_r, f_c].astype(DTYPE)
        changed = old != f_v
        f_r, f_c, f_v, old = f_r[changed], f_c[changed], f_v[changed], old[changed]
        if f_r.size == 0:
            return (*empty, h0)
        h0_new = np.array(h0, dtype=DTYPE, copy=True)
        h0_new[f_r, f_c] = f_v
        return f_r, f_c, old, f_v, h0_new
