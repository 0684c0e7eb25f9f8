"""LRU cache of compiled programs keyed by program fingerprints.

Dynasparse's host compiler (parse -> partition -> profile) is pure
preprocessing: for a fixed (model, dataset, scale, seed, prune,
accelerator config) it always produces the same
:class:`~repro.compiler.compile.CompiledProgram`.  The same handful of
programs recur constantly — across ``Engine.compile`` calls and under
serving traffic alike — so the :class:`~repro.engine.core.Engine` keeps
them in an LRU map and only pays ``Compiler.compile`` on a miss — the
amortization MindSpore GraphLearning applies to its CSR pipeline, applied
to the whole preprocessing stack.

The virtual-clock cost charged for a miss is the program's *measured*
compile time (``program.timings.total_s``), so cache-hit savings reported
by the serving layer are honest wall-clock numbers, not estimates.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from repro.compiler.compile import CompiledProgram


@dataclass(frozen=True)
class CacheStats:
    """Counters accumulated over the cache's lifetime.

    ``evictions`` counts entries dropped by LRU capacity pressure;
    ``invalidations`` counts entries removed deliberately through
    :meth:`ProgramCache.invalidate` (e.g. a graph mutation making cached
    programs stale).  Counters survive :meth:`ProgramCache.clear`; use
    :meth:`ProgramCache.reset_stats` to zero them explicitly.
    """

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    capacity: int
    #: compile seconds actually spent (sum over misses)
    compile_s: float
    #: compile seconds avoided (sum of cached programs' compile time over hits)
    saved_s: float

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ProgramCache:
    """Bounded LRU map: request fingerprint -> CompiledProgram."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, CompiledProgram] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.compile_s = 0.0
        self.saved_s = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def keys(self) -> list[tuple]:
        """The cached programs' keys, least recently used first.  A key
        names its program's model, graph and graph version, so this is
        the lineage record; a copy, so callers may re-key as they walk."""
        return list(self._entries)

    def peek(self, key: tuple) -> Optional[CompiledProgram]:
        """Look up without touching recency or hit/miss counters."""
        return self._entries.get(key)

    def get(self, key: tuple) -> Optional[CompiledProgram]:
        """Look up a program, refreshing its recency.  Counts a hit/miss."""
        program = self._entries.get(key)
        if program is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self.saved_s += program.timings.total_s
        return program

    def put(self, key: tuple, program: CompiledProgram) -> None:
        """Insert a freshly compiled program, evicting the LRU entry if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = program
            return
        self._entries[key] = program
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_compile(
        self, key: tuple, compile_fn: Callable[[], CompiledProgram]
    ) -> tuple[CompiledProgram, float, bool]:
        """Return ``(program, compile_seconds_charged, was_hit)``.

        On a hit the charge is 0.0; on a miss ``compile_fn`` runs, its
        measured preprocessing time is charged, and the program is cached.
        """
        program = self.get(key)
        if program is not None:
            return program, 0.0, True
        program = compile_fn()
        compile_s = program.timings.total_s
        self.compile_s += compile_s
        self.put(key, program)
        return program, compile_s, False

    def pop(self, key: tuple) -> Optional[CompiledProgram]:
        """Remove and return an entry without touching any counter.

        The re-keying primitive: a mutation that *patches* a cached
        program pops it from its stale key and re-inserts the patched
        program under the new one — neither an eviction (nothing is
        lost) nor an invalidation (nothing goes stale).
        """
        return self._entries.pop(key, None)

    def invalidate(
        self, predicate: Callable[[tuple, CompiledProgram], bool]
    ) -> int:
        """Drop every entry for which ``predicate(key, program)`` holds.

        Returns the number of entries removed; each counts as an
        invalidation in :class:`CacheStats`.
        """
        stale = [
            key for key, program in self._entries.items()
            if predicate(key, program)
        ]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        return len(stale)

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            invalidations=self.invalidations,
            size=len(self._entries),
            capacity=self.capacity,
            compile_s=self.compile_s,
            saved_s=self.saved_s,
        )

    def clear(self) -> None:
        """Drop all entries.  Counters survive — hit/miss history is an
        account of traffic served, not of current contents; call
        :meth:`reset_stats` to zero it explicitly."""
        self._entries.clear()

    def reset_stats(self) -> None:
        """Zero all counters (entries are kept)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.compile_s = 0.0
        self.saved_s = 0.0
