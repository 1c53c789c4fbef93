"""Join graphs, compiled once per ``(tables, joins)``.

Everything the plan enumerator and the exact counter derive from a query's
join graph depends on its tables and joins alone, never on its predicates:
which subsets of tables are connected, how each splits into two connected,
joined halves, and how its count is computed.  A serving stream asks the
same few shapes over and over (a ``native_prepared_mix`` round of 2,400
requests holds 13 distinct join graphs), so each shape is compiled once,
into a :class:`JoinGraph`, and kept in one :class:`BoundedLRU` of constant
capacity that every caller reads through :func:`join_graph`.

A graph works on table bitmasks (bit ``i`` is ``tables[i]``) and hands out
the frozensets the DP tables key by.  Each view is built the first time it
is read: a shape only counted never enumerates its subsets, and a shape
only planned never builds a counting recipe.

This is the one subset and partition enumeration under ``src/`` (census
rule (k)); the oracle's ``contracts._connected_subqueries`` keeps its own,
independent walk.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING

from repro.core.lru import BoundedLRU

if TYPE_CHECKING:
    from repro.sql.query import Join, Query

__all__ = ["JoinGraph", "join_graph"]

#: graphs kept: a round of any perf workload compiles under twenty shapes,
#: sub-queries included; the rest is headroom for ad-hoc streams
_CAPACITY = 4096


class JoinGraph:
    """The structure of one ``(tables, joins)``.

    ``subsets`` are the connected subsets, sizes ascending and in
    ``itertools.combinations`` order over ``tables`` within a size.
    ``partitions[s]`` are the splits of a connected subset ``s`` into two
    connected halves ``(left, right, conditions)`` with at least one join
    between them, in the order the DP's old double loop met them: the
    left half always holds ``s``'s first table by name, and grows by
    ``combinations`` over the rest.  ``conditions`` are the joins that
    cross the split, in ``joins`` order -- what
    ``planner._join_conditions_between`` returns for any query with these
    joins.  ``recipe`` is the exact counter's recipe for the whole graph.
    """

    def __init__(self, tables: tuple[str, ...], joins: tuple[Join, ...]) -> None:
        self.tables = tables
        self.joins = joins
        bit = {t: 1 << i for i, t in enumerate(tables)}
        self._ends = tuple((bit[j.left.table], bit[j.right.table]) for j in joins)
        neighbors = [0] * len(tables)
        for a, b in self._ends:
            neighbors[a.bit_length() - 1] |= b
            neighbors[b.bit_length() - 1] |= a
        self._neighbors = neighbors
        self.connected = self._is_connected((1 << len(tables)) - 1)
        self._restrictions: dict[frozenset[str], tuple] = {}

    def __reduce__(self):
        """A pickled or copied graph is its shape: the copy is the compiled
        graph of that shape in the receiving process, shared as usual."""
        return _compiled, (self.tables, self.joins)

    def _is_connected(self, mask: int) -> bool:
        """True when the tables of ``mask`` induce a connected graph."""
        seen = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown = self._neighbors[low.bit_length() - 1] & mask & ~seen
            seen |= grown
            frontier |= grown
        return seen == mask

    def _tables_of(self, mask: int) -> frozenset[str]:
        return frozenset(t for i, t in enumerate(self.tables) if mask >> i & 1)

    @cached_property
    def _connected_masks(self) -> dict[int, frozenset[str]]:
        """Connected subset bitmask -> its tables, in ``subsets`` order."""
        n = len(self.tables)
        out = {}
        for size in range(1, n + 1):
            for combo in combinations(range(n), size):
                mask = sum(1 << i for i in combo)
                if self._is_connected(mask):
                    out[mask] = self._tables_of(mask)
        return out

    @cached_property
    def subsets(self) -> list[frozenset[str]]:
        return list(self._connected_masks.values())

    @cached_property
    def partitions(
        self,
    ) -> dict[frozenset[str], tuple[tuple[frozenset[str], frozenset[str], tuple[Join, ...]], ...]]:
        connected = self._connected_masks
        by_name = sorted(range(len(self.tables)), key=self.tables.__getitem__)
        out = {}
        for mask, subset in connected.items():
            first, *rest = (i for i in by_name if mask >> i & 1)
            splits = []
            for r in range(1, len(subset)):
                for combo in combinations(rest, r - 1):
                    left = sum(1 << i for i in combo) | 1 << first
                    right = mask ^ left
                    if left not in connected or right not in connected:
                        continue
                    conditions = tuple(
                        j
                        for j, (a, b) in zip(self.joins, self._ends)
                        if (a & left and b & right) or (a & right and b & left)
                    )
                    if conditions:
                        splits.append((connected[left], connected[right], conditions))
            out[subset] = tuple(splits)
        return out

    def restriction(
        self, subset: frozenset[str]
    ) -> tuple[tuple[str, ...], tuple[Join, ...], JoinGraph]:
        """``(tables, joins, graph)`` of the restriction to ``subset``: the
        fields every restriction of a query of this shape to ``subset``
        shares, in canonical order, and their own compiled graph.  Kept per
        subset asked for, so at most ``2**len(tables) - 1`` of them."""
        shape = self._restrictions.get(subset)
        if shape is None:
            missing = subset.difference(self.tables)
            if missing:
                raise ValueError(f"subquery tables not in query: {sorted(missing)}")
            if not subset:
                raise ValueError("query must reference at least one table")
            tables = tuple(t for t in self.tables if t in subset)
            joins = tuple(
                j for j in self.joins if j.left.table in subset and j.right.table in subset
            )
            shape = self._restrictions[subset] = (tables, joins, _compiled(tables, joins))
        return shape

    @cached_property
    def recipe(
        self,
    ) -> tuple[tuple[tuple[str, str, str, str], ...], tuple[str, ...], tuple[Join, ...]] | None:
        """The exact counter's recipe ``(peel, core, core_joins)``; None for a
        disconnected graph.

        ``peel`` are message steps ``(table, neighbour, table's column,
        neighbour's column)``: each table, when its step runs, has exactly
        one join left, to ``neighbour``, and leaves the graph with it.  What
        remains is the ``core``, in ``tables`` order, with ``core_joins``, in
        ``joins`` order: the 2-core, where every table keeps at least two
        joins -- a cycle, or a parallel edge between two tables (one key per
        message cannot express a pair of them).  A tree has an empty 2-core,
        and its core is ``tables[0]`` with no joins: then ``peel`` is the
        post-order message schedule towards ``tables[0]``, children before
        parents, in the order a depth-first walk over ``joins`` meets them.
        Otherwise each core table roots the pendant trees hanging off it, in
        ``tables`` order."""
        if not self.connected:
            return None
        n = len(self.tables)
        degree = [0] * n
        incident: list[list[int]] = [[] for _ in range(n)]
        for a, b in self._ends:
            i, j = a.bit_length() - 1, b.bit_length() - 1
            degree[i] += 1
            degree[j] += 1
            incident[i].append(j)
            incident[j].append(i)
        stripped = [False] * n
        pending = [i for i in range(n) if degree[i] <= 1]
        while pending:
            i = pending.pop()
            if stripped[i]:
                continue
            stripped[i] = True
            for j in incident[i]:
                if not stripped[j]:
                    degree[j] -= 1
                    if degree[j] <= 1:
                        pending.append(j)
        core = tuple(t for t, gone in zip(self.tables, stripped) if not gone)
        if not core:
            core = self.tables[:1]
        adj: dict[str, list[tuple[str, str, str]]] = {t: [] for t in self.tables}
        for j in self.joins:
            adj[j.left.table].append((j.right.table, j.left.column, j.right.column))
            adj[j.right.table].append((j.left.table, j.right.column, j.left.column))
        inside = set(core)
        core_joins = tuple(
            j for j in self.joins if j.left.table in inside and j.right.table in inside
        )
        visited = set(inside)
        peel: list[tuple[str, str, str, str]] = []
        for root in core:
            order = []
            stack = [(root, "", "", "")]
            while stack:
                entry = stack.pop()
                order.append(entry)
                for neighbor, my_col, their_col in adj[entry[0]]:
                    if neighbor not in visited:
                        visited.add(neighbor)
                        stack.append((neighbor, entry[0], their_col, my_col))
            peel.extend(reversed(order[1:]))
        return tuple(peel), core, core_joins


#: one cache for the process: a graph is a function of its key alone, so
#: every caller may share it
_GRAPHS = BoundedLRU(_CAPACITY)


def _compiled(tables: tuple[str, ...], joins: tuple[Join, ...]) -> JoinGraph:
    key = (tables, joins)
    graph = _GRAPHS.get(key)
    if graph is None:
        graph = JoinGraph(tables, joins)
        _GRAPHS.put(key, graph)
    return graph


def join_graph(query: Query) -> JoinGraph:
    """The compiled graph of ``query``'s ``(tables, joins)``, memoized on the
    query (a restriction is handed its graph when it is built)."""
    state = query.__dict__
    graph = state.get("_graph")
    if graph is None:
        graph = state["_graph"] = _compiled(query.tables, query.joins)
    return graph
