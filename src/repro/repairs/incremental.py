"""Incremental repairs under updates (Section 4.1, after [87]).

"The investigation of repairs and CQA under updates has received little
attention; [87] just started to scratch the surface."  This module keeps
a conflict hypergraph up to date across tuple insertions and deletions:

* deleting tuples only removes hyperedges (denial constraints are
  monotone under deletion);
* inserting tuples can only create violations *involving* a new tuple,
  so only bindings anchored at a new fact are evaluated.

Repairs of the updated instance are then read from the maintained graph
without recomputing old conflicts — benchmark B8 measures the gap.  The
same :class:`ConflictIndex` keeps a served tenant's conflict shape
current across its deltas (:mod:`repro.dispatch.resident`).
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..constraints.base import IntegrityConstraint, denial_class_only
from ..constraints.conflicts import ConflictHypergraph, shape_stats_of
from ..constraints.denial import DenialConstraint
from ..constraints.fd import FunctionalDependency
from ..errors import RepairError
from ..logic.evaluation import Evaluator, _match_fact
from ..logic.formulas import conj
from ..relational.database import Database, Fact
from ..relational.nulls import is_null
from .base import Repair, sort_repairs
from .crepairs import minimum_hitting_sets_branch_and_bound


class ConflictIndex:
    """A conflict hypergraph kept current under deltas, in O(delta).

    Holds the edge set, the edges touching each tid, and for every FD
    its facts grouped by left-hand side.  :meth:`fold` removes the
    edges of deleted tids and adds only violations anchored at inserted
    ones: an FD compares the new fact with its lhs group, a denial
    constraint evaluates its other atoms with the new fact bound to
    each atom it matches.  The edges stay equal to a fresh
    :meth:`ConflictHypergraph.build` (property-tested).  Supports DCs
    and FDs (keys included); other constraints raise
    :class:`RepairError`.
    """

    def __init__(
        self, db: Database, constraints: Sequence[IntegrityConstraint]
    ) -> None:
        if not denial_class_only(constraints):
            raise RepairError(
                "incremental repair maintenance needs denial-class "
                "constraints (monotone under deletion)"
            )
        self._fds: List[Tuple[str, Tuple[int, ...], Tuple[int, ...],
                              Dict[tuple, Dict[str, tuple]]]] = []
        self._dcs: List[DenialConstraint] = []
        for ic in constraints:
            if isinstance(ic, FunctionalDependency):
                rel = db.schema.relation(ic.relation)
                self._fds.append((
                    ic.relation,
                    rel.positions(ic.lhs),
                    rel.positions(ic.rhs),
                    {},
                ))
            elif isinstance(ic, DenialConstraint):
                self._dcs.append(ic)
            else:
                raise RepairError(
                    "incremental maintenance supports DCs and FDs; got "
                    f"{type(ic).__name__}"
                )
        self.edges: Set[FrozenSet[str]] = set()
        self._touching: Dict[str, Set[FrozenSet[str]]] = {}
        for edge in ConflictHypergraph.build(db, constraints).edges:
            self._add_edge(edge)
        for relation, lhs_pos, _rhs, groups in self._fds:
            for values, tid in db.relation_index(relation).items():
                key = tuple(values[p] for p in lhs_pos)
                if not any(is_null(v) for v in key):
                    groups.setdefault(key, {})[tid] = values

    def _add_edge(self, edge: FrozenSet[str]) -> None:
        if edge not in self.edges:
            self.edges.add(edge)
            for tid in edge:
                self._touching.setdefault(tid, set()).add(edge)

    def fold(
        self,
        db: Database,
        deleted: Iterable[Tuple[str, Fact]],
        inserted: Iterable[Tuple[str, Fact]],
    ) -> None:
        """Move the graph to *db*, which is the indexed instance minus
        the *deleted* ``(tid, fact)`` pairs plus the *inserted* ones."""
        for tid, f in deleted:
            for edge in self._touching.pop(tid, ()):
                self.edges.discard(edge)
                for other in edge:
                    if other != tid:
                        self._touching[other].discard(edge)
            for relation, lhs_pos, _rhs, groups in self._fds:
                if relation == f.relation:
                    key = tuple(f.values[p] for p in lhs_pos)
                    group = groups.get(key)
                    if group is not None:
                        group.pop(tid, None)
                        if not group:
                            del groups[key]
        evaluator = Evaluator(db)
        for tid, f in inserted:
            for relation, lhs_pos, rhs_pos, groups in self._fds:
                if relation != f.relation:
                    continue
                key = tuple(f.values[p] for p in lhs_pos)
                if any(is_null(v) for v in key):
                    continue
                group = groups.setdefault(key, {})
                for other, values in group.items():
                    if FunctionalDependency._conflicting(
                        f, Fact(relation, values), rhs_pos
                    ):
                        self._add_edge(frozenset((tid, other)))
                group[tid] = f.values
            for dc in self._dcs:
                for edge in _anchored_violations(db, evaluator, dc, f):
                    self._add_edge(edge)

    def graph(self, db: Database) -> ConflictHypergraph:
        """The maintained hypergraph, over the tids of *db*."""
        return ConflictHypergraph(frozenset(db.tids()), frozenset(self.edges))

    def shape_stats(self, db: Database) -> dict:
        """``self.graph(db).shape_stats()`` without building the graph."""
        return shape_stats_of(len(db), self.edges)


def _anchored_violations(
    db: Database, evaluator: Evaluator, dc: DenialConstraint, f: Fact
) -> Iterable[FrozenSet[str]]:
    """The tid sets of *dc*'s violations in *db* that use fact *f*."""
    for anchor_index, anchor_atom in enumerate(dc.atoms):
        if f.relation != anchor_atom.predicate:
            continue
        binding = _match_fact(anchor_atom, f.values, {})
        if binding is None:
            continue
        rest = dc.atoms[:anchor_index] + dc.atoms[anchor_index + 1:]
        body = conj(tuple(rest) + tuple(dc.conditions))
        for extended in evaluator.bindings(body, dict(binding)):
            edge = {db.tid_of(f)}
            for a in rest:
                values = tuple(
                    extended[t] if t in extended else t for t in a.terms
                )
                edge.add(db.tid_of(Fact(a.predicate, values)))
            yield frozenset(edge)


class IncrementalRepairer:
    """Maintains instance + conflict hypergraph across updates."""

    def __init__(
        self,
        db: Database,
        constraints: Sequence[IntegrityConstraint],
    ) -> None:
        self._db = db
        self._index = ConflictIndex(db, constraints)

    # ------------------------------------------------------------------

    @property
    def database(self) -> Database:
        """The current instance."""
        return self._db

    @property
    def graph(self) -> ConflictHypergraph:
        """The current conflict hypergraph."""
        return self._index.graph(self._db)

    def delete(self, facts: Iterable[Fact]) -> None:
        """Apply deletions; conflicts touching them disappear."""
        facts = [f for f in facts if f in self._db]
        deleted = [(self._db.tid_of(f), f) for f in facts]
        self._db = self._db.delete(facts)
        self._index.fold(self._db, deleted, ())

    def insert(self, facts: Iterable[Fact]) -> None:
        """Apply insertions; only conflicts anchored at them are found."""
        first = self._db.next_tid
        self._db = self._db.insert(facts)
        self._index.fold(self._db, (), self._db.facts_since(first))

    # ------------------------------------------------------------------

    def s_repairs(self, limit: Optional[int] = None) -> List[Repair]:
        """S-repairs of the current instance from the maintained graph."""
        repairs = [
            Repair(self._db, self._db.delete_tids(h))
            for h in self.graph.minimal_hitting_sets(limit=limit)
        ]
        return sort_repairs(repairs)

    def c_repairs(self) -> List[Repair]:
        """C-repairs of the current instance from the maintained graph."""
        repairs = [
            Repair(self._db, self._db.delete_tids(h))
            for h in minimum_hitting_sets_branch_and_bound(self.graph)
        ]
        return sort_repairs(repairs)

    def is_consistent(self) -> bool:
        """True when the maintained graph has no edges."""
        return not self._index.edges
