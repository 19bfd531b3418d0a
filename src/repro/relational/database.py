"""Immutable relational database instances with global tuple identifiers.

The paper attaches global tuple ids (tids) to facts (Example 3.5) so that
repairs, repair programs, and causality can refer to individual tuples.
:class:`Database` follows that model: every fact carries a tid, instances
are immutable, and updates (tuple deletion/insertion, attribute updates)
return new instances, preserving the tids of untouched facts so that a
repair can be compared tuple-by-tuple with the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import SchemaError
from .nulls import is_null
from .schema import Schema, positional_schema

Value = object
Row = Tuple[Value, ...]

_NO_ROWS: Dict[Row, str] = {}


@dataclass(frozen=True)
class Fact:
    """A ground fact: a relation name and a tuple of attribute values.

    Facts compare by value (relation + values); the tid lives in the
    :class:`Database`, not in the fact, because the same fact keeps its tid
    across repairs while a fact's identity is its content.
    """

    relation: str
    values: Row

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self.values)
        return f"{self.relation}({inner})"

    def with_value(self, position: int, value: Value) -> "Fact":
        """A copy of this fact with the value at *position* replaced."""
        new_values = list(self.values)
        new_values[position] = value
        return Fact(self.relation, tuple(new_values))


def fact(relation: str, *values: Value) -> Fact:
    """Convenience constructor: ``fact('R', 1, 2) == Fact('R', (1, 2))``."""
    return Fact(relation, tuple(values))


class Database:
    """An immutable set of facts with tids, under an explicit schema.

    The instance is a *set* of facts: inserting a fact that is already
    present is a no-op (the paper's repairs operate on set instances).
    Deletion and insertion return new instances; shared facts keep their
    tids so symmetric differences and repair distances are well defined.
    """

    __slots__ = ("_schema", "_facts", "_tid_of", "_by_relation", "_next_tid")

    def __init__(
        self,
        schema: Schema,
        facts_by_tid: Mapping[str, Fact],
        next_tid: int,
    ) -> None:
        self._schema = schema
        self._facts: Dict[str, Fact] = dict(facts_by_tid)
        self._tid_of: Dict[Fact, str] = {}
        self._by_relation: Dict[str, Dict[Row, str]] = {}
        arities = {
            name: schema.relation(name).arity for name in schema.names()
        }
        for tid, f in self._facts.items():
            if arities.get(f.relation) != len(f.values):
                _check_fact(schema, f)  # raises the precise SchemaError
            if f in self._tid_of:
                raise SchemaError(f"duplicate fact {f} (tids {tid} and "
                                  f"{self._tid_of[f]})")
            self._tid_of[f] = tid
            self._by_relation.setdefault(f.relation, {})[f.values] = tid
        self._next_tid = next_tid

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_dict(
        relations: Mapping[str, Iterable[Sequence[Value]]],
        schema: Optional[Schema] = None,
        tid_prefix: str = "t",
    ) -> "Database":
        """Build an instance from ``{relation: [row, ...]}``.

        When *schema* is omitted, a positional schema is inferred from the
        first row of each relation.  Tids are assigned in insertion order as
        ``t1, t2, ...`` so paper examples can cite them deterministically.
        """
        rows = {
            name: [tuple(r) for r in rel_rows]
            for name, rel_rows in relations.items()
        }
        if schema is None:
            rel_schemas = []
            for name, rel_rows in rows.items():
                if not rel_rows:
                    raise SchemaError(
                        f"cannot infer arity of empty relation {name!r}; "
                        "pass a schema"
                    )
                rel_schemas.append(positional_schema(name, len(rel_rows[0])))
            schema = Schema.of(*rel_schemas)
        facts_by_tid: Dict[str, Fact] = {}
        counter = 1
        for name, rel_rows in rows.items():
            seen = set()
            for row in rel_rows:
                f = Fact(name, row)
                if f in seen:
                    continue
                seen.add(f)
                facts_by_tid[f"{tid_prefix}{counter}"] = f
                counter += 1
        return Database(schema, facts_by_tid, next_tid=counter)

    @staticmethod
    def empty(schema: Schema) -> "Database":
        """An empty instance over *schema*."""
        return Database(schema, {}, next_tid=1)

    @staticmethod
    def from_facts(
        facts: Iterable[Fact],
        schema: Optional[Schema] = None,
    ) -> "Database":
        """Build an instance from facts, inferring a schema if omitted."""
        facts = list(facts)
        if schema is None:
            rel_schemas = {}
            for f in facts:
                if f.relation not in rel_schemas:
                    rel_schemas[f.relation] = positional_schema(
                        f.relation, len(f.values)
                    )
            schema = Schema.of(*rel_schemas.values())
        facts_by_tid: Dict[str, Fact] = {}
        counter = 1
        seen = set()
        for f in facts:
            if f in seen:
                continue
            seen.add(f)
            facts_by_tid[f"t{counter}"] = f
            counter += 1
        return Database(schema, facts_by_tid, next_tid=counter)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The database schema."""
        return self._schema

    def facts(self) -> FrozenSet[Fact]:
        """All facts, as a frozen set (value identity)."""
        return frozenset(self._facts.values())

    def facts_with_tids(self) -> Dict[str, Fact]:
        """Mapping tid -> fact (a copy)."""
        return dict(self._facts)

    def tids(self) -> FrozenSet[str]:
        """All tids."""
        return frozenset(self._facts)

    def fact_by_tid(self, tid: str) -> Fact:
        """The fact carrying *tid* (KeyError if absent)."""
        return self._facts[tid]

    @property
    def next_tid(self) -> int:
        """The counter value the next inserted fact's tid ``t<n>`` takes."""
        return self._next_tid

    def facts_since(self, first: int) -> List[Tuple[str, Fact]]:
        """``(tid, fact)`` of the present facts inserted with counter
        values from *first* on (compare :attr:`next_tid` before and
        after an update to read off what it inserted)."""
        out = []
        for counter in range(first, self._next_tid):
            tid = f"t{counter}"
            if tid in self._facts:
                out.append((tid, self._facts[tid]))
        return out

    def tid_of(self, f: Fact) -> str:
        """The tid of fact *f* (KeyError if absent)."""
        return self._tid_of[f]

    def __contains__(self, f: Fact) -> bool:
        return f in self._tid_of

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts.values())

    def relation(self, name: str) -> Tuple[Row, ...]:
        """All rows of relation *name*, in deterministic (sorted) order."""
        return tuple(sorted(self.relation_index(name), key=_sort_key))

    def relation_index(self, name: str) -> Mapping[Row, str]:
        """Relation *name* as an unsorted ``row -> tid`` mapping.

        A read-only view of the instance's own index: no copy and no
        sort, for bulk consumers (SQLite materialization, conflict
        maintenance) to whom row order does not matter.
        """
        self._schema.relation(name)  # validate the name
        return MappingProxyType(self._by_relation.get(name, _NO_ROWS))

    def relation_facts(self, name: str) -> Tuple[Fact, ...]:
        """All facts of relation *name*, in deterministic order."""
        return tuple(Fact(name, row) for row in self.relation(name))

    def active_domain(self) -> FrozenSet[Value]:
        """All non-null constants appearing in the instance."""
        domain = set()
        for f in self._facts.values():
            for v in f.values:
                if not is_null(v):
                    domain.add(v)
        return frozenset(domain)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.facts() == other.facts()

    def __hash__(self) -> int:
        return hash(self.facts())

    def __repr__(self) -> str:
        parts = []
        for name in self._schema.names():
            rows = self.relation(name)
            if rows:
                parts.append(f"{name}:{len(rows)}")
        return f"Database({', '.join(parts) or 'empty'})"

    # ------------------------------------------------------------------
    # Updates (all return new instances)
    # ------------------------------------------------------------------

    def delete(self, facts: Iterable[Fact]) -> "Database":
        """A new instance without *facts* (absent facts are ignored)."""
        return self.apply_delta(delete=facts)

    def delete_tids(self, tids: Iterable[str]) -> "Database":
        """A new instance without the facts carrying *tids*."""
        facts = self._facts
        return self.apply_delta(
            delete=[facts[tid] for tid in set(tids) if tid in facts]
        )

    def insert(self, facts: Iterable[Fact]) -> "Database":
        """A new instance with *facts* added (fresh tids; dups ignored)."""
        return self.apply_delta(insert=facts)

    def apply_delta(
        self,
        delete: Iterable[Fact] = (),
        insert: Iterable[Fact] = (),
    ) -> "Database":
        """``self.delete(delete).insert(insert)`` in O(|delta|).

        The three indexes are copied (C-speed dict copies, no per-fact
        Python work) and only the changed facts are validated and
        patched, so untouched facts keep their tids and inserted facts
        get exactly the tids the two-step form would assign: deletes
        apply first, then each new fact takes the next counter value.
        """
        out = Database.__new__(Database)
        out._schema = self._schema
        out._facts = facts = dict(self._facts)
        out._tid_of = tid_of = dict(self._tid_of)
        out._by_relation = by_relation = dict(self._by_relation)
        copied = set()

        def rows_of(relation: str) -> Dict[Row, str]:
            if relation not in copied:
                copied.add(relation)
                by_relation[relation] = dict(by_relation.get(relation, ()))
            return by_relation[relation]

        for f in delete:
            tid = tid_of.pop(f, None)
            if tid is None:
                continue
            del facts[tid]
            rows = rows_of(f.relation)
            del rows[f.values]
            if not rows:
                del by_relation[f.relation]
                copied.discard(f.relation)
        counter = self._next_tid
        for f in insert:
            if f in tid_of:
                continue
            _check_fact(self._schema, f)
            tid = f"t{counter}"
            counter += 1
            facts[tid] = f
            tid_of[f] = tid
            rows_of(f.relation)[f.values] = tid
        out._next_tid = counter
        return out

    def update_value(self, tid: str, position: int, value: Value) -> "Database":
        """A new instance where the fact at *tid* has one value replaced.

        The tid is preserved, which is what attribute-based repairs
        (Section 4.3) need to report change sets like ``{ι6[1]}``.
        """
        old = self._facts[tid]
        new_fact = old.with_value(position, value)
        updated = dict(self._facts)
        existing_tid = self._tid_of.get(new_fact)
        if existing_tid is not None and existing_tid != tid:
            # The update collides with an existing fact; under set semantics
            # the instance simply loses one tuple.
            del updated[tid]
        else:
            updated[tid] = new_fact
        return Database(self._schema, updated, self._next_tid)

    def restricted_to(self, tids: Iterable[str]) -> "Database":
        """The subinstance containing exactly the facts with *tids*."""
        keep = set(tids)
        remaining = {
            tid: f for tid, f in self._facts.items() if tid in keep
        }
        return Database(self._schema, remaining, self._next_tid)

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------

    def symmetric_difference(self, other: "Database") -> FrozenSet[Fact]:
        """``(self \\ other) ∪ (other \\ self)`` on fact sets."""
        return self.facts() ^ other.facts()

    def distance(self, other: "Database") -> int:
        """``|self Δ other|`` — the C-repair distance."""
        return len(self.symmetric_difference(other))

    def issubset(self, other: "Database") -> bool:
        """True when every fact of self appears in *other*."""
        return self.facts() <= other.facts()

    def render(self) -> str:
        """A small ASCII rendering of the instance, relation by relation."""
        lines = []
        for name in self._schema.names():
            rel_schema = self._schema.relation(name)
            rows = self.relation(name)
            lines.append(f"{name}({', '.join(rel_schema.attributes)})")
            for row in rows:
                tid = self._by_relation[name][row]
                lines.append(
                    "  " + tid + ": " + ", ".join(repr(v) for v in row)
                )
            if not rows:
                lines.append("  (empty)")
        return "\n".join(lines)


def _check_fact(schema: Schema, f: Fact) -> None:
    """Raise :class:`SchemaError` unless *f* fits *schema*."""
    if f.relation not in schema:
        raise SchemaError(f"fact {f} uses relation absent from the schema")
    if schema.relation(f.relation).arity != len(f.values):
        raise SchemaError(
            f"fact {f} has arity {len(f.values)}, schema says "
            f"{schema.relation(f.relation).arity}"
        )


def _sort_key(row: Row) -> Tuple:
    """Deterministic sort key tolerant of mixed value types."""
    return tuple((type(v).__name__, repr(v)) for v in row)
