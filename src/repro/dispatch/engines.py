"""The engines behind the resilient CQA dispatcher, as ladder rungs.

The paper's central dichotomy — CERTAIN(Q) is FO-rewritable for some
query/constraint classes (polynomial; the ConQuer/Fuxman–Miller path)
and coNP-complete in general (the repair-enumeration/ASP path) — means
no single engine is both fast and universal.  Each engine here wraps
one evaluation strategy behind a uniform interface:

* :meth:`Engine.check` — a cheap *applicability* test raising the typed
  :class:`~repro.errors.NotRewritableError` (rewriting engines) or
  :class:`EngineInapplicableError` (everything else) when the request
  falls outside the engine's sound-and-complete class;
* :meth:`Engine.run` — the actual evaluation, returning an
  :class:`EngineAnswer` whose ``complete`` flag states whether the
  answer set equals ``Cons(Q, D, Σ)`` exactly.

The default ladder, fastest-and-narrowest first::

    fm-sql  >  fo-mem  >  asp  >  enumerate  >  certain-core

Every *exact* rung either returns a complete answer or fails; only the
final ``certain-core`` rung returns a sound under-approximation
(bracketed from above when a repair sample is affordable), which is why
a dispatcher that exhausts the ladder degrades to INCOMPLETE instead of
ever returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from ..constraints.base import IntegrityConstraint, denial_class_only
from ..cqa.approximation import (
    overapproximate_answers,
    underapproximate_answers,
)
from ..cqa.certain import consistent_answers_partial
from ..cqa.fuxman_miller import fuxman_miller_rewrite
from ..cqa.rewriting import constraint_clauses, fo_rewrite
from ..cqa.sqlgen import answers_via_sql
from ..errors import (
    BudgetExceededError,
    NotRewritableError,
    RepairError,
    ReproError,
)
from ..logic.queries import ConjunctiveQuery, UnionQuery
from ..relational.database import Database, Row
from ..runtime import suspend_budget

__all__ = [
    "CQARequest",
    "EngineAnswer",
    "Engine",
    "EngineInapplicableError",
    "DEFAULT_LADDER",
    "ENGINES",
    "get_engine",
    "applicable_engines",
]

SEMANTICS = ("s", "c", "delete-only")


class EngineInapplicableError(ReproError):
    """A non-rewriting engine cannot serve this (query, constraints).

    The counterpart of :class:`~repro.errors.NotRewritableError` for the
    ASP / approximation rungs; the dispatcher treats both as a clean
    fall-through to the next rung, never as an engine failure.
    """


@dataclass(frozen=True)
class CQARequest:
    """One CQA request: instance, constraints, query, repair semantics.

    ``tenant`` is the registered
    :class:`~repro.dispatch.resident.TenantVersion` whose instance
    ``db`` is, when there is one: engines ignore it, the dispatcher
    reads its maintained conflict graph, and the pool ships its deltas
    to workers.  It never crosses a process boundary.
    """

    db: Database
    constraints: Tuple[IntegrityConstraint, ...]
    query: object
    semantics: str = "s"
    tenant: object = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "constraints", tuple(self.constraints)
        )
        if self.semantics not in SEMANTICS:
            raise ValueError(
                f"unknown repair semantics {self.semantics!r}; "
                f"choose from {SEMANTICS}"
            )


@dataclass(frozen=True)
class EngineAnswer:
    """An engine's verdict: the answer set plus a completeness claim.

    ``complete=True`` means the set equals ``Cons(Q, D, Σ)`` exactly;
    ``complete=False`` means it is a sound under-approximation, with
    ``detail`` possibly carrying an ``upper_bound`` over-approximation.
    """

    answers: FrozenSet[Row]
    complete: bool
    detail: Dict[str, object] = field(default_factory=dict)


class Engine:
    """One evaluation strategy; subclasses fill in check/run."""

    #: ladder name, stable across releases (used by breakers/counters)
    name: str = ""
    #: can this engine wedge non-cooperatively (C extension, grounding
    #: blow-up), so that process-level isolation is worth its cost?
    isolatable: bool = False
    #: does a successful run yield the exact consistent answers?
    exact: bool = True

    def check(self, request: CQARequest) -> None:
        """Raise a typed applicability error if the request is outside
        this engine's sound-and-complete class; return None otherwise."""
        raise NotImplementedError

    def run(self, request: CQARequest) -> EngineAnswer:
        """Evaluate the request (caller guarantees check() passed)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<engine {self.name}>"


def _require_cq(request: CQARequest, engine: str) -> ConjunctiveQuery:
    if not isinstance(request.query, ConjunctiveQuery):
        raise EngineInapplicableError(
            f"engine {engine} handles conjunctive queries only; got "
            f"{type(request.query).__name__}"
        )
    return request.query


class FuxmanMillerSqlEngine(Engine):
    """Rung 1: the Fuxman–Miller rewriting compiled to SQL on SQLite.

    Applicable to C_forest conjunctive queries under primary-key
    constraints.  For key constraints every S-repair keeps exactly one
    tuple per key group, so all S-repairs share one cardinality and the
    "s", "c", and "delete-only" semantics coincide — the rewriting is
    complete for all three.  SQLite materialization can fail transiently
    or wedge inside the C extension, hence ``isolatable``.
    """

    name = "fm-sql"
    isolatable = True

    def check(self, request: CQARequest) -> None:
        query = _require_cq(request, self.name)
        # Raises NotRewritableError on non-key constraints or a query
        # outside C_forest; the rewriting itself is polynomial and small.
        fuxman_miller_rewrite(query, request.constraints, request.db)

    def run(self, request: CQARequest) -> EngineAnswer:
        rewritten = fuxman_miller_rewrite(
            request.query, request.constraints, request.db
        )
        return EngineAnswer(
            frozenset(answers_via_sql(request.db, rewritten)), True
        )


class FORewriteMemEngine(Engine):
    """Rung 2: generic FO rewriting evaluated by the in-memory engine.

    Two sub-classes of requests are served, both without touching the
    SQLite backend:

    * the Fuxman–Miller class again — the rewritten query is plain FO,
      so when rung 1 died of backend failure (not applicability) this
      rung recovers the same exact answers in memory;
    * the residue-rewriting class of the original PODS'99 method —
      quantifier-free queries under constraints with a universal clausal
      form, evaluated under S-repair semantics (equivalently
      "delete-only" when the constraints are denial-class).
    """

    name = "fo-mem"

    def _plan(self, request: CQARequest) -> str:
        query = _require_cq(request, self.name)
        try:
            fuxman_miller_rewrite(query, request.constraints, request.db)
            return "fuxman-miller"
        except NotRewritableError:
            pass
        if request.semantics == "c" or (
            request.semantics == "delete-only"
            and not denial_class_only(request.constraints)
        ):
            raise NotRewritableError(
                "residue rewriting is complete for S-repair semantics "
                f"only; cannot serve {request.semantics!r} here"
            )
        if query.existential_variables():
            raise NotRewritableError(
                "residue rewriting is complete for quantifier-free "
                "queries only; the query has existential variables"
            )
        for ic in request.constraints:
            constraint_clauses(ic, request.db)  # may raise NotRewritable
        return "residue"

    def check(self, request: CQARequest) -> None:
        self._plan(request)

    def run(self, request: CQARequest) -> EngineAnswer:
        if self._plan(request) == "fuxman-miller":
            rewritten = fuxman_miller_rewrite(
                request.query, request.constraints, request.db
            )
        else:
            rewritten = fo_rewrite(
                request.query, request.constraints, request.db
            )
        return EngineAnswer(
            frozenset(rewritten.answers(request.db)), True
        )


class AspEngine(Engine):
    """Rung 3: the repair program (Section 3.3), cautious reasoning.

    Applicable to conjunctive queries under denial-class constraints;
    "c" semantics adds the weak constraints of Example 4.2 and answers
    cautiously over the *optimal* stable models.  Grounding is
    worst-case exponential in constraint arity, hence ``isolatable``.
    """

    name = "asp"
    isolatable = True

    def check(self, request: CQARequest) -> None:
        _require_cq(request, self.name)
        if not denial_class_only(request.constraints):
            raise EngineInapplicableError(
                "repair programs need denial-class constraints "
                "(denial constraints, FDs, keys, CFDs)"
            )

    def run(self, request: CQARequest) -> EngineAnswer:
        from ..asp.repair_programs import RepairProgram

        semantics = (
            "s" if request.semantics == "delete-only"
            else request.semantics
        )
        program = RepairProgram(
            request.db,
            request.constraints,
            include_weak_constraints=(semantics == "c"),
        )
        answers = program.consistent_answers(
            request.query, semantics=semantics, optimize=True
        )
        return EngineAnswer(frozenset(answers), True)


class EnumerateEngine(Engine):
    """Rung 4: budgeted repair enumeration (the semantics baseline).

    Always applicable — this is the definition of ``Cons(Q, D, Σ)``.
    Runs under the ambient (per-rung) budget; if the enumeration cannot
    finish inside it, the rung *fails* with the budget error instead of
    silently returning the internal fallback, leaving the sound-bracket
    duty to the final rung.
    """

    name = "enumerate"

    def check(self, request: CQARequest) -> None:
        if not hasattr(request.query, "answers"):
            raise EngineInapplicableError(
                "enumeration needs a query with .answers(db)"
            )

    def run(self, request: CQARequest) -> EngineAnswer:
        partial = consistent_answers_partial(
            request.db,
            request.constraints,
            request.query,
            semantics=request.semantics,
        )
        if not partial.complete:
            raise BudgetExceededError(
                partial.exhausted,
                "repair enumeration did not finish inside the rung "
                f"budget ({partial.exhausted})",
            )
        return EngineAnswer(frozenset(partial.value), True)


class CertainCoreEngine(Engine):
    """Rung 5: the anytime certain-core bracket (Section 3.2).

    A sound under-approximation for monotone queries: the core (tuples
    in no conflict) is contained in every repair, so its answers are
    certain under all three semantics.  When a small repair sample is
    affordable the answer also carries an ``upper_bound``
    over-approximation, bracketing the exact set.  Never complete.
    """

    name = "certain-core"
    exact = False

    #: repairs sampled for the over-approximation bracket (0 disables)
    sample_size = 4
    #: step cap for the bracket sample, so the salvage rung stays cheap
    sample_max_steps = 50_000

    def check(self, request: CQARequest) -> None:
        if not denial_class_only(request.constraints):
            raise EngineInapplicableError(
                "the certain core is defined for denial-class "
                "constraints only"
            )
        if not isinstance(
            request.query, (ConjunctiveQuery, UnionQuery)
        ):
            raise EngineInapplicableError(
                "the certain core is sound for monotone (CQ/UCQ) "
                "queries only"
            )

    def run(self, request: CQARequest) -> EngineAnswer:
        # The salvage rung typically runs after the request budget is
        # spent; mask it so the (polynomial) core computation and the
        # bounded sample cannot be re-cancelled on every checkpoint.
        with suspend_budget():
            lower = underapproximate_answers(
                request.db, request.constraints, request.query
            )
            detail: Dict[str, object] = {"fallback": "certain-core"}
            if self.sample_size:
                try:
                    detail["upper_bound"] = overapproximate_answers(
                        request.db,
                        request.constraints,
                        request.query,
                        sample_size=self.sample_size,
                        max_steps=self.sample_max_steps,
                    )
                except (BudgetExceededError, RepairError):
                    pass  # the bracket is best-effort
            return EngineAnswer(lower, False, detail)


DEFAULT_LADDER: Tuple[str, ...] = (
    "fm-sql",
    "fo-mem",
    "asp",
    "enumerate",
    "certain-core",
)

ENGINES: Dict[str, Engine] = {
    engine.name: engine
    for engine in (
        FuxmanMillerSqlEngine(),
        FORewriteMemEngine(),
        AspEngine(),
        EnumerateEngine(),
        CertainCoreEngine(),
    )
}


def get_engine(name: str) -> Engine:
    """Look an engine up by ladder name."""
    try:
        return ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; known: {', '.join(ENGINES)}"
        ) from None


def applicable_engines(
    request: CQARequest, ladder: Optional[Tuple[str, ...]] = None
) -> Tuple[str, ...]:
    """The subset of the ladder whose applicability check passes."""
    names = DEFAULT_LADDER if ladder is None else ladder
    out = []
    for name in names:
        try:
            get_engine(name).check(request)
        except (NotRewritableError, EngineInapplicableError):
            continue
        out.append(name)
    return tuple(out)
