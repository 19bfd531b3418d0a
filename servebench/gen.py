"""Workload inputs as pure functions of the seed.

Everything a run sends — tenant specs, the operation sequence and the
answer each read must return — is built here before any server starts,
from ``random.Random(seed)`` alone.  Counts are fixed per workload, so
every run of a seed does the same operations in the same order and
every compaction lands on the same operation.

Answers are known without asking the service:

* Employee tenants (key ``Name``): a key with one salary returns it, a
  key with two or more returns nothing, and the name projection
  returns every key.  :func:`employee_answers` is that rule; the
  self-tests check it against ``repro.cqa.consistent_answers``.
* Small tenants: answers come from repair enumeration
  (``repro.cqa.consistent_answers``) over the canonical shapes, and are
  renamed with the seed's constant bijection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

EMPLOYEE_FD = "Employee: Name -> Salary"
POINT_QUERY = "Q(Y) :- Employee('{name}', Y)"
PROJECTION_QUERY = "Q(X) :- Employee(X, Y)"


@dataclass
class Op:
    """One client operation and what must come back."""

    kind: str  # "read" | "write" | "probe"
    #: Which node it goes to: "primary" or "follower".
    node: str
    path: str
    payload: Dict[str, object]
    #: Reads: the exact expected answer rows (sorted lists).
    expect: Optional[List[list]] = None
    #: Reads tagged for the per-read label ("point", "projection", ...).
    label: str = ""
    #: Writes: the tenant and delta, for the durability model.
    tenant: str = ""
    #: Reads: require ``min_lsn`` = LSN of the last acked write.
    min_lsn_from_last_write: bool = False


@dataclass
class Tenant:
    name: str
    spec: Dict[str, object]


@dataclass
class Workload:
    """A workload instance: what to register, warm up, and measure.

    One client connection sends the ops of each list in order.
    """

    name: str
    tenants: List[Tenant]
    warmup: List[Op]
    measured: List[Op]
    #: Employee state of every written tenant after *all* ops — the
    #: durability oracle read back after each restart.
    final_state: Dict[str, Dict[str, List[int]]] = field(
        default_factory=dict
    )


# ----------------------------------------------------------------------
# Employee tenants
# ----------------------------------------------------------------------


def _token(rng: random.Random, used: set) -> str:
    while True:
        name = f"e{rng.getrandbits(36):09x}"
        if name not in used:
            used.add(name)
            return name


def employee_state(
    rng: random.Random, keys: int, violated_share: float, used: set
) -> Dict[str, List[int]]:
    """``name -> salaries``: *keys* names, a share of them violated."""
    violated = int(round(keys * violated_share))
    state: Dict[str, List[int]] = {}
    for i in range(keys):
        name = _token(rng, used)
        state[name] = [rng.randrange(1000, 10000)]
    # Spread the violated keys evenly through the insertion order.
    names = list(state)
    step = keys / violated if violated else 0
    for j in range(violated):
        name = names[int(j * step)]
        second = rng.randrange(1000, 10000)
        while second == state[name][0]:
            second = rng.randrange(1000, 10000)
        state[name].append(second)
    return state


def employee_spec(state: Dict[str, List[int]]) -> Dict[str, object]:
    rows = [[name, s] for name, salaries in state.items() for s in salaries]
    return {
        "relations": {
            "Employee": {
                "columns": ["Name", "Salary"],
                "key": ["Name"],
                "rows": rows,
            }
        },
        "constraints": {"fd": [EMPLOYEE_FD]},
    }


def employee_answers(
    state: Dict[str, List[int]], query: str, name: str = ""
) -> List[list]:
    """Consistent answers on an Employee state, by construction."""
    if query == "point":
        salaries = state.get(name) or []
        return [[salaries[0]]] if len(set(salaries)) == 1 else []
    if query == "projection":
        return sorted([n] for n, s in state.items() if s)
    raise ValueError(query)


def employee_fact_count(state: Dict[str, List[int]]) -> int:
    return sum(len(set(s)) for s in state.values())


def _mutation(
    rng: random.Random, state: Dict[str, List[int]], names: List[str],
    used: set,
) -> Dict[str, object]:
    """One single-fact delta — 70% new key, 20% second salary, 10%
    delete — applied to *state* (the model) and returned as payload."""
    draw = rng.random()
    if draw < 0.7 or not names:
        name = _token(rng, used)
        salary = rng.randrange(1000, 10000)
        state[name] = [salary]
        names.append(name)
        return {"insert": [["Employee", name, salary]]}
    if draw < 0.9:
        name = names[rng.randrange(len(names))]
        salary = rng.randrange(1000, 10000)
        while salary in state[name]:
            salary = rng.randrange(1000, 10000)
        state[name].append(salary)
        return {"insert": [["Employee", name, salary]]}
    index = rng.randrange(len(names))
    name = names[index]
    salary = state[name].pop(rng.randrange(len(state[name])))
    if not state[name]:
        del state[name]
        names[index] = names[-1]
        names.pop()
    return {"delete": [["Employee", name, salary]]}


#: The tiny follower-side tenant every write is probed through.
PROBE_STATE = {"p0": [1], "p1": [2, 3], "p2": [4]}


def _probe_tenant() -> Tenant:
    return Tenant("probe", employee_spec(PROBE_STATE))


def _write_and_probe(tenant: str, delta: Dict[str, object]) -> List[Op]:
    """A mutation on the primary, then the read-your-writes probe: the
    follower's tiny tenant read with ``min_lsn`` = the write's LSN."""
    return [
        Op("write", "primary", f"/v1/db/{tenant}/mutate", delta,
           tenant=tenant),
        Op("probe", "follower", "/v1/cqa",
           {"db": "probe", "query": PROJECTION_QUERY},
           expect=employee_answers(PROBE_STATE, "projection"),
           label="probe", min_lsn_from_last_write=True),
    ]


def _employee_read(
    tenant: str, state: Dict[str, List[int]], names: List[str],
    rng: random.Random, projection: bool, node: str = "primary",
) -> Op:
    if projection:
        return Op("read", node, "/v1/cqa",
                  {"db": tenant, "query": PROJECTION_QUERY},
                  expect=employee_answers(state, "projection"),
                  label="projection")
    name = names[rng.randrange(len(names))]
    return Op("read", node, "/v1/cqa",
              {"db": tenant, "query": POINT_QUERY.format(name=name)},
              expect=employee_answers(state, "point", name),
              label="point")


# ----------------------------------------------------------------------
# write-replicate
# ----------------------------------------------------------------------

REPLICATE_KEYS = 9_000  # 8,100 clean + 900 violated = 9,900 facts
REPLICATE_WARMUP_STEPS = 10
#: Nominal steps per second of ``--seconds``: sets the fixed count.
#: At ``--seconds 36`` that is 250 measured steps, which carry the
#: store's records 13-262 (after 2 registrations and 10 warm-up
#: writes), so the 256-record compaction of primary and follower — a
#: snapshot of the ~10k-fact tenant — lands on measured step 244.
REPLICATE_STEPS_PER_S = 7.0
#: Every 5th step also reads the big tenant on the follower; every 4th
#: such read is the full name projection (a ~110 KB answer).
REPLICATE_READ_EVERY = 5
REPLICATE_PROJECTION_EVERY = 4


def write_replicate(seed: int, seconds: float) -> Workload:
    """A ~10k-fact primary tenant and a tiny probe tenant, one follower.

    Each step: one mutation on the primary, then a read-your-writes
    probe of the tiny tenant on the follower with ``min_lsn`` = that
    write's LSN.  Every 5th step also reads the big tenant on the
    follower at the same ``min_lsn``: a point lookup, or every 4th time
    the full name projection.
    """
    steps = 10 * max(2, round(seconds * REPLICATE_STEPS_PER_S / 10))
    rng = random.Random(seed)
    used: set = set(PROBE_STATE)
    state = employee_state(rng, REPLICATE_KEYS, 0.10, used)
    spec = employee_spec(state)
    names = list(state)

    def sequence(count: int, start: int) -> List[Op]:
        ops: List[Op] = []
        for i in range(start, start + count):
            ops += _write_and_probe(
                "big", _mutation(rng, state, names, used)
            )
            if i % REPLICATE_READ_EVERY == REPLICATE_READ_EVERY - 1:
                nth = i // REPLICATE_READ_EVERY
                read = _employee_read(
                    "big", state, names, rng,
                    nth % REPLICATE_PROJECTION_EVERY
                    == REPLICATE_PROJECTION_EVERY - 1,
                    node="follower",
                )
                read.min_lsn_from_last_write = True
                ops.append(read)
        return ops

    warmup = sequence(REPLICATE_WARMUP_STEPS, 0)
    measured = sequence(steps, REPLICATE_WARMUP_STEPS)
    return Workload(
        "write-replicate",
        [Tenant("big", spec), _probe_tenant()],
        warmup,
        measured,
        final_state={"big": state},
    )


# ----------------------------------------------------------------------
# many-small-tenants
# ----------------------------------------------------------------------

SMALL_TENANTS = 128
WRITE_TENANTS = 8
_SHAPE_KINDS = ("key", "fd", "dc", "ind")


@dataclass(frozen=True)
class SmallShape:
    """A canonical tenant: constants are ``c<n>`` tokens, renamed per seed."""

    kind: str
    relations: Dict[str, Dict[str, object]]
    constraints: Dict[str, List[str]]
    queries: Tuple[str, ...]


def _small_shape(index: int) -> SmallShape:
    """The *index*-th canonical small tenant (independent of the seed).

    Sizes run from 4 to 40 facts; conflicts stay at 1–3 per tenant so
    repair enumeration (the answer oracle, and the last rung) stays
    cheap at every size.
    """
    kind = _SHAPE_KINDS[index % len(_SHAPE_KINDS)]
    rng = random.Random(1000 + index)
    size = 4 + (index * 7) % 37  # 4..40 facts
    conflicts = max(1, min(1 + index % 3, size // 4))
    const = iter(range(10_000))

    def c() -> str:
        return f"c{next(const)}"

    if kind == "key":
        keys = [c() for _ in range(size - conflicts)]
        rows = [[k, c()] for k in keys]
        rows += [[k, c()] for k in rng.sample(keys, conflicts)]
        return SmallShape(
            kind,
            {"R": {"columns": ["K", "V"], "key": ["K"], "rows": rows}},
            {"fd": ["R: K -> V"]},
            ("Q(X) :- R(X, Y)", "Q(X, Y) :- R(X, Y)"),
        )
    if kind == "fd":
        # Groups of one A value share B, except *conflicts* groups that
        # hold one extra fact with the other B value.
        rows = []
        while len(rows) < size - conflicts:
            a, b = c(), f"b{rng.randrange(2)}"
            rows += [[a, b, c()] for _ in range(rng.randrange(1, 4))]
        rows = rows[: size - conflicts]
        for a, b, _ in rng.sample(rows, conflicts):
            rows.append([a, "b1" if b == "b0" else "b0", c()])
        return SmallShape(
            kind,
            {"T": {"columns": ["A", "B", "C"], "rows": rows}},
            {"fd": ["T: A -> B"]},
            ("Q(X, Y, Z) :- T(X, Y, Z)", "Q(X, Z) :- T(X, 'b0', Z)"),
        )
    if kind == "dc":
        people = [c() for _ in range(size - conflicts)]
        p_rows = [[p, c()] for p in people]
        n_rows = [[p] for p in rng.sample(people, conflicts)]
        return SmallShape(
            kind,
            {"P": {"columns": ["X", "Y"], "rows": p_rows},
             "N": {"columns": ["X"], "rows": n_rows}},
            {"dc": [":- P(X, Y), N(X)"]},
            ("Q(X) :- P(X, Y)", "Q(X) :- N(X)"),
        )
    items = [c() for _ in range(max(1, (size - conflicts) // 2))]
    s_rows = [[i] for i in items]
    r_rows = [[c(), rng.choice(items)]
              for _ in range(size - conflicts - len(s_rows))]
    r_rows += [[c(), c()] for _ in range(conflicts)]
    return SmallShape(
        kind,
        {"R": {"columns": ["A", "B"], "rows": r_rows},
         "S": {"columns": ["B"], "rows": s_rows}},
        {"ind": ["R[B] <= S[B]"]},
        ("Q(X) :- R(X, Y)", "Q(Y) :- S(Y)"),
    )


def canonical_small_tenants() -> List[Tuple[SmallShape, List[List[list]]]]:
    """Every canonical shape with its consistent answers, by repair
    enumeration.  The shapes do not depend on the seed; the answers are
    renamed, not recomputed, for each seed."""
    from repro.cqa import consistent_answers
    from repro.logic.parser import parse_query
    from repro.serve.specs import parse_constraints, parse_database

    built = []
    for index in range(SMALL_TENANTS):
        shape = _small_shape(index)
        db = parse_database({"relations": shape.relations})
        constraints = parse_constraints(shape.constraints)
        answers = [
            sorted(list(row) for row in consistent_answers(
                db, constraints, parse_query(q)
            ))
            for q in shape.queries
        ]
        built.append((shape, answers))
    return built


def _renamer(seed: int):
    """A seeded bijection on ``c<n>`` tokens (other values unchanged)."""
    rng = random.Random(seed * 7919 + 17)
    pool = rng.sample(range(10_000, 1_000_000), 10_000)

    def rename(value):
        if isinstance(value, str) and value[:1] == "c" and value[1:].isdigit():
            return f"v{pool[int(value[1:])]}"
        return value

    return rename


#: Nominal passes over every (tenant, query) pair per second.
SMALL_PASSES_PER_S = 0.5


def many_small_tenants(seed: int, seconds: float) -> Workload:
    """128 paper-sized tenants (4–40 facts), one connection.

    Tenant shapes cycle through key, FD, denial-constraint and
    inclusion-dependency kinds so reads span the fm-sql, fo-mem, asp
    and enumerate rungs.  A *pass* sends every (tenant, query) pair
    once, in a fresh seeded shuffle; every 10th operation is a
    single-fact write (and its follower probe) to one of 8 Employee
    tenants, in turn, that are written and never read.
    """
    passes = max(1, round(seconds * SMALL_PASSES_PER_S))
    rng = random.Random(seed)
    rename = _renamer(seed)
    tenants: List[Tenant] = []
    pairs: List[Tuple[str, str, List[list]]] = []
    for index, (shape, answers) in enumerate(canonical_small_tenants()):
        name = f"t{index:03d}"
        relations = {
            rel: dict(body, rows=[[rename(v) for v in row]
                                  for row in body["rows"]])
            for rel, body in shape.relations.items()
        }
        tenants.append(Tenant(name, {
            "relations": relations, "constraints": shape.constraints,
        }))
        for query, rows in zip(shape.queries, answers):
            expect = sorted([rename(v) for v in row] for row in rows)
            # Queries carry only 'b0'-style constants, which the renamer
            # leaves alone, so query texts do not depend on the seed.
            pairs.append((name, query, expect))
    used: set = set(PROBE_STATE)
    states: Dict[str, Dict[str, List[int]]] = {}
    names: Dict[str, List[str]] = {}
    for w in range(WRITE_TENANTS):
        name = f"w{w}"
        states[name] = employee_state(rng, 6, 0.2, used)
        names[name] = list(states[name])
        tenants.append(Tenant(name, employee_spec(states[name])))
    tenants.append(_probe_tenant())
    counts = {"ops": 0, "writes": 0}

    def passes_of(count: int) -> List[Op]:
        ops: List[Op] = []
        for _ in range(count):
            order = list(range(len(pairs)))
            rng.shuffle(order)
            for index in order:
                counts["ops"] += 1
                if counts["ops"] % 10 == 0:
                    name = f"w{counts['writes'] % WRITE_TENANTS}"
                    counts["writes"] += 1
                    ops += _write_and_probe(name, _mutation(
                        rng, states[name], names[name], used
                    ))
                tenant, query, expect = pairs[index]
                ops.append(Op("read", "primary", "/v1/cqa",
                              {"db": tenant, "query": query},
                              expect=expect, label=tenant))
        return ops

    warmup = passes_of(1)
    measured = passes_of(passes)
    return Workload(
        "many-small-tenants",
        tenants,
        warmup,
        measured,
        final_state=states,
    )


WORKLOADS = {
    "many-small-tenants": many_small_tenants,
    "write-replicate": write_replicate,
}
