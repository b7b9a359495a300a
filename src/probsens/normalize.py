"""Normalization into guarded single-assignment form.

A normalized body is an ordered list of guarded assignments
``t := rhs [C] else s``: when ``C`` holds, ``t`` receives a fresh evaluation
of ``rhs``; otherwise ``t`` keeps the value of ``s`` (the name holding the
target's previous value).  Every name is assigned at most once per iteration,
which is what the moment machinery requires.

Variables written several times per iteration get fresh intermediate names
(``_t1``, ``_t2``, ...) for all but their final write, so the original name
always denotes the variable's end-of-iteration value.  Reads are rewritten
through an alias map tracking the name that currently holds each variable.

Branching is compiled away by guarding each assignment with its path
condition.  Sequential emission makes this exact: an assignment emitted under
a guard that is false simply keeps the previous value through its ``else``
name, so later reads of the output name are correct in every branch of the
program.  Two details need care:

* Branch conditions describe the state at the head of the conditional, but
  guards are attached to assignments emitted after earlier writes from the
  same conditional.  Condition variables that are written inside the
  conditional are therefore snapshotted into fresh names at its head.
* In a simultaneous assignment every right-hand side reads the pre-state, so
  a target read by one of the later right-hand sides is snapshotted too.

The snapshots and intermediates all disappear under substitution, so they do
not change any derived recurrence.
"""

from __future__ import annotations

from collections import Counter

from .syntax import (
    Assignment,
    BTrue,
    GuardedAssignment,
    IfStatement,
    NormalizedProgram,
    PolyExpr,
    Program,
    Categorical,
    bexpr_and,
    bexpr_negate,
    bexpr_rename,
    bexpr_vars,
)


def _count_writes(statements, acc: Counter):
    for st in statements:
        if isinstance(st, Assignment):
            acc.update(st.targets)
        else:
            for _, body in st.branches:
                _count_writes(body, acc)
            if st.else_body is not None:
                _count_writes(st.else_body, acc)


class _Normalizer:
    def __init__(self, variables, remaining: Counter):
        self.alias = {v: v for v in variables}
        self.remaining = remaining
        self.out: list[GuardedAssignment] = []
        self.temps: list[str] = []
        self.temp_origin: dict[str, str] = {}
        self.counter = 0

    def fresh(self, origin: str) -> str:
        self.counter += 1
        name = f"_t{self.counter}"
        self.temps.append(name)
        self.temp_origin[name] = origin
        return name

    def snapshot(self, var: str) -> str:
        """Copy the current value of ``var`` into a fresh unconditional name."""
        name = self.fresh(var)
        rhs = Categorical.sure(PolyExpr.var(self.alias[var]))
        self.out.append(GuardedAssignment(name, rhs, BTrue(), None))
        return name

    def emit_block(self, statements, ctx):
        for st in statements:
            if isinstance(st, Assignment):
                self.emit_assignment(st, ctx)
            else:
                self.emit_if(st, ctx)

    def emit_assignment(self, st: Assignment, ctx):
        pre_alias = dict(self.alias)
        overrides: dict[str, str] = {}
        for i, t in enumerate(st.targets):
            read_later = any(
                t in st.rhss[j].variables() for j in range(i + 1, len(st.rhss))
            )
            if read_later:
                overrides[t] = self.snapshot(t)
        mapping = {v: overrides.get(v, cur) for v, cur in pre_alias.items()}
        for t, rhs in zip(st.targets, st.rhss):
            renamed = rhs.rename(mapping)
            self.remaining[t] -= 1
            target = t if self.remaining[t] == 0 else self.fresh(t)
            if isinstance(ctx, BTrue):
                self.out.append(GuardedAssignment(target, renamed, BTrue(), None))
            else:
                self.out.append(GuardedAssignment(target, renamed, ctx, pre_alias[t]))
            self.alias[t] = target

    def emit_if(self, st: IfStatement, ctx):
        cond_vars: set[str] = set()
        for cond, _ in st.branches:
            cond_vars |= bexpr_vars(cond)
        written: Counter = Counter()
        for _, body in st.branches:
            _count_writes(body, written)
        if st.else_body is not None:
            _count_writes(st.else_body, written)

        cond_alias = dict(self.alias)
        for v in sorted(cond_vars & set(written)):
            cond_alias[v] = self.snapshot(v)

        materialized = [bexpr_rename(cond, cond_alias) for cond, _ in st.branches]
        others_false = BTrue()
        for cond, (_, body) in zip(materialized, st.branches):
            eff = bexpr_and(others_false, cond)
            self.emit_block(body, bexpr_and(ctx, eff))
            others_false = bexpr_and(others_false, bexpr_negate(cond))
        if st.else_body is not None:
            self.emit_block(st.else_body, bexpr_and(ctx, others_false))


def normalize(prog: Program) -> NormalizedProgram:
    """Flatten a parsed program into guarded single-assignment form."""
    init: list[tuple[str, object]] = []
    for st in prog.init:
        for t, rhs in zip(st.targets, st.rhss):
            init.append((t, rhs))

    remaining: Counter = Counter()
    _count_writes(prog.body, remaining)

    norm = _Normalizer(prog.variables, remaining)
    norm.emit_block(prog.body, BTrue())

    targets = [ga.target for ga in norm.out]
    assert len(targets) == len(set(targets)), "normalization produced a double write"

    return NormalizedProgram(
        params=prog.params,
        init=tuple(init),  # type: ignore[arg-type]
        body=tuple(norm.out),
        variables=prog.variables,
        temporaries=tuple(norm.temps),
        temp_origin=tuple(sorted(norm.temp_origin.items())),
        name=prog.name,
    )
