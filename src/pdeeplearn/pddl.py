"""Disk formats: typed-STRIPS domain/problem files and interleaved traces.

The surface syntax is an s-expression PDDL subset (:strips and :typing
only). Trace files hold one (trace ...) block per trace: a header naming
the domain and typed objects, an (:init ...) state, alternating
(action (...)) / (state ...) blocks, and a final (:goal ...) block that
records the full state reached by the last action.

Every (NAME arg...) term in every format goes through read_term, which
checks NAME against a predicate or action table and each argument against
an argument table that gives its value and type. The other readers
(candidates.read_candidates too) share the checked helpers below, so every
malformed input raises a located ParseError.

Serializers emit a canonical form (alphabetical orderings everywhere), so
parse followed by serialize is the identity on canonical text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Union

from .core import (
    ActionModel,
    ActionModelEntry,
    ActionSignature,
    DomainSchema,
    GroundAction,
    GroundAtom,
    LiftedPredicateRef,
    PlanTrace,
    PredicateSchema,
    State,
)


class ParseError(ValueError):
    """A located syntax or validation error in an input file."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class Atom(NamedTuple):
    text: str
    line: int
    col: int


class Group(NamedTuple):
    items: tuple[Union["Group", Atom], ...]
    line: int
    col: int


SExpr = Union[Group, Atom]

# One match per token: a paren, a newline, a comment or a word. The
# spaces, tabs and carriage returns between tokens are never matched.
_TOKEN = re.compile(r"[()\n]|;[^\n]*|[^ \t\r\n();]+")


def read_sexprs(text: str) -> list[SExpr]:
    """Read all top-level s-expressions, raising located ParseErrors."""
    stack: list[tuple[list[SExpr], int, int]] = []
    items: list[SExpr] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        tok = match.group()
        col = match.start() - line_start + 1
        if tok == "\n":
            line += 1
            line_start = match.end()
        elif tok == "(":
            stack.append((items, line, col))
            items = []
        elif tok == ")":
            if not stack:
                raise ParseError("unmatched ')'", line, col)
            outer, gline, gcol = stack.pop()
            outer.append(Group(tuple(items), gline, gcol))
            items = outer
        elif tok[0] != ";":
            items.append(Atom(tok.lower(), line, col))
    if stack:
        raise ParseError("unclosed '('", stack[-1][1], stack[-1][2])
    return items


# -- checked readers, shared by every format ----------------------------------


def fail(node: SExpr, message: str) -> ParseError:
    return ParseError(message, node.line, node.col)


def expect_atom(node: SExpr, what: str) -> Atom:
    if not isinstance(node, Atom):
        raise fail(node, f"expected {what}")
    return node


def _expect_group(node: SExpr, what: str) -> Group:
    if not isinstance(node, Group):
        raise fail(node, f"expected {what}, got {node.text!r}")
    return node


def split_form(node: SExpr, what: str) -> tuple[str, tuple[SExpr, ...]]:
    """The head word and the other items of a (HEAD item...) form."""
    group = _expect_group(node, what)
    if not group.items or not isinstance(group.items[0], Atom):
        raise fail(group, f"expected {what}")
    return group.items[0].text, group.items[1:]


def read_form(text: str, head: str, what: str) -> tuple[SExpr, tuple[SExpr, ...]]:
    """The single top-level (HEAD item...) form of a file, and its items."""
    tops = read_sexprs(text)
    if not tops:
        raise ParseError(f"empty {what}", 1, 1)
    if len(tops) > 1:
        raise fail(tops[1], f"{what} must contain a single ({head} ...) form")
    key, items = split_form(tops[0], f"({head} ...)")
    if key != head:
        raise fail(tops[0], f"expected ({head} ...)")
    return tops[0], items


def read_name(node: SExpr, head: str, what: str) -> str:
    """NAME from a (HEAD NAME) form."""
    key, items = split_form(node, f"({head} NAME)")
    if key != head or len(items) != 1:
        raise fail(node, f"expected ({head} NAME)")
    return expect_atom(items[0], f"{what} name").text


def check_domain(node: SExpr, schema: DomainSchema, what: str) -> None:
    """Reject a (:domain NAME) form that names another domain."""
    name = read_name(node, ":domain", "domain")
    if name != schema.name:
        raise fail(node, f"{what} is for domain {name}, schema is {schema.name}")


def _define(text: str, kind: str) -> tuple[SExpr, str, tuple[SExpr, ...]]:
    """The form, NAME and sections of a (define (KIND NAME) section...) file."""
    define, items = read_form(text, "define", f"{kind} file")
    if not items:
        raise fail(define, f"missing ({kind} NAME)")
    return define, read_name(items[0], kind, kind), items[1:]


def read_term(
    node: SExpr,
    table: Mapping[str, Union[PredicateSchema, ActionSignature]],
    kind: str,
    args: Mapping[str, tuple],
    arg_kind: str,
) -> tuple[str, tuple]:
    """NAME and argument values of a (NAME arg...) term, checked.

    table maps each known NAME to its predicate or action. args maps each
    known argument token to its (value, type): in a domain a ?variable to
    its parameter position, in problems and traces an object to itself, in
    candidate files a position number to that position. The arity and
    every argument's type must match NAME's parameters.
    """
    items = node.items if isinstance(node, Group) else ()
    if not items or not isinstance(items[0], Atom):
        raise fail(node, f"expected a ({kind} ...) term")
    name = items[0].text
    sig = table.get(name)
    if sig is None:
        raise fail(items[0], f"unknown {kind}: {name}")
    if len(items) - 1 != len(sig.param_types):
        raise fail(node, f"{kind} {name} expects {len(sig.param_types)} arguments, "
                         f"got {len(items) - 1}")
    values = []
    for arg, need in zip(items[1:], sig.param_types):
        token = expect_atom(arg, f"{arg_kind} name").text
        try:
            value, have = args[token]
        except KeyError:
            raise fail(arg, f"unknown {arg_kind}: {token}") from None
        if have != need:
            raise fail(arg, f"{arg_kind} {token} has type {have}, {kind} {name} needs {need}")
        values.append(value)
    return name, tuple(values)


def _parse_typed_names(items: tuple[SExpr, ...], owner: SExpr, what: str) -> list[tuple[str, str]]:
    """Parse 'a b - t c - u' name/type runs into (name, type) pairs."""
    out: list[tuple[str, str]] = []
    pending: list[Atom] = []
    i = 0
    while i < len(items):
        atom = expect_atom(items[i], f"{what} name")
        if atom.text == "-":
            if not pending:
                raise fail(atom, f"dangling '-' in {what} list")
            if i + 1 >= len(items):
                raise fail(atom, f"missing type after '-' in {what} list")
            type_atom = expect_atom(items[i + 1], "type name")
            out.extend((p.text, type_atom.text) for p in pending)
            pending = []
            i += 2
        else:
            pending.append(atom)
            i += 1
    if pending:
        raise fail(owner, f"{what} list ends without a '- type' annotation")
    return out


def _read_objects(section: SExpr, items: tuple[SExpr, ...], schema: DomainSchema,
                  objects: dict[str, tuple[str, str]]) -> None:
    """Add an (:objects ...) section to the argument table objects."""
    for name, otype in _parse_typed_names(items, section, "object"):
        if otype not in schema.types:
            raise fail(section, f"object {name} has undeclared type {otype}")
        if name in objects:
            raise fail(section, f"duplicate object: {name}")
        objects[name] = (name, otype)


def _conjuncts(node: SExpr, what: str) -> tuple[SExpr, ...]:
    """Unwrap (and a b c) / (a ...) / () into its atoms."""
    group = _expect_group(node, what)
    if not group.items:
        return ()
    if isinstance(group.items[0], Atom) and group.items[0].text == "and":
        return group.items[1:]
    return (group,)


# -- domains ----------------------------------------------------------------


def parse_domain(text: str) -> tuple[DomainSchema, ActionModel]:
    """Parse a domain file into its schema and its reference action model."""
    define, domain_name, sections = _define(text, "domain")
    types: list[str] = []
    predicates: dict[str, PredicateSchema] = {}
    signatures: list[ActionSignature] = []
    entries: list[ActionModelEntry] = []
    for section in sections:
        head, items = split_form(section, "a domain section")
        if head == ":requirements":
            for req in items:
                atom = expect_atom(req, "requirement")
                if atom.text not in (":strips", ":typing"):
                    raise fail(atom, f"unsupported requirement: {atom.text}")
        elif head == ":types":
            types.extend(expect_atom(item, "type name").text for item in items)
        elif head == ":predicates":
            for item in items:
                pname, declared = split_form(item, "a predicate declaration")
                if pname in predicates:
                    raise fail(item, f"duplicate predicate: {pname}")
                typed = _parse_typed_names(declared, item, "parameter")
                for var, _ in typed:
                    if not var.startswith("?"):
                        raise fail(item, f"predicate parameter {var!r} must be a ?variable")
                try:
                    predicates[pname] = PredicateSchema(pname, tuple(t for _, t in typed))
                except ValueError as exc:
                    raise fail(item, str(exc)) from None
        elif head == ":action":
            sig, entry = _parse_action(section, items, predicates)
            signatures.append(sig)
            entries.append(entry)
        else:
            raise fail(section, f"unknown domain section: {head!r}")

    try:
        schema = DomainSchema(
            name=domain_name,
            types=frozenset(types),
            predicates=tuple(predicates.values()),
            actions=tuple(signatures),
        )
        model = ActionModel(schema, tuple(entries))
    except ValueError as exc:
        raise fail(define, str(exc)) from exc
    return schema, model


def _parse_action(
    section: SExpr, items: tuple[SExpr, ...], predicates: dict[str, PredicateSchema]
) -> tuple[ActionSignature, ActionModelEntry]:
    if not items:
        raise fail(section, "action without a name")
    name = expect_atom(items[0], "action name").text
    params: dict[str, tuple[int, str]] = {}
    pre: list[LiftedPredicateRef] = []
    add: list[LiftedPredicateRef] = []
    dele: list[LiftedPredicateRef] = []

    def ref(node: SExpr) -> LiftedPredicateRef:
        return LiftedPredicateRef(*read_term(node, predicates, "predicate", params, "parameter"))

    seen_params = False
    for i in range(1, len(items), 2):
        key = expect_atom(items[i], "an :action keyword")
        if i + 1 >= len(items):
            raise fail(key, f"missing value after {key.text}")
        value = items[i + 1]
        if key.text == ":parameters":
            if seen_params:
                raise fail(key, f"action {name} repeats :parameters")
            seen_params = True
            group = _expect_group(value, "value of :parameters")
            for pos, (var, ptype) in enumerate(_parse_typed_names(group.items, value, "parameter")):
                if not var.startswith("?"):
                    raise fail(value, f"action parameter {var!r} must be a ?variable")
                if var in params:
                    raise fail(value, f"duplicate parameter {var}")
                params[var] = (pos, ptype)
        elif key.text == ":precondition":
            pre.extend(ref(g) for g in _conjuncts(value, "value of :precondition"))
        elif key.text == ":effect":
            for g in _conjuncts(value, "value of :effect"):
                head, negated = split_form(g, "an effect atom")
                if head != "not":
                    add.append(ref(g))
                elif len(negated) != 1:
                    raise fail(g, "(not ...) takes exactly one atom")
                else:
                    dele.append(ref(negated[0]))
        else:
            raise fail(key, f"unknown action keyword: {key.text}")
    if not seen_params:
        raise fail(section, f"action {name} is missing :parameters")
    try:
        sig = ActionSignature(name, tuple(t for _, t in params.values()))
        return sig, ActionModelEntry(name, frozenset(pre), frozenset(add), frozenset(dele))
    except ValueError as exc:
        raise fail(section, str(exc)) from None


# -- problems ---------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """A planning problem: typed objects, full initial state, partial goal."""

    name: str
    domain: str
    objects: tuple[tuple[str, str], ...]
    init: State
    goal: frozenset[GroundAtom]

    def object_table(self) -> dict[str, str]:
        return dict(self.objects)


def _ground_atoms(items: Iterable[SExpr], predicates: Mapping[str, PredicateSchema],
                  objects: Mapping[str, tuple[str, str]]) -> Iterable[GroundAtom]:
    for node in items:
        yield GroundAtom(*read_term(node, predicates, "predicate", objects, "object"))


def parse_problem(text: str, schema: DomainSchema) -> ProblemSpec:
    _, pname, sections = _define(text, "problem")
    objects: dict[str, tuple[str, str]] = {}
    init: list[GroundAtom] = []
    goal: list[GroundAtom] = []
    for section in sections:
        head, items = split_form(section, "a problem section")
        if head == ":domain":
            check_domain(section, schema, "problem")
        elif head == ":objects":
            _read_objects(section, items, schema, objects)
        elif head == ":init":
            init.extend(_ground_atoms(items, schema.predicate_table, objects))
        elif head == ":goal":
            atoms = _conjuncts(items[0], "a goal") if len(items) == 1 else items
            goal.extend(_ground_atoms(atoms, schema.predicate_table, objects))
        else:
            raise fail(section, f"unknown problem section: {head!r}")
    return ProblemSpec(
        name=pname,
        domain=schema.name,
        objects=tuple(sorted(objects.values())),
        init=frozenset(init),
        goal=frozenset(goal),
    )


# -- traces -----------------------------------------------------------------


def parse_traces(text: str, schema: DomainSchema) -> list[PlanTrace]:
    """Parse a .traces file: zero or more (trace ...) blocks."""
    traces = []
    for top in read_sexprs(text):
        head, sections = split_form(top, "a (trace ...) block")
        if head != "trace":
            raise fail(top, "expected (trace ...)")
        traces.append(_parse_trace(top, sections, schema))
    return traces


def trace_domain(text: str) -> str:
    """The domain named by the (:domain NAME) header of a .traces file's
    first trace."""
    for top in read_sexprs(text)[:1]:
        for section in split_form(top, "a (trace ...) block")[1]:
            if split_form(section, "a trace section")[0] == ":domain":
                return read_name(section, ":domain", "domain")
    raise ParseError("trace file has no (:domain NAME) header", 1, 1)


def _parse_trace(top: SExpr, sections: tuple[SExpr, ...], schema: DomainSchema) -> PlanTrace:
    predicates, actions = schema.predicate_table, schema.action_table
    objects: dict[str, tuple[str, str]] = {}
    steps: list = []
    stage = "header"
    for section in sections:
        head, items = split_form(section, "a trace section")
        if head == ":domain":
            check_domain(section, schema, "trace")
        elif head == ":objects":
            _read_objects(section, items, schema, objects)
        elif head == ":init":
            if stage != "header":
                raise fail(section, "(:init ...) must come before any action")
            steps.append(frozenset(_ground_atoms(items, predicates, objects)))
            stage = "after-state"
        elif head == "action":
            if stage != "after-state":
                raise fail(section, "two actions with no state between them")
            if len(items) != 1:
                raise fail(section, "expected (action (NAME obj...))")
            steps.append(GroundAction(*read_term(items[0], actions, "action", objects, "object")))
            stage = "after-action"
        elif head in ("state", ":goal"):
            if stage != "after-action":
                raise fail(section, "state block must follow an action")
            steps.append(frozenset(_ground_atoms(items, predicates, objects)))
            stage = "done" if head == ":goal" else "after-state"
        else:
            raise fail(section, f"unknown trace section: {head!r}")
    if stage != "done":
        raise fail(top, "trace must end with a (:goal ...) state")
    try:
        return PlanTrace(tuple(sorted(objects.values())), tuple(steps))
    except ValueError as exc:
        raise fail(top, str(exc))


# -- serialization ----------------------------------------------------------


def _var_names(sig: ActionSignature) -> list[str]:
    return [f"?x{i}" for i in range(sig.arity)]


def _format_typed_vars(names: Iterable[str], types: Iterable[str]) -> str:
    return " ".join(f"{n} - {t}" for n, t in zip(names, types))


def _format_ref(ref: LiftedPredicateRef, var_names: list[str]) -> str:
    return "(%s)" % " ".join([ref.predicate] + [var_names[i] for i in ref.binding])


def _format_objects(objects: Iterable[tuple[str, str]]) -> str:
    by_type: dict[str, list[str]] = {}
    for name, otype in objects:
        by_type.setdefault(otype, []).append(name)
    parts = ["%s - %s" % (" ".join(sorted(by_type[t])), t) for t in sorted(by_type)]
    return "(:objects %s)" % " ".join(parts)


def serialize_model(model: ActionModel) -> str:
    """Emit a complete canonical domain file for the model and its schema.

    Ordering is fixed: types, predicates, and actions alphabetically, and
    predicates alphabetically within each pre/add/del list, so equal
    models always serialize to identical bytes.
    """
    schema = model.schema
    lines = [f"(define (domain {schema.name})"]
    lines.append("  (:requirements :strips :typing)")
    lines.append("  (:types %s)" % " ".join(sorted(schema.types)))
    lines.append("  (:predicates")
    for pred in schema.predicates:
        names = [f"?x{i}" for i in range(pred.arity)]
        body = (" " + _format_typed_vars(names, pred.param_types)) if pred.arity else ""
        lines.append(f"    ({pred.name}{body})")
    lines.append("  )")
    for sig in schema.actions:
        entry = model.entry(sig.name)
        names = _var_names(sig)
        lines.append(f"  (:action {sig.name}")
        lines.append(f"    :parameters ({_format_typed_vars(names, sig.param_types)})")
        pre = " ".join(_format_ref(r, names) for r in sorted(entry.pre))
        lines.append(f"    :precondition (and{' ' + pre if pre else ''})")
        adds = [_format_ref(r, names) for r in sorted(entry.add)]
        dels = ["(not %s)" % _format_ref(r, names) for r in sorted(entry.delete)]
        eff = " ".join(adds + dels)
        lines.append(f"    :effect (and{' ' + eff if eff else ''})")
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"


def serialize_problem(problem: ProblemSpec) -> str:
    lines = [f"(define (problem {problem.name})"]
    lines.append(f"  (:domain {problem.domain})")
    lines.append("  " + _format_objects(problem.objects))
    lines.append("  (:init %s)" % " ".join(a.pretty() for a in sorted(problem.init)))
    lines.append("  (:goal (and %s))" % " ".join(a.pretty() for a in sorted(problem.goal)))
    lines.append(")")
    return "\n".join(lines) + "\n"


def serialize_traces(traces: Iterable[PlanTrace], domain_name: str) -> str:
    blocks = []
    for trace in traces:
        lines = ["(trace"]
        lines.append(f"  (:domain {domain_name})")
        lines.append("  " + _format_objects(trace.objects))
        lines.append("  (:init %s)" % " ".join(a.pretty() for a in sorted(trace.initial_state)))
        steps = trace.steps
        for i in range(1, len(steps), 2):
            action = steps[i]
            state = steps[i + 1]
            lines.append(f"  (action {action.pretty()})")
            body = " ".join(a.pretty() for a in sorted(state))
            key = ":goal" if i + 1 == len(steps) - 1 else "state"
            lines.append(f"  ({key} {body})")
        lines.append(")")
        blocks.append("\n".join(lines))
    return "\n".join(blocks) + ("\n" if blocks else "")
