"""Preference-semantic scoring of interlingua expressions.

Role fillers are scored against an ontology's basic and relaxable-to
constraints on a five-step scale (1.0 / 0.8 / 0.25 / 0.05 / 0.01) and
the per-relation scores multiply into an expression score, so no
expression ever scores zero.  Expressions are concept instances joined
by named roles, written `(id / CONCEPT :ROLE filler ...)` with
reentrancy through bare instance ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

from . import sexpr
from .records import records

__all__ = [
    "OntologyError",
    "InterlinguaError",
    "Ontology",
    "load_ontology",
    "InterlinguaExpr",
    "parse_interlingua",
    "parse_interlingua_file",
    "format_interlingua",
    "RelationTriple",
    "extract_relations",
    "tier",
    "PreferenceScore",
    "score",
    "rank",
    "TIERS",
]

TIERS = (1.0, 0.8, 0.25, 0.05, 0.01)
UNIVERSAL = "*"


class OntologyError(Exception):
    pass


class InterlinguaError(Exception):
    pass


@dataclass(frozen=True)
class RelationConstraint:
    basic: tuple  # concept names, or ("*",) for universal
    relaxed: tuple
    domain_basic: tuple = ()
    domain_relaxed: tuple = ()


class Ontology:
    """Concept taxonomy with per-relation range/domain constraints.

    Each concept keeps two int bit sets, built in `graphlib` order: itself
    with its ancestors, and every concept declared disjoint from one of
    those.  `subsumes` and `disjoint` are one AND each.
    """

    def __init__(self, concepts, isa_edges, disjoint_pairs, relations):
        self.concepts = frozenset(concepts)
        self.parents = {}
        for child, parent in isa_edges:
            self.parents.setdefault(child, set()).add(parent)
        self.relations = dict(relations)
        graph = {}  # concept -> sorted parents; parents outside `concepts` join the walk
        walk = sorted(self.concepts)
        for c in walk:
            if c not in graph:
                graph[c] = sorted(self.parents.get(c, ()))
                walk += graph[c]
        for pair in disjoint_pairs:
            for c in pair:
                graph.setdefault(c, ())
        try:
            order = tuple(TopologicalSorter(graph).static_order())
        except CycleError as e:  # e.args[1] runs parent -> child
            raise OntologyError("isa cycle: %s" % " -> ".join(reversed(e.args[1]))) from None
        # Only parents and pair names are in other concepts' sets, so leaves get no bit.
        inner = {p for c in order for p in graph[c]}.union(*disjoint_pairs)
        self._bit = {c: 1 << i for i, c in enumerate(c for c in order if c in inner)}
        self._partners = dict.fromkeys(order, 0)
        for a, b in disjoint_pairs:
            self._partners[a] |= self._bit[b]
            self._partners[b] |= self._bit[a]
        self._ancestors = {}
        for c in order:
            anc = self._bit.get(c, 0)
            for p in graph[c]:
                anc |= self._ancestors[p]
                self._partners[c] |= self._partners[p]
            self._ancestors[c] = anc

    def subsumes(self, a, b) -> bool:
        """True when a is b or an ancestor of b (reflexive-transitive isa)."""
        return a == UNIVERSAL or a == b or self._ancestors.get(b, 0) & self._bit.get(a, 0) != 0

    def disjoint(self, a, b) -> bool:
        """Declared disjointness, propagated down both subtrees."""
        return UNIVERSAL not in (a, b) and self._partners.get(a, 0) & self._ancestors.get(b, 0) != 0


def _parse_concept_list(text, declared, lineno):
    names = [c for c in text.split(",") if c]
    if not names:
        raise OntologyError("line %d: empty concept list" % lineno)
    for c in names:
        if c != UNIVERSAL and c not in declared:
            raise OntologyError("line %d: undeclared concept %r" % (lineno, c))
    return tuple(names)


def load_ontology(fp) -> Ontology:
    """Line-oriented ontology text.

    Directives: `concept NAME`, `isa CHILD PARENT`, `disjoint A B`, and
    `relation NAME basic c1,c2 relaxable-to c3 [domain c4 [domain-relaxable-to c5]]`.
    `*` as a constraint set means any concept satisfies it.  A `#`
    starts a comment that runs to the end of the line.
    """
    lines = [(lineno, line.split("#", 1)[0].split()) for lineno, line in records(fp)]
    concepts = set()
    for lineno, parts in lines:
        if parts[0] == "concept":
            if len(parts) != 2:
                raise OntologyError("line %d: concept takes one name" % lineno)
            concepts.add(parts[1])
    isa_edges = []
    disjoint_pairs = []
    relations = {}
    for lineno, parts in lines:
        kind = parts[0]
        if kind == "concept":
            continue
        if kind == "isa":
            if len(parts) != 3:
                raise OntologyError("line %d: isa takes child and parent" % lineno)
            for c in parts[1:]:
                if c not in concepts:
                    raise OntologyError("line %d: undeclared concept %r" % (lineno, c))
            isa_edges.append((parts[1], parts[2]))
        elif kind == "disjoint":
            if len(parts) != 3:
                raise OntologyError("line %d: disjoint takes two concepts" % lineno)
            for c in parts[1:]:
                if c not in concepts:
                    raise OntologyError("line %d: undeclared concept %r" % (lineno, c))
            disjoint_pairs.append((parts[1], parts[2]))
        elif kind == "relation":
            if len(parts) < 2:
                raise OntologyError("line %d: relation needs a name" % lineno)
            name = parts[1]
            sets = {"basic": (), "relaxable-to": (), "domain": (), "domain-relaxable-to": ()}
            i = 2
            while i < len(parts):
                key = parts[i]
                if key not in sets or i + 1 >= len(parts):
                    raise OntologyError("line %d: bad relation clause %r" % (lineno, key))
                sets[key] = _parse_concept_list(parts[i + 1], concepts, lineno)
                i += 2
            if not sets["basic"]:
                raise OntologyError("line %d: relation %s needs a basic set" % (lineno, name))
            relations[name] = RelationConstraint(
                sets["basic"], sets["relaxable-to"], sets["domain"], sets["domain-relaxable-to"])
        else:
            raise OntologyError("line %d: unknown directive %r" % (lineno, kind))
    return Ontology(concepts, isa_edges, disjoint_pairs, relations)


# ---------------------------------------------------------------------------
# Interlingua expressions

@dataclass
class InterlinguaExpr:
    instances: dict  # id -> concept name
    roles: list  # (holder id, relation name, filler) with filler: ("id", x) | ("literal", x)
    root: str


def _define(node, expr: InterlinguaExpr) -> str:
    """Record the instance a `(id / CONCEPT ...)` list defines; its id."""
    if not (isinstance(node, list) and len(node) >= 3 and node[1] == "/"
            and isinstance(node[0], str) and isinstance(node[2], str)):
        raise InterlinguaError("expected an (id / CONCEPT ...) instance")
    if node[0] in expr.instances:
        raise InterlinguaError("duplicate definition of instance %s" % node[0])
    expr.instances[node[0]] = node[2]
    return node[0]


def _datum_to_expr(datum) -> InterlinguaExpr:
    """Walk an instance datum with a work stack: each instance is defined
    where it opens and roles are appended in document order, so a bare id
    must follow the instance it refers to."""
    expr = InterlinguaExpr({}, [], "")
    expr.root = _define(datum, expr)
    stack = [(expr.root, datum, 3)]  # instance, its list, next role index
    while stack:
        inst, node, i = stack.pop()
        if i == len(node):
            continue
        role = node[i]
        if i + 1 == len(node) or not (isinstance(role, str) and role.startswith(":")):
            raise InterlinguaError("expected :ROLE filler pairs in instance %s" % inst)
        stack.append((inst, node, i + 2))
        filler = node[i + 1]
        if isinstance(filler, list):
            stack.append((_define(filler, expr), filler, 3))
            filler = ("id", filler[0])
        elif isinstance(filler, tuple):
            filler = ("literal", filler[1])
        else:
            filler = _symbol_filler(filler, expr)
        expr.roles.append((inst, role[1:], filler))
    return expr


def _symbol_filler(sym: str, expr: InterlinguaExpr):
    for number in (int, float):
        try:
            return ("literal", number(sym))
        except ValueError:
            pass
    if sym not in expr.instances:
        raise InterlinguaError("reference to undefined instance %s" % sym)
    return ("id", sym)


def parse_interlingua(text: str) -> InterlinguaExpr:
    """Read one `(id / CONCEPT :ROLE filler ...)` expression.

    Bare ids are references to previously defined instances.
    """
    data = sexpr.read_all(text, InterlinguaError)
    if len(data) != 1:
        raise InterlinguaError("expected one expression, found %d" % len(data))
    return _datum_to_expr(data[0])


def parse_interlingua_file(fp):
    return [_datum_to_expr(datum) for datum in sexpr.read_all(fp.read(), InterlinguaError)]


def format_interlingua(expr: InterlinguaExpr) -> str:
    """Canonical text form; later mentions of a shared instance print bare.
    Written from a work stack, so any depth works."""
    roles = {}
    for holder, role, filler in expr.roles:
        roles.setdefault(holder, []).append((role, filler))
    out = []
    printed = set()
    todo = [("", ("id", expr.root), 0)]  # (text, then a filler or None, its indent)
    while todo:
        text, filler, indent = todo.pop()
        out.append(text)
        if filler is None:
            continue
        kind, val = filler
        if kind == "literal":
            out.append('"%s"' % val if isinstance(val, str) else repr(val))
        elif val in printed:
            out.append(val)
        else:
            printed.add(val)
            out.append("(%s / %s" % (val, expr.instances[val]))
            pad = " " * (indent + 3)
            todo.append((")", None, 0))
            todo.extend(("\n%s:%s " % (pad, role), f, indent + 3)
                        for role, f in reversed(roles.get(val, ())))
    return "".join(out)


# ---------------------------------------------------------------------------
# relation extraction and scoring

@dataclass(frozen=True)
class RelationTriple:
    head: str  # concept of the holding instance
    relation: str
    filler: object  # concept name, or a literal value
    filler_is_literal: bool = False


def extract_relations(expr: InterlinguaExpr):
    """One triple per role edge, in source order."""
    out = []
    for holder, role, (kind, val) in expr.roles:
        if kind == "id":
            out.append(RelationTriple(expr.instances[holder], role, expr.instances[val]))
        else:
            out.append(RelationTriple(expr.instances[holder], role, val, True))
    return out


def _satisfies(onto, constraint_set, concept):
    return any(onto.subsumes(c, concept) for c in constraint_set)


def _disjoint_from_all(onto, constraint_set, concept):
    if not constraint_set or UNIVERSAL in constraint_set:
        return False
    return all(onto.disjoint(concept, c) for c in constraint_set)


def _five_way(onto, basic, relaxed, concept) -> float:
    effective_relaxed = tuple(relaxed) + tuple(basic)
    if _satisfies(onto, basic, concept):
        return 1.0
    if _satisfies(onto, effective_relaxed, concept):
        return 0.25 if _disjoint_from_all(onto, basic, concept) else 0.8
    if _disjoint_from_all(onto, basic, concept) or _disjoint_from_all(onto, effective_relaxed, concept):
        return 0.01
    return 0.05


def tier(onto: Ontology, triple: RelationTriple) -> float:
    """Range-constraint suitability of the filler: one of the five scores.

    Literal fillers score 1.0; an undeclared relation scores 0.05 (an
    unconstrained unknown), never a hard failure.
    """
    if triple.filler_is_literal:
        return 1.0
    rel = onto.relations.get(triple.relation)
    if rel is None:
        return 0.05
    return _five_way(onto, rel.basic, rel.relaxed, triple.filler)


@dataclass
class PreferenceScore:
    value: float
    factors: list = field(default_factory=list)  # (triple, "range"|"domain", tier)

    def tiers(self):
        return [t for (_tr, _kind, t) in self.factors]


def score(expr: InterlinguaExpr, onto: Ontology) -> PreferenceScore:
    """Product of per-relation tier scores (range, plus domain when the
    relation declares head constraints).  Always strictly positive.
    Undeclared relations are diagnosed in the factor record, not fatal."""
    result = PreferenceScore(1.0)
    for triple in extract_relations(expr):
        t = tier(onto, triple)
        rel = onto.relations.get(triple.relation)
        declared = rel is not None or triple.filler_is_literal
        result.factors.append((triple, "range" if declared else "range-undeclared", t))
        result.value *= t
        if rel is not None and rel.domain_basic:
            d = _five_way(onto, rel.domain_basic, rel.domain_relaxed, triple.head)
            result.factors.append((triple, "domain", d))
            result.value *= d
    return result


def rank(candidates, onto: Ontology):
    """Candidates with their scores, best first; stable under ties."""
    scored = [(expr, score(expr, onto)) for expr in candidates]
    scored.sort(key=lambda pair: -pair[1].value)
    return scored
