"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import gc
import random
import re
import tracemalloc
from itertools import permutations, product

from swapkit import swap
from swapkit.boolalg import BaHom, BoolAlg, algebra_atoms, hom_from_atom_map
from swapkit.formula import (AND, CIRC, IFF, IMP, NEG, OR, Binary, Formula,
                             ParseError, Unary, Var, circ, conj, disj, iff,
                             imp, is_metavariable, neg, subformula_closure)
from swapkit.hilbert import (SCHEMAS, Axiom, ModusPonens, Premise, Proof,
                             axioms_of)
from swapkit.logics import LogicId
from swapkit.multialg import EquivRel, MultiAlg, table_cells
from swapkit.nmatrix import (Bivaluation, Nmatrix, PartialValuation,
                             clause_failures, extended_closure)


def empty_structure_caches() -> None:
    """Start the ``swap`` structure caches empty, as a new process does: a
    cached structure is returned under any cell cap."""
    for cached in (swap.universe, swap._full_structure, swap.power_of_a2):
        cached.cache_clear()


def traced(call):
    """Run ``call()`` under tracemalloc: its result, the peak of the bytes
    traced while it ran, and the bytes still traced when it returned."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


def table_rows(cells, size: int, arity: int) -> list:
    """A table given as its cells in table order, in the layout ``MultiAlg``
    takes: a binary table cut into rows of ``size`` cells, any other table
    as its one row."""
    cells = list(cells)
    if arity < 2:
        return cells
    return [cells[u * size:(u + 1) * size] for u in range(size)]


def malg_from_sets(signature, labels, cells) -> MultiAlg:
    """A multialgebra from tables written as {op: {argument tuple: members}}.

    The members become bitmask cells, listed in argument-tuple order and cut
    into rows; a table missing a tuple comes out short, which ``MultiAlg``
    rejects.
    """
    tables = {op: table_rows([sum(1 << u for u in set(members))
                              for _args, members in sorted(table.items())],
                             len(labels), signature.arity_of(op))
              for op, table in cells.items()}
    return MultiAlg(signature, labels, tables)


def flat_tables(malg: MultiAlg) -> dict:
    """Each table of a multialgebra as one list of its cells in table
    order, which ``table_rows`` cuts back into the layout ``MultiAlg``
    takes."""
    return {op: list(table_cells(malg.tables[op], arity))
            for op, arity in malg.signature.operators()}


def partition(blocks, size: int) -> EquivRel:
    """The partition of a carrier into the given blocks, labelled b0, b1..."""
    return EquivRel.from_blocks(blocks, size,
                                [f"b{b}" for b in range(len(blocks))])


def sets_of(malg: MultiAlg) -> dict:
    """The tables of a multialgebra as {op: {argument tuple: members}}."""
    return {op: {args: malg.cell(op, args)
                 for args in product(range(malg.size), repeat=arity)}
            for op, arity in malg.signature.operators()}


# ----------------------------------------------------------------------
# Broken lattice operations
# ----------------------------------------------------------------------

def rock_paper_scissors(x: int, y: int) -> int:
    """Commutative and idempotent on 0, 1, 2, but not associative."""
    if x == y:
        return x
    return {(0, 1): 0, (1, 2): 1, (0, 2): 2}[min(x, y), max(x, y)]


def lattice_from_order(below):
    """Meet and join tables of the lattice where below[y] is {x : x <= y}."""
    n = len(below)

    def bound(x, y, le):
        common = [z for z in range(n) if le(z, x) and le(z, y)]
        return next(z for z in common if all(le(w, z) for w in common))

    meet = [[bound(x, y, lambda a, b: a in below[b]) for y in range(n)]
            for x in range(n)]
    join = [[bound(x, y, lambda a, b: b in below[a]) for y in range(n)]
            for x in range(n)]
    return meet, join


#: M3, the diamond: 0 below three incomparable atoms 1, 2, 3, all below 4
DIAMOND = lattice_from_order([{0}, {0, 1}, {0, 2}, {0, 3}, {0, 1, 2, 3, 4}])


# ----------------------------------------------------------------------
# The paper's cell clauses, one set comprehension each
# ----------------------------------------------------------------------

def clause_cell(logic: LogicId, algebra, snapshots, op: str, args) -> set:
    """The maximal cell of a logic's full structure at ``args``, as the set
    of positions in ``snapshots`` (the logic's universe) its clauses allow."""
    L = LogicId
    top = algebra.top
    views = [(z[0], z[1], z[2] if len(z) == 3 else top & ~(z[0] & z[1]))
             for z in snapshots]
    every = range(len(views))
    z1, z2, z3 = views[args[0]]
    if op == NEG:
        if logic in (L.LFI1O, L.CIORE):
            return {u for u in every if views[u][:2] == (z2, z1)}
        if logic in (L.CI, L.CPLE):
            return {u for u in every
                    if views[u][0] == z2 and views[u][1] | z1 == z1}
        return {u for u in every if views[u][0] == z2}
    if op == CIRC:
        if logic in (L.MBCCI, L.CI, L.CPLE, L.LFI1O, L.CIORE):
            return {u for u in every
                    if views[u][:2] == (top & ~(z1 & z2), z1 & z2)}
        return {u for u in every if views[u][0] == z3}
    w1, w2, _ = views[args[1]]
    first = {AND: z1 & w1, OR: z1 | w1, IMP: (top & ~z1) | w1}[op]
    if logic is L.LFI1O:
        second = {AND: z2 | w2, OR: z2 & w2, IMP: z1 & w2}[op]
    elif logic is L.CIORE:
        second = (top & ~first) | (z1 & z2 & w1 & w2)
    else:
        return {u for u in every if views[u][0] == first}
    return {u for u in every if views[u][:2] == (first, second)}


def random_formula(rng: random.Random, variables, depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.25:
        return Var(rng.choice(variables))
    kind = rng.randrange(5)
    if kind == 0:
        return neg(random_formula(rng, variables, depth - 1))
    if kind == 1:
        return circ(random_formula(rng, variables, depth - 1))
    left = random_formula(rng, variables, depth - 1)
    right = random_formula(rng, variables, depth - 1)
    return (conj, disj, imp)[kind - 2](left, right)


def naive_subformulas(f: Formula) -> set[Formula]:
    """Independent recursive recomputation of the subformula set."""
    if isinstance(f, Var):
        return {f}
    if isinstance(f, Unary):
        return {f} | naive_subformulas(f.child)
    return {f} | naive_subformulas(f.left) | naive_subformulas(f.right)


def substitute(schema: Formula, binding: dict[str, Formula]) -> Formula:
    """Apply a metavariable substitution to a schema."""
    image: dict[Formula, Formula] = {}
    for s in subformula_closure([schema]):
        if isinstance(s, Var):
            image[s] = binding[s.name] if is_metavariable(s.name) else s
        elif isinstance(s, Unary):
            image[s] = Unary(s.op, image[s.child])
        else:
            image[s] = Binary(s.op, image[s.left], image[s.right])
    return image[schema]


def find_algebra_isomorphism(a, b):
    """Exhaustive search for a Boolean-algebra isomorphism between two small
    algebras given by the bot/top/meet/join/imp protocol."""
    if a.size != b.size:
        return None
    ra = list(range(a.size))
    for perm in permutations(range(b.size)):
        if perm[a.bot] != b.bot or perm[a.top] != b.top:
            continue
        if all(perm[a.meet(x, y)] == b.meet(perm[x], perm[y])
               and perm[a.join(x, y)] == b.join(perm[x], perm[y])
               and perm[a.imp(x, y)] == b.imp(perm[x], perm[y])
               for x in ra for y in ra):
            return perm
    return None


def all_ba_homs(src: BoolAlg, tgt: BoolAlg) -> list[BaHom]:
    """Every homomorphism src -> tgt: one per map from the target's atoms to
    the source's, in ``itertools.product`` order of those maps."""
    return [hom_from_atom_map(src, tgt, assignment)
            for assignment in product(algebra_atoms(src), repeat=tgt.atoms)]


# ----------------------------------------------------------------------
# Valuations and bivaluations
# ----------------------------------------------------------------------

def random_legal_valuation(rng: random.Random, matrix: Nmatrix,
                           domain) -> PartialValuation:
    """Pick a random value from every cell along a closed, children-first list."""
    values: dict[Formula, int] = {}
    malg = matrix.malg
    for f in domain:
        if isinstance(f, Var):
            values[f] = rng.randrange(matrix.malg.size)
        elif isinstance(f, Unary):
            values[f] = rng.choice(malg.cell(f.op, (values[f.child],)))
        else:
            values[f] = rng.choice(malg.cell(f.op, (values[f.left], values[f.right])))
    return PartialValuation(matrix, tuple(domain), values)


def extend_valuation(pv: PartialValuation,
                     formulas) -> PartialValuation:
    """Deterministic legal extension to a larger closed domain.

    Free choices take the least carrier index; cells are nonempty, so the
    extension always exists (Nmatrices are analytic).
    """
    domain = tuple(subformula_closure(list(pv.domain) + list(formulas)))
    values = dict(pv.values)
    malg = pv.matrix.malg
    for f in domain:
        if f in values:
            continue
        if isinstance(f, Var):
            values[f] = 0
        elif isinstance(f, Unary):
            values[f] = malg.cell(f.op, (values[f.child],))[0]
        else:
            values[f] = malg.cell(f.op, (values[f.left], values[f.right]))[0]
    return PartialValuation(pv.matrix, domain, values)


def random_bivaluation(rng: random.Random, logic: LogicId,
                       base) -> Bivaluation:
    """Backtracking construction of a random clause-satisfying bivaluation."""
    domain = extended_closure(base)
    order = sorted(domain, key=_assignment_key)
    values: dict[Formula, int] = {}

    def dfs(i: int) -> bool:
        if i == len(order):
            return True
        f = order[i]
        options = [0, 1]
        rng.shuffle(options)
        for v in options:
            values[f] = v
            if not clause_failures(logic, values, domain) and dfs(i + 1):
                return True
            del values[f]
        return False

    if not dfs(0):
        raise AssertionError("bivaluation clauses unsatisfiable on this domain")
    return Bivaluation(logic, tuple(base), values)


def _formula_size(f: Formula) -> int:
    if isinstance(f, Var):
        return 1
    if isinstance(f, Unary):
        return 1 + _formula_size(f.child)
    return 1 + _formula_size(f.left) + _formula_size(f.right)


def _assignment_key(f: Formula):
    # negations before consistency claims of the same size keeps the
    # constraint propagation mostly forward
    tie = 1 if isinstance(f, Unary) and f.op == NEG else \
        2 if isinstance(f, Unary) and f.op == CIRC else 0
    return (_formula_size(f), tie)


# ----------------------------------------------------------------------
# Random proofs
# ----------------------------------------------------------------------

def random_proof(rng: random.Random, logic: LogicId, max_steps: int = 12,
                 variables=("p", "q", "r")) -> Proof:
    """A random valid proof: premises, axiom instances, and MP where it fits."""
    axioms = axioms_of(logic)
    n_premises = rng.randrange(3)
    premises = tuple(random_formula(rng, variables, 2) for _ in range(n_premises))
    steps: list = [Premise(i) for i in range(n_premises)]
    formulas: list[Formula] = list(premises)

    def add_axiom() -> None:
        name = rng.choice(axioms)
        schema = SCHEMAS[name]
        metas = sorted({g.name for g in naive_subformulas(schema)
                        if isinstance(g, Var)})
        binding = {m: random_formula(rng, variables, 2) for m in metas}
        inst = substitute(schema, binding)
        steps.append(Axiom(name, inst))
        formulas.append(inst)

    if not steps:
        add_axiom()
    while len(steps) < max_steps:
        applicable = [(i, j) for j, g in enumerate(formulas)
                      if isinstance(g, Binary) and g.op == IMP
                      for i, h in enumerate(formulas) if h == g.left]
        if applicable and rng.random() < 0.6:
            i, j = rng.choice(applicable)
            steps.append(ModusPonens(i, j))
            formulas.append(formulas[j].right)
        else:
            add_axiom()
    return Proof(premises, tuple(steps))


# ----------------------------------------------------------------------
# Brute-force consequence oracle
# ----------------------------------------------------------------------

def brute_force_least_countermodel(matrix: Nmatrix, premises, goal,
                                   limit: int = 500_000):
    """The least countermodel in children-first closure order, or None.

    Enumerates every legal valuation on the closure, no pruning at all,
    trying each cell's values in increasing order, so the first valuation
    that designates the premises and not the goal is the least one.
    """
    closure = subformula_closure(list(premises) + [goal])
    malg = matrix.malg
    D = matrix.designated
    prem = set(premises)
    vals: dict[Formula, int] = {}
    paths = 0

    def rec(i):
        nonlocal paths
        if i == len(closure):
            return True
        f = closure[i]
        if isinstance(f, Var):
            cell = range(matrix.malg.size)
        elif isinstance(f, Unary):
            cell = malg.cell(f.op, (vals[f.child],))
        else:
            cell = malg.cell(f.op, (vals[f.left], vals[f.right]))
        for u in sorted(cell):
            paths += 1
            if paths > limit:
                raise RuntimeError("oracle blew its enumeration limit")
            if f in prem and u not in D:
                continue
            if f == goal and u in D:
                continue
            vals[f] = u
            if rec(i + 1):
                return True
        vals.pop(f, None)
        return False

    return dict(vals) if rec(0) else None


# ----------------------------------------------------------------------
# Brute-force epimorphism oracle
# ----------------------------------------------------------------------

def epi_by_separation(f) -> bool:
    """Definition-level epimorphism test against the all-cells-full two-element
    target: every function into it is a homomorphism, so f is epi exactly when
    no two distinct functions agree after composing with f."""
    from swapkit.multialg import is_homomorphism
    if not is_homomorphism(f):
        return False
    n = f.target.size
    for g_bits, h_bits in product(range(1 << n), repeat=2):
        if g_bits == h_bits:
            continue
        g = [(g_bits >> x) & 1 for x in range(n)]
        h = [(h_bits >> x) & 1 for x in range(n)]
        if all(g[f.mapping[x]] == h[f.mapping[x]] for x in range(f.source.size)):
            return False
    return True


# ----------------------------------------------------------------------
# Reference parser
# ----------------------------------------------------------------------

_REF_TOKEN_RE = re.compile(r"\s*(->|<->|[~@&|()]|[A-Za-z][A-Za-z0-9_]*)")


def _reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        tok = m.group(1)
        kind = "ident" if tok[0].isalpha() else tok
        tokens.append((kind, tok, m.start(1)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _ReferenceParser:
    """Recursive descent over the grammar

        formula := disj (('->' | '<->') formula)?      right-associative
        disj    := conj ('|' conj)*                    left-associative
        conj    := unary ('&' unary)*                  left-associative
        unary   := ('~' | '@') unary | atom
        atom    := ident | '(' formula ')'

    the oracle for ``swapkit.formula.parse``: same formulas, same errors.
    """

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse_formula(self) -> Formula:
        left = self.parse_disj()
        kind, _, _ = self.peek()
        if kind == IMP:
            self.next()
            return imp(left, self.parse_formula())
        if kind == IFF:
            self.next()
            return iff(left, self.parse_formula())
        return left

    def parse_disj(self) -> Formula:
        f = self.parse_conj()
        while self.peek()[0] == OR:
            self.next()
            f = disj(f, self.parse_conj())
        return f

    def parse_conj(self) -> Formula:
        f = self.parse_unary()
        while self.peek()[0] == AND:
            self.next()
            f = conj(f, self.parse_unary())
        return f

    def parse_unary(self) -> Formula:
        kind, _, pos = self.peek()
        if kind == NEG:
            self.next()
            return neg(self.parse_unary())
        if kind == CIRC:
            self.next()
            return circ(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        kind, text, pos = self.next()
        if kind == "ident":
            if not re.fullmatch(r"[a-z][a-z0-9_]*|[A-Z][A-Z0-9_]*", text):
                raise ParseError(f"bad identifier {text!r}", pos)
            return Var(text)
        if kind == "(":
            f = self.parse_formula()
            kind2, _, pos2 = self.next()
            if kind2 != ")":
                raise ParseError("expected ')'", pos2)
            return f
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def reference_parse(text: str) -> Formula:
    parser = _ReferenceParser(_reference_tokenize(text))
    f = parser.parse_formula()
    kind, tok, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {tok!r}", pos)
    return f
