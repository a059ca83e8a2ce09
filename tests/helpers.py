"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import random
from itertools import permutations, product

from swapkit.formula import (CIRC, IMP, NEG, Binary, Formula, Unary,
                             Var, circ, conj, disj, imp, neg)
from swapkit.hilbert import (SCHEMAS, Axiom, ModusPonens, Premise, Proof,
                             axioms_of)
from swapkit.logics import LogicId
from swapkit.multialg import MultiAlg
from swapkit.nmatrix import (Bivaluation, Nmatrix, PartialValuation,
                             clause_failures, extended_closure)


def malg_from_sets(signature, labels, cells) -> MultiAlg:
    """A multialgebra from tables written as {op: {argument tuple: members}}.

    The members become bitmask cells, listed in argument-tuple order; a
    table missing a tuple comes out short, which ``MultiAlg`` rejects.
    """
    tables = {op: [sum(1 << u for u in set(members))
                   for _args, members in sorted(table.items())]
              for op, table in cells.items()}
    return MultiAlg(signature, labels, tables)


def sets_of(malg: MultiAlg) -> dict:
    """The tables of a multialgebra as {op: {argument tuple: members}}."""
    return {op: {args: malg.cell(op, args)
                 for args in product(range(malg.size), repeat=arity)}
            for op, arity in malg.signature.operators()}


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
        name = rng.choice(axioms.names)
        schema = SCHEMAS[name]
        metas = sorted({g.name for g in naive_subformulas(schema)
                        if isinstance(g, Var)})
        binding = {m: random_formula(rng, variables, 2) for m in metas}
        from swapkit.formula import substitute
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
    from swapkit.formula import subformula_closure
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
