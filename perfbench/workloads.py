"""The benchmark's workloads: seeded input generators, the calls into swapkit
that make up one operation, and the checks on their outputs.

Op `i` of a workload depends only on the seed and `i`, so any prefix of the
input stream can be regenerated.  Operations call swapkit through module
attributes at call time (``sk.parse``, not a saved reference), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import random
import resource
from pathlib import Path
from typing import Optional

import swapkit as sk
import swapkit.cli  # noqa: F401  (its import is part of every set-up)
import swapkit.swap

import child
import oracles

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

ALL_LOGICS = ("cple+", "mbc", "mbcciw", "mbcci", "ci", "cple", "lfi1o", "ciore")
DECIDABLE = tuple(name for name in ALL_LOGICS if name != "cple+")
#: Snapshots of each full structure over one atom; over n atoms the full
#: structure has this many to the n-th power.
SNAPSHOTS_PER_ATOM = {"cple+": 8, "mbc": 5, "cple": 2,
                      "mbcciw": 3, "mbcci": 3, "ci": 3, "lfi1o": 3, "ciore": 3}


def op_rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


class Workload:
    name = ""
    #: Ops in one round of the workload's strata.  A run ends on a round
    #: boundary, so every run has the same mix.
    cycle = 1
    #: Layers the ops must cross, and layers predicted to see no calls;
    #: the traced run checks both.
    hit: tuple[str, ...] = ()
    zero: tuple[str, ...] = ()
    #: Set for the traced pass; ops that run in child processes then trace
    #: inside them.
    trace_children = False

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root

    def setup(self) -> None:
        """Warm builds the program would otherwise pay inside the first ops."""

    def op(self, i: int):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, i: int, op, result) -> Optional[str]:
        """Why the result of op `i` is wrong, or None.  Called outside the
        timed region, right after the op, so that no result has to be kept."""
        raise NotImplementedError

    def digest_errors(self) -> list[str]:
        """Mismatches with outputs recorded for this seed, after a run."""
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ----------------------------------------------------------------------
# decide: parse -> decide_logic -> Verdict.to_json on the 7 finite matrices
# ----------------------------------------------------------------------

class Decide(Workload):
    """`swapkit decide` traffic against the fixed characteristic matrices."""

    name = "decide"
    cycle = len(DECIDABLE)
    hit = ("formula.parse", "formula.to_text", "nmatrix.decide",
           "nmatrix.nmatrix_of")
    # the matrices are built in set-up; multialg and swap do no work after
    zero = ("multialg.MultiAlg_init", "multialg.ma_product",
            "multialg.hom_check", "swap.full_swap", "swap.characterize",
            "swap.validates", "swap.random_swap_substructure",
            "swap.is_swap_for", "swap.represent", "swap.kalman_star",
            "swap.product_iso")
    variables = "pqrs"
    #: Distinct subformulas per query, at most; above this a rare query
    #: takes a large share of a run (one depth-6 goal took 0.5 s).
    max_closure = 18
    #: Brute-force cross-checks per run, and the leaf budget of each.
    brute_force_ops = 150
    brute_force_cost = 20000

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        recorded = json.loads(DIGESTS.read_text())["decide"]
        self.digest_ops = recorded["ops"]
        self.recorded_digests = recorded["seeds"]
        self.verdicts: dict[int, dict] = {}
        self.brute_force_left = self.brute_force_ops
        self.oracle_matrices = None

    def setup(self) -> None:
        self.logics = {name: sk.parse_logic(name) for name in DECIDABLE}
        warm = sk.parse("p -> p")
        for logic in self.logics.values():
            sk.decide_logic(logic, [], warm)

    def op(self, i: int):
        rng = op_rng(self.name, self.seed, i)
        logic = DECIDABLE[i % len(DECIDABLE)]
        while True:
            names = self.variables[:rng.randint(2, 4)]
            premises = [random_tree(rng, names, rng.randint(1, 3))
                        for _ in range(rng.randint(0, 3))]
            goal = random_tree(rng, names, rng.randint(3, 6))
            if len(oracles.closure(premises + [goal])) <= self.max_closure:
                break
        return {"logic": logic, "premises": premises, "goal": goal,
                "premise_text": [oracles.full_text(t) for t in premises],
                "goal_text": oracles.full_text(goal)}

    def run(self, op):
        premises = [sk.parse(text) for text in op["premise_text"]]
        goal = sk.parse(op["goal_text"])
        return sk.decide_logic(self.logics[op["logic"]], premises,
                               goal).to_json()

    def matrices(self) -> dict[str, oracles.Matrix]:
        out = {}
        for name, logic in self.logics.items():
            matrix = sk.characteristic_matrix(logic)
            out[name] = oracles.Matrix(matrix.malg.to_json(),
                                       sorted(matrix.designated))
        return out

    def check(self, i, op, verdict):
        if self.oracle_matrices is None:
            self.oracle_matrices = self.matrices()
        matrix = self.oracle_matrices[op["logic"]]
        errors = oracles.countermodel_errors(matrix, op["premises"],
                                             op["goal"], verdict)
        if not errors and self.brute_force_left and oracles.brute_force_cost(
                matrix, op["premises"], op["goal"]) <= self.brute_force_cost:
            self.brute_force_left -= 1
            want = oracles.brute_force(matrix, op["premises"], op["goal"])
            diff = oracles.first_difference(want, verdict)
            if diff:
                errors.append(f"brute force disagrees: {diff}")
        if i < self.digest_ops:
            self.verdicts.setdefault(i, verdict)
        return "; ".join(errors) or None

    def digest_errors(self) -> list[str]:
        """Compare the first ops' verdicts with the digest recorded for this
        seed, running any ops the timed loop did not reach."""
        want = self.recorded_digests.get(str(self.seed))
        if want is None:
            return []
        for i in range(self.digest_ops):
            if i not in self.verdicts:
                try:
                    self.verdicts[i] = self.run(self.op(i))
                except Exception as exc:  # reported; the op counts as failed
                    return [f"digest not checked: op {i} raised {exc!r}"]
        got = oracles.digest([self.verdicts[i] for i in range(self.digest_ops)])
        if got != want:
            return [f"verdict digest of the first {self.digest_ops} ops is "
                    f"{got}, recorded {want}"]
        return []


def random_tree(rng: random.Random, names: str, depth: int, root: bool = True):
    """A formula tree of depth at most `depth`; the root is never a leaf."""
    if depth <= 0 or (not root and rng.random() < 0.25):
        return ("v", rng.choice(names))
    kind = rng.randrange(5)
    if kind < 2:
        return (oracles.UNARY[kind], random_tree(rng, names, depth - 1, False))
    return (oracles.BINARY[kind - 2],
            random_tree(rng, names, depth - 1, False),
            random_tree(rng, names, depth - 1, False))


# ----------------------------------------------------------------------
# characterize: structural membership against the axiomatic side
# ----------------------------------------------------------------------

class Characterize(Workload):
    """Random substructures checked by `is_swap_for` and `characterize`."""

    name = "characterize"
    cycle = 2 * len(ALL_LOGICS)
    hit = ("swap.random_swap_substructure", "swap.is_swap_for",
           "swap.characterize", "swap.validates", "nmatrix.decide",
           "nmatrix.nmatrix_of", "multialg.MultiAlg_init")
    zero = ("formula.parse", "formula.to_text", "swap.full_swap",
            "swap.represent", "swap.kalman_star", "swap.product_iso",
            "multialg.ma_product", "multialg.hom_check")
    #: Sampled universe size.  Above it, two-atom mbC candidates of 12 to 15
    #: snapshots take 0.5 to 2 s each, a large share of one run.
    max_universe = 8

    def setup(self) -> None:
        self.logics = [sk.parse_logic(name) for name in ALL_LOGICS]
        self.algebras = {n: sk.powerset_algebra(n) for n in (1, 2)}
        rng = random.Random(0)
        for logic in self.logics:
            for algebra in self.algebras.values():
                sk.random_swap_substructure(rng, logic, algebra,
                                            max_universe=self.max_universe)

    def op(self, i: int):
        rng = op_rng(self.name, self.seed, i)
        return {"source": i % len(ALL_LOGICS),
                "atoms": 1 + (i // len(ALL_LOGICS)) % 2,
                "draw_seed": rng.getrandbits(64)}

    def run(self, op):
        cand = sk.random_swap_substructure(
            random.Random(op["draw_seed"]), self.logics[op["source"]],
            self.algebras[op["atoms"]], max_universe=self.max_universe)
        return [(sk.is_swap_for(logic, cand), sk.characterize(logic, cand))
                for logic in self.logics]

    def check(self, i, op, pairs):
        errors = [f"{ALL_LOGICS[k]}: is_swap_for={a} characterize={b}"
                  for k, (a, b) in enumerate(pairs) if a != b]
        if not pairs[op["source"]][0]:
            errors.append("a draw from a logic's class is not in it")
        return "; ".join(errors) or None


# ----------------------------------------------------------------------
# structures: products, lifts, representations and their hom checks
# ----------------------------------------------------------------------

class Structures(Workload):
    """Structure building and homomorphism checks over prebuilt structures."""

    name = "structures"
    cycle = 4 * len(ALL_LOGICS)
    hit = ("swap.full_swap", "swap.product_iso", "swap.kalman_star",
           "swap.represent", "swap.random_swap_substructure",
           "swap.is_swap_for", "multialg.MultiAlg_init",
           "multialg.ma_product", "multialg.hom_check")
    zero = ("nmatrix.decide", "nmatrix.nmatrix_of", "formula.parse",
            "formula.to_text", "swap.characterize", "swap.validates")
    kinds = ("product_iso", "kalman_star", "represent", "ma_product")
    #: Largest product carrier an op builds; the 3-atom CPLe+ product
    #: (512 elements, 787k cells) takes seconds, a large share of one run.
    max_carrier = 125
    families = ((1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 1))
    represent_universe = 24
    product_universe = 8

    def setup(self) -> None:
        self.logics = {name: sk.parse_logic(name) for name in ALL_LOGICS}
        self.algebras = {n: sk.powerset_algebra(n) for n in (1, 2, 3)}
        for name, logic in self.logics.items():
            for n, algebra in self.algebras.items():
                size = sk.full_swap(logic, algebra).malg.size
                if size != SNAPSHOTS_PER_ATOM[name] ** n:
                    raise RuntimeError(f"full {name} over {n} atoms has "
                                       f"{size} snapshots")
                swapkit.swap.power_of_a2(logic, n)

    def carrier(self, name: str, atoms) -> int:
        size = 1
        for n in atoms:
            size *= SNAPSHOTS_PER_ATOM[name] ** n
        return size

    def op(self, i: int):
        # kind and logic are the stratum; the shape of the op cycles with the
        # round, and only the random draws and maps depend on the seed
        rng = op_rng(self.name, self.seed, i)
        kind = self.kinds[i % len(self.kinds)]
        logic = ALL_LOGICS[(i // len(self.kinds)) % len(ALL_LOGICS)]
        rounds = i // self.cycle
        op = {"kind": kind, "logic": logic}
        if kind == "product_iso":
            families = [f for f in self.families
                        if self.carrier(logic, f) <= self.max_carrier]
            op["family"] = families[rounds % len(families)]
        elif kind == "kalman_star":
            pairs = [(s, t) for s in (1, 2, 3) for t in (1, 2, 3)
                     if self.carrier(logic, [s]) <= self.max_carrier]
            source, target = pairs[rounds % len(pairs)]
            # a Boolean hom P(source) -> P(target) is a map from target
            # atoms to source atoms
            op["source"], op["target"] = source, target
            op["atom_map"] = [rng.randrange(source) for _ in range(target)]
        elif kind == "represent":
            op["atoms"] = 1 + rounds % 3
            op["draw_seed"] = rng.getrandbits(64)
        else:
            op["atoms"] = [1 + rounds % 2, 1 + rounds // 2 % 2]
            op["draw_seeds"] = [rng.getrandbits(64), rng.getrandbits(64)]
        return op

    def run(self, op):
        logic = self.logics[op["logic"]]
        kind = op["kind"]
        if kind == "product_iso":
            iso, _prod, _projections, _alg = sk.product_iso(
                logic, [self.algebras[n] for n in op["family"]])
            return sk.is_isomorphism(iso)
        if kind == "kalman_star":
            atom_map = op["atom_map"]
            mapping = tuple(
                sum(((x >> a) & 1) << j for j, a in enumerate(atom_map))
                for x in range(1 << op["source"]))
            hom = sk.BaHom(self.algebras[op["source"]],
                           self.algebras[op["target"]], mapping)
            lifted = sk.kalman_star(logic, hom)
            return (len(lifted.mapping) == lifted.source.size
                    and sk.is_homomorphism(lifted))
        if kind == "represent":
            cand = sk.random_swap_substructure(
                random.Random(op["draw_seed"]), logic,
                self.algebras[op["atoms"]], max_universe=self.represent_universe)
            result = sk.represent(logic, cand)
            return (len(set(result.hmap.mapping)) == cand.malg.size
                    and sk.is_homomorphism(result.hmap))
        parts = [sk.random_swap_substructure(
                     random.Random(s), logic, self.algebras[n],
                     max_universe=self.product_universe).malg
                 for n, s in zip(op["atoms"], op["draw_seeds"])]
        product, projections = sk.ma_product(parts)
        return (product.size == parts[0].size * parts[1].size
                and all(sk.is_full_homomorphism(p) for p in projections))

    def check(self, i, op, ok):
        return None if ok else f"{op['kind']} on {op['logic']} failed its check"


# ----------------------------------------------------------------------
# cold_cli: one fresh interpreter per command
# ----------------------------------------------------------------------

#: (argv, golden file or None, expected exit code).  The one slow command,
#: the three-atom representation, appears twice: at a quarter of the ops,
#: the 90th percentile falls well inside its samples instead of near the
#: edge between it and the rest, where a few samples move it.
CLI_COMMANDS = (
    (["decide", "mbc", "-p", "p", "-p", "~p", "q"], "decide_explosion.txt", 1),
    (["tables", "mbc"], "tables_mbc.txt", 0),
    (["represent", "mbc", "--atoms", "2"], "represent_mbc2.txt", 0),
    (["quotient-demo"], "quotient_demo.txt", 0),
    (["kalman"], "kalman.txt", 0),
    (["verify", "duality", "--seed", "0"], "verify_duality.txt", 0),
    (["represent", "mbc", "--atoms", "3"], None, 0),
    (["represent", "mbc", "--atoms", "3"], None, 0),
)


class ColdCli(Workload):
    """`swapkit.cli.run` in a fresh interpreter per op, imports included."""

    name = "cold_cli"
    cycle = len(CLI_COMMANDS)
    hit = ("formula.parse", "formula.to_text", "nmatrix.decide",
           "swap.full_swap", "swap.represent", "swap.is_swap_for",
           "multialg.MultiAlg_init", "multialg.ma_product",
           "multialg.hom_check")
    zero = ("swap.characterize", "swap.random_swap_substructure",
            "swap.kalman_star", "swap.product_iso")
    child_timeout = 120

    def op(self, i: int):
        rounds, pos = divmod(i, self.cycle)
        order = list(range(self.cycle))
        op_rng(self.name, self.seed, rounds).shuffle(order)
        return order[pos]

    def run(self, op):
        argv = CLI_COMMANDS[op][0]
        flags = ["--trace"] if self.trace_children else []
        return child.spawn(self.root, ["cli"] + flags + ["--"] + argv,
                           self.child_timeout)

    def check(self, i, op, got):
        argv, golden, code = CLI_COMMANDS[op]
        if got["exit"] != code:
            return f"{' '.join(argv)}: exit {got['exit']}, expected {code}"
        if golden is not None and got["out"] != self.golden(golden):
            return f"{' '.join(argv)}: output differs from {golden}"
        return None

    def golden(self, name: str) -> str:
        return (self.root / "tests" / "golden" / name).read_text()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (Decide, Characterize, Structures, ColdCli)}


def make(name: str, seed: int, root: Path) -> Workload:
    return WORKLOADS[name](seed, root)

