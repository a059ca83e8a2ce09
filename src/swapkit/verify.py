"""Seeded verification suites over the finite structure zoo.

Each suite returns (ok, report lines).  The command-line `verify` runs them
at a light scale; the acceptance tests call the same functions at the scale
the project's claims are stated at.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .boolalg import (A2, BaHom, algebra_atoms, compose_ba,
                      hom_from_atom_map, identity_hom, powerset_algebra)
from .formula import AND, IMP, NEG, OR
from .logics import CHAIN, LogicId
from .multialg import compose_maps, is_homomorphism, is_isomorphism
from .swap import (BINARY_BA, SwapStructure, characterize,
                   closed_subuniverse_restrictions, duality_star, full_swap,
                   is_swap_for, kalman_classic, kalman_star,
                   kleene_law_failures, product_iso, random_swap_substructure,
                   represent, universe)

ALL_LOGICS = tuple(LogicId)


class Report:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.ok = True

    def check(self, condition: bool, text: str) -> bool:
        mark = "ok" if condition else "FAIL"
        self.lines.append(f"[{mark}] {text}")
        if not condition:
            self.ok = False
        return condition

    def note(self, text: str) -> None:
        self.lines.append(f"     {text}")

    def result(self) -> tuple[bool, list[str]]:
        return self.ok, self.lines


def random_hom(rng: random.Random, src, tgt) -> BaHom:
    src_atoms = algebra_atoms(src)
    tgt_atoms = algebra_atoms(tgt)
    assignment = [rng.choice(src_atoms) for _ in tgt_atoms]
    return hom_from_atom_map(src, tgt, assignment, src_atoms, tgt_atoms)


# ----------------------------------------------------------------------
# Characterization: structural membership agrees with axiom validation
# ----------------------------------------------------------------------

def characterization_agreement(seed: int = 0,
                               atom_counts: Sequence[int] = (1, 2),
                               samples_per_logic: int = 200,
                               exhaustive_limit: int = 10,
                               big_universe_samples: int = 40,
                               max_sampled_universe: int = 16) -> tuple[bool, list[str]]:
    """For every logic: is_swap_for == characterize on full structures, on
    closed sub-universe restrictions (exhaustive where the universe allows,
    seeded samples above the limit), and on random submultialgebras."""
    rng = random.Random(seed)
    rep = Report()
    algebras = [powerset_algebra(n) for n in atom_counts]

    fulls = [(src, A, full_swap(src, A)) for src in ALL_LOGICS for A in algebras]
    agree = sum(
        1 for _src, _A, cand in fulls for logic in ALL_LOGICS
        if characterize(logic, cand) == is_swap_for(logic, cand))
    rep.check(agree == len(fulls) * len(ALL_LOGICS),
              f"full structures: {agree}/{len(fulls) * len(ALL_LOGICS)} "
              "logic-membership agreements")

    for A in algebras:
        for src in ALL_LOGICS:
            size = len(universe(src, A))
            if size <= exhaustive_limit:
                candidates: Iterable[SwapStructure] = \
                    closed_subuniverse_restrictions(src, A, exhaustive_limit)
                label = f"all closed restrictions of {src.display}/{A.atoms} atoms"
            else:
                candidates = (random_swap_substructure(rng, src, A,
                                                       max_universe=max_sampled_universe)
                              for _ in range(big_universe_samples))
                label = (f"{big_universe_samples} sampled restrictions of "
                         f"{src.display}/{A.atoms} atoms")
            count = 0
            bad = None
            for cand in candidates:
                count += 1
                for logic in ALL_LOGICS:
                    if characterize(logic, cand) != is_swap_for(logic, cand):
                        bad = (logic, cand)
                        break
                if bad:
                    break
            rep.check(bad is None, f"{label}: {count} candidates agree")

    per_logic = samples_per_logic
    for A in algebras:
        for logic in ALL_LOGICS:
            bad = None
            for _ in range(per_logic):
                src = rng.choice(ALL_LOGICS)
                cand = random_swap_substructure(rng, src, A,
                                                max_universe=max_sampled_universe)
                if characterize(logic, cand) != is_swap_for(logic, cand):
                    bad = cand
                    break
            rep.check(bad is None,
                      f"{per_logic} random submultialgebras vs {logic.display}"
                      f"/{A.atoms} atoms agree")
    return rep.result()


# ----------------------------------------------------------------------
# Class chain
# ----------------------------------------------------------------------

def class_chain_check(seed: int = 0, atom_counts: Sequence[int] = (1, 2),
                      samples: int = 40) -> tuple[bool, list[str]]:
    """Membership in a stronger class implies membership in every weaker one,
    and the full structure of each logic lands exactly where it should."""
    rng = random.Random(seed)
    rep = Report()
    algebras = [powerset_algebra(n) for n in atom_counts]

    for A in algebras:
        for logic in ALL_LOGICS:
            cand = full_swap(logic, A)
            rep.check(is_swap_for(logic, cand),
                      f"full {logic.display}/{A.atoms} atoms is in its own class")

    def chain_holds(cand: SwapStructure) -> bool:
        stats = [is_swap_for(logic, cand) for logic in CHAIN]
        # once membership holds, it must keep holding down the chain
        return all(not a or b for a, b in zip(stats, stats[1:]))

    bad = 0
    total = 0
    for A in algebras:
        for logic in ALL_LOGICS:
            for cand in (full_swap(logic, A),):
                total += 1
                bad += not chain_holds(cand)
            for _ in range(samples):
                cand = random_swap_substructure(rng, rng.choice(ALL_LOGICS), A,
                                                max_universe=16)
                total += 1
                bad += not chain_holds(cand)
                for strong in (LogicId.LFI1O, LogicId.CIORE):
                    if is_swap_for(strong, cand) and not is_swap_for(LogicId.CI, cand):
                        bad += 1
    rep.check(bad == 0, f"inclusion chain holds on {total} candidates")

    for A in algebras:
        for logic in ALL_LOGICS:
            cand = full_swap(logic, A)
            image = {z[0] for z in cand.snapshots}
            closed = (A.bot in image and A.top in image and all(
                BINARY_BA[op](A, x, y) in image
                for op in (AND, OR, IMP) for x in image for y in image))
            rep.check(closed and image == set(A.elements()),
                      f"pi1 image of full {logic.display}/{A.atoms} atoms "
                      "is the whole algebra")
    return rep.result()


# ----------------------------------------------------------------------
# Functor laws
# ----------------------------------------------------------------------

def kalman_suite(seed: int = 0, pairs: int = 100, max_atoms: int = 3,
                 hom_check_atoms: int = 2,
                 family_logics: Sequence[LogicId] = ALL_LOGICS
                 ) -> tuple[bool, list[str]]:
    rng = random.Random(seed)
    rep = Report()

    idfail = 0
    for logic in ALL_LOGICS:
        for n in range(1, max_atoms + 1):
            A = powerset_algebra(n)
            lifted = kalman_star(logic, identity_hom(A))
            idfail += lifted.mapping != tuple(range(lifted.source.size))
    rep.check(idfail == 0, "identity homomorphisms lift to identities")

    comp_bad = 0
    mono_bad = 0
    hom_bad = 0
    for k in range(pairs):
        logic = rng.choice(ALL_LOGICS)
        sizes = [rng.randint(1, max_atoms) for _ in range(3)]
        a, b, c = (powerset_algebra(n) for n in sizes)
        g = random_hom(rng, a, b)
        f = random_hom(rng, b, c)
        lifted_fg = kalman_star(logic, compose_ba(f, g))
        composed = compose_maps(kalman_star(logic, f), kalman_star(logic, g))
        comp_bad += lifted_fg.mapping != composed.mapping
        if len(set(g.mapping)) == len(g.mapping):
            lifted_g = kalman_star(logic, g)
            mono_bad += len(set(lifted_g.mapping)) != len(lifted_g.mapping)
        if max(sizes) <= hom_check_atoms:
            hom_bad += not is_homomorphism(kalman_star(logic, g))
    rep.check(comp_bad == 0, f"composition preserved on {pairs} random pairs")
    rep.check(mono_bad == 0, "injective homomorphisms lift injectively")
    rep.check(hom_bad == 0, "lifted maps are homomorphisms")

    for logic in family_logics:
        for family in ([A2], [A2, A2], [A2, powerset_algebra(2)],
                       [A2, A2, A2]):
            iso, _prod, _projs, _alg = product_iso(logic, family)
            rep.check(is_isomorphism(iso),
                      f"product shuffle for {logic.display} over "
                      f"{[a.atoms for a in family]} atoms is an isomorphism")
    return rep.result()


# ----------------------------------------------------------------------
# Duality and twist identities
# ----------------------------------------------------------------------

def duality_suite(max_atoms: int = 3) -> tuple[bool, list[str]]:
    rep = Report()
    for n in range(1, max_atoms + 1):
        A = powerset_algebra(n)
        K = kalman_classic(A)
        star = duality_star(A)
        pair_universe = set(universe(LogicId.MBCCIW, A))
        rep.check(set(star.values()) == pair_universe
                  and len(set(star.values())) == len(star),
                  f"{n} atoms: star is a bijection onto the pair universe")

        lfi = full_swap(LogicId.LFI1O, A)

        def lfi_cell(op, z, w=None):
            if w is None:
                idx = lfi.malg.cell(op, (lfi.index_of[z],))
            else:
                idx = lfi.malg.cell(op, (lfi.index_of[z], lfi.index_of[w]))
            return lfi.snapshots[idx[0]]

        eq_bad = []
        for z in K.carrier:
            for w in K.carrier:
                if star[K.meet(z, w)] != lfi_cell(OR, star[z], star[w]):
                    eq_bad.append("meet-to-join")
                if star[K.join(z, w)] != lfi_cell(AND, star[z], star[w]):
                    eq_bad.append("join-to-meet")
            if star[K.neg(z)] != lfi_cell(NEG, star[z]):
                eq_bad.append("negation")
        consts = (star[K.top] == (A.bot, A.top)          # *T = F
                  and star[K.center] == (A.top, A.top)   # *f = t
                  and star[K.bottom] == (A.top, A.bot))  # *F = T
        rep.check(not eq_bad and consts,
                  f"{n} atoms: star swaps meet/join, commutes with negation, "
                  "and sends T,f,F to F,t,T")

        rep.check(not kleene_law_failures(K),
                  f"{n} atoms: pair construction satisfies the Kleene laws")

        ciore = full_swap(LogicId.CIORE, A)
        bad = 0
        for z in ciore.snapshots:
            for w in ciore.snapshots:
                for op in (AND, OR, IMP):
                    cell = ciore.malg.cell(
                        op, (ciore.index_of[z], ciore.index_of[w]))
                    u = ciore.snapshots[cell[0]]
                    first = BINARY_BA[op](A, z[0], w[0])
                    want = A.imp(first, A.meet(A.meet(z[0], z[1]),
                                               A.meet(w[0], w[1])))
                    bad += (len(cell) != 1 or u[1] != want)
        rep.check(bad == 0,
                  f"{n} atoms: second coordinates follow the "
                  "consistency-propagation formula")
    return rep.result()


# ----------------------------------------------------------------------
# Representation
# ----------------------------------------------------------------------

def representation_suite(seed: int = 0, full_atoms: int = 3,
                         randoms_per_logic: int = 50,
                         max_sub: int = 24) -> tuple[bool, list[str]]:
    rng = random.Random(seed)
    rep = Report()

    def embeds(logic: LogicId, cand: SwapStructure) -> bool:
        result = represent(logic, cand)
        injective = len(set(result.hmap.mapping)) == cand.malg.size
        return injective and is_homomorphism(result.hmap)

    for logic in ALL_LOGICS:
        for n in range(1, full_atoms + 1):
            cand = full_swap(logic, powerset_algebra(n))
            rep.check(embeds(logic, cand),
                      f"full {logic.display}/{n} atoms embeds into the "
                      f"{n}-fold power ({cand.malg.size} snapshots)")

    for logic in ALL_LOGICS:
        bad = 0
        for _ in range(randoms_per_logic):
            cand = None
            # the fully deterministic logics admit no proper substructure
            # over one atom, so redraws may bump the algebra
            for _try in range(60):
                n = rng.randint(1, full_atoms)
                A = powerset_algebra(n)
                draw = random_swap_substructure(rng, logic, A,
                                                max_universe=max_sub)
                full = full_swap(logic, A)
                if draw.malg.size < full.malg.size or draw.malg != full.malg:
                    cand = draw
                    break
            if cand is None:
                bad += 1
                continue
            bad += not embeds(logic, cand)
        rep.check(bad == 0,
                  f"{randoms_per_logic} random proper {logic.display} "
                  "substructures embed")
    return rep.result()


SUITES = {
    "characterization": lambda seed: characterization_agreement(
        seed, atom_counts=(1,), samples_per_logic=20, big_universe_samples=5),
    "class-chain": lambda seed: class_chain_check(seed, samples=10),
    "kalman": lambda seed: kalman_suite(seed, pairs=25, max_atoms=2),
    "duality": lambda seed: duality_suite(max_atoms=2),
    "representation": lambda seed: representation_suite(
        seed, full_atoms=2, randoms_per_logic=10),
}
