"""Tests of the benchmark's own oracles and input generators.

    python3 -m pytest -q perfbench/test_oracles.py

None of these import eqctt: the oracles must stand apart from the program.
"""

from __future__ import annotations

import itertools
import random
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import kernel_gen as kg  # noqa: E402
import oracles  # noqa: E402


def test_chains_small_cases():
    assert oracles.boolean_chains(1, 2) == [2, 1, 0]
    assert oracles.boolean_chains(2, 3) == [4, 5, 2, 0]
    # strict pairs x < y in {0,1}^n: 3^n - 2^n; maximal chains: n!
    for n in range(1, 5):
        counts = oracles.boolean_chains(n, n)
        assert counts[1] == 3 ** n - 2 ** n
        assert counts[n] == [1, 1, 2, 6, 24][n]


def test_level_size_closed_forms_against_enumeration():
    for n in range(1, 4):
        for d in range(4):
            tables = list(itertools.product(range(d + 2), repeat=n))
            assert oracles.representable_sizes(n, d)[d] == len(tables)
            orbits = {tuple(sorted(t)) for t in tables}
            assert oracles.symmetric_quotient_sizes(n, d)[d] == len(orbits)
            monotone = [f for f in itertools.product(range(n + 1), repeat=d + 1)
                        if list(f) == sorted(f)]
            assert oracles.simplex_sizes(n, d)[d] == len(monotone)
            injective = [f for f in monotone if len(set(f)) == len(f)]
            assert oracles.simplex_nondegenerate(n, d)[d] == len(injective)


def test_subobjects_and_boxes():
    # the point has two sieves; the interval has five: empty, either
    # vertex, both vertices, everything
    assert oracles.count_subobjects(0, 2) == 2
    assert oracles.count_subobjects(1, 2) == 5
    assert oracles.count_subobjects(1, 3) == 5
    assert oracles.count_box_specs(1, 1, 2) == 2 * 2 + 5 * 3
    assert oracles.count_identity_squares(1, 1, 1, 2) == 2 * 2 * 3 + 5 * 3 * 4


def test_guard_satisfiability():
    eq = lambda l, r: ("eq", l, r)  # noqa: E731
    assert not kg.guard_satisfiable(("and", eq("m", "0"), eq("m", "1")), {})
    assert kg.guard_satisfiable(eq("m", "n"), {})
    assert not kg.guard_satisfiable(eq("m", "0"), {"m": "1"})
    assert kg.guard_satisfiable(("or", eq("m", "0"), ("ff",)), {"m": "0"})
    assert kg.guard_text(("and", eq("m", "0"), ("tt",))) == "(m = 0 /\\ tt)"


def test_sigma_equivalence_is_the_multiset_of_pairs_for_a_constant_line():
    rng = random.Random(0)
    for _ in range(300):
        k = rng.randrange(1, 5)
        c1, c2 = (kg.StuckComp((), tuple(rng.choice("01") for _ in range(k)),
                               tuple(rng.choice("01") for _ in range(k)))
                  for _ in range(2))
        if c1.reduces() or c2.reduces():
            continue
        pairs = sorted(zip(c1.src, c1.tgt)) == sorted(zip(c2.src, c2.tgt))
        assert kg.sigma_equivalent(c1, c2) == pairs


def test_sigma_equivalence_tracks_the_line():
    c = kg.StuckComp((0, 1), ("0", "1", "0"), ("1", "1", "1"))
    assert kg.sigma_equivalent(c, c.permuted((2, 0, 1)))
    # the same tuples, but the line now reads its directions the other way
    swapped = kg.StuckComp((1, 0), c.src, c.tgt)
    assert not kg.sigma_equivalent(c, swapped)
    cap = kg.StuckComp((), ("0", "1"), ("0", "1"))
    assert kg.sigma_equivalent(cap, kg.StuckComp((), ("1", "1"), ("1", "1")))
    assert not kg.sigma_equivalent(cap, kg.StuckComp((), ("0", "1"), ("1", "1")))


def _decl_names(text: str) -> list[str]:
    return re.findall(r"^(?:def|postulate) (\w+)", text, re.M)


def test_generated_modules_are_seeded_and_match_their_expectations():
    a = kg.kernel_check_modules(7)
    assert [m.text for m in a] == [m.text for m in kg.kernel_check_modules(7)]
    assert [m.text for m in a] != [m.text for m in kg.kernel_check_modules(8)]
    for m in a + [kg.SWAP_MODULE]:
        assert _decl_names(m.text) == [e.name for e in m.expect]
    codes = {e.code for m in a for e in m.expect if e.status == "error"}
    assert codes == set(kg.ERROR_KINDS)
    sigma = kg.kernel_sigma_modules(3)
    assert len(sigma) == 22
    statuses = [e.status for m in sigma for e in m.expect[3:]]
    assert statuses.count("ok") == statuses.count("error") == len(sigma)
    for m in sigma:
        assert _decl_names(m.text) == [e.name for e in m.expect]
