"""Apply named mutants to a copy of the tree and report whether the tests kill them.

Usage: ``python tools/mutants.py [--only NAME,NAME,...] [--control]``

Each mutant is a one-place fault in ``src/afembed``: a file, the exact text
it replaces, the text it puts in its place, the test files (or test ids)
that must kill it, and a one-line reason why it is a fault.  For each
mutant this copies ``src``, ``tests``, ``tools``, ``bench`` and
``pyproject.toml`` into a fresh temporary directory, replaces the text
there (it must occur exactly ``count`` times, so a mutant that no longer
matches the code is reported, not silently skipped), and runs ``pytest
-x`` on the named tests with that copy's ``src`` first on ``PYTHONPATH``
and a fixed hypothesis seed.  A
failing run kills the mutant; a passing one lets it survive; any other
outcome is an error.  A line per mutant gives its name, the outcome and the
seconds it took.  An equivalent mutant, one that no test can kill because
the program's behaviour does not change, is listed with its argument and
not run.  The exit status is 0 when every other mutant is killed.

``--only`` runs the named mutants alone; ``--control`` runs each mutant's
tests on an unchanged copy instead, where they must pass, so that a kill
is the mutant's doing and not the copy's.  This tree is only read.

Mutation analysis: DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11, 1978.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
#: what a mutant's copy holds: the package, its tests, what they read and pytest's settings
COPIED = ("src", "tests", "tools", "bench", "pyproject.toml")


def mutant(name, file, old, new, tests, reason, count=1, equivalent=None) -> SimpleNamespace:
    """A mutant replacing each of the ``count`` occurrences of ``old`` in
    ``file`` by ``new``; ``equivalent`` is the argument that no test can
    kill it, for an equivalent mutant, and None otherwise."""
    return SimpleNamespace(
        name=name, file=file, old=old, new=new, tests=tests, reason=reason, count=count, equivalent=equivalent
    )


MUTANTS = (
    mutant(
        "product-drops-a-power", "src/afembed/terms.py",
        "    power = j + k\n", "    power = j\n",
        ("tests/test_terms.py",),
        "t^j t^k = t^(j+k) on a tail: dropping k changes every product of two tail powers",
    ),
    mutant(
        "contract-at-a-shared-receiver", "src/afembed/terms.py",
        "        if ctx.unique_receiver(v) != alpha[-1]:\n            break\n", "",
        ("tests/test_terms.py",),
        "s(e) s*(e) = p(v) holds only where e is v's one receiver (CK3); elsewhere it is a proper subprojection",
    ),
    mutant(
        "classify-ignores-a-second-receiver", "src/afembed/loops.py",
        "        if start[v + 1] - start[v] > 1:\n", "        if start[v + 1] - start[v] > 2:\n",
        ("tests/test_loops.py",),
        "a cycle vertex with exactly two receivers is an entrance, so the algebra is not finite",
    ),
    mutant(
        "classify-takes-the-largest-entry", "src/afembed/loops.py",
        "            entry = min(", "            entry = max(",
        ("tests/test_loops.py",),
        "the witness's entry edge is the least other receiver of the entry vertex, as the goldens pin",
    ),
    mutant(
        "on-cycle-without-the-self-loop-mark", "src/afembed/loops.py",
        "                if w == v:\n                    on[v] = 1\n", "                if w == v:\n                    pass\n",
        ("tests/test_loops.py",),
        "a vertex with a self-loop lies on a loop even when its component has no other vertex",
    ),
    mutant(
        "cycle-through-in-reverse-id-order", "src/afembed/witness.py",
        "iter(range(", "reversed(range(", count=2,
        tests=("tests/test_loops.py",),
        reason="the witness loop is the first cycle of the DFS that tries out-edges in id order",
    ),
    mutant(
        "witness-check-without-simplicity", "src/afembed/witness.py",
        "    if len({rng[e] for e in ids}) != len(ids):\n", "    if False:\n",
        ("tests/test_loops.py",),
        "a witness loop must be simple: a closed walk through a vertex twice is no simple loop",
    ),
    mutant(
        "adjacency-in-reverse-id-order", "src/afembed/graph.py",
        "    for e, v in enumerate(ends):\n", "    for e, v in reversed(list(enumerate(ends))):\n",
        ("tests/test_loops.py",),
        "the witness search tries out-edges in id order, which _adjacency must place",
    ),
    mutant(
        "ck2-diagonal-is-zero", "src/afembed/verify.py",
        "                rhs = projection(vn[family.src[family.edge_id(e)]]) if e == f else zero\n",
        "                rhs = zero\n",
        ("tests/test_verify.py",),
        "CK2[e,e] is s(e)* s(e) = p(source(e)), an isometry's range projection, not zero",
    ),
    mutant(
        "ck3-only-at-two-receivers", "src/afembed/verify.py",
        "            if start[i] < start[i + 1]:\n", "            if start[i] + 1 < start[i + 1]:\n",
        ("tests/test_verify.py",),
        "CK3 holds at every vertex that receives an edge, a single receiver included",
    ),
    mutant(
        "sorted-adjoint-without-conjugation", "src/afembed/sparse.py",
        "    phase = None if phase is None else tuple(map(complex.conjugate, phase))\n", "",
        ("tests/test_numrep.py",),
        "the adjoint of a phased partial permutation carries the conjugate phases",
    ),
    mutant(
        "entries-sorted-by-target", "src/afembed/sparse.py",
        "    cells = sorted(merged, key=lambda c: (c % dim, c))\n", "    cells = sorted(merged)\n",
        ("tests/test_numrep.py",),
        "a sum's entries are cut into partial permutations by source order, which a target order breaks",
    ),
    mutant(
        "net-bound-doubled", "src/afembed/numrep.py",
        "    return math.pi * math.gcd(", "    return 2 * math.pi * math.gcd(",
        ("tests/test_numrep.py",),
        "the level-d roots of unity are pi gcd(n, N)/N from every point of the circle, not twice that",
    ),
    mutant(
        "hausdorff-without-the-wrap-around-gap", "src/afembed/numrep.py",
        "(angles[0] + 2 * math.pi - angles[-1],)", "(0.0,)",
        ("tests/test_numrep.py",),
        "the circle closes: the gap from the largest angle to the smallest plus 2 pi counts",
    ),
    mutant(
        "unit-defect-is-zero", "src/afembed/numrep.py",
        "    return math.hypot(*(x for v in differences if v for x in (v.real, v.imag)))\n", "    return 0.0\n",
        ("tests/test_numrep.py",),
        "T T* - P[v] is measured, not assumed: a tail phase off the circle must show",
    ),
    mutant(
        "spectrum-without-the-conjugation-gate", "src/afembed/cli.py",
        "            and report_s.conjugation_mismatch <= TOL_SPEC\n", "",
        ("tests/test_cli.py",),
        "a loop image whose spectrum is not T^n's on the shared levels is no unitary conjugate of the tail",
    ),
    mutant(
        "residual-tolerance-100x", "src/afembed/cli.py",
        "        ok = value <= TOL_ALG\n", "        ok = value <= 100 * TOL_ALG\n",
        ("tests/test_cli.py::TestVerify::test_a_residual_just_above_the_tolerance_fails",),
        "the algebraic tolerance is fixed: a residual above it is a failed relation",
    ),
    mutant(
        "namespaces-ignore-claimed-names", "src/afembed/embedding.py",
        "        if ns not in taken:\n", "        if True:\n",
        ("tests/test_embedding.py::TestEmbed::test_namespace_avoids_collision",),
        "a tail namespace that a host id equals or extends by '.' would make a generated id collide",
    ),
    mutant(
        "spec-accepts-a-claimed-namespace", "src/afembed/embedding.py",
        ' or "." in ns or ns in claimed:\n', ' or "." in ns:\n',
        ("tests/test_embedding.py::TestMaterialize::test_namespace_collision_rejected",),
        "a spec whose tail namespace a host id claims names two generators alike",
    ),
    mutant(
        "spec-accepts-a-second-receiver", "src/afembed/embedding.py",
        "                if receivers[w] != [e]:", "                if e not in receivers[w]:",
        ("tests/test_embedding.py::TestLoopAgainstGraph::test_a_loop_with_an_entrance_is_refused",),
        "a loop vertex that receives an edge off the loop is an entrance, which the tail construction cannot replace",
    ),
    mutant(
        "multiplicity-prefix-accepts-zero", "src/afembed/embedding.py",
        "        if any(m < 1 for m in prefix):\n", "        if any(m < 0 for m in prefix):\n",
        ("tests/test_cli.py::TestUsageErrors::test_mult_error_names_its_reason",),
        "a tail level of multiplicity 0 has no edges, so the tail is no Bratteli tail",
    ),
    mutant(
        "stage-ceiling-off-by-one", "src/afembed/embedding.py",
        "    if nv + ne > MAX_STAGE_SIZE:\n", "    if nv + ne >= MAX_STAGE_SIZE:\n",
        ("tests/test_numrep.py::TestStageCeiling::test_stage_counts_match_the_built_stage",),
        "a stage of exactly MAX_STAGE_SIZE vertices and edges is allowed",
    ),
    mutant(
        "stage-count-without-the-repeating-tail", "src/afembed/embedding.py",
        "        ne += sum(mult.prefix[:depth]) + max(depth - len(mult.prefix), 0) * mult.tail\n",
        "        ne += sum(mult.prefix[:depth])\n",
        ("tests/test_cli.py::TestStageCeiling::test_refused_in_a_capped_process",),
        "the levels past the prefix repeat the tail multiplicity, and their edges count toward the ceiling",
    ),
    mutant(
        "json-graph-without-the-string-check", "src/afembed/formats.py",
        "    if not all(isinstance(x, str) for t in triples for x in t):\n", "    if False:\n",
        ("tests/test_graph.py::TestMalformedJson::test_rejected_by_load_graph",),
        "an edge whose id or ends are not strings is malformed input, refused before a graph is built",
    ),
    mutant(
        "product-drops-its-unary-minus", "src/afembed/notation.py",
        "            scalar = -ONE\n", "            scalar = ONE\n",
        ("tests/test_terms.py::TestTermRejections::test_accepted_text",),
        "a '-' that follows a sign negates the product it starts, as in '--s(e)' or 'a + -b'",
    ),
    mutant(
        "text-reader-accepts-a-duplicate-edge", "src/afembed/graph.py",
        "        if name in seen:\n            raise GraphParseError", "        if False:\n            raise GraphParseError",
        ("tests/test_graph.py::TestParsing::test_duplicate_edge",),
        "an edge id names one edge: a second declaration of it is refused at its line",
    ),
    mutant(
        "iso-copies-the-wrong-receiver-sum", "src/afembed/numrep.py",
        "loop.vertices[i % loop.n]), 0.0))", "loop.vertices[i - 1]), 0.0))",
        ("tests/test_numrep.py::TestSharedProducts::test_loop_entries_equal_the_direct_products_on_the_goldens",),
        "iso[i] is a a* = p(u_{i+1}) for a the image of e_i, the instance CK3[u_{i+1}], not CK3[u_i]",
    ),
    mutant(
        "term-operator-drops-its-first-monomial", "src/afembed/numrep.py",
        "for m, c in term.items())\n", "for m, c in list(term.items())[1:])\n",
        ("tests/test_numrep.py::TestOpOfTerm::test_projection_trace_counts_paths",),
        "a term's operator is the sum of every monomial's, the first included",
    ),
)


def outcome(m: SimpleNamespace, mutate: bool = True) -> tuple[str, float]:
    """Apply ``m`` to a fresh copy, unless not ``mutate``, and run its
    tests: ``killed`` (they fail), ``survived`` (they pass) or ``error:
    ...``, and the seconds taken."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="afembed-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name, ignore=ignore)
            else:
                shutil.copy(ROOT / name, copy / name)
        target = copy / m.file
        text = target.read_text(encoding="utf-8")
        if text.count(m.old) != m.count:
            return f"error: the old text occurs {text.count(m.old)} times, not {m.count}", time.perf_counter() - start
        if mutate:
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *m.tests]
        code = subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    status = {0: "survived", 1: "killed"}.get(code, f"error: pytest exit {code}")
    return status, time.perf_counter() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--only", help="comma-separated mutant names to run (default: all)")
    p.add_argument("--control", action="store_true", help="run each mutant's tests on an unchanged copy")
    args = p.parse_args(argv)
    chosen = MUTANTS
    if args.only:
        names = args.only.split(",")
        unknown = set(names) - {m.name for m in MUTANTS}
        if unknown:
            p.error(f"unknown mutants: {', '.join(sorted(unknown))}")
        chosen = [m for m in MUTANTS if m.name in names]
    width = max(len(m.name) for m in chosen)
    missed = 0
    for m in chosen:
        if m.equivalent and not args.control:
            print(f"{m.name:<{width}}  equivalent   {m.equivalent}", flush=True)
            continue
        status, seconds = outcome(m, mutate=not args.control)
        if args.control:
            status = {"survived": "passes", "killed": "fails"}.get(status, status)
        missed += status != ("passes" if args.control else "killed")
        print(f"{m.name:<{width}}  {status:<11} {seconds:6.1f} s  {m.file}", flush=True)
    if args.control:
        print(f"the tests of {len(chosen) - missed} of {len(chosen)} pass unchanged")
    else:
        print(f"{len(chosen) - missed} of {len(chosen)} killed or equivalent")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
