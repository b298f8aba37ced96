"""Correctness checks of one request's output against the planted truth.

Each check returns a list of problems; an empty list means the request is
correct.  Requests run with ``--format json``, so stdout is one JSON record
per line.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from gen import NOT_FINITE, Planted

EXIT_OK, EXIT_NOT_FINITE = 0, 3
ARTIFACT_KINDS = ["dot", "genmap", "graph", "spec"]
_WITNESS_VERTEX = re.compile(r"p\((\S+)\) is equivalent to a proper subprojection")




def _loop_sets(records: list[dict]) -> set[frozenset[str]]:
    return {frozenset(r["vertices"].split()) for r in records if r.get("record") == "loop"}


def _check_not_finite(g: Planted, code: int, entry: str | None) -> list[str]:
    problems = []
    if code != EXIT_NOT_FINITE:
        problems.append(f"exit {code}, expected {EXIT_NOT_FINITE}")
    if entry not in g.entrances:
        problems.append(f"witness entry vertex {entry!r} is not a planted entrance")
    return problems


def _check_loops_found(g: Planted, records: list[dict]) -> list[str]:
    found = _loop_sets(records)
    if found != set(g.loops):
        return [f"{len(found)} loops reported, {len(g.loops)} planted, or their vertex sets differ"]
    return []


def check_classify(g: Planted, code: int, records: list[dict], outdir: Path) -> list[str]:
    verdict = records[0].get("verdict") if records else None
    if verdict != g.verdict:
        return [f"verdict {verdict!r}, planted {g.verdict!r}"]
    if g.verdict == NOT_FINITE:
        witness = [r for r in records if r.get("record") == "witness"]
        return _check_not_finite(g, code, witness[0]["entry_vertex"] if witness else None)
    problems = [] if code == EXIT_OK else [f"exit {code}, expected {EXIT_OK}"]
    return problems + _check_loops_found(g, records)


def check_loops(g: Planted, code: int, records: list[dict], outdir: Path) -> list[str]:
    if g.verdict == NOT_FINITE:
        errors = [r for r in records if r.get("record") == "error"]
        return _check_not_finite(g, code, errors[0].get("at") if errors else None)
    problems = [] if code == EXIT_OK else [f"exit {code}, expected {EXIT_OK}"]
    counts = [r["count"] for r in records if r.get("record") == "loops"]
    if counts != [len(g.loops)]:
        problems.append(f"loops count {counts}, planted {len(g.loops)}")
    return problems + _check_loops_found(g, records)


def check_embed(g: Planted, code: int, records: list[dict], outdir: Path) -> list[str]:
    if g.verdict == NOT_FINITE:
        errors = [r for r in records if r.get("record") == "error"]
        match = _WITNESS_VERTEX.search(errors[0].get("witness", "")) if errors else None
        return _check_not_finite(g, code, match.group(1) if match else None)
    problems = [] if code == EXIT_OK else [f"exit {code}, expected {EXIT_OK}"]
    replaced = [r["loops_replaced"] for r in records if r.get("record") == "embedding"]
    if replaced != [len(g.loops)]:
        problems.append(f"loops_replaced {replaced}, planted {len(g.loops)}")
    artifacts = [r for r in records if r.get("record") == "artifact"]
    if sorted(r["kind"] for r in artifacts) != ARTIFACT_KINDS:
        problems.append(f"artifact kinds {[r['kind'] for r in artifacts]}")
    missing = [r["path"] for r in artifacts if not Path(r["path"]).is_file()]
    if missing or any(Path(r["path"]).parent != outdir for r in artifacts):
        problems.append(f"artifacts missing or outside the output directory: {missing}")
    return problems


def check_verify(g: Planted, code: int, records: list[dict], outdir: Path) -> list[str]:
    problems = [] if code == EXIT_OK else [f"exit {code}, expected {EXIT_OK}"]
    summary = records[-1] if records else {}
    if summary.get("record") != "summary" or summary.get("failures") != 0 or summary.get("symbolic_proved") is not True:
        problems.append(f"summary {summary}")
    bad = [r for r in records if r.get("record") in ("residual", "spectrum") and r.get("ok") is not True]
    if bad:
        problems.append(f"{len(bad)} residual or spectrum records not ok, first {bad[0]}")
    spectra = sum(1 for r in records if r.get("record") == "spectrum")
    if spectra != len(g.loops):
        problems.append(f"{spectra} spectrum records, planted {len(g.loops)} loops")
    return problems


CHECKS = {"classify": check_classify, "loops": check_loops, "embed": check_embed, "verify": check_verify}


def check(command: str, g: Planted, code: int, stdout: bytes, outdir: Path) -> list[str]:
    records = []
    for line in stdout.decode("utf-8", "replace").splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            return [f"exit {code}, stdout line is not a JSON record: {line[:200]!r}"]
    try:
        return CHECKS[command](g, code, records, outdir)
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"malformed record: {exc!r}"]
