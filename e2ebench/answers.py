"""Answer checker and reference answers.

The checker compares answer fields, never report bytes, so a new report
block or a new serialization of a field it does not read is not a failure.

References never come from the code under test.  They are fixed values
for the seed-independent jobs (extremal records, including the Sperner
anchor C(8,4) = 70, and the cyclic-interval framework demo) and, for the
seeded jobs, ``refs/seed-<n>.json``: answers frozen from library calls for
the input seeds in ``REF_SEEDS``.  Any ``--seed`` builds the inputs of one of
those seeds (``input_seed``), so every run is checked; a job without a
reference stops the run.

Re-freeze the shipped files only when the inputs change, with
``python3 e2ebench/answers.py`` from the repository root, on a commit whose
answers are trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")
# Input seeds with shipped references.
REF_SEEDS = (0, 1, 2, 3)

OK, FAILED, WRONG = "ok", "failed", "wrong"

FIXED = {
    "extremal-d1-n8": {"max_size": 70, "optimal": True},
    "extremal-d13-n2": {"max_size": 640, "optimal": True},
    "extremal-clique3-n2": {"max_size": 256, "optimal": True},
    "extremal-d12-n2": {"max_size": 40, "optimal": True},
    "extremal-clique2-n2": {"max_size": 8, "optimal": True},
    # n = 9: 9 * 2^9 labeled cells of 9 members; each subset lies in 81.
    "verify-framework-n9": {
        "omega_size": 512, "num_cells": 4608, "K": 9, "L": 81,
        "equal_cell_size": True, "equal_membership": True,
        "pattern_ok": True, "accounting_ok": True,
    },
}

_FRAMEWORK_FIELDS = tuple(FIXED["verify-framework-n9"])
_STEP_FIELDS = ("n", "m", "row", "blocks", "background", "density_before",
                "density_after", "guaranteed")
_RATIONAL_FIELDS = {"density_before", "density_after", "gap", "final_density",
                    "max_density", "average_density", "family_density",
                    "deviation"}


def _q(text) -> str:
    q = Fraction(text)
    return f"{q.numerator}/{q.denominator}"


def _pick(obj: dict, keys) -> dict:
    return {k: _q(obj[k]) if k in _RATIONAL_FIELDS else obj[k] for k in keys}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def answer(kind: str, report: dict) -> dict:
    """The answer fields of one report, rationals in canonical form."""
    if kind == "extremal":
        return _pick(report, ("max_size", "optimal"))
    if kind == "verify-framework":
        return _pick(report, _FRAMEWORK_FIELDS)
    if kind == "scan":
        out = _pick(report, ("max_density", "average_density",
                             "family_density", "family_size"))
        out["cell"] = {"window": report["cell"]["window"],
                       "background": report["cell"]["background"]}
        return out
    if kind == "phidist":
        return {"tables": [
            {"masses": [_q(m) for m in t["masses"]],
             **_pick(t, ("deviation", "within_bound"))}
            for t in report["tables"]]}
    if kind == "quasirandomize":
        pair = report["pattern_pair"]
        return {
            "status": report["status"],
            "final_density": _q(report["final_density"]),
            "steps": [
                {**_pick(s, _STEP_FIELDS),
                 "report": _pick(s["report"], ("form", "y", "gap", "scope"))}
                for s in report["steps"]],
            "pattern_pair": None if pair is None else {
                "A": pair["A"], "B": pair["B"], "witness": pair["witness"]},
        }
    if kind == "demo-interval":
        return _pick(report, ("average_density", "family_size"))
    if kind == "reduce":
        text = report.get("family_text", report.get("bundles_text"))
        return {"count": report["count"], "text_sha256": _sha(text)}
    raise ValueError(f"no answer fields for job kind {kind!r}")


def check(job, exit_code: int, stdout_text: str, reference: dict) -> str:
    """OK, FAILED (nonzero exit or timeout) or WRONG (answer differs)."""
    if exit_code != 0:
        return FAILED
    try:
        got = answer(job.kind, json.loads(stdout_text)["report"])
    except (ValueError, KeyError, TypeError):
        return WRONG
    return OK if got == reference else WRONG


# ---------------------------------------------------------------------------
# references from the library


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def compute_reference(job) -> dict:
    """The job's answer fields, from library calls in this process."""
    from setdifflab import covering, fpforms, increment, reductions, universe

    prm = job.params
    fam = universe.family_from_text(_read(prm["family"])) if "family" in prm else None
    if job.kind == "scan":
        pf = universe.family_from_text(_read(prm["pattern"]))
        cell, best, average = covering.scan_for_dense_cell(fam, prm["m"], pf)
        return answer("scan", {
            "max_density": best, "average_density": average,
            "family_density": fam.density(), "family_size": len(fam),
            "cell": {"window": list(cell.window.elements),
                     "background": cell.background.to_hex()}})
    if job.kind == "phidist":
        tables = []
        for form in fpforms.forms_from_text(_read(prm["forms"])):
            subject = form.induced(prm["degree"]) if prm["degree"] > 1 else form
            t = fpforms.distribution(subject)
            tables.append({"masses": t.masses, "deviation": t.deviation,
                           "within_bound": t.within_bound})
        return answer("phidist", {"tables": tables})
    if job.kind == "quasirandomize":
        budget = prm["p"] ** fam.shape.n if prm["pool"] == "exhaustive" else 0
        _, trace, pair = increment.quasirandomize(
            fam, prm["p"], Fraction(prm["eta"]), search_budget=budget)
        report = trace.to_json()
        report["pattern_pair"] = None if pair is None else {
            "A": pair[0].to_hex(), "B": pair[1].to_hex(),
            "witness": pair[2].to_json()}
        return answer("quasirandomize", report)
    if job.kind == "demo-interval":
        return answer("demo-interval", {
            "average_density": covering.demo_average_density(prm["n"], fam.members),
            "family_size": len(fam)})
    if job.kind == "reduce":
        mode = prm["mode"]
        if mode == "beta":
            bundles = [reductions.beta_bijection(m) for m in fam.masks()]
            return answer("reduce", {"count": len(bundles),
                                     "bundles_text": reductions.bundles_to_text(bundles)})
        if mode == "multiplex":
            out = reductions.multiplex(fam, prm["s"])
        elif mode == "embed":
            out = universe.Family.from_masks(
                universe.embed_lower_degree(m, prm["degrees"]) for m in fam.masks())
        elif mode == "clique":
            bundles = reductions.bundles_from_text(_read(prm["bundles"]))
            out = reductions.clique_square_correspondence(
                [b.parts[0] for b in bundles], bundles[0].n)
        else:
            raise ValueError(f"no reference for reduce mode {mode!r}")
        return answer("reduce", {"count": len(out),
                                 "family_text": universe.family_to_text(out)})
    raise ValueError(f"no reference for job kind {job.kind!r}")


def input_seed(seed: int) -> int:
    """The shipped input seed that a run's ``--seed`` builds its inputs from."""
    return REF_SEEDS[seed % len(REF_SEEDS)]


def shipped(seed: int) -> dict:
    path = os.path.join(REFS_DIR, f"seed-{seed}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def references(jobs, seed: int) -> dict:
    """Reference answer of every job for input seed ``seed``: fixed or shipped."""
    frozen = shipped(seed)
    refs = {}
    for job in jobs:
        for source in (FIXED, frozen):
            if job.id in source:
                refs[job.id] = source[job.id]
                break
        else:
            raise LookupError(f"no shipped reference for job {job.id!r} at input "
                              f"seed {seed}; see {os.path.relpath(REFS_DIR)}")
    return refs


def write_shipped(seeds) -> None:
    """Freeze the library's answers for ``seeds`` into ``refs/``."""
    import tempfile

    import workloads

    os.makedirs(REFS_DIR, exist_ok=True)
    for seed in seeds:
        refs = {}
        with tempfile.TemporaryDirectory(dir=".") as tmp:
            for name in workloads.WORKLOADS:
                for job in workloads.build(name, seed, tmp):
                    if job.id not in FIXED:
                        refs[job.id] = compute_reference(job)
        with open(os.path.join(REFS_DIR, f"seed-{seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    write_shipped(REF_SEEDS)
