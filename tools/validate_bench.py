#!/usr/bin/env python3
"""Schema-check recorded bench rows (BENCH_e17.json, BENCH_e23.json).

A pure-stdlib mirror of the row shapes bench_e17_mc_throughput and
bench_e23_fuzz_throughput emit (and the hand-curated pre/post baseline
rows recorded at the repo root), run as a tier-1 ctest so a hand-edited
row fails CI before any perf comparison trusts it. Checks, per row:

  * shape: a flat JSON object of scalars (nested objects allowed only for
    the embedded metrics-registry snapshot under "registry");
  * enum fields hold known values (verdict, reduction, model, mode);
  * counts are non-negative integers and rates/sizes non-negative numbers;
  * reduction-level consistency within a configuration group (same model /
    mode / crash / pairs / engine): "por" and spill rows store exactly the
    unreduced state count (POR prunes interleavings, never states; a spill
    changes where the frontier lives, never what it holds), symmetry rows
    store at least 3x fewer (the recorded acceptance floor), and
    orbit_reduction_factor matches full_states / stored_states;
  * spill rows actually spilled (spilled_bytes > 0);
  * every verdict in the file is "ok" — these are recorded green runs;
  * fuzz-throughput (e23) rows come in alternated cold/snapshot pairs per
    section, the recorded speedup_factor matches the pair's runs_per_sec
    ratio, every speedup honors its min_speedup_factor floor, at least one
    snapshot regime reaches the 10x acceptance floor, and the campaign
    pair is bit-identical (same coverage_bits and corpus_size — a speedup
    must never be bought with a different result).

Exit 0 iff every row validates. Usage:

  tools/validate_bench.py [BENCH_e17.json ...]   (default: repo BENCH_e17.json)
"""
import json
import pathlib
import sys

VERDICTS = {"ok", "violation", "budget_exceeded"}
REDUCTIONS = {"none", "symmetry", "por", "symmetry_por"}
MODELS = {"reduction", "gkk-fork", "gkk-lockout", "ablation"}
MODES = {"exclusive", "arbitrary", "-"}

#: Non-negative integer count fields.
COUNT_FIELDS = ("states", "transitions", "depth", "threads", "pairs",
                "seen_bytes", "graph_bytes", "frontier_peak_bytes",
                "spilled_bytes", "runs", "steps", "variants", "generations",
                "gen_size", "coverage_bits", "corpus_size")
#: Non-negative numeric measurement fields.
RATE_FIELDS = ("states_per_sec", "best_states_per_sec", "seconds",
               "bytes_per_state", "orbit_reduction_factor",
               "min_orbit_reduction_factor", "runs_per_sec",
               "speedup_factor", "min_speedup_factor")
SYMMETRY_FLOOR = 3.0
E23_SECTIONS = {"runway", "crash_suffix", "campaign"}
E23_EXECUTIONS = {"cold", "snapshot"}
E23_ACCEPTANCE_FLOOR = 10.0
#: Namespaces a row's embedded metrics-registry snapshot may draw from —
#: the prefixes registered by obs::Registry users across the tree
#: (fuzz.* campaigns, mc.* exploration, serve.* daemon admission/cache/
#: session counters, sim.* event loop).
REGISTRY_PREFIXES = ("fuzz.", "mc.", "serve.", "sim.")
#: The exact member set of a histogram entry in a registry snapshot.
HISTOGRAM_FIELDS = {"count", "sum", "mean", "p50", "p99"}


def fail(errors, path, i, why):
    errors.append(f"{path}: row {i}: {why}")


def check_registry(errors, path, i, registry):
    """An embedded obs-registry snapshot: known-namespace names mapping to
    counter/gauge numbers or {count,sum,mean,p50,p99} histogram objects."""
    if not isinstance(registry, dict):
        fail(errors, path, i, "registry must be a JSON object")
        return
    for name, value in registry.items():
        if not name.startswith(REGISTRY_PREFIXES):
            fail(errors, path, i,
                 f"registry key {name!r} outside the known namespaces "
                 f"{'/'.join(p.rstrip('.') for p in REGISTRY_PREFIXES)}")
        if isinstance(value, dict):
            if set(value) != HISTOGRAM_FIELDS:
                fail(errors, path, i,
                     f"registry histogram {name!r} must have exactly "
                     f"{sorted(HISTOGRAM_FIELDS)}, got {sorted(value)}")
            elif any(not isinstance(v, (int, float)) or isinstance(v, bool)
                     or v < 0 for v in value.values()):
                fail(errors, path, i,
                     f"registry histogram {name!r} holds a negative or "
                     f"non-numeric field")
        elif (not isinstance(value, (int, float)) or isinstance(value, bool)
              or value < 0):
            fail(errors, path, i,
                 f"registry value {name!r} must be a non-negative number "
                 f"or a histogram object, got {value!r}")


def check_row(errors, path, i, row):
    if not isinstance(row, dict):
        fail(errors, path, i, "row is not an object")
        return
    for key, value in row.items():
        if isinstance(value, (dict, list)) and key != "registry":
            fail(errors, path, i, f"nested value in scalar field {key!r}")
    if "registry" in row:
        check_registry(errors, path, i, row["registry"])
    for field in COUNT_FIELDS:
        if field in row and not (isinstance(row[field], int)
                                 and not isinstance(row[field], bool)
                                 and row[field] >= 0):
            fail(errors, path, i, f"{field} must be a non-negative integer, "
                                  f"got {row[field]!r}")
    for field in RATE_FIELDS:
        if field in row and not (isinstance(row[field], (int, float))
                                 and not isinstance(row[field], bool)
                                 and row[field] >= 0):
            fail(errors, path, i, f"{field} must be a non-negative number, "
                                  f"got {row[field]!r}")
    if "verdict" in row and row["verdict"] not in VERDICTS:
        fail(errors, path, i, f"unknown verdict {row['verdict']!r}")
    if "verdict" in row and row["verdict"] != "ok":
        fail(errors, path, i, "recorded baseline rows must be green runs")
    if "reduction" in row and row["reduction"] not in REDUCTIONS:
        fail(errors, path, i, f"unknown reduction {row['reduction']!r}")
    if "model" in row and row["model"] not in MODELS:
        fail(errors, path, i, f"unknown model {row['model']!r}")
    if "mode" in row and row["mode"] not in MODES:
        fail(errors, path, i, f"unknown mode {row['mode']!r}")
    if row.get("spill") and row.get("spilled_bytes", 0) <= 0:
        fail(errors, path, i, "a spill row must report spilled_bytes > 0")
    if row.get("reduction") in ("symmetry", "symmetry_por"):
        factor = row.get("orbit_reduction_factor")
        if factor is None:
            fail(errors, path, i, "symmetry rows must record "
                                  "orbit_reduction_factor")
        # The >= 3x acceptance floor binds for symmetry ALONE;
        # symmetry_por restricts the group to the per-pair flips.
        elif (row["reduction"] == "symmetry" and row.get("pairs", 0) >= 2
              and factor < SYMMETRY_FLOOR):
            fail(errors, path, i, f"orbit_reduction_factor {factor} below "
                                  f"the {SYMMETRY_FLOOR}x acceptance floor")


def is_e23(row):
    return isinstance(row, dict) and row.get("bench") == "e23_fuzz_throughput"


def check_e23_row(errors, path, i, row):
    if row.get("section") not in E23_SECTIONS:
        fail(errors, path, i, f"unknown e23 section {row.get('section')!r}")
    if row.get("execution") not in E23_EXECUTIONS:
        fail(errors, path, i,
             f"unknown e23 execution {row.get('execution')!r}")
    for field in ("runs", "seconds", "runs_per_sec"):
        if field not in row:
            fail(errors, path, i, f"e23 row missing {field!r}")
    if row.get("execution") == "snapshot" and "speedup_factor" not in row:
        fail(errors, path, i, "e23 snapshot row missing speedup_factor")
    if row.get("execution") == "cold" and "speedup_factor" in row:
        fail(errors, path, i, "e23 cold row must not carry speedup_factor")
    floor = row.get("min_speedup_factor")
    if floor is not None and row.get("speedup_factor", 0) < floor:
        fail(errors, path, i,
             f"speedup_factor {row.get('speedup_factor')} below the "
             f"recorded {floor}x floor")


def e23_group_key(row):
    return (row.get("section"), row.get("seed"), row.get("steps"),
            row.get("variants"), row.get("generations"),
            row.get("gen_size"))


def check_e23_groups(errors, path, rows):
    """Alternated cold/snapshot pair consistency for fuzz-throughput rows."""
    e23 = [(i, row) for i, row in enumerate(rows) if is_e23(row)]
    if not e23:
        return
    groups = {}
    for i, row in e23:
        groups.setdefault(e23_group_key(row), []).append((i, row))
    best = 0.0
    for key, members in groups.items():
        by_execution = {row.get("execution"): (i, row) for i, row in members}
        if len(members) != 2 or set(by_execution) != E23_EXECUTIONS:
            fail(errors, path, members[0][0],
                 f"e23 group {key} must be exactly one cold + one snapshot "
                 f"row")
            continue
        cold = by_execution["cold"][1]
        i, snap = by_execution["snapshot"]
        factor = snap.get("speedup_factor")
        cold_rps = cold.get("runs_per_sec")
        snap_rps = snap.get("runs_per_sec")
        if factor is None or not cold_rps or snap_rps is None:
            continue  # missing fields already reported per row
        want = snap_rps / cold_rps
        if abs(factor - want) > 0.01 * want:
            fail(errors, path, i,
                 f"speedup_factor {factor} != runs_per_sec ratio {want:.4f}")
        best = max(best, factor)
        if snap.get("section") == "campaign":
            for field in ("coverage_bits", "corpus_size", "runs"):
                if cold.get(field) != snap.get(field):
                    fail(errors, path, i,
                         f"campaign pair differs in {field}: "
                         f"{cold.get(field)} vs {snap.get(field)} (snapshot "
                         f"mode must be bit-identical to cold)")
    if best < E23_ACCEPTANCE_FLOOR:
        fail(errors, path, e23[0][0],
             f"no snapshot regime reaches the {E23_ACCEPTANCE_FLOOR}x "
             f"acceptance floor (best {best})")


def group_key(row):
    return (row.get("model"), row.get("mode"), row.get("crash"),
            row.get("pairs"), row.get("engine"), row.get("threads"))


def check_groups(errors, path, rows):
    """Cross-row consistency inside one configuration group."""
    groups = {}
    for i, row in enumerate(rows):
        if isinstance(row, dict) and "reduction" in row and "states" in row:
            groups.setdefault(group_key(row), []).append((i, row))
    for key, members in groups.items():
        full = [(i, r) for i, r in members
                if r["reduction"] == "none" and not r.get("spill")]
        if not full:
            continue
        full_states = full[0][1]["states"]
        for i, row in members:
            states = row["states"]
            if row["reduction"] in ("none", "por") and states != full_states:
                fail(errors, path, i,
                     f"{row['reduction']}/spill row stores {states} states, "
                     f"expected the unreduced {full_states}")
            if row["reduction"] in ("symmetry", "symmetry_por"):
                if (row["reduction"] == "symmetry"
                        and states * SYMMETRY_FLOOR > full_states):
                    fail(errors, path, i,
                         f"symmetry stores {states} of {full_states} states "
                         f"(< {SYMMETRY_FLOOR}x)")
                factor = row.get("orbit_reduction_factor")
                if factor is not None and states > 0:
                    want = full_states / states
                    if abs(factor - want) > 0.01 * want:
                        fail(errors, path, i,
                             f"orbit_reduction_factor {factor} != "
                             f"{full_states}/{states}")


def validate_file(errors, path):
    try:
        rows = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        errors.append(f"{path}: unreadable: {error}")
        return
    if not isinstance(rows, list) or not rows:
        errors.append(f"{path}: must be a non-empty JSON array of rows")
        return
    for i, row in enumerate(rows):
        check_row(errors, path, i, row)
        if is_e23(row):
            check_e23_row(errors, path, i, row)
    check_groups(errors, path, rows)
    check_e23_groups(errors, path, rows)


def main(argv):
    repo = pathlib.Path(__file__).resolve().parent.parent
    paths = ([pathlib.Path(a) for a in argv[1:]]
             or [repo / "BENCH_e17.json"])
    errors = []
    for path in paths:
        validate_file(errors, path)
    for error in errors:
        print(f"FAIL {error}")
    checked = ", ".join(str(p) for p in paths)
    print(f"validate_bench: {len(errors)} error(s) in {checked}")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
