#!/usr/bin/env python3
"""Schema-check the scenario conformance corpus (tests/vectors/).

A pure-stdlib mirror of the C++ schema-v1 validator in
src/scenario/scenario.cpp, run as a tier-1 ctest so a hand-edited vector
fails CI before any engine ever parses it. Checks, per file:

  * top-level shape: required keys present, no unknown keys, schema_version
    exactly the integer 1;
  * every section only uses its whitelisted keys (strictness mirrors the
    C++ parser: unknown keys are errors at EVERY level);
  * enum fields hold known values;
  * probability fields (network.loss_rate, network.dup_rate, timing.geo_p)
    are finite numbers within [0, 1];
  * integer fields (n, steps, seeds, pids, times, weights) are non-negative
    integer literals that fit their C++ type; every pid names one of the n
    processes and timing.min <= timing.max; box.never_exit_member is -1
    (none) or an integer in [0, 2^31 - 1];
  * "expect" names at least one engine and every named engine pins a
    verdict ("clean" | "violation"); "seeds" only appears under fuzz;
  * the mc envelope: no "mc" expectation alongside a network adversary or a
    non-extraction target.

Exit 0 iff every vector validates. Usage:

  tools/validate_vectors.py [vector-dir]      (default: tests/vectors)
  tools/validate_vectors.py --selftest        (the validator's own checks)
"""
import json
import math
import pathlib
import sys

SCHEMA_VERSION = 1

TARGETS = {
    "dining", "scripted_dining", "extraction", "scripted_extraction",
    "broken_single_instance", "broken_fork_based",
}
MC_TARGETS = {"extraction", "scripted_extraction", "broken_single_instance"}
GRAPHS = {"pair", "ring", "clique", "star", "path"}
SCHEDULERS = {"round_robin", "random", "weighted", "pausing"}
DELAYS = {"fixed", "uniform", "geometric", "partial_synchrony"}
SEMANTICS = {"lockout", "fork_based"}
VERDICTS = {"clean", "violation"}
U32 = 2**32 - 1
I32 = 2**31 - 1
U64 = 2**64 - 1
# FuzzConfig defaults for timing.min / timing.max.
DELAY_MIN, DELAY_MAX = 1, 8

TOP_KEYS = {
    "schema_version", "name", "description", "seed", "target", "topology",
    "steps", "scheduler", "timing", "crashes", "mistake_windows",
    "detector_lag", "box", "network", "expect",
}
SECTION_KEYS = {
    "topology": {"graph", "n"},
    "scheduler": {"kind", "weights", "pauses"},
    "timing": {"delay", "min", "max", "geo_p", "gst"},
    "box": {"exclusive_from", "semantics", "member0_burst", "grant_holdoff",
            "never_exit_member"},
    "network": {"loss_rate", "dup_rate", "dup_spread", "partitions",
                "retransmit"},
    "network.retransmit": {"every", "max_attempts"},
    "crashes[]": {"pid", "at"},
    "mistake_windows[]": {"watcher", "subject", "from", "until"},
    "scheduler.pauses[]": {"pid", "from", "until"},
    "network.partitions[]": {"from", "until", "side"},
    "expect": {"sim", "mc", "fuzz"},
    "expect.engine": {"verdict", "oracle"},
    "expect.fuzz": {"verdict", "oracle", "seeds"},
}


class Invalid(Exception):
    pass


def fail(path, what):
    raise Invalid(f"{path}: {what}" if path else what)


def check_keys(node, path, allowed):
    if not isinstance(node, dict):
        fail(path, "expected a JSON object")
    for key in node:
        if key not in allowed:
            fail(path, f'unknown key "{key}"')


def check_enum(value, path, allowed):
    if value not in allowed:
        fail(path, f'"{value}" not one of {sorted(allowed)}')


def check_probability(node, key, path):
    """A probability field: a finite JSON number within [0, 1]."""
    if key not in node:
        return
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        fail(path, "expected a number")
    if not math.isfinite(value) or not 0 <= value <= 1:
        fail(path, f"must be a finite number in [0, 1], got {value}")


def check_unsigned(value, path, limit=U64):
    """An integer field: a JSON integer literal in [0, limit] (no sign,
    fraction, exponent or string), as fuzz::read_unsigned reads it."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or not 0 <= value <= limit:
        fail(path, f"must be a non-negative integer no larger than {limit}, "
                   f"got {json.dumps(value)}")
    return value


def check_pid_or_none(value, path):
    """box.never_exit_member: -1 (none) or an integer in [0, I32], as
    fuzz::read_pid_or_none reads it (normalize maps a pid >= n to -1)."""
    if isinstance(value, int) and not isinstance(value, bool) \
            and -1 <= value <= I32:
        return
    fail(path, f"must be -1 (none) or a non-negative integer no larger than "
               f"{I32}, got {json.dumps(value)}")


def check_pid(value, path, n):
    check_unsigned(value, path, U32)
    if value >= n:
        fail(path, f"pid {value} is not below n = {n}")


def check_plans(items, path, n, times, pids):
    """Integer members of each plan object (crashes, windows, pauses)."""
    for i, item in enumerate(items):
        for key in times:
            if key in item:
                check_unsigned(item[key], f"{path}[{i}].{key}")
        for key in pids:
            if key in item:
                check_pid(item[key], f"{path}[{i}].{key}", n)


def check_items(node, path, allowed):
    for item in node:
        check_keys(item, path, allowed)


def check_expectation(node, path, allow_seeds):
    allowed = SECTION_KEYS["expect.fuzz" if allow_seeds else "expect.engine"]
    check_keys(node, path, allowed)
    if "verdict" not in node:
        fail(path, 'requires "verdict"')
    check_enum(node["verdict"], f"{path}.verdict", VERDICTS)


def has_network_adversary(doc):
    net = doc.get("network", {})
    return (net.get("loss_rate", 0) > 0 or net.get("dup_rate", 0) > 0
            or bool(net.get("partitions")))


def validate(doc):
    check_keys(doc, "", TOP_KEYS)
    for key in ("schema_version", "name", "seed", "target", "topology",
                "steps", "expect"):
        if key not in doc:
            fail("", f'requires "{key}"')
    # Exactly the integer 1, as the C++ readers compare the literal: 1.0,
    # 1.5, true and "1" are foreign versions.
    version = doc["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        fail("", f"unsupported schema_version {json.dumps(version)} "
                 f"(this tool supports {SCHEMA_VERSION})")
    if not isinstance(doc["name"], str) or not doc["name"]:
        fail("name", "must be a non-empty string")
    check_enum(doc["target"], "target", TARGETS)

    check_keys(doc["topology"], "topology", SECTION_KEYS["topology"])
    for key in ("graph", "n"):
        if key not in doc["topology"]:
            fail("topology", f'requires "{key}"')
    check_enum(doc["topology"]["graph"], "topology.graph", GRAPHS)
    n = check_unsigned(doc["topology"]["n"], "topology.n", U32)
    if n < 2:
        fail("topology.n", "needs at least 2")
    check_unsigned(doc["seed"], "seed")
    check_unsigned(doc["steps"], "steps")
    if "detector_lag" in doc:
        check_unsigned(doc["detector_lag"], "detector_lag")

    if "scheduler" in doc:
        check_keys(doc["scheduler"], "scheduler", SECTION_KEYS["scheduler"])
        if "kind" not in doc["scheduler"]:
            fail("scheduler", 'requires "kind"')
        check_enum(doc["scheduler"]["kind"], "scheduler.kind", SCHEDULERS)
        check_items(doc["scheduler"].get("pauses", []), "scheduler.pauses[]",
                    SECTION_KEYS["scheduler.pauses[]"])
        for i, weight in enumerate(doc["scheduler"].get("weights", [])):
            check_unsigned(weight, f"scheduler.weights[{i}]")
        check_plans(doc["scheduler"].get("pauses", []), "scheduler.pauses",
                    n, ("from", "until"), ("pid",))
    if "timing" in doc:
        check_keys(doc["timing"], "timing", SECTION_KEYS["timing"])
        if "delay" not in doc["timing"]:
            fail("timing", 'requires "delay"')
        check_enum(doc["timing"]["delay"], "timing.delay", DELAYS)
        timing = doc["timing"]
        for key in ("min", "max", "gst"):
            if key in timing:
                check_unsigned(timing[key], f"timing.{key}")
        low = timing.get("min", DELAY_MIN)
        high = timing.get("max", DELAY_MAX)
        if low > high:
            fail("timing.min", f"{low} exceeds timing.max {high}")
        check_probability(doc["timing"], "geo_p", "timing.geo_p")
    check_items(doc.get("crashes", []), "crashes[]", SECTION_KEYS["crashes[]"])
    check_plans(doc.get("crashes", []), "crashes", n, ("at",), ("pid",))
    check_items(doc.get("mistake_windows", []), "mistake_windows[]",
                SECTION_KEYS["mistake_windows[]"])
    check_plans(doc.get("mistake_windows", []), "mistake_windows", n,
                ("from", "until"), ("watcher", "subject"))
    if "box" in doc:
        check_keys(doc["box"], "box", SECTION_KEYS["box"])
        if "semantics" in doc["box"]:
            check_enum(doc["box"]["semantics"], "box.semantics", SEMANTICS)
        for key, limit in (("exclusive_from", U64), ("member0_burst", U32),
                           ("grant_holdoff", U64)):
            if key in doc["box"]:
                check_unsigned(doc["box"][key], f"box.{key}", limit)
        if "never_exit_member" in doc["box"]:
            check_pid_or_none(doc["box"]["never_exit_member"],
                              "box.never_exit_member")
    if "network" in doc:
        check_keys(doc["network"], "network", SECTION_KEYS["network"])
        for key in ("loss_rate", "dup_rate"):
            check_probability(doc["network"], key, f"network.{key}")
        if "dup_spread" in doc["network"]:
            check_unsigned(doc["network"]["dup_spread"], "network.dup_spread")
        partitions = doc["network"].get("partitions", [])
        check_items(partitions, "network.partitions[]",
                    SECTION_KEYS["network.partitions[]"])
        check_plans(partitions, "network.partitions", n, ("from", "until"), ())
        for i, window in enumerate(partitions):
            for j, pid in enumerate(window.get("side", [])):
                check_pid(pid, f"network.partitions[{i}].side[{j}]", n)
        if "retransmit" in doc["network"]:
            retransmit = doc["network"]["retransmit"]
            if not isinstance(retransmit, dict):
                fail("network.retransmit", "must be an object")
            check_keys(retransmit, "network.retransmit",
                       SECTION_KEYS["network.retransmit"])
            for key, limit in (("every", U64), ("max_attempts", U32)):
                if key in retransmit:
                    check_unsigned(retransmit[key],
                                   f"network.retransmit.{key}", limit)

    expect = doc["expect"]
    check_keys(expect, "expect", SECTION_KEYS["expect"])
    if not expect:
        fail("expect", "must name at least one engine")
    for engine in ("sim", "mc"):
        if engine in expect:
            check_expectation(expect[engine], f"expect.{engine}",
                              allow_seeds=False)
    if "fuzz" in expect:
        check_expectation(expect["fuzz"], "expect.fuzz", allow_seeds=True)
        for i, seed in enumerate(expect["fuzz"].get("seeds", [])):
            check_unsigned(seed, f"expect.fuzz.seeds[{i}]")

    if "mc" in expect:
        if has_network_adversary(doc):
            fail("expect.mc", "the model checker has no lossy-channel "
                              'abstraction; drop "mc" or the "network" '
                              "section")
        if doc["target"] not in MC_TARGETS:
            fail("expect.mc", f'target "{doc["target"]}" has no model-checker '
                              "abstraction (extraction targets only)")


def selftest():
    """Out-of-range and non-finite probabilities, and integer fields that
    are negative, fractional, strings, too wide, pids outside the topology
    or timing.min above timing.max, a never_exit_member that is not -1 or
    an int32 pid, fail with a path-qualified error; a schema_version that
    is not the integer 1 fails as unsupported; in-range values pass."""
    base = {"schema_version": 1, "name": "probe", "seed": 1,
            "target": "dining", "topology": {"graph": "ring", "n": 3},
            "steps": 1000, "expect": {"sim": {"verdict": "clean"}}}
    cases = []
    for key in ("loss_rate", "dup_rate"):
        for value in (5, -0.5, math.inf, -math.inf, math.nan, "0.1"):
            cases.append(({"network": {key: value}}, f"network.{key}"))
    for value in (1.5, -0.1, math.inf):
        cases.append(({"timing": {"delay": "geometric", "geo_p": value}},
                      "timing.geo_p"))
    for value in (-3, 2**32 + 2, 2.0, "3"):
        cases.append(({"topology": {"graph": "ring", "n": value}},
                      "topology.n"))
    for value in (-1, 1.5, "x", 2**64):
        cases.append(({"steps": value}, "steps"))
    for value in (1e10, 1.7, -2, 2**31, "1", True):
        cases.append(({"box": {"never_exit_member": value}},
                      "box.never_exit_member"))
    cases.append(({"crashes": [{"pid": 7, "at": 10}]}, "crashes[0].pid"))
    cases.append(({"timing": {"delay": "uniform", "min": 9, "max": 2}},
                  "timing.min"))
    cases.append(({"network": {"partitions": [{"from": 1, "side": [3]}]}},
                  "network.partitions[0].side[0]"))
    failures = 0
    for extra, path in cases:
        try:
            validate({**base, **extra})
            print(f"FAIL accepted {extra}")
            failures += 1
        except Invalid as error:
            if not str(error).startswith(path + ":"):
                print(f"FAIL {extra}: error lacks path {path!r}: {error}")
                failures += 1
    for value in (1.5, 1.0, True, "1"):
        try:
            validate({**base, "schema_version": value})
            print(f"FAIL accepted schema_version {value!r}")
            failures += 1
        except Invalid as error:
            if not str(error).startswith("unsupported schema_version"):
                print(f"FAIL schema_version {value!r}: {error}")
                failures += 1
    for extra in ({"network": {"loss_rate": 0, "dup_rate": 1}},
                  {"network": {"loss_rate": 0.25}},
                  {"timing": {"delay": "geometric", "geo_p": 0.2}},
                  {"crashes": [{"pid": 2, "at": 10}]},
                  {"box": {"never_exit_member": -1}},
                  {"box": {"never_exit_member": I32}},
                  {"mistake_windows": [{"watcher": 0, "subject": 2,
                                        "until": U64}]}):
        try:
            validate({**base, **extra})
        except Invalid as error:
            print(f"FAIL rejected {extra}: {error}")
            failures += 1
    print(f"validate_vectors selftest: {failures} failure(s)")
    return 0 if failures == 0 else 1


def main(argv):
    if argv[1:] == ["--selftest"]:
        return selftest()
    root = pathlib.Path(argv[1] if len(argv) > 1 else "tests/vectors")
    files = sorted(root.glob("*.scenario.json"))
    if len(files) < 12:
        print(f"FAIL {root}: expected >= 12 vectors, found {len(files)}")
        return 1
    failures = 0
    for file in files:
        try:
            with open(file, encoding="utf-8") as handle:
                doc = json.load(handle)
            validate(doc)
            print(f"ok   {file.name}")
        except (Invalid, json.JSONDecodeError, OSError) as error:
            print(f"FAIL {file.name}: {error}")
            failures += 1
    print(f"{len(files) - failures}/{len(files)} vectors validate")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
