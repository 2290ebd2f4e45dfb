"""Grammar fuzz of the command line: INI documents and flags drawn from the
known keys, each value from a fixed set of edge classes, and for ``kind =
json`` the problem document too, valid or with up to two of its values
replaced by a number, a list, a string or null.

The property is the input contract: a call exits 0 or 2 only when every value
it was given is finite, of its type and in its key's range, every policy
override is one its policy reads (``POLICIES[name].reads``), and the budget's
trajectory fits in memory; otherwise it exits 1 with ``config error:`` or
``error:``.  No call prints a traceback, LAPACK text or a numpy warning, none
leaves an output directory behind when it exits 1, and no ``[PASS]`` line
carries a limit that is not finite.  Sizes stay at n <= 10 and budgets at
k <= 20, but for a [run] k of HUGE_K, whose trajectory no machine holds.  In
one ``run`` or ``check`` call in LONE_UNREAD, the only fault is one override
that its policy section's policy does not read, set in range: every other
value is valid and every other override one its policy reads, so a policy
that accepted that override would exit 0 or 2.  The converse is drawn on its
own (``valid_command_lines``): a ``run`` or ``check`` call whose values are
all valid and whose overrides its policies all read exits 0 or 2.
"""

import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oevi import cli
from oevi.geometry import Ball
from oevi.harness import POLICY_KEYS, PROBLEM_KEYS, RUN_KEYS
from oevi.problems import AffineSpec, affine_problem, glm_generate, problem_to_json, traffic_generate
from oevi.schedules import POLICIES, POLICY_NAMES

# every value is drawn from these classes; "valid" stands for each key's own valid text
CLASSES = {"valid": None, "zero": "0", "negative": "-1", "nan": "nan", "inf": "inf",
           "-inf": "-inf", "huge": "1e300", "empty": "", "text": "abc"}
ANY = frozenset(CLASSES)
POSITIVE = frozenset({"valid", "huge"})
NONNEGATIVE = frozenset({"valid", "zero", "huge"})
INTEGER = frozenset({"valid", "zero", "negative"})
BOOLEAN = frozenset({"valid", "zero"})  # configparser reads "0" as false
VALID = frozenset({"valid"})
# a key takes its valid text about five times in six, so that a fair share of
# calls has every value in range and runs
CLASS_POOL = ["valid"] * 40 + sorted(set(CLASSES) - VALID)
VALID_POOL = ["valid"]  # every key at its valid text

# key -> (valid text, the classes whose values are finite and in the key's range)
PROBLEM_SPECS = {
    "traffic": {"n": ("10", VALID), "blocks": ("5", VALID), "d_minus": ("0.5", VALID),
                "seed": ("3", INTEGER)},
    "glm-hinge": {"n": ("5", VALID), "R": ("2", POSITIVE), "sigma_y": ("0.5", NONNEGATIVE),
                  "seed": ("3", INTEGER), "d_minus": ("0.5", VALID)},
    "glm-ramp": {"n": ("5", VALID), "R": ("2", POSITIVE), "sigma_y": ("0.5", NONNEGATIVE),
                 "seed": ("3", INTEGER)},
    "json": {"path": ("problem.json", VALID)},
}
RUN_SPECS = {"k": ("5", VALID), "seeds": ("1, 2", INTEGER), "cadence": ("2", VALID),
             "output": ("out", ANY), "timing": ("false", BOOLEAN), "weak_gap": ("true", BOOLEAN),
             "workers": ("1", VALID), "validate": ("warn", VALID),
             "reference": ("true", BOOLEAN)}
POLICY_SPECS = {"L": ("2", POSITIVE), "mu": ("0.01", NONNEGATIVE),
                "sigma": ("0.5", NONNEGATIVE), "V1": ("1", POSITIVE), "m": ("2", VALID),
                "noise_ratio": ("1", POSITIVE)}
FLAG_SPECS = {
    "run": {"--k": ("5", VALID), "--seeds": ("1", INTEGER), "--workers": ("1", VALID),
            "--output": ("out", ANY)},
    "check": {"--k": ("5", VALID), "--seeds": ("1", INTEGER)},
    "validate-schedule": {"--L": ("2", POSITIVE), "--mu": ("0.1", NONNEGATIVE),
                          "--k": ("20", VALID), "--b": ("2", VALID),
                          "--sigma": ("1", NONNEGATIVE), "--V1": ("1", POSITIVE),
                          "--Lbar": ("2", POSITIVE)},
    # a suite always gets a budget and a size (SUITE_SIZES), drawn like any flag
    "suite": {"--k": ("5", VALID), "--d-minus": ("0.5", VALID), "--seeds": ("1", INTEGER),
              "--output": ("out", ANY)},
}
# a budget whose (k + 2) x n trajectory no machine holds, even at n = 1
HUGE_K = str(10**15)
# one run or check call in this many has a lone unread override for its only fault
LONE_UNREAD = 3
# glm-hinge is left out: its restart study runs 1000 iterations whatever the flags
SUITE_SIZES = {"traffic": ("--sizes", ("10", VALID)), "glm-ramp": ("--n", ("5", VALID))}
ALWAYS = {"--k", "--sizes", "--n"}


def test_specs_cover_every_key():
    assert {kind: tuple(spec) for kind, spec in PROBLEM_SPECS.items()} == PROBLEM_KEYS
    assert list(RUN_SPECS) == list(RUN_KEYS)
    assert list(POLICY_SPECS) == list(POLICY_KEYS)


@st.composite
def values(draw, specs, always=frozenset(), pool=CLASS_POOL):
    """Some of ``specs``' keys (every key in ``always``), each with a text
    drawn from the classes in ``pool``, and whether every one of them is in
    range."""
    chosen, in_range = {}, True
    for key, (valid, ok) in specs.items():
        if key in always or draw(st.booleans()):
            cls = draw(st.sampled_from(pool))
            chosen[key] = valid if cls == "valid" else CLASSES[cls]
            in_range = in_range and cls in ok
    return chosen, in_range


@st.composite
def read_overrides(draw, name, unread=False):
    """A [policy:NAME] section of some overrides the policy reads, each at its
    valid text, and with ``unread`` one it does not read, set in range."""
    reads = ("L", *POLICIES[name].reads)
    chosen = {key: POLICY_SPECS[key][0] for key in reads if draw(st.booleans())}
    if unread:
        key = draw(st.sampled_from([key for key in POLICY_SPECS if key not in reads]))
        chosen[key] = POLICY_SPECS[key][0]
    return chosen


# the values that replace a problem document's own
JSON_CLASSES = {"number": 1.0, "list": [1.0], "string": "abc", "null": None}


def _document(problem, **accepted):
    """A problem's JSON object, and for each key the classes whose values are
    valid there (those named in ``accepted``)."""
    doc = json.loads(problem_to_json(problem))
    return doc, {key: frozenset(accepted.get(key, ())) for key in doc}


# in every document, format 1.0 equals 1 and the seed is provenance, kept as given
_EVERY_DOC = dict(format={"number"}, seed=JSON_CLASSES)
_AFFINE = dict(sigma={"number"}, known_solution={"null"}, block_partition={"null"}, **_EVERY_DOC)
_STRONGLY_MONOTONE = AffineSpec(2.0 * np.eye(3) + np.triu(np.ones((3, 3)), 1), np.ones(3))
JSON_DOCS = [
    _document(traffic_generate(10, 5, 0.5, seed=4), **_AFFINE),
    _document(affine_problem(_STRONGLY_MONOTONE, Ball(np.zeros(3), 2.0), block_partition=(1, 2)),
              radius={"number"}, **_AFFINE),
    _document(glm_generate(3, "hinge", 2.0, 0.5, seed=4), sigma_y={"number"}, **_EVERY_DOC),
    _document(glm_generate(3, "ramp", 2.0, 0.5, seed=4), sigma_y={"number"}, **_EVERY_DOC),
]


@st.composite
def documents(draw, max_replaced=2):
    """(a problem document's text, whether every value in it is valid): a
    document of JSON_DOCS with up to ``max_replaced`` of its values replaced."""
    doc, specs = draw(st.sampled_from(JSON_DOCS))
    doc, ok = dict(doc), True
    for key in draw(st.lists(st.sampled_from(sorted(specs)), max_size=max_replaced,
                             unique=True)):
        cls = draw(st.sampled_from(sorted(JSON_CLASSES)))
        doc[key] = JSON_CLASSES[cls]
        ok = ok and cls in specs[key]
    return json.dumps(doc), ok


@st.composite
def command_lines(draw):
    """(argv, the config file's text or None, the problem document's text,
    whether every value is in range)."""
    command = draw(st.sampled_from(["run", "check", "validate-schedule", "suite"]))
    if command == "validate-schedule":
        flags, ok = draw(values(FLAG_SPECS[command]))
        return [command, draw(st.sampled_from(POLICY_NAMES))] + _argv(flags), None, JSON_DOC, ok
    if command == "suite":
        name = draw(st.sampled_from(sorted(SUITE_SIZES)))
        flag, spec = SUITE_SIZES[name]
        flags, ok = draw(values({**FLAG_SPECS[command], flag: spec}, ALWAYS))
        return [command, name] + _argv(flags), None, JSON_DOC, ok
    kind = draw(st.sampled_from(sorted(PROBLEM_SPECS)))
    lone = draw(st.integers(0, LONE_UNREAD - 1)) == 0
    pool = ["valid"] if lone else CLASS_POOL
    problem, ok = draw(values(PROBLEM_SPECS[kind], pool=pool))
    document = JSON_DOC
    if kind == "json":
        document, doc_ok = draw(documents(0 if lone else 2))
        ok = ok and doc_ok
    run, run_ok = draw(values(RUN_SPECS, {"k"}, pool))
    if not lone and draw(st.integers(0, 19)) == 0:
        run["k"], run_ok = HUGE_K, False
    lines = ["[problem]", f"kind = {kind}", *_ini(problem), "[run]", *_ini(run)]
    names = draw(st.lists(st.sampled_from(POLICY_NAMES), min_size=1, max_size=2, unique=True))
    for i, name in enumerate(names):
        if lone:  # the first section holds the call's one fault
            policy, policy_ok = draw(read_overrides(name, unread=i == 0)), i > 0
        else:
            policy, policy_ok = draw(values(POLICY_SPECS))
            policy_ok = policy_ok and _read(name, policy)
        lines += [f"[policy:{name}]", *_ini(policy)]
        ok = ok and policy_ok
    flags, flags_ok = draw(values(FLAG_SPECS[command], pool=pool))
    return ([command, "exp.ini"] + _argv(flags), "\n".join(lines) + "\n", document,
            ok and run_ok and flags_ok)


@st.composite
def json_command_lines(draw):
    """``run`` or ``check`` on a drawn problem document, with every INI value
    valid, so that the document alone decides the exit code."""
    document, ok = draw(documents())
    lines = ["[problem]", "kind = json", "path = problem.json", "[run]", "k = 5"]
    for name in draw(st.lists(st.sampled_from(POLICY_NAMES), min_size=1, max_size=2,
                              unique=True)):
        lines.append(f"[policy:{name}]")
    command = draw(st.sampled_from(["run", "check"]))
    return [command, "exp.ini"], "\n".join(lines) + "\n", document, ok


@st.composite
def valid_command_lines(draw):
    """``run`` or ``check`` with every value valid, every override one its
    policy reads and a budget k of 1 to 20, so that the call must complete.
    Two policies need more than valid values: a block policy needs a
    partition its set splits into (a simplex product's), and SOE-2, whose
    step reads log(mu^2 V1 / sigma^2) / log(k), needs mu and sigma above 0,
    so its section sets both, and k >= 2."""
    command = draw(st.sampled_from(["run", "check"]))
    kind = draw(st.sampled_from(sorted(PROBLEM_SPECS)))
    problem, _ = draw(values(PROBLEM_SPECS[kind], {"path"}, VALID_POOL))
    document = draw(documents(0))[0] if kind == "json" else JSON_DOC
    splits = kind == "traffic" or (kind == "json" and json.loads(document).get("set") == "simplex")
    names = draw(st.lists(st.sampled_from([name for name in POLICY_NAMES if splits
                                           or POLICIES[name].source != "block"]),
                          min_size=1, max_size=2, unique=True))
    run, _ = draw(values(RUN_SPECS, {"k"}, VALID_POOL))
    run["k"] = str(draw(st.integers(2 if "SOE-2" in names else 1, 20)))
    lines = ["[problem]", f"kind = {kind}", *_ini(problem), "[run]", *_ini(run)]
    for name in names:
        policy = draw(read_overrides(name))
        if name == "SOE-2":
            policy.update(mu=POLICY_SPECS["mu"][0], sigma=POLICY_SPECS["sigma"][0])
        lines += [f"[policy:{name}]", *_ini(policy)]
    flags, _ = draw(values(FLAG_SPECS[command], pool=VALID_POOL))
    return [command, "exp.ini"] + _argv(flags), "\n".join(lines) + "\n", document, True


def _read(name, chosen):
    """Whether the policy reads each override chosen besides L."""
    return set(chosen) - {"L"} <= set(POLICIES[name].reads)


def _ini(chosen):
    return [f"{key} = {text}" for key, text in chosen.items()]


def _argv(chosen):
    return [f"{flag}={text}" for flag, text in chosen.items()]


JSON_DOC = json.dumps(JSON_DOCS[0][0])


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command_lines())
def test_cli_input_contract(capfd, case):
    _check_call(capfd, *case)


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(json_command_lines())
# a block wider than the dimension: once numpy's "Maximum allowed size exceeded"
@example((["run", "exp.ini"], "[problem]\nkind = json\npath = problem.json\n[run]\nk = 5\n"
          "[policy:OE-GSMVI]\n", json.dumps({**JSON_DOCS[0][0], "blocks": [1e300, 2, 2, 2, 2]}),
          False))
def test_json_document_contract(capfd, case):
    _check_call(capfd, *case)


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(valid_command_lines())
def test_valid_calls_complete(capfd, case):
    assert _check_call(capfd, *case) in (0, 2), case


def _check_call(capfd, argv, config, document, in_range):
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("problem.json").write_text(document)
            if config is not None:
                Path("exp.ini").write_text(config)
            before = set(os.listdir())
            capfd.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy warning fails the example
                rc = cli.main(argv)
            out, err = capfd.readouterr()
            left = set(os.listdir()) - before
        finally:
            os.chdir(home)
    assert rc in (0, 1, 2), (argv, config, document)
    assert in_range or rc == 1, (argv, config, document, out)
    if rc == 1:
        # argparse's own message reads "oevi <command>: error: ..."
        assert re.search(r"(^|\n)(config error: |error: |oevi[\w -]*: error: )", err), err
        assert not left, (argv, config, left)
    # Python's, LAPACK's and numpy's own texts, none of which names the input
    for text in ("Traceback", "On entry to", "Warning", "Maximum allowed size"):
        assert text not in err, (argv, config, err)
    for limit in re.findall(r"^\s*\[PASS\].* limit=(\S+)", out, flags=re.M):
        assert math.isfinite(float(limit)), out
    return rc
