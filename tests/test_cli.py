"""End-to-end tests of the command-line interface: artifacts, reports, exit
codes, and reproducibility."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genplan import fond, ltl
from genplan.cli import _parse_constraint, build_parser, main
from genplan.constraints import conjoin, constraint_formula, qnp_constraints
from genplan.errors import GenplanError
from genplan.model import (
    load_pondp,
    policy_from_json_dict,
    pondp_from_json_dict,
    pondp_to_json_dict,
    save_json,
    validate,
)
from genplan.omega import synthesize
from genplan.qnp import close_qnp, closure_diagnostics, parse_qnp, syntactic_projection

from .test_qnp import random_qnp

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")

COUNTER_QNP = os.path.join(PROBLEMS, "counter.qnp")
TWOVAR_QNP = os.path.join(PROBLEMS, "twovar.qnp")
CANONICAL = os.path.join(PROBLEMS, "twovar_canonical.policy.json")
COUNTER_CLASS = os.path.join(PROBLEMS, "counter_class.json")
COUNTER_FONDP = os.path.join(PROBLEMS, "counter.fondp.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out) if out.strip().startswith("{") else out
    return code, doc


def test_qnp2fond(tmp_path, capsys):
    out = tmp_path / "counter.json"
    code, doc = run_cli(capsys, "qnp2fond", COUNTER_QNP, "-o", str(out))
    assert code == 0
    assert doc["states"] == 2
    p = load_pondp(str(out))
    assert p.states == frozenset({"X=0", "X>0"})
    assert doc["description"]["actions"]["Dec"]["numeric"]["X"] == "if X>0 then X>0 | X=0"


def test_qnp2fond_close(tmp_path, capsys):
    out = tmp_path / "closed.json"
    code, doc = run_cli(capsys, "qnp2fond", COUNTER_QNP, "--close", "-o", str(out))
    assert code == 0
    assert doc["states"] == 4


def test_qnp2fond_close_of_ineligible_qnp_is_negative(tmp_path, capsys):
    """A well-formed QNP that the commitment closure cannot take is a
    negative answer, not malformed input: exit 1 with its diagnostics and
    no ``-o`` file.  Without ``--close`` it translates as before."""
    src = tmp_path / "dec.qnp"
    src.write_text("vars X\ninit_values X in {1}\naction Dec\n  dec X\ngoal X=0\n")
    out = tmp_path / "closed.json"
    code, doc = run_cli(capsys, "qnp2fond", str(src), "--close", "-o", str(out))
    assert code == 1 and doc["reason"] == "NOT_CLOSURE_ELIGIBLE"
    assert doc["closure_diagnostics"] == [
        {"action": "Dec", "message": "decrements 'X' without precondition X>0"}
    ]
    assert not out.exists()
    code, doc = run_cli(capsys, "qnp2fond", str(src), "-o", str(out))
    assert code == 0 and out.exists() and not doc["closed"]


def test_project(tmp_path, capsys):
    out = tmp_path / "proj.json"
    dot = tmp_path / "proj.dot"
    code, doc = run_cli(capsys, "project", COUNTER_CLASS, "-o", str(out), "--dot", str(dot))
    assert code == 0
    assert doc["states"] == 2
    assert dot.read_text().startswith("digraph")
    p = load_pondp(str(out))
    assert p.succ[("Dec", "X>0")] == frozenset({"X>0", "X=0"})


def test_project_diagnostics_ignore_hash_seed(tmp_path):
    """Declared actions that no member witnesses are reported in ``str``
    order of (observation, action), the same under every string hash
    seed: the counter class with two more observations that declare four
    actions each, none witnessed, gives eight such diagnostics."""
    with open(COUNTER_CLASS) as fh:
        doc = json.load(fh)
    doc["observations"] += ["Y=0", "Z=0"]
    doc["actions"] += ["Jump", "Skip"]
    for obs in ("Y=0", "Z=0"):
        doc["avail_by_obs"][obs] = ["Skip", "Inc", "Jump", "Dec"]
    path = tmp_path / "wide_class.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(main.__code__.co_filename))
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = [
        subprocess.run(
            [sys.executable, "-m", "genplan.cli", "project", str(path)],
            env=dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=seed),
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1", "2", "3")
    ]
    assert len(set(outs)) == 1
    found = [
        (d["message"].split("'")[3], d["message"].split("'")[1])
        for d in json.loads(outs[0])["diagnostics"]
        if d["code"] == "no witnessed transition"
    ]
    assert found == [(o, a) for o in ("Y=0", "Z=0") for a in ("Dec", "Inc", "Jump", "Skip")]


def test_synthesize_realizable(tmp_path, capsys):
    out = tmp_path / "policy.json"
    code, doc = run_cli(
        capsys, "synthesize", COUNTER_FONDP, "--constraint", "qnp(X)", "-o", str(out)
    )
    assert code == 0
    assert doc["realizable"] is True
    assert doc["verification"]["verdict"] == "SOLVES_UNDER_CONSTRAINT"
    mu = policy_from_json_dict(json.loads(out.read_text()))
    assert set(mu.output.values()) == {"Dec"}


def test_synthesize_unrealizable(capsys):
    code, doc = run_cli(capsys, "synthesize", COUNTER_FONDP)
    assert code == 1
    assert doc["reason"] == "UNREALIZABLE"


def test_plan_and_verify(tmp_path, capsys):
    fondp = tmp_path / "closed.json"
    policy = tmp_path / "policy.json"
    assert main(["qnp2fond", COUNTER_QNP, "--close", "-o", str(fondp)]) == 0
    capsys.readouterr()
    code, doc = run_cli(capsys, "plan", str(fondp), "-o", str(policy))
    assert code == 0
    assert doc["policy"]["q_X,X>0"] == "Dec"
    code, doc = run_cli(capsys, "verify", "--mode", "fair", str(fondp), str(policy))
    assert code == 0
    assert doc["verdict"] == "FAIR_SOLUTION"


# two states share one observation, and each needs the other action: the
# planner's per-state choices fold into one action that fails one of them
PARTIALLY_OBSERVABLE = {
    "states": ["s1", "s2", "g"],
    "init": ["s1", "s2"],
    "observations": ["o", "og"],
    "actions": ["a", "b"],
    "goal_states": ["g"],
    "obs": {"s1": "o", "s2": "o", "g": "og"},
    "avail": {"s1": ["a", "b"], "s2": ["a", "b"], "g": []},
    "succ": {"a|s1": ["g"], "b|s1": ["s1"], "a|s2": ["s2"], "b|s2": ["g"]},
}


def test_plan_rejected_by_its_own_check_is_negative(tmp_path, capsys):
    """A plan that its verification rejects is a negative answer: exit 1
    with reason NOT_A_SOLUTION, the verification in the report, and no
    policy file."""
    problem = tmp_path / "po.json"
    policy = tmp_path / "pol.json"
    save_json(PARTIALLY_OBSERVABLE, str(problem))
    code, doc = run_cli(capsys, "plan", str(problem), "-o", str(policy))
    assert code == 1
    assert doc["reason"] == "NOT_A_SOLUTION"
    assert doc["verification"]["verdict"] == "NOT_A_SOLUTION"
    assert "counterexample" in doc["verification"]
    assert not policy.exists()


def test_synthesize_rejected_by_its_own_check_is_negative(tmp_path, capsys, monkeypatch):
    """synthesize answers the same way when its verification rejects the
    policy it synthesized (here a synthesizer that returns Inc forever)."""
    from genplan import omega
    from genplan.model import Policy

    def synthesize(p, constraint, budget):
        return omega.SynthesisResult(realizable=True, policy=Policy.memoryless({"X>0": "Inc"}))

    monkeypatch.setattr(omega, "synthesize", synthesize)
    policy = tmp_path / "policy.json"
    code, doc = run_cli(
        capsys, "synthesize", COUNTER_FONDP, "--constraint", "qnp(X)", "-o", str(policy)
    )
    assert code == 1
    assert doc["reason"] == "NOT_A_SOLUTION"
    assert doc["verification"]["verdict"] == "NOT_A_SOLUTION"
    assert doc["policy_memory"] == 1
    assert not policy.exists()


def test_synthesize_parity_game_honours_budget(capsys):
    """The parity game counts its controller nodes against --budget: on the
    counter projection under qnp(X) it has four, sinks included."""
    argv = ["synthesize", COUNTER_FONDP, "--constraint", "qnp(X)"]
    code, doc = run_cli(capsys, "--budget", "3", *argv)
    assert code == 2
    assert doc["error"] == "SizeBudgetExceededError"
    assert doc["message"] == "parity game exceeded budget: 4 controller nodes built, budget 3"
    code, doc = run_cli(capsys, "--budget", "4", *argv)
    assert code == 0


def test_plan_unsolvable(tmp_path, capsys):
    q = parse_qnp("vars X\ninit_values X in {3}\naction Inc\n  inc X\ngoal X=0\n")
    fondp = tmp_path / "hopeless.json"
    save_json(pondp_to_json_dict(syntactic_projection(q).fondp), str(fondp))
    code, doc = run_cli(capsys, "plan", str(fondp))
    assert code == 1
    assert doc["reason"] == "UNSOLVABLE"


def test_verify_modes_and_exit_codes(tmp_path, capsys):
    policy = tmp_path / "dec.json"
    save_json(
        {
            "memory_states": ["m0"],
            "initial": "m0",
            "update": [],
            "output": [["m0", "X>0", "Dec"]],
        },
        str(policy),
    )
    code, doc = run_cli(capsys, "verify", "--mode", "strong", COUNTER_FONDP, str(policy))
    assert code == 1 and doc["verdict"] == "NOT_A_SOLUTION"
    assert "counterexample" in doc
    code, doc = run_cli(
        capsys, "verify", "--mode", "constraint", COUNTER_FONDP, str(policy), "qnp(X)"
    )
    assert code == 0 and doc["verdict"] == "SOLVES_UNDER_CONSTRAINT"
    code, doc = run_cli(capsys, "verify", "--mode", "fair", COUNTER_FONDP, str(policy))
    assert code == 0 and doc["verdict"] == "FAIR_SOLUTION"


def test_simulate_qnp_canonical(capsys):
    code, doc = run_cli(
        capsys,
        "simulate", TWOVAR_QNP, "--policy", CANONICAL, "--init", "X=20,Y=30",
    )
    assert code == 0
    assert doc["steps"] == 70
    assert doc["goal_reached"] is True
    assert doc["trace"]["states"][-1] == "X=0,Y=0"


def test_simulate_fondp(tmp_path, capsys):
    policy = tmp_path / "dec.json"
    save_json(
        {
            "memory_states": ["m0"],
            "initial": "m0",
            "update": [],
            "output": [["m0", "X>0", "Dec"]],
        },
        str(policy),
    )
    code, doc = run_cli(
        capsys, "simulate", COUNTER_FONDP, "--policy", str(policy), "--seed", "3"
    )
    # on the two-state abstraction the seeded resolver eventually hits zero
    assert code == 0
    assert doc["goal_reached"] is True


def test_simulate_rejects_zero_grid(tmp_path, capsys):
    """A bounded semantics with grid 0 is malformed input (exit 2), not a
    ZeroDivisionError traceback."""
    with open(TWOVAR_QNP) as fh:
        text = fh.read()
    path = tmp_path / "grid0.qnp"
    path.write_text(text.replace("goal", "semantics X bounded 0 1 grid 0\ngoal", 1))
    code, doc = run_cli(
        capsys, "simulate", str(path), "--policy", CANONICAL, "--init", "X=20,Y=30"
    )
    assert code == 2
    assert doc["error"] == "QnpParseError" and "bounded needs" in doc["message"]


def test_simulate_rejects_bad_init(tmp_path, capsys):
    """--init naming a variable the QNP does not declare, or one variable
    twice, is malformed input (exit 2) that names the variable."""
    policy = tmp_path / "dec.json"
    save_json(
        {"memory_states": ["m0"], "initial": "m0", "update": [], "output": []}, str(policy)
    )
    argv = ["simulate", COUNTER_QNP, "--policy", str(policy), "--init"]
    for init, error, message in (
        ("X=5,Z=1", "UnknownVariableError", "--init names 'Z', which the QNP does not declare"),
        ("X=5,X=5", "GenplanError", "--init gives 'X' twice"),
    ):
        code, doc = run_cli(capsys, *argv, init)
        assert code == 2, init
        assert doc == {"error": error, "message": message}, init
    code, doc = run_cli(capsys, *argv, "X=5")
    assert code == 1 and doc["goal_reached"] is False


def test_synthesize_fairness_points_to_plan(capsys):
    """Synthesis takes LTL-expressible constraints only; given fairness it
    exits 2 and names the command that solves under fairness."""
    code, doc = run_cli(capsys, "synthesize", COUNTER_FONDP, "--constraint", "fairness")
    assert code == 2
    assert doc["error"] == "NotLtlExpressibleError"
    assert "synthesis takes LTL-expressible constraints" in doc["message"]
    assert "`genplan plan` solves under fairness" in doc["message"]


def test_ltl2dpw(tmp_path, capsys):
    out = tmp_path / "dpw.json"
    code, doc = run_cli(
        capsys,
        "ltl2dpw", 'F G ! Inc & G F Dec -> G F "X=0"',
        "--alphabet", "Inc,Dec,X=0,X>0",
        "-o", str(out),
    )
    assert code == 0
    saved = json.loads(out.read_text())
    assert set(saved) == {"states", "alphabet", "delta", "initial", "priority"}
    assert saved["alphabet"] == ["Dec", "Inc", "X=0", "X>0"]


def test_ltl2dpw_alphabet_as_json_list(capsys):
    """A JSON list can name letters that contain commas, as the observations
    of a multi-variable projection do; the comma form splits them."""
    formula = 'G F "X=0,Y=0"'
    code, doc = run_cli(capsys, "ltl2dpw", formula, "--alphabet", '["X=0,Y=0", "a"]')
    assert code == 0
    assert doc["dpw"]["alphabet"] == ["X=0,Y=0", "a"]
    code, doc = run_cli(capsys, "ltl2dpw", formula, "--alphabet", '"X=0,Y=0",a')
    assert code == 2
    code, doc = run_cli(capsys, "ltl2dpw", formula, "--alphabet", '["X=0,Y=0", 1]')
    assert code == 2 and "alphabet JSON" in doc["message"]


def test_ltl2dpw_parse_error(capsys):
    code, doc = run_cli(capsys, "ltl2dpw", "F (", "--alphabet", "a")
    assert code == 2
    assert "error" in doc


def test_show_problem_and_dpw(tmp_path, capsys):
    code, out = run_cli(capsys, "show", COUNTER_FONDP)
    assert code == 0 and out.startswith("digraph")
    dpw = tmp_path / "dpw.json"
    assert main(["ltl2dpw", "F a", "--alphabet", "a,b", "-o", str(dpw)]) == 0
    capsys.readouterr()
    code, out = run_cli(capsys, "show", str(dpw))
    assert code == 0 and out.startswith("digraph")


def test_show_invalid_problem_exits_2(tmp_path, capsys):
    """show validates a problem before drawing it: a state with no
    observation is malformed input, not a traceback."""
    doc = _load_json(COUNTER_FONDP)
    del doc["obs"]["X=0"]
    path = tmp_path / "problem.json"
    save_json(doc, str(path))
    code, out = run_cli(capsys, "show", str(path))
    assert code == 2 and out["error"] == "MalformedInputError"
    assert "state 'X=0' has no observation" in out["message"]


@pytest.mark.parametrize("entries", [
    {"avail": {"ghost": ["Dec"]}, "succ": {"Dec|ghost": ["X=0"]}},
    {"obs": {"ghost": "X>0"}},
    {"avail": {"ghost": ["ghost"]}},
])
def test_entries_for_undeclared_states_exit_2(tmp_path, capsys, entries):
    """An avail, obs or succ entry that names a state outside ``states`` is
    a diagnostic: a ghost state whose action leads to the goal makes the
    problem malformed rather than planned over."""
    doc = _load_json(COUNTER_FONDP)
    for field, entry in entries.items():
        doc[field].update(entry)
    assert validate(pondp_from_json_dict(doc)) == [(
        "undeclared state", "entries for state 'ghost', which is not in states", "ghost"
    )]
    path = tmp_path / "ghost.json"
    save_json(doc, str(path))
    code, out = run_cli(capsys, "plan", str(path))
    assert code == 2 and "'ghost'" in out["message"]


def test_synthesize_two_constraints(tmp_path, capsys):
    """Repeated --constraint flags conjoin; the two-variable projection is
    realizable under both per-variable constraints."""
    fondp = tmp_path / "twovar.json"
    policy = tmp_path / "policy.json"
    assert main(["qnp2fond", TWOVAR_QNP, "-o", str(fondp)]) == 0
    capsys.readouterr()
    code, doc = run_cli(
        capsys,
        "synthesize", str(fondp),
        "--constraint", "qnp(X)", "--constraint", "qnp(Y)",
        "-o", str(policy),
    )
    assert code == 0
    assert doc["realizable"] is True
    assert doc["verification"]["verdict"] == "SOLVES_UNDER_CONSTRAINT"
    # the conjunction name from the report round-trips through verify
    code, doc = run_cli(
        capsys,
        "verify", "--mode", "constraint", str(fondp), str(policy), "qnp(X) & qnp(Y)",
    )
    assert code == 0
    # under one variable's constraint alone the requirement is stronger:
    # the environment may starve the other variable while satisfying it
    code, doc = run_cli(
        capsys,
        "verify", "--mode", "constraint", str(fondp), str(policy), "qnp(X)",
    )
    assert code == 1
    assert doc["verdict"] == "NOT_A_SOLUTION"


def test_verify_dot_export(tmp_path, capsys):
    policy = tmp_path / "dec.json"
    save_json(
        {
            "memory_states": ["m0"],
            "initial": "m0",
            "update": [],
            "output": [["m0", "X>0", "Dec"]],
        },
        str(policy),
    )
    dot = tmp_path / "product.dot"
    code, doc = run_cli(
        capsys,
        "verify", "--mode", "strong", COUNTER_FONDP, str(policy), "--dot", str(dot),
    )
    assert code == 1
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "fillcolor" in text  # counterexample states highlighted


def test_simulate_lasso_trace(tmp_path, capsys):
    """Without stopping at the goal, a looping policy yields a lasso trace
    and a negative exit code when the loop avoids the goal."""
    policy = tmp_path / "inc.json"
    save_json(
        {
            "memory_states": ["m0"],
            "initial": "m0",
            "update": [],
            "output": [["m0", "X>0", "Inc"], ["m0", "X=0", "Inc"]],
        },
        str(policy),
    )
    code, doc = run_cli(
        capsys,
        "simulate", COUNTER_FONDP, "--policy", str(policy), "--no-stop-at-goal",
    )
    assert code == 1
    assert doc["trace"]["kind"] == "lasso"
    assert doc["goal_reached"] is False


def test_constraint_from_file(tmp_path, capsys):
    cfile = tmp_path / "constraint.ltl"
    cfile.write_text('F G ! Inc & G F Dec -> G F "X=0"\n')
    code, doc = run_cli(
        capsys, "synthesize", COUNTER_FONDP, "--constraint", str(cfile)
    )
    assert code == 0
    assert doc["realizable"] is True


def test_input_error_exit_code(capsys):
    code, doc = run_cli(capsys, "plan", "/nonexistent.json")
    assert code == 2


def test_artifact_reproducibility(tmp_path, capsys):
    """Identical inputs and seed produce byte-identical artifacts."""
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["qnp2fond", TWOVAR_QNP, "--close", "-o", str(out)]) == 0
        capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    pa = tmp_path / "pa.json"
    pb = tmp_path / "pb.json"
    for out in (pa, pb):
        assert main(["synthesize", COUNTER_FONDP, "--constraint", "qnp(X)", "-o", str(out)]) == 0
        capsys.readouterr()
    assert pa.read_bytes() == pb.read_bytes()


def test_json_artifacts_reparse(tmp_path, capsys):
    out = tmp_path / "fondp.json"
    assert main(["qnp2fond", TWOVAR_QNP, "-o", str(out)]) == 0
    capsys.readouterr()
    p = load_pondp(str(out))
    doc = pondp_to_json_dict(p)
    assert doc == json.loads(out.read_text())


def _qnp_as_ltl_text(fondp, variables):
    """The builtin weak counter constraints of ``variables`` bound to the
    problem file and pretty-printed as LTL text, with each ``G F x``
    written as the equivalent ``G X F x``: outside the letter-class
    fragment, so synthesis and the check take the automaton route."""
    c = conjoin(qnp_constraints(variables))
    return ltl.pretty(constraint_formula(c, load_pondp(str(fondp)))).replace("G F", "G X F")


def test_synthesize_translates_each_conjunct_once(tmp_path, capsys, monkeypatch):
    """A synthesize request hands its bound conjuncts, NBAs included, to
    its own constraint check: two LTL conjuncts and one that folds to true
    cost two translations in all, and the policy is still checked."""
    fondp = tmp_path / "twovar.json"
    assert main(["qnp2fond", TWOVAR_QNP, "-o", str(fondp)]) == 0
    capsys.readouterr()
    calls = []
    translate = ltl.ltl_to_nba
    monkeypatch.setattr(ltl, "ltl_to_nba", lambda *a, **k: calls.append(a[0]) or translate(*a, **k))
    code, doc = run_cli(
        capsys,
        "synthesize", str(fondp),
        "--constraint", _qnp_as_ltl_text(fondp, ["X"]),
        "--constraint", _qnp_as_ltl_text(fondp, ["Y"]),
        "--constraint", "G true",
    )
    assert code == 0
    assert doc["verification"]["verdict"] == "SOLVES_UNDER_CONSTRAINT"
    assert len(calls) == 2


def test_letter_class_constraints_build_no_automaton(tmp_path, capsys, monkeypatch):
    """Counter constraints as LTL text, weak and strong, are in the
    letter-class fragment, and so is a conjunct that folds to true whatever
    the order of its disjuncts (``"X=0,Y=0" | true``): neither synthesis
    nor the constraint check runs the tableau (`ltl.ltl_to_nba`) or
    determinizes (`omega.LazyDpw`)."""
    from genplan import omega

    fondp = tmp_path / "twovar.json"
    assert main(["qnp2fond", TWOVAR_QNP, "-o", str(fondp)]) == 0
    capsys.readouterr()
    p = load_pondp(str(fondp))
    calls = []
    translate, lazy = ltl.ltl_to_nba, omega.LazyDpw
    monkeypatch.setattr(ltl, "ltl_to_nba", lambda *a, **k: calls.append(a[0]) or translate(*a, **k))
    monkeypatch.setattr(omega, "LazyDpw", lambda *a, **k: calls.append(a[0]) or lazy(*a, **k))
    texts = [
        ltl.pretty(constraint_formula(conjoin(qnp_constraints(["X", "Y"], strong)), p))
        for strong in (False, True)
    ]
    for text in texts + [f'{texts[0]} & ("X=0,Y=0" | true)']:
        code, doc = run_cli(capsys, "synthesize", str(fondp), "--constraint", text)
        assert code == 0 and doc["verification"]["verdict"] == "SOLVES_UNDER_CONSTRAINT"
        code, doc = run_cli(capsys, "verify", "--mode", "constraint", str(fondp), CANONICAL, text)
        assert code == 0 and doc["verdict"] == "SOLVES_UNDER_CONSTRAINT"
    assert calls == []


def test_synthesize_binds_a_letter_class_constraint_once(tmp_path, capsys, monkeypatch):
    """A synthesize request under a letter-class constraint, a builtin name
    or LTL text, hands its bound conjuncts to its own constraint check:
    it binds the constraint (`constraints._conjuncts`) once, and the
    policy is still checked.  Beside a conjunct outside the fragment, the
    counter constraint still gets no tableau: on `counter`, ``qnp(X) &
    G (Dec -> F Inc)`` runs `ltl.ltl_to_nba` once, for the other one."""
    from genplan import constraints

    fondp = tmp_path / "twovar.json"
    assert main(["qnp2fond", TWOVAR_QNP, "-o", str(fondp)]) == 0
    capsys.readouterr()
    c = conjoin(qnp_constraints(["X", "Y"]))
    text = ltl.pretty(constraint_formula(c, load_pondp(str(fondp))))
    calls = []
    bind = constraints._conjuncts
    monkeypatch.setattr(constraints, "_conjuncts", lambda *a: calls.append(a) or bind(*a))
    for spec in (c.name, text):
        calls.clear()
        code, doc = run_cli(capsys, "synthesize", str(fondp), "--constraint", spec)
        assert code == 0 and doc["verification"]["verdict"] == "SOLVES_UNDER_CONSTRAINT"
        assert len(calls) == 1, spec
    calls.clear()
    translations, translate = [], ltl.ltl_to_nba
    monkeypatch.setattr(
        ltl, "ltl_to_nba", lambda *a, **k: translations.append(a[0]) or translate(*a, **k)
    )
    code, doc = run_cli(
        capsys, "synthesize", COUNTER_FONDP,
        "--constraint", "qnp(X)", "--constraint", "G (Dec -> F Inc)",
    )
    assert code == 0 and doc["verification"]["verdict"] == "SOLVES_UNDER_CONSTRAINT"
    assert len(calls) == 1 and len(translations) == 1


@pytest.mark.parametrize(
    "specs", [["qnp(X)", '"X=0" | true'], ['G F Dec & ("X=0" | true)']], ids=["qnp", "ltl"]
)
def test_synthesize_under_a_conjunct_that_folds_to_true(capsys, specs):
    """A conjunct that folds to true with a letter disjunct first is
    ``G F sigma`` (`constraints._letter_classes`), beside a counter
    constraint or an LTL conjunct: synthesis binds it once, for its game
    and its check, and the request is solved (it raised KeyError when the
    game asked for an automaton the check had not built)."""
    argv = [x for spec in specs for x in ("--constraint", spec)]
    code, doc = run_cli(capsys, "synthesize", COUNTER_FONDP, *argv)
    assert code == 0 and doc["verification"]["verdict"] == "SOLVES_UNDER_CONSTRAINT"


def test_counter_witness_cycle_is_its_shortest_period(tmp_path, capsys):
    """The commitment route's fair plan for this QNP loops: it sets q_X,
    decrements X to 0, unsets q_X and increments X again.  So `plan`
    checks it under qnp(X) too, answers no and writes no plan.  The
    counter check's witness is that 4-step loop, once: the walk of the
    component (`graph.streett_walk`), folded to the shortest period of its
    (state, memory) nodes."""
    qnp_file = tmp_path / "loop.qnp"
    qnp_file.write_text(
        "fluents p\nvars X\ninit_values X in {1, 4}\n"
        "action a0\n  pre p\n  add p\n"
        "action a1\n  pre X>0\n  add p\n  dec X\n"
        "action a2\n  del p\n  inc X\n"
        "action a3\n  pre X>0\n  del p\n  dec X\n"
        "goal p X>0\n"
    )
    closed, plan = tmp_path / "closed.json", tmp_path / "plan.json"
    assert main(["qnp2fond", str(qnp_file), "--close", "-o", str(closed)]) == 0
    capsys.readouterr()
    code, doc = run_cli(capsys, "plan", str(closed), "-o", str(plan))
    assert code == 1 and doc["reason"] == "NOT_A_SOLUTION" and not plan.exists()
    assert doc["verification"]["constraint"] == "qnp(X)"
    cx = doc["verification"]["counterexample"]
    assert cx["prefix_actions"] == []
    assert cx["cycle_actions"] == ["set(X)", "a1", "unset(X)", "a2"]
    assert cx["cycle_states"] == ["X>0", "q_X,X>0", "p,q_X,X=0", "p,X=0"]


def test_plan_agrees_with_synthesis_on_random_qnps(tmp_path, capsys):
    """On every closure-eligible QNP among the first 5,000 draws of
    `random_qnp` at seed 2, `plan` on the closed projection answers yes
    exactly when `synthesize` finds a policy for the open projection under
    qnp(V) for every variable.  Draws 885 and 4997 are QNPs whose fair plan
    loops on its counter, as in the test above."""
    rng = random.Random(2)
    closed = tmp_path / "closed.json"
    eligible = 0
    for draw in range(5000):
        q = random_qnp(rng)
        if closure_diagnostics(q):
            continue
        eligible += 1
        save_json(pondp_to_json_dict(syntactic_projection(close_qnp(q)).fondp), str(closed))
        planned = main(["plan", str(closed)]) == 0
        capsys.readouterr()
        p = syntactic_projection(q).fondp
        realizable = synthesize(p, conjoin(qnp_constraints(q.variables))).realizable
        assert planned == realizable, draw
    assert eligible == 1491


TOGGLE_PROBLEM = {
    "states": ["s", "g"], "init": ["s"], "observations": ["o", "og"], "actions": ["a", "b"],
    "goal_states": ["g"], "obs": {"s": "o", "g": "og"}, "avail": {"s": ["a", "b"], "g": []},
    "succ": {"a|s": ["s"], "b|s": ["g"]},
}
TOGGLE_POLICY = {
    "memory_states": ["m0", "m1"], "initial": "m0",
    "update": [["m0", "o", "m1"], ["m1", "o", "m0"]],
    "output": [["m0", "o", "a"], ["m1", "o", "a"]],
}


@pytest.mark.parametrize("spec", ["G (o -> X a)", "G (a -> X o)", "G F a & G (o -> X a)"])
def test_constraint_witness_closes_in_policy_memory(tmp_path, capsys, spec):
    """A policy that takes a at s from either of two memory states,
    toggling between them, loops on s forever, and the loop satisfies
    each constraint.  The constraint check's witness is the STRONG one,
    whose cycle visits s once per memory state: its lasso is folded by
    (state, memory) nodes, so it closes in the policy's memory, where the
    one-step cycle ``s a`` would leave the policy in the other one."""
    problem, policy = tmp_path / "toggle.json", tmp_path / "toggle.policy.json"
    save_json(TOGGLE_PROBLEM, str(problem))
    save_json(TOGGLE_POLICY, str(policy))
    _, strong = run_cli(capsys, "verify", "--mode", "strong", str(problem), str(policy))
    code, doc = run_cli(capsys, "verify", "--mode", "constraint", str(problem), str(policy), spec)
    assert code == 1 and doc["counterexample"] == strong["counterexample"]
    cx, mu = doc["counterexample"], policy_from_json_dict(TOGGLE_POLICY)
    m = mu.initial
    for s in cx["prefix_states"]:
        m = mu.next_memory(m, TOGGLE_PROBLEM["obs"][s])
    start = m
    for s in cx["cycle_states"]:
        m = mu.next_memory(m, TOGGLE_PROBLEM["obs"][s])
    assert m == start


def test_verify_constraint_honours_budget(tmp_path, capsys, monkeypatch):
    """The constraint check counts the automaton states it builds against
    --budget and GENPLAN_BUDGET; overflowing is malformed input (exit 2)."""
    fondp = tmp_path / "twovar.json"
    assert main(["qnp2fond", TWOVAR_QNP, "-o", str(fondp)]) == 0
    capsys.readouterr()
    text = _qnp_as_ltl_text(fondp, ["X", "Y"])
    args = ["verify", "--mode", "constraint", str(fondp), CANONICAL, text]
    code, doc = run_cli(capsys, *args)
    assert code == 0
    code, doc = run_cli(capsys, "--budget", "5", *args)
    assert code == 2
    assert doc["error"] == "SizeBudgetExceededError"
    monkeypatch.setenv("GENPLAN_BUDGET", "5")
    code, doc = run_cli(capsys, *args)
    assert code == 2
    assert doc["error"] == "SizeBudgetExceededError"


def test_ltl2dpw_output_formats(tmp_path, capsys, monkeypatch):
    """-o writes exactly one file, in the format --format asks for."""
    import genplan.cli as cli

    saved = []
    save_json = cli.save_json
    monkeypatch.setattr(cli, "save_json", lambda doc, path: saved.append(path) or save_json(doc, path))
    argv = ["ltl2dpw", "F a", "--alphabet", "a,b"]

    out = tmp_path / "json" / "dpw.json"
    out.parent.mkdir()
    code, doc = run_cli(capsys, *argv, "-o", str(out))
    assert code == 0 and doc["output"] == str(out)
    assert saved == [str(out)]
    assert os.listdir(out.parent) == ["dpw.json"]
    assert set(json.loads(out.read_text())) == {"states", "alphabet", "delta", "initial", "priority"}

    saved.clear()
    out = tmp_path / "dot" / "dpw.dot"
    out.parent.mkdir()
    code, _ = run_cli(capsys, *argv, "--format", "dot", "-o", str(out))
    assert code == 0
    assert saved == []
    assert os.listdir(out.parent) == ["dpw.dot"]
    assert out.read_text().startswith("digraph")


def _edited_problem(tmp_path, name, edit):
    with open(COUNTER_FONDP) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _add_ghost_action(doc):
    doc["actions"].append("Ghost")
    doc["avail"]["X>0"].append("Ghost")


def test_invalid_problem_is_malformed_input(tmp_path, capsys):
    """A problem that fails validation is malformed input (exit 2) for every
    command that loads one: not a negative answer, not a traceback."""
    outside = _edited_problem(tmp_path, "outside", lambda d: d.update(init=["nowhere"]))
    ghost = _edited_problem(tmp_path, "ghost", _add_ghost_action)
    for path, message in ((outside, "'nowhere' not in states"), (ghost, "succ('Ghost', 'X>0')")):
        for argv in (
            ["plan", path],
            ["verify", "--mode", "fair", path, CANONICAL],
            ["simulate", path, "--policy", CANONICAL],
            ["synthesize", path],
        ):
            code, doc = run_cli(capsys, *argv)
            assert code == 2, argv
            assert doc["error"] == "MalformedInputError"
            assert message in doc["message"]


def test_missing_field_is_malformed_input(tmp_path, capsys):
    path = _edited_problem(tmp_path, "nosucc", lambda d: d.pop("succ"))
    code, doc = run_cli(capsys, "plan", path)
    assert code == 2
    assert doc["message"] == "malformed problem JSON: missing key 'succ'"


def test_internal_error_is_not_malformed_input(monkeypatch):
    """Only input errors exit 2; a KeyError raised inside the planner is a
    fault of the program and propagates."""

    def broken(p):
        raise KeyError("internal")

    monkeypatch.setattr(fond, "strong_cyclic_plan", broken)
    with pytest.raises(KeyError):
        main(["plan", COUNTER_FONDP])


def test_ltl2dpw_deep_nesting_is_malformed_input(capsys):
    for text in ("X " * 3000 + "a", "(" * 1200 + "a" + ")" * 1200):
        code, doc = run_cli(capsys, "ltl2dpw", text, "--alphabet", "a,b")
        assert code == 2
        assert doc["error"] == "LtlParseError"


def test_bad_budget_variable_is_malformed_input(capsys, monkeypatch):
    monkeypatch.setenv("GENPLAN_BUDGET", "lots")
    code, doc = run_cli(capsys, "plan", COUNTER_FONDP)
    assert code == 2
    assert doc["error"] == "MalformedInputError"
    assert "GENPLAN_BUDGET" in doc["message"]


def test_unhashable_problem_value_is_malformed_input(tmp_path, capsys):
    """A list or object where a problem names a state, observation or
    action is malformed input, not a traceback."""
    edits = {
        "obs": lambda d: d["obs"].update({"X=0": ["a"]}),
        "states": lambda d: d["states"].append(["X=2"]),
        "observations": lambda d: d["observations"].append({"o": 1}),
        "actions": lambda d: d["actions"].append(["Dec"]),
        "avail": lambda d: d["avail"]["X>0"].append(["Inc"]),
        "succ": lambda d: d["succ"]["Dec|X>0"].append(["X=0"]),
    }
    for name, edit in edits.items():
        code, doc = run_cli(capsys, "plan", _edited_problem(tmp_path, name, edit))
        assert code == 2, name
        assert doc["error"] == "MalformedInputError"
        assert doc["message"].startswith("malformed problem JSON: ")


def test_wrong_shaped_problem_fields_are_malformed_input(tmp_path, capsys):
    """A string where the format has a list (read letter by letter it
    would name one-letter states) and a list of pairs where it has an
    object are malformed input for every command that loads a problem,
    not an answer."""
    letters = {
        "states": "ab", "init": "a", "observations": "ab", "actions": ["go"], "goal_states": "b",
        "obs": {"a": "a", "b": "b"}, "avail": {"a": ["go"], "b": []}, "succ": {"go|a": "b"},
    }
    pairs = _edited_problem(tmp_path, "pairs", lambda d: d.update(obs=[*d["obs"].items()]))
    path = tmp_path / "letters.json"
    path.write_text(json.dumps(letters))
    for problem in (str(path), pairs):
        for argv in (
            ["plan", problem],
            ["verify", "--mode", "fair", problem, CANONICAL],
            ["simulate", problem, "--policy", CANONICAL],
            ["synthesize", problem],
            ["show", problem],
        ):
            code, doc = run_cli(capsys, *argv)
            assert code == 2, argv
            assert doc["error"] == "MalformedInputError"
            assert doc["message"].startswith("malformed problem JSON: "), argv


def test_misshapen_annotations_are_malformed_input(tmp_path, capsys):
    """Annotations that counter constraints cannot read (not an object, an
    effect that is no object, zero variables or variables that are no list
    of names) are malformed input, not a traceback."""
    edits = {
        "list": lambda d: d.update(annotations=[d["annotations"]]),
        "effect": lambda d: d["annotations"]["action_effects"].update(Dec="dec"),
        "zero": lambda d: d["annotations"]["obs_zero"].update({"X=0": 7}),
        "variables": lambda d: d["annotations"].update(variables=[["X"]]),
    }
    for name, edit in edits.items():
        path = _edited_problem(tmp_path, name, edit)
        code, doc = run_cli(capsys, "synthesize", path, "--constraint", "qnp(X)")
        assert code == 2, name
        assert doc["error"] == "MalformedInputError"
        assert doc["message"].startswith("malformed problem JSON: annotations")


def test_undeclared_memory_is_malformed_input(tmp_path, capsys):
    """A policy that names a memory state outside memory_states, as its
    initial state, an update target or the memory of an update or output
    entry, is malformed input."""
    edits = {
        "initial": {"initial": "m1"},
        "update target": {"update": [["m0", "X>0", "m1"]]},
        "update memory": {"update": [["m1", "X>0", "m0"]]},
        "output memory": {"output": [["m0", "X>0", "Dec"], ["m1", "X=0", "Dec"]]},
    }
    for name, edit in edits.items():
        policy = tmp_path / "policy.json"
        save_json({**DEC_POLICY, **edit}, str(policy))
        code, doc = run_cli(capsys, "verify", "--mode", "fair", COUNTER_FONDP, str(policy))
        assert code == 2, name
        assert doc["error"] == "MalformedInputError"
        assert doc["message"] == "malformed policy JSON: memory states not in memory_states: ['m1']"


@pytest.mark.parametrize("doc", [
    {"memory_states": "m", "initial": "m", "update": [], "output": []},
    {"memory_states": ["m"], "initial": "m", "update": [], "output": ["mob"]},
])
def test_policy_strings_in_place_of_lists_are_malformed_input(tmp_path, capsys, doc):
    """A string where a policy has a list (``memory_states``, or an update
    or output entry, which would unpack letter by letter) is malformed
    input, not a policy that stops and so fails to be a solution."""
    policy = tmp_path / "policy.json"
    save_json(doc, str(policy))
    code, out = run_cli(capsys, "verify", "--mode", "strong", COUNTER_FONDP, str(policy))
    assert code == 2
    assert out["error"] == "MalformedInputError"
    assert out["message"].startswith("malformed policy JSON: ")


def test_ltl2dpw_tableau_budget_is_malformed_input(capsys):
    code, doc = run_cli(capsys, "--budget", "1000", "ltl2dpw", "X " * 20 + "a", "--alphabet", "a,b")
    assert code == 2
    assert doc["error"] == "SizeBudgetExceededError"
    assert doc["message"].startswith("tableau") and "budget 1000" in doc["message"]


@pytest.mark.parametrize("formula, states, digest", [
    ("(G F a & G F b) | F c", 32, "8d8cb4bee8406c31195ba27f4f26b36f0b9746cb"),
    ("a U (b U c) | G F a", 51, "00c6def92b6a44d20acde10222a7a8783d0cf2c6"),
    ("X X X a", 7, "08a98b538a817a33439d302413b9c357de751830"),
])
def test_ltl2dpw_reports_are_pinned(capsys, formula, states, digest):
    """The closure tableau (its atoms and its counter), the NBA conjunction
    product and the determinization number their states in the order
    their forward search finds them, so each report, DPW included, keeps
    its bytes: a conjunction under a disjunction, nested Untils and an X
    chain."""
    assert main(["ltl2dpw", formula, "--alphabet", "a,b,c"]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["dpw"]["states"]) == states
    assert hashlib.sha1(out.encode()).hexdigest() == digest


DEC_POLICY = {
    "memory_states": ["m0"],
    "initial": "m0",
    "update": [],
    "output": [["m0", "X>0", "Dec"]],
}


def test_verify_policy_product_honours_budget(tmp_path, capsys):
    """The policy product counts its nodes against --budget in plan and
    verify; overflowing is malformed input (exit 2) naming the stage."""
    policy = tmp_path / "dec.json"
    save_json(DEC_POLICY, str(policy))
    for argv in (
        ["verify", "--mode", "fair", COUNTER_FONDP, str(policy)],
        ["verify", "--mode", "strong", COUNTER_FONDP, str(policy)],
        ["plan", COUNTER_FONDP],
    ):
        code, doc = run_cli(capsys, "--budget", "1", *argv)
        assert code == 2, argv
        assert doc["error"] == "SizeBudgetExceededError"
        assert doc["message"] == "policy product exceeded budget: 2 nodes built, budget 1"
        code, doc = run_cli(capsys, "--budget", "2", *argv)
        assert code in (0, 1) and "error" not in doc, argv


def test_verify_constraint_budget_reaches_the_nba_product(tmp_path, capsys):
    """A budget the policy product and the tableaux fit in still stops the
    constraint check at its product with the conjunct NBAs."""
    fondp = tmp_path / "twovar.json"
    assert main(["qnp2fond", TWOVAR_QNP, "-o", str(fondp)]) == 0
    capsys.readouterr()
    text = _qnp_as_ltl_text(fondp, ["X", "Y"])
    args = ["verify", "--mode", "constraint", str(fondp), CANONICAL, text]
    code, doc = run_cli(capsys, "--budget", "20", *args)
    assert code == 2
    assert doc["error"] == "SizeBudgetExceededError"
    assert doc["message"].startswith("constraint-check product exceeded budget")


def test_verify_builtin_constraint_budget_stops_at_policy_product(tmp_path, capsys):
    """Builtin counter constraints build no automaton, so --budget stops
    their check at the policy product."""
    fondp = tmp_path / "twovar.json"
    assert main(["qnp2fond", TWOVAR_QNP, "-o", str(fondp)]) == 0
    capsys.readouterr()
    args = ["verify", "--mode", "constraint", str(fondp), CANONICAL, "qnp(X) & qnp(Y)"]
    code, doc = run_cli(capsys, "--budget", "2", *args)
    assert code == 2
    assert doc["error"] == "SizeBudgetExceededError"
    assert doc["message"].startswith("policy product exceeded budget")
    code, doc = run_cli(capsys, "--budget", "4", *args)
    assert code == 0 and doc["verdict"] == "SOLVES_UNDER_CONSTRAINT"


def test_verify_constraint_unknown_variable(tmp_path, capsys):
    """A builtin counter constraint on a variable the problem does not
    annotate is malformed input."""
    policy = tmp_path / "dec.json"
    save_json(DEC_POLICY, str(policy))
    args = ["verify", "--mode", "constraint", COUNTER_FONDP, str(policy), "qnp(Y)"]
    code, doc = run_cli(capsys, *args)
    assert code == 2
    assert doc["error"] == "UnknownVariableError"


def test_parser_is_built_once_and_keeps_no_parsed_state(tmp_path, capsys):
    """Consecutive requests share the parser but not their arguments: a
    --budget or a subcommand option of one call is not seen by the next."""
    assert build_parser() is build_parser()
    policy = tmp_path / "dec.json"
    save_json(DEC_POLICY, str(policy))
    code, _ = run_cli(capsys, "--budget", "1", "verify", "--mode", "fair", COUNTER_FONDP, str(policy))
    assert code == 2
    code, doc = run_cli(capsys, "plan", COUNTER_FONDP)
    assert code == 0 and doc["verification"]["verdict"] == "FAIR_SOLUTION"
    code, doc = run_cli(capsys, "verify", "--mode", "strong", COUNTER_FONDP, str(policy))
    assert code == 1 and doc["mode"] == "strong"
    parsed = vars(build_parser().parse_args(["plan", COUNTER_FONDP]))
    assert parsed["budget"] is None and "mode" not in parsed and "policy" not in parsed


# ---------------------------------------------------------------------------
# Fuzzing the input contract
# ---------------------------------------------------------------------------


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _paths(doc, at=()):
    """Every position in a JSON document, the root included."""
    yield at
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, at + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, at + (i,))


def _mutate(doc, at, how):
    """Apply one mutation at position ``at``: drop it, or put a list, an
    object, an unknown name or a number in its place."""
    if not at:
        return {"drop": {}, "list": [doc], "object": {"x": doc}, "ghost": "ghost", "number": 7}[how]
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    value = parent[at[-1]]
    if how == "drop":
        del parent[at[-1]]
    else:
        parent[at[-1]] = {
            "list": [value], "object": {"x": value}, "ghost": "ghost", "number": 7
        }[how]
    return doc


@st.composite
def _mutated(draw, doc, max_mutations=3):
    for _ in range(draw(st.integers(1, max_mutations))):
        at = draw(st.sampled_from(list(_paths(doc))))
        doc = _mutate(doc, at, draw(st.sampled_from(["drop", "list", "object", "ghost", "number"])))
    return doc


def _well_formed(doc):
    try:
        return not validate(pondp_from_json_dict(doc))
    except GenplanError:
        return False


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cli_input_contract_under_mutated_json(data):
    """plan, verify, synthesize and simulate on mutated problem and policy
    JSON exit 0, 1 or 2, never raise, and answer 1 only for a problem that
    passes validate."""
    problem = _load_json(COUNTER_FONDP)
    policy = DEC_POLICY
    if data.draw(st.booleans()):
        problem = data.draw(_mutated(problem))
    else:
        policy = data.draw(_mutated(json.loads(json.dumps(policy))))
    with tempfile.TemporaryDirectory() as tmp:
        problem_path = os.path.join(tmp, "problem.json")
        policy_path = os.path.join(tmp, "policy.json")
        save_json(problem, problem_path)
        save_json(policy, policy_path)
        for argv in (
            ["plan", problem_path],
            ["verify", "--mode", "fair", problem_path, policy_path],
            ["verify", "--mode", "strong", problem_path, policy_path],
            ["synthesize", problem_path, "--constraint", "qnp(X)"],
            ["simulate", problem_path, "--policy", policy_path],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                assert _well_formed(problem), argv


FORMULA_PIECES = [
    "G", "F", "X", "U", "!", "&", "|", "->", "(", ")", "Dec", "Inc", '"X=0"',
    '"X>0"', "true", "false", "Y", "qnp(X)", '"', "-", "@",
]


@st.composite
def _mutated_formulas(draw):
    """Formula text, as a list of tokens, with one to three tokens
    inserted, deleted or replaced at random positions."""
    tokens = draw(
        st.sampled_from(['G F Dec -> F "X=0"', "G ( Dec -> F Inc )", "F G ! Inc & G F Dec", "qnp(X)"])
    ).split()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(tokens)))
        piece = draw(st.sampled_from(FORMULA_PIECES))
        how = draw(st.sampled_from(["insert", "delete", "replace"]))
        tokens[at:at + (how != "insert")] = [] if how == "delete" else [piece]
    return " ".join(tokens)


def _constraint_parses(text, p):
    try:
        _parse_constraint(text, p)
    except GenplanError:
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(_mutated_formulas())
def test_cli_input_contract_under_mutated_formula_text(text):
    """ltl2dpw, synthesize --constraint and verify --mode constraint on
    mutated formula text exit 0, 1 or 2, never raise, and answer 1 only for
    a constraint that parses."""
    p = load_pondp(COUNTER_FONDP)
    with tempfile.TemporaryDirectory() as tmp:
        policy_path = os.path.join(tmp, "policy.json")
        save_json(DEC_POLICY, policy_path)
        for argv in (
            ["ltl2dpw", "--alphabet", "X=0,X>0,Dec,Inc", "--", text],
            ["synthesize", COUNTER_FONDP, f"--constraint={text}"],
            ["verify", "--mode", "constraint", "--", COUNTER_FONDP, policy_path, text],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["--budget", "2000", *argv])
            assert code in (0, 1, 2), argv
            if code == 1:
                assert _constraint_parses(text, p), argv
