"""Spans around genplan's layer functions, recorded from outside the program.

``Tracer.install`` replaces each function in ``WRAPPED`` by a wrapper, in
its own module and under every other name a genplan module binds it to
(``cli.check_solution`` and ``fond.check_solution`` are the same function
as ``model.check_solution``).  A span records its name, start, end, the
index of the span that was open when it began, and the request id; size
counts are read from the call's arguments and return value.  Spans stay in
memory until the request ends.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

WRAPPED = {
    "cli": ("main",),
    "qnp": ("parse_qnp", "close_qnp", "syntactic_projection"),
    "projection": ("project",),
    "model": ("load_pondp", "save_json", "check_solution"),
    "fond": ("strong_cyclic_plan",),
    "ltl": ("parse_ltl", "ltl_to_nba"),
    "omega": ("nba_to_dpw", "quotient_dpw", "build_parity_game", "solve_parity", "synthesize"),
    "constraints": ("counterexample_search",),
}


def _mode_name(mode):
    return mode.lower() if isinstance(mode, str) else "under"


def _formula_key(f, sigma):
    from genplan import ltl

    text = ltl.pretty(f) + "|" + ",".join(sorted(map(str, sigma)))
    return hashlib.sha1(text.encode()).hexdigest()[:16]


# per function: (args, kwargs, result) -> counts recorded on its span
_COUNTS = {
    "cli.main": lambda a, k, r: {"exit": r},
    "ltl.ltl_to_nba": lambda a, k, r: {
        "nba_states": len(r.states),
        "formula": _formula_key(a[0], a[1] if len(a) > 1 else k.get("alphabet") or ()),
    },
    "omega.quotient_dpw": lambda a, k, r: {"dpw_states_raw": len(a[0].states)},
    "omega.nba_to_dpw": lambda a, k, r: {
        "dpw_states": len(r.states), "dpw_priorities": len(set(r.priority.values())),
    },
    "omega.build_parity_game": lambda a, k, r: {
        "game_nodes": len(r.nodes), "game_edges": sum(len(e) for e in r.edges.values()),
    },
    "fond.strong_cyclic_plan": lambda a, k, r: {"problem_states": len(a[0].states)},
    "projection.project": lambda a, k, r: {
        "member_transitions": sum(
            len(t) for m in a[0].members for t in m.succ.values()
        ),
    },
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._open = []
        self._restore = []

    def install(self):
        import importlib

        for mod, names in WRAPPED.items():
            module = importlib.import_module(f"genplan.{mod}")
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{mod}.{name}", original)
                for m in list(sys.modules.values()):
                    if not getattr(m, "__name__", "").startswith("genplan"):
                        continue
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore = []

    def _wrap(self, name, fn):
        counts = _COUNTS.get(name)
        is_check = name == "model.check_solution"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if is_check:
                span_name += "." + _mode_name(args[2] if len(args) > 2 else kwargs["mode"])
            span = {
                "name": span_name,
                "request": self.request,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(),
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return wrapper


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def ancestors(spans, i):
    while spans[i]["parent"] is not None:
        i = spans[i]["parent"]
        yield spans[i]["name"]
