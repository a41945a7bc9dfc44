"""Explicit-state model checker (the reproduction's stand-in for TLC).

Section 5 of the paper model-checks TLA+ descriptions of the TokenCMP
correctness substrate and a flat simplification of DirectoryCMP.  This
module provides the same technique class: exhaustive breadth-first
enumeration of a down-scaled protocol model's state space, checking

* **safety** — a model-supplied invariant on every reachable state
  (token conservation, single-writer/multi-reader, value coherence);
* **deadlock freedom** — every non-quiescent state has at least one
  enabled transition;
* **liveness under fairness** — every reachable state can reach a
  quiescent state (no pending requests, empty network).  In a finite
  graph this implies that under strong fairness no request starves,
  which matches the paper's "eventually satisfies all requests, under
  certain fairness constraints".

Models are pure-Python objects over hashable states; see
:mod:`repro.verification.token_model` and
:mod:`repro.verification.dir_model`.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.common.errors import VerificationError

State = Hashable
Transition = Tuple[str, State]


class Model:
    """Interface a protocol model implements for the checker."""

    name = "model"

    def initial_states(self) -> Iterable[State]:
        raise NotImplementedError

    def transitions(self, state: State) -> List[Transition]:
        """All enabled ``(label, successor)`` pairs from ``state``."""
        raise NotImplementedError

    def check_invariants(self, state: State) -> None:
        """Raise :class:`VerificationError` if ``state`` is inconsistent."""

    def is_quiescent(self, state: State) -> bool:
        """True when nothing is pending (used for deadlock + liveness)."""
        raise NotImplementedError

    def canonicalize(self, state: State) -> State:
        """Symmetry reduction hook (paper Section 5's technique list).

        Return a canonical representative of ``state``'s symmetry orbit
        (e.g. the lexicographic minimum over processor permutations).
        The default is the identity — no reduction.  Soundness requires
        the model to actually be symmetric under the applied permutations
        (invariants and quiescence must be permutation-invariant).

        The checker requires ``canonicalize`` to be pure and idempotent:
        it interns raw successors and their representatives in one table
        and calls this hook at most once per distinct raw state, so a
        representative must map to itself
        (``canonicalize(canonicalize(s)) == canonicalize(s)``).
        """
        return state


@dataclasses.dataclass
class CheckResult:
    """Statistics from one exhaustive exploration."""

    model: str
    states: int
    transitions: int
    diameter: int
    quiescent_states: int
    elapsed_s: float
    liveness_checked: bool

    def to_dict(self) -> Dict[str, object]:
        """Deterministic projection: everything except wall time.

        ``elapsed_s`` is a measurement of the checking machine, not of
        the model, so it is excluded from any output that gets compared
        across runs (result caching, CI diffs, pinned-count tests).
        """
        return {
            "model": self.model,
            "states": self.states,
            "transitions": self.transitions,
            "diameter": self.diameter,
            "quiescent_states": self.quiescent_states,
            "liveness_checked": self.liveness_checked,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.model}: {self.states} states, {self.transitions} transitions, "
            f"diameter {self.diameter}, {self.elapsed_s:.2f}s"
        )


def check(
    model: Model,
    max_states: Optional[int] = None,
    check_liveness: bool = True,
) -> CheckResult:
    """Exhaustively explore ``model``; raise on any property violation.

    Raises :class:`VerificationError` with a shortest-path counterexample
    trace for safety violations and deadlocks, and with a culprit state
    for liveness violations.

    States are interned: ``ids`` maps every canonical state, and every
    raw successor seen so far, to a dense integer id handed out in BFS
    order.  ``canonicalize`` therefore runs once per distinct raw
    successor, and everything else -- the frontier, the parent links,
    quiescence and the liveness graph -- is kept per id.
    """
    start = time.perf_counter()
    transitions_of = model.transitions
    canonicalize = model.canonicalize
    check_invariants = model.check_invariants
    is_quiescent = model.is_quiescent

    ids: Dict[State, int] = {}
    states: List[State] = []
    parent = array("l")  # id of the state each id was discovered from
    labels: List[Optional[str]] = []  # label of that discovering transition
    quiescent = bytearray()
    preds: Optional[List[List[int]]] = [] if check_liveness else None
    for s in model.initial_states():
        s = canonicalize(s)
        if s not in ids:
            ids[s] = len(states)
            states.append(s)
            parent.append(-1)
            labels.append(None)
            if preds is not None:
                preds.append([])

    transitions = 0
    depth = 0
    level_end = len(states)  # ids below this are at depth ``depth``
    sid = 0
    while sid < len(states):
        if sid == level_end:
            depth += 1
            level_end = len(states)
        state = states[sid]
        try:
            check_invariants(state)
        except VerificationError as err:
            raise VerificationError(
                f"{model.name}: invariant violated: {err}\n"
                + _trace(states, parent, labels, sid)
            ) from err
        succs = transitions_of(state)
        transitions += len(succs)
        if is_quiescent(state):
            quiescent.append(1)
        elif not succs:
            raise VerificationError(
                f"{model.name}: deadlock (non-quiescent state with no transitions)\n"
                + _trace(states, parent, labels, sid)
            )
        else:
            quiescent.append(0)
        for label, nxt in succs:
            nid = ids.get(nxt)
            if nid is None:
                canon = canonicalize(nxt)
                nid = ids.get(canon)
                if nid is None:
                    nid = len(states)
                    if max_states is not None and nid >= max_states:
                        raise VerificationError(
                            f"{model.name}: state space exceeds {max_states} states"
                        )
                    ids[canon] = nid
                    states.append(canon)
                    parent.append(sid)
                    labels.append(label)
                    if preds is not None:
                        preds.append([])
                ids[nxt] = nid
            if preds is not None:
                preds[nid].append(sid)
        sid += 1

    if preds is not None:
        _check_liveness(model, states, quiescent, preds)

    return CheckResult(
        model=model.name,
        states=len(states),
        transitions=transitions,
        diameter=depth,
        quiescent_states=quiescent.count(1),
        elapsed_s=time.perf_counter() - start,
        liveness_checked=check_liveness,
    )


def _check_liveness(model: Model, states, quiescent, preds) -> None:
    """Every reachable state must be able to reach a quiescent state.

    Backward reachability from the quiescent ids over the predecessor
    lists ``preds``; ``good[i]`` is set once id ``i`` can reach quiescence.
    """
    good = bytearray(quiescent)
    stack = [i for i, q in enumerate(quiescent) if q]
    while stack:
        for pred in preds[stack.pop()]:
            if not good[pred]:
                good[pred] = 1
                stack.append(pred)
    stuck = good.count(0)
    if stuck:
        raise VerificationError(
            f"{model.name}: liveness violated — {stuck} states cannot reach "
            f"quiescence, e.g. {states[good.index(0)]!r}"
        )


def _trace(states, parent, labels, sid) -> str:
    """Shortest counterexample trace from an initial state to id ``sid``."""
    steps = []
    while parent[sid] >= 0:
        steps.append(f"  {labels[sid]} -> {states[sid]!r}")
        sid = parent[sid]
    steps.append(f"  initial: {states[sid]!r}")
    return "counterexample (most recent last):\n" + "\n".join(reversed(steps))


def spec_size(obj) -> int:
    """Non-comment, non-blank source lines of a model — the analogue of
    the paper's TLA+ line-count complexity metric."""
    import inspect

    source = inspect.getsource(obj)
    count = 0
    in_doc = False
    for line in source.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith('"""') or stripped.startswith("'''"):
            if not (in_doc is False and stripped.endswith(('"""', "'''")) and len(stripped) > 3):
                in_doc = not in_doc
            continue
        if in_doc:
            continue
        count += 1
    return count
