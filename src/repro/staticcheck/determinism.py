"""Determinism lint (rule family ``det-*``).

Byte-identical reruns are load-bearing in this repo: the experiment
engine's content-addressed result cache (PR 2), the Chrome-trace
comparison (PR 3), and the perf-regression gate (PR 4) all diff outputs
directly.  The classic ways a Python simulator silently loses that
property:

* ``det-set-iter`` — iterating a ``set``/``frozenset`` where order
  reaches behaviour.  ``NodeId`` is a NamedTuple of (str-enum, int, int);
  its hash — and therefore raw set order — varies per process under hash
  randomization, so a fan-out loop over a sharer *set* delivers
  invalidations in a different order on every run.
* ``det-wallclock`` — ``time.time()`` / ``datetime.now()`` inside code
  whose outputs are compared across runs.  (``perf_counter`` /
  ``perf_counter_ns`` are fine: they are used for *measuring*, and the
  reporters exclude elapsed time from comparable projections.)
* ``det-unseeded-random`` — the ``random`` module's global generator, or
  ``Random()`` constructed without a seed.  All simulation randomness
  must flow from the seeded per-run RNG.
* ``det-float-time`` — ``round()``/``float()`` applied to picosecond
  quantities inside the simulation core; timestamps are integers end to
  end and float rounding reintroduces platform drift.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.staticcheck.base import Pass, attr_chain, call_name, module_in
from repro.staticcheck.findings import Finding
from repro.staticcheck.source import SourceFile

#: Packages whose behaviour is simulation-visible.
SIM_SCOPE = (
    "repro.sim",
    "repro.core",
    "repro.directory",
    "repro.interconnect",
    "repro.snooping",
    "repro.perfect",
    "repro.memory",
    "repro.cpu",
    "repro.system",
)

#: set-iteration also corrupts the model checker's transition order.
SET_ITER_SCOPE = SIM_SCOPE + ("repro.verification",)

#: wall-clock reads additionally poison report/battery comparability.
WALLCLOCK_SCOPE = SET_ITER_SCOPE + ("repro.analysis",)

FLOAT_TIME_SCOPE = (
    "repro.sim",
    "repro.core",
    "repro.directory",
    "repro.interconnect",
)

#: Consumers that erase iteration order; a set feeding these is fine.
_ORDER_INSENSITIVE = {
    "sorted", "min", "max", "sum", "any", "all", "len", "set", "frozenset",
}

_WALLCLOCK_CHAINS = {
    "time.time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
}

_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "getrandbits", "gauss", "seed",
}

_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}


class _FileNodes:
    """The nodes every ``det-*`` detector reads, from one walk of a file.

    The walk is breadth-first, like :func:`ast.walk`, and carries the
    chain of functions enclosing each node.  A function's local bindings
    therefore cover its whole body, nested functions included, with the
    last assignment in walk order winning.
    """

    def __init__(self, tree: ast.AST):
        self.calls: List[ast.Call] = []
        self.time_imports: List[ast.ImportFrom] = []
        #: ``self.X`` attribute names assigned a set anywhere in the file.
        self.set_attrs: Set[str] = set()
        #: ids of comprehensions passed straight to an order-insensitive call.
        self.blessed: Set[int] = set()
        #: (loop or comprehension, the functions enclosing it)
        self.loops: List[Tuple[ast.AST, Tuple[ast.AST, ...]]] = []
        #: id(function) -> local name -> assigned value
        self.assigns: Dict[int, Dict[str, ast.AST]] = {}
        queue = deque([(tree, ())])
        while queue:
            node, fns = queue.popleft()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.assigns[id(node)] = {}
                inner = fns + (node,)
            else:
                self._visit(node, fns)
                inner = fns
            for child in ast.iter_child_nodes(node):
                queue.append((child, inner))

    def _visit(self, node: ast.AST, fns: Tuple[ast.AST, ...]) -> None:
        if isinstance(node, ast.Call):
            self.calls.append(node)
            if call_name(node) in _ORDER_INSENSITIVE:
                for arg in node.args:
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                        self.blessed.add(id(arg))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if isinstance(node, ast.Assign) and len(targets) == 1:
                tgt = targets[0]
                if isinstance(tgt, ast.Name):
                    for fn in fns:
                        self.assigns[id(fn)][tgt.id] = node.value
            if _is_set_value(node.value):
                for tgt in targets:
                    if (
                        isinstance(tgt, ast.Attribute)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "self"
                    ):
                        self.set_attrs.add(tgt.attr)
        elif isinstance(node, (ast.For, ast.GeneratorExp, ast.ListComp)):
            # Building a set or dict is not iteration order, so set and
            # dict comprehensions are never collected.
            if fns:
                self.loops.append((node, fns))
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            self.time_imports.append(node)


def _is_set_value(value: Optional[ast.AST]) -> bool:
    return isinstance(value, (ast.Set, ast.SetComp)) or (
        isinstance(value, ast.Call) and call_name(value) in ("set", "frozenset")
    )


def _is_setlike(
    expr: ast.AST, assign: Dict[str, ast.AST], set_attrs: Set[str], depth: int = 6
) -> bool:
    if depth <= 0 or expr is None:
        return False
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        if name in ("set", "frozenset"):
            return True
        func = expr.func
        if isinstance(func, ast.Attribute):
            if name == "copy":
                return _is_setlike(func.value, assign, set_attrs, depth - 1)
            if name in _SET_METHODS:
                return _is_setlike(func.value, assign, set_attrs, depth - 1)
            if name == "get" and len(expr.args) >= 2:
                return _is_setlike(expr.args[1], assign, set_attrs, depth - 1)
        return False
    if isinstance(expr, ast.Name):
        if expr.id in assign:
            return _is_setlike(assign[expr.id], assign, set_attrs, depth - 1)
        return False
    if isinstance(expr, ast.Attribute):
        return (
            isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in set_attrs
        )
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
    ):
        return _is_setlike(expr.left, assign, set_attrs, depth - 1) or _is_setlike(
            expr.right, assign, set_attrs, depth - 1
        )
    if isinstance(expr, ast.IfExp):
        return _is_setlike(expr.body, assign, set_attrs, depth - 1) or _is_setlike(
            expr.orelse, assign, set_attrs, depth - 1
        )
    return False


class DeterminismPass(Pass):
    id = "determinism"
    description = "no unordered iteration, wall-clock, or unseeded randomness"
    rules = (
        "det-set-iter",
        "det-wallclock",
        "det-unseeded-random",
        "det-float-time",
    )
    rule_docs = {
        "det-set-iter": (
            "A for-loop or comprehension iterates a set-typed expression "
            "in simulation/verification code.  NodeId hashes vary per "
            "process under hash randomization, so raw set order reorders "
            "the event stream and breaks byte-identical reruns.  Iterate "
            "sorted(...) instead; feeding a set to an order-insensitive "
            "consumer (sorted, min, sum, ...) is fine."
        ),
        "det-wallclock": (
            "time.time()/datetime.now() in compared code.  Wall-clock "
            "values differ across runs, so they must never reach a "
            "comparable projection; use time.perf_counter() for "
            "measurement and keep elapsed time out of outputs."
        ),
        "det-unseeded-random": (
            "The random module's process-global generator (or Random() "
            "without a seed) feeds simulation state; reruns diverge.  "
            "Thread an explicitly seeded Random through instead."
        ),
        "det-float-time": (
            "round()/float() applied to a picosecond quantity in the "
            "simulation core.  Simulated time is integral end to end; "
            "float rounding reintroduces platform drift."
        ),
    }
    rule_examples = {
        "det-set-iter": (
            "repro/sim/machine.py:88: error[det-set-iter] loop iterates "
            "a set ('self._dirty'): order varies under hash "
            "randomization — iterate sorted(...)"
        ),
        "det-wallclock": (
            "repro/exp/engine.py:31: error[det-wallclock] time.time() "
            "in compared code: use perf_counter for measurement and "
            "keep wall-clock out of outputs"
        ),
        "det-unseeded-random": (
            "repro/workloads/oltp.py:12: error[det-unseeded-random] "
            "module-level random.choice(): seeded Random required"
        ),
        "det-float-time": (
            "repro/core/timeout.py:55: error[det-float-time] round() on "
            "a picosecond quantity (self._avg_ps * ...): simulated time "
            "must stay integral"
        ),
    }

    def check(self, files: List[SourceFile]) -> List[Finding]:
        findings: List[Finding] = []
        for src in files:
            fixture = src.module == "<fixture>"
            if not (fixture or src.module.startswith("repro")):
                continue
            nodes = _FileNodes(src.tree)
            if fixture or module_in(src, SET_ITER_SCOPE):
                findings.extend(self._set_iteration(src, nodes))
            if fixture or module_in(src, WALLCLOCK_SCOPE):
                findings.extend(self._wallclock(src, nodes))
            findings.extend(self._unseeded_random(src, nodes))
            if fixture or module_in(src, FLOAT_TIME_SCOPE):
                findings.extend(self._float_time(src, nodes))
        return findings

    # -- det-set-iter -----------------------------------------------------
    def _set_iteration(self, src: SourceFile, nodes: _FileNodes) -> List[Finding]:
        out: List[Finding] = []
        for node, fns in nodes.loops:
            # Comprehensions wrapped directly in an order-insensitive
            # consumer are fine.
            if id(node) in nodes.blessed:
                continue
            if isinstance(node, ast.For):
                iters = [node.iter]
            else:
                iters = [gen.iter for gen in node.generators]
            # Each enclosing function resolves names with its own
            # bindings, and each that finds a set reports the loop.
            for fn in fns:
                assign = nodes.assigns[id(fn)]
                for it in iters:
                    if _is_setlike(it, assign, nodes.set_attrs):
                        out.append(
                            self.finding(
                                src, node, "det-set-iter",
                                "iteration over an unordered set: order is "
                                "hash-randomized per process — iterate "
                                "sorted(...) instead",
                            )
                        )
        return out

    # -- det-wallclock ----------------------------------------------------
    def _wallclock(self, src: SourceFile, nodes: _FileNodes) -> List[Finding]:
        out: List[Finding] = []
        for node in nodes.calls:
            chain = attr_chain(node.func)
            if chain in _WALLCLOCK_CHAINS:
                out.append(
                    self.finding(
                        src, node, "det-wallclock",
                        f"wall-clock read ({chain}) makes output "
                        f"run-dependent — use time.perf_counter() for "
                        f"measurement and exclude it from comparable "
                        f"projections",
                    )
                )
        for node in nodes.time_imports:
            if any(alias.name == "time" for alias in node.names):
                out.append(
                    self.finding(
                        src, node, "det-wallclock",
                        "importing time.time into deterministic code — "
                        "use time.perf_counter() instead",
                    )
                )
        return out

    # -- det-unseeded-random ----------------------------------------------
    def _unseeded_random(self, src: SourceFile, nodes: _FileNodes) -> List[Finding]:
        out: List[Finding] = []
        for node in nodes.calls:
            chain = attr_chain(node.func)
            if (
                chain
                and chain.startswith("random.")
                and chain.split(".", 1)[1] in _GLOBAL_RANDOM_FNS
            ):
                out.append(
                    self.finding(
                        src, node, "det-unseeded-random",
                        f"{chain}() uses the process-global generator — draw "
                        f"from the seeded per-run RNG instead",
                    )
                )
            elif (
                chain in ("Random", "random.Random")
                and not node.args
                and not node.keywords
            ):
                out.append(
                    self.finding(
                        src, node, "det-unseeded-random",
                        "Random() without a seed is seeded from the OS — pass "
                        "an explicit seed",
                    )
                )
        return out

    # -- det-float-time ---------------------------------------------------
    def _float_time(self, src: SourceFile, nodes: _FileNodes) -> List[Finding]:
        out: List[Finding] = []
        for node in nodes.calls:
            if not (
                isinstance(node.func, ast.Name)
                and node.func.id in ("round", "float")
                and node.args
            ):
                continue
            try:
                arg_text = ast.unparse(node.args[0])
            except Exception:  # pragma: no cover - unparse is total on 3.9+
                continue
            if "_ps" in arg_text or arg_text.endswith("ps"):
                out.append(
                    self.finding(
                        src, node, "det-float-time",
                        f"{node.func.id}() on a picosecond quantity "
                        f"({arg_text}): simulated time must stay integral",
                    )
                )
        return out
