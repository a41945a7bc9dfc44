"""The protocol facts shared by the ``dispatch`` and ``protocol-model`` passes.

Both passes read the same three things out of the controllers' source,
so they are extracted once here:

* **ladders** — every ``if/elif`` chain in a method that dispatches on a
  message type, kept as its ``(If node, matched MsgTypes)`` arms plus
  whether the chain ends in a default arm, and every
  ``{MsgType.X: handler}`` map;
* **classes** — each class's bases, methods and ladders, grouped by a
  :class:`ClassIndex` whose single base-chain resolver both passes use;
* **send sites** — every message a function can send, with the
  destination expression mapped to controller *roles* through the
  routing model below (``self.params.home_mem(...)`` is a memory
  controller, ``msg.requestor`` is a cache, a loop over ``chip_l1s(...)``
  is an L1, and so on).

Per-file facts are computed on first use and kept on the
:class:`SourceFile` (:attr:`SourceFile.protocol`), so one loaded tree is
walked at most once however many passes read it, and a fresh
``load_tree`` starts from nothing.  Extraction never writes to AST
nodes: the trees are shared by every pass.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from repro.staticcheck.base import attr_chain, call_name
from repro.staticcheck.source import SourceFile

# ---------------------------------------------------------------------------
# Protocol model: controller roles and the destination-expression routing
# table.  This encodes how the repo names destinations, not per-controller
# expected sets (those are derived from the send sites themselves, so the
# checks cannot go stale).
# ---------------------------------------------------------------------------

#: MsgType name prefix -> protocol family.
FAMILY_BY_PREFIX = {"TOK": "token", "PERSIST": "token", "DIR": "directory"}

#: Concrete controller class -> (family, role).  Fixture copies used in
#: tests resolve through the same table by class name.
ROLE_BY_CLASS: Dict[str, Tuple[str, str]] = {
    "TokenL1Controller": ("token", "l1"),
    "TokenL2Controller": ("token", "l2"),
    "TokenMemController": ("token", "mem"),
    "Arbiter": ("token", "arb"),
    "DirL1Controller": ("directory", "l1"),
    "IntraDirL2Controller": ("directory", "l2"),
    "InterDirController": ("directory", "mem"),
}

#: Destination helper call -> roles it can address.
DEST_CALLS: Dict[str, Set[str]] = {
    "home_mem": {"mem"},
    "_home_mem": {"mem"},
    "home_arbiter": {"arb"},
    "l2_bank": {"l2"},
    "_chip_l2": {"l2"},
    "_home_l2": {"l2"},
    "iface_of": set(),  # interconnect route point, not a dispatch endpoint
    "chip_l1s": {"l1"},
    "token_holders": {"l1", "l2"},
    "_transient_destinations": {"l1", "l2", "mem"},
    "_persistent_broadcast_set": {"l1", "l2", "mem"},
    "destinations": {"l1"},  # SharerFilter.destinations: filtered local L1s
    "_writeback_destination": {"l2", "mem"},  # L1 -> its L2 bank; L2 -> home mem
}

#: Destination attribute (trailing name) -> roles.  ``requestor`` fields
#: name caches at both levels; replies to ``msg.src`` occur only in the
#: writeback handshake, whose initiators are L2 banks.
DEST_ATTRS: Dict[str, Set[str]] = {
    "requestor": {"l1", "l2"},
    "owner_l1": {"l1"},
    "proc": {"l1"},
    "src": {"l2"},
    "sharers": {"l1"},
}

#: Send wrappers: how to recover (mtypes, dst expression) at call sites.
#: dst is the given positional index or the ``dst`` keyword.
_SEND_TOKENS_PLAIN = frozenset({"TOK_DATA", "TOK_ACK"})
_SEND_TOKENS_WB = frozenset({"TOK_WB", "TOK_WB_DATA"})

_MAX_DEPTH = 6
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

Roles = Set[str]


@dataclasses.dataclass
class SendSite:
    mtypes: Set[str]
    roles: Roles
    src: SourceFile
    line: int

    @property
    def location(self) -> str:
        return f"{self.src.path}:{self.line}"


@dataclasses.dataclass(eq=False)
class Ladder:
    """One mtype if/elif chain, or one handler map, in one method.

    ``arms`` holds the ``(If node, matched MsgTypes)`` pairs of a chain
    (only the arms whose test names a message type); a handler map
    ``{MsgType.X: self._on_x, ...}`` is one ``(Dict node, keys)`` arm
    that always has a default.
    """

    fn: ast.AST
    src: SourceFile
    head: ast.AST  # the chain's first If, or the map's Dict
    arms: List[Tuple[ast.AST, Set[str]]]
    has_default: bool

    @property
    def line(self) -> int:
        return self.head.lineno

    @property
    def method(self) -> str:
        return self.fn.name

    @property
    def is_chain(self) -> bool:
        return isinstance(self.head, ast.If)

    @property
    def handled(self) -> Set[str]:
        out: Set[str] = set()
        for _node, matched in self.arms:
            out |= matched
        return out


@dataclasses.dataclass(eq=False)
class ClassFacts:
    node: ast.ClassDef
    src: SourceFile
    bases: List[str]  # trailing names of the base expressions
    methods: Dict[str, ast.AST]  # first def of each name in the body
    ladders: List[Ladder]

    @property
    def name(self) -> str:
        return self.node.name


# ---------------------------------------------------------------------------
# Functions: name environment and send sites.
# ---------------------------------------------------------------------------
class FnFacts:
    """One function's name environment (assignments, loop targets,
    appends) and its send sites, keyed by call node."""

    def __init__(self, fn: ast.AST, src: SourceFile):
        self.assign: Dict[str, ast.AST] = {}
        self.loops: Dict[str, ast.AST] = {}
        self.appends: Dict[str, List[ast.AST]] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                tgt = node.targets[0]
                if isinstance(tgt, ast.Name):
                    self.assign[tgt.id] = node.value
            elif isinstance(node, (ast.For, ast.comprehension)):
                tgt = node.target
                if isinstance(tgt, ast.Name):
                    self.loops[tgt.id] = node.iter
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "append"
                    and isinstance(func.value, ast.Name)
                    and node.args
                ):
                    self.appends.setdefault(func.value.id, []).append(node.args[0])
        self.sites: Dict[ast.Call, SendSite] = {}
        for call in ast.walk(fn):
            if isinstance(call, ast.Call):
                site = _send_site_of(call, self, src)
                if site is not None:
                    self.sites[call] = site


def _roles_of(expr: ast.AST, env: FnFacts, depth: int = _MAX_DEPTH) -> Roles:
    """Conservatively map a destination expression to controller roles.

    Unknown expressions map to the empty set (no obligation created): the
    analysis prefers missing an exotic send over inventing false
    receivables.
    """
    if depth <= 0 or expr is None:
        return set()
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        if name in DEST_CALLS:
            return set(DEST_CALLS[name])
        if name in ("set", "sorted", "list", "tuple", "frozenset") and expr.args:
            return _roles_of(expr.args[0], env, depth - 1)
        return set()
    if isinstance(expr, ast.Attribute):
        return set(DEST_ATTRS.get(expr.attr, set()))
    if isinstance(expr, ast.Name):
        out: Roles = set()
        if expr.id in env.loops:
            out |= _roles_of(env.loops[expr.id], env, depth - 1)
        elif expr.id in env.assign:
            out |= _roles_of(env.assign[expr.id], env, depth - 1)
        for appended in env.appends.get(expr.id, ()):
            out |= _roles_of(appended, env, depth - 1)
        return out
    if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        out = set()
        for elt in expr.elts:
            out |= _roles_of(elt, env, depth - 1)
        return out
    if isinstance(expr, ast.BinOp):
        return _roles_of(expr.left, env, depth - 1) | _roles_of(expr.right, env, depth - 1)
    if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return _roles_of(expr.generators[0].iter, env, depth - 1)
    if isinstance(expr, ast.IfExp):
        return _roles_of(expr.body, env, depth - 1) | _roles_of(expr.orelse, env, depth - 1)
    return set()


def _mtypes_of(expr: ast.AST, env: FnFacts, depth: int = _MAX_DEPTH) -> Optional[Set[str]]:
    """Message types an mtype expression can evaluate to (None = dynamic)."""
    if depth <= 0 or expr is None:
        return None
    if isinstance(expr, ast.Attribute):
        chain = attr_chain(expr)
        if chain and chain.startswith("MsgType."):
            return {expr.attr}
        return None  # e.g. msg.mtype forwarded verbatim: dynamic
    if isinstance(expr, ast.IfExp):
        body = _mtypes_of(expr.body, env, depth - 1)
        orelse = _mtypes_of(expr.orelse, env, depth - 1)
        if body is None or orelse is None:
            return None
        return body | orelse
    if isinstance(expr, ast.Name) and expr.id in env.assign:
        return _mtypes_of(env.assign[expr.id], env, depth - 1)
    return None


def _kwarg(call: ast.Call, name: str) -> Optional[ast.AST]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _arg(call: ast.Call, index: int, name: str) -> Optional[ast.AST]:
    if len(call.args) > index:
        return call.args[index]
    return _kwarg(call, name)


def _send_site_of(call: ast.Call, env: FnFacts, src: SourceFile) -> Optional[SendSite]:
    name = call_name(call)
    mtypes: Optional[Set[str]] = None
    dst: Optional[ast.AST] = None
    roles: Optional[Roles] = None
    if name == "Message":
        mtypes = _mtypes_of(_kwarg(call, "mtype") or _arg(call, 0, "mtype"), env)
        dst = _kwarg(call, "dst")
    elif name == "clone_to":
        # template.clone_to(dst), template bound to a Message(...) call.
        base = call.func.value if isinstance(call.func, ast.Attribute) else None
        if isinstance(base, ast.Name) and base.id in env.assign:
            value = env.assign[base.id]
            if isinstance(value, ast.Call) and call_name(value) == "Message":
                mtypes = _mtypes_of(
                    _kwarg(value, "mtype") or _arg(value, 0, "mtype"), env
                )
        dst = call.args[0] if call.args else None
    elif name == "_send":
        mtypes = _mtypes_of(_arg(call, 0, "mtype"), env)
        dst = _arg(call, 1, "dst")
    elif name in ("_send_tokens", "_respond"):
        wb = _kwarg(call, "writeback")
        is_wb = isinstance(wb, ast.Constant) and bool(wb.value)
        mtypes = set(_SEND_TOKENS_WB if is_wb else _SEND_TOKENS_PLAIN)
        dst = _arg(call, 0, "dst")
    elif name == "_broadcast":
        # Arbiter._broadcast: activate/deactivate to every token holder
        # plus home memory.
        mtypes = _mtypes_of(_arg(call, 0, "mtype"), env)
        roles = {"l1", "l2", "mem"}
    if not mtypes or (dst is None and roles is None):
        return None
    if roles is None:
        roles = _roles_of(dst, env)
    return SendSite(mtypes, roles, src, call.lineno)


# ---------------------------------------------------------------------------
# Ladders.
# ---------------------------------------------------------------------------
def _msgtype_member(node: Optional[ast.AST]) -> Optional[str]:
    """``X`` for a ``MsgType.X`` expression, else None."""
    chain = attr_chain(node) if node is not None else None
    if chain and chain.startswith("MsgType."):
        return chain.split(".", 1)[1]
    return None


def _module_mtype_constants(src: SourceFile) -> Dict[str, Set[str]]:
    """Module-level ``NAME = (MsgType.A, MsgType.B, ...)`` constants."""
    out: Dict[str, Set[str]] = {}
    for stmt in src.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            tgt = stmt.targets[0]
            if not isinstance(tgt, ast.Name):
                continue
            if isinstance(stmt.value, (ast.Tuple, ast.List, ast.Set)):
                members = [_msgtype_member(elt) for elt in stmt.value.elts]
                if members and None not in members:
                    out[tgt.id] = set(members)
    return out


def _mtype_subjects(fn: ast.AST) -> Set[str]:
    """Unparsed expressions that denote the dispatched-on message type."""
    subjects = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and node.attr == "mtype":
            chain = attr_chain(node)
            if chain:
                subjects.add(chain)
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            tgt = node.targets[0]
            if (
                isinstance(tgt, ast.Name)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "mtype"
            ):
                subjects.add(tgt.id)
    return subjects


def _test_mtypes(
    test: ast.AST, subjects: Set[str], constants: Dict[str, Set[str]]
) -> Set[str]:
    """MsgType members a ladder arm's test matches (empty: not an arm)."""
    out: Set[str] = set()
    if isinstance(test, ast.BoolOp):
        for value in test.values:
            out |= _test_mtypes(value, subjects, constants)
        return out
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return out
    if isinstance(test.left, ast.Name):
        left_name = test.left.id
    else:
        left_name = attr_chain(test.left)
    if left_name not in subjects:
        return out
    op = test.ops[0]
    comp = test.comparators[0]
    if isinstance(op, (ast.Is, ast.Eq)):
        member = _msgtype_member(comp)
        if member:
            out.add(member)
    elif isinstance(op, ast.In):
        if isinstance(comp, (ast.Tuple, ast.List, ast.Set)):
            out |= {m for m in map(_msgtype_member, comp.elts) if m}
        elif isinstance(comp, ast.Name) and comp.id in constants:
            out |= constants[comp.id]
    return out


def _ladders_in(
    fn: ast.AST, src: SourceFile, constants: Dict[str, Set[str]]
) -> List[Ladder]:
    """The method's if/elif chains (in walk order), then its handler maps."""
    subjects = _mtype_subjects(fn)
    if not subjects:
        return []
    ladders: List[Ladder] = []
    links: Set[ast.If] = set()  # elif nodes already walked as part of a chain
    for node in ast.walk(fn):
        if not isinstance(node, ast.If) or node in links:
            continue
        arms: List[Tuple[ast.AST, Set[str]]] = []
        cursor = node
        while True:
            matched = _test_mtypes(cursor.test, subjects, constants)
            if matched:
                arms.append((cursor, matched))
            orelse = cursor.orelse
            if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                cursor = orelse[0]
                links.add(cursor)
            else:
                break
        if arms:
            ladders.append(Ladder(fn, src, node, arms, has_default=bool(orelse)))
    for node in ast.walk(fn):
        if isinstance(node, ast.Dict):
            keys = [k for k in node.keys if k is not None]
            members = {m for m in map(_msgtype_member, keys) if m}
            if members and len(members) == len(keys):
                ladders.append(Ladder(fn, src, node, [(node, members)], True))
    return ladders


# ---------------------------------------------------------------------------
# Per-file facts and the cross-file class index.
# ---------------------------------------------------------------------------
class FileFacts:
    """The protocol facts of one source file (see the module docstring)."""

    def __init__(self, src: SourceFile):
        self.src = src
        constants = _module_mtype_constants(src)
        self.classes: List[ClassFacts] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods: Dict[str, ast.AST] = {}
            ladders: List[Ladder] = []
            for stmt in node.body:
                if isinstance(stmt, _FUNCTIONS):
                    methods.setdefault(stmt.name, stmt)
                    ladders.extend(_ladders_in(stmt, src, constants))
            bases = [name.split(".")[-1] for name in map(attr_chain, node.bases) if name]
            self.classes.append(ClassFacts(node, src, bases, methods, ladders))
        self._functions: Dict[ast.AST, FnFacts] = {}

    def function(self, fn: ast.AST) -> FnFacts:
        """Facts of a function defined in this file (built once)."""
        facts = self._functions.get(fn)
        if facts is None:
            facts = self._functions[fn] = FnFacts(fn, self.src)
        return facts

    def send_sites(self) -> List[SendSite]:
        """Every send site in the file, function by function in walk order.

        A call inside a nested function is listed once per enclosing
        function, resolved in that function's name environment.
        """
        return [
            site
            for fn in ast.walk(self.src.tree)
            if isinstance(fn, _FUNCTIONS)
            for site in self.function(fn).sites.values()
        ]


class ClassIndex:
    """Classes of a file set by name, with the one base-chain resolver.

    Built from the per-file facts, so constructing one walks no AST.
    """

    def __init__(self, files: List[SourceFile]):
        self.classes: List[ClassFacts] = [
            cls for src in files for cls in src.protocol.classes
        ]
        self.by_name: Dict[str, List[ClassFacts]] = {}
        for cls in self.classes:
            self.by_name.setdefault(cls.name, []).append(cls)

    def lookup(self, name: str, near: Optional[str] = None) -> Optional[ClassFacts]:
        """The class ``name``: defined in file ``near`` if one is, else the
        last fixture copy (fixtures override real classes so seeded-drift
        tests exercise the production checks), else the first found."""
        cands = self.by_name.get(name, [])
        same = [c for c in cands if c.src.path == near]
        if same:
            return same[0]
        fixture = [c for c in cands if c.src.module == "<fixture>"]
        if fixture:
            return fixture[-1]
        return cands[0] if cands else None

    def chain(self, cls: ClassFacts) -> List[ClassFacts]:
        """``cls`` then its bases, nearest first, each name once."""
        out: List[ClassFacts] = []
        seen: Set[str] = set()
        queue = [cls]
        while queue:
            cur = queue.pop(0)
            if cur.name not in seen:
                seen.add(cur.name)
                out.append(cur)
                for base in cur.bases:
                    found = self.lookup(base, cur.src.path)
                    if found is not None:
                        queue.append(found)
        return out

    def resolve_method(
        self, cls: ClassFacts, name: str
    ) -> Optional[Tuple[ast.AST, ClassFacts]]:
        """The nearest definition of method ``name`` and its owner class."""
        for owner in self.chain(cls):
            fn = owner.methods.get(name)
            if fn is not None:
                return fn, owner
        return None
