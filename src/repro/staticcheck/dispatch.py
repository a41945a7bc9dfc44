"""Dispatch-exhaustiveness pass (rule family ``dispatch-*``).

The hazard: every controller receives coherence messages through an
``if/elif MsgType.X`` ladder (``_process``/``_receive``).  Removing or
forgetting an arm does not fail loudly at the send site — the message is
built, routed, delivered, and then silently dropped (or, where the ladder
keeps its defensive ``else: raise``, crashes a run only when that message
type actually arrives).  This pass cross-references three sources, all
recovered from the AST:

1. the :class:`MsgType` enum (``interconnect/message.py``);
2. every **send site** — direct ``Message(...)`` constructions,
   ``template.clone_to(dst)`` fan-outs, and the known send wrappers
   (``_send``, ``_send_tokens``, ``_respond``, ``_broadcast``) — with the
   destination expression mapped to controller *roles*;
3. every controller's **handled set** — the message types named in its
   ladders (inherited ladders included) or used as handler-map keys.

Send sites, ladders and the base-chain resolver come from the shared
extraction in :mod:`repro.staticcheck.protocol`, which the
``protocol-model`` pass reads too.

A message type that routing can deliver to a role but that the role's
controller never names is reported at the ladder, with the send site that
proves reachability.

Rules:

* ``dispatch-unhandled`` (error) — receivable but unhandled MsgType;
* ``dispatch-no-default`` (warning) — a ladder with >= 3 arms and no
  default arm at all (unexpected types fall through silently);
* ``dispatch-unknown-mtype`` (error) — reference to a ``MsgType`` member
  that does not exist (typo'd arm: it can never match).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from repro.staticcheck.base import Pass, attr_chain, enum_members
from repro.staticcheck.findings import Finding
from repro.staticcheck.protocol import (
    FAMILY_BY_PREFIX,
    ROLE_BY_CLASS,
    ClassIndex,
    Ladder,
    SendSite,
)
from repro.staticcheck.source import SourceFile


# ---------------------------------------------------------------------------
# The pass.
# ---------------------------------------------------------------------------
class DispatchPass(Pass):
    id = "dispatch"
    description = "controller MsgType ladders handle every receivable type"
    rules = ("dispatch-unhandled", "dispatch-no-default", "dispatch-unknown-mtype")
    rule_docs = {
        "dispatch-unhandled": (
            "A send site can deliver this MsgType to the controller's "
            "role (per the routing model), but no arm of its dispatch "
            "ladder names it: the message would be built, routed, "
            "delivered, and silently dropped (or hit the defensive "
            "raise only on the configs that exercise it)."
        ),
        "dispatch-no-default": (
            "A message-type ladder with three or more arms has no "
            "default arm, so an unexpected type falls through without a "
            "trace.  Add an 'else: raise' (the repo's idiom) so drift "
            "fails loudly."
        ),
        "dispatch-unknown-mtype": (
            "The code references a MsgType member that does not exist.  "
            "A typo'd ladder arm can never match; a typo'd send can "
            "never be constructed.  Usually a rename that missed a site."
        ),
    }
    rule_examples = {
        "dispatch-unhandled": (
            "repro/core/memctrl.py:108: error[dispatch-unhandled] "
            "TokenMemController (token mem) can receive "
            "MsgType.TOK_RECREATE_REQ (sent at repro/core/l1.py:210) "
            "but its dispatch ladder never handles it"
        ),
        "dispatch-no-default": (
            "repro/core/base.py:105: warning[dispatch-no-default] "
            "TokenCacheController._process: message-type ladder has no "
            "default arm — unexpected types are silently dropped"
        ),
        "dispatch-unknown-mtype": (
            "repro/core/l2.py:88: error[dispatch-unknown-mtype] "
            "MsgType.TOK_GETZ is not a member of MsgType (typo'd arm "
            "can never match)"
        ),
    }

    def check(self, files: List[SourceFile]) -> List[Finding]:
        findings: List[Finding] = []
        members = enum_members(files, "MsgType")
        if not members:
            return findings  # no enum in scope: nothing to check

        findings.extend(self._unknown_mtypes(files, members))

        index = ClassIndex(files)

        # Receivable map from send sites: (family, role) -> {mtype: site}.
        receivable: Dict[Tuple[str, str], Dict[str, SendSite]] = {}
        for src in files:
            for site in src.protocol.send_sites():
                for mtype in site.mtypes:
                    family = FAMILY_BY_PREFIX.get(mtype.split("_")[0])
                    if family is None:
                        continue
                    for role in site.roles:
                        receivable.setdefault((family, role), {}).setdefault(mtype, site)

        for cls in index.classes:
            role = ROLE_BY_CLASS.get(cls.name)
            ladders = [lad for c in index.chain(cls) for lad in c.ladders]
            for ladder in ladders:
                if ladder.src.path != cls.src.path:
                    continue  # inherited ladder: report once, at its own class
                if len(ladder.arms) >= 3 and not ladder.has_default:
                    findings.append(
                        Finding(
                            path=ladder.src.path, line=ladder.line,
                            rule="dispatch-no-default", severity="warning",
                            message=(
                                f"{cls.name}.{ladder.method}: message-type "
                                f"ladder has no default arm — unexpected types "
                                f"are silently dropped"
                            ),
                            snippet=ladder.src.line_at(ladder.line),
                        )
                    )
            if role is None or not ladders:
                continue  # role class with no visible ladder: out of scope
            handled: Set[str] = set()
            for ladder in ladders:
                handled |= ladder.handled
            family = role[0]
            anchor = self._entry_ladder(ladders)
            for mtype, site in sorted(receivable.get(role, {}).items()):
                if mtype in handled:
                    continue
                findings.append(
                    Finding(
                        path=anchor.src.path, line=anchor.line,
                        rule="dispatch-unhandled", severity="error",
                        message=(
                            f"{cls.name} ({family} {role[1]}) can receive "
                            f"MsgType.{mtype} (sent at {site.location}) but its "
                            f"dispatch ladder never handles it"
                        ),
                        snippet=anchor.src.line_at(anchor.line),
                    )
                )
        return findings

    @staticmethod
    def _entry_ladder(ladders: List[Ladder]) -> Ladder:
        """The dispatch entry: prefer _process/_receive, else widest."""
        for name in ("_process", "_receive"):
            for ladder in ladders:
                if ladder.method == name:
                    return ladder
        return max(ladders, key=lambda lad: len(lad.handled))

    def _unknown_mtypes(
        self, files: List[SourceFile], members: Set[str]
    ) -> List[Finding]:
        out: List[Finding] = []
        for src in files:
            if src.module.startswith("repro.staticcheck"):
                continue  # this package names members in tables/docs
            for node in ast.walk(src.tree):
                if isinstance(node, ast.Attribute):
                    chain = attr_chain(node)
                    if (
                        chain
                        and chain.startswith("MsgType.")
                        and chain.count(".") == 1
                    ):
                        name = node.attr
                        if name not in members and name.isupper():
                            out.append(
                                self.finding(
                                    src, node, "dispatch-unknown-mtype",
                                    f"MsgType.{name} is not a member of MsgType "
                                    f"(typo'd arm can never match)",
                                )
                            )
        return out
