"""Tests for the model checker and the protocol models.

Besides checking that the shipped models verify, these tests *seed bugs*
into the models and assert the checker catches them — the checker itself
is load-bearing for the Section 5 reproduction, so it must demonstrably
find violations, not just report success.
"""

import pytest

from repro.common.errors import VerificationError
from repro.verification.checker import Model, check, spec_size
from repro.verification.dir_model import DirFlatModel
from repro.verification.token_model import (
    TokenArbModel,
    TokenDstModel,
    TokenRecreateModel,
    TokenSafetyModel,
    _add,
)


# ---------------------------------------------------------------------------
# Checker mechanics on toy models.
# ---------------------------------------------------------------------------
class CounterModel(Model):
    """Counts 0..3 with wraparound: quiescent at 0."""

    name = "toy-counter"

    def initial_states(self):
        return [0]

    def transitions(self, state):
        return [("inc", (state + 1) % 4)]

    def is_quiescent(self, state):
        return state == 0


def test_checker_explores_and_counts():
    result = check(CounterModel())
    assert result.states == 4
    assert result.transitions == 4
    assert result.diameter == 3


def test_checker_detects_deadlock():
    class Dead(CounterModel):
        name = "toy-deadlock"

        def transitions(self, state):
            return [] if state == 2 else [("inc", state + 1)]

    with pytest.raises(VerificationError, match="deadlock") as err:
        check(Dead())
    assert str(err.value) == (
        "toy-deadlock: deadlock (non-quiescent state with no transitions)\n"
        "counterexample (most recent last):\n"
        "  initial: 0\n"
        "  inc -> 1\n"
        "  inc -> 2"
    )


def test_checker_detects_invariant_violation_with_trace():
    class Bad(CounterModel):
        name = "toy-bad"

        def check_invariants(self, state):
            if state == 3:
                raise VerificationError("state three reached")

    with pytest.raises(VerificationError) as err:
        check(Bad())
    assert "counterexample" in str(err.value)


def test_checker_detects_livelock():
    class Livelock(Model):
        name = "toy-livelock"

        def initial_states(self):
            return ["start"]

        def transitions(self, state):
            # 'spin' can never get back to the quiescent 'start'.
            return [("go", "spin"), ("stay", "spin")] if state == "start" else [
                ("stay", "spin")
            ]

        def is_quiescent(self, state):
            return state == "start"

    with pytest.raises(VerificationError, match="liveness") as err:
        check(Livelock())
    assert str(err.value) == (
        "toy-livelock: liveness violated — 1 states cannot reach "
        "quiescence, e.g. 'spin'"
    )


def test_checker_state_budget():
    class Big(Model):
        name = "toy-big"

        def initial_states(self):
            return [0]

        def transitions(self, state):
            return [("inc", state + 1)]

        def is_quiescent(self, state):
            return True

    with pytest.raises(VerificationError, match="exceeds"):
        check(Big(), max_states=100)


# ---------------------------------------------------------------------------
# The shipped protocol models verify.
# ---------------------------------------------------------------------------
def test_token_safety_model_verifies():
    result = check(TokenSafetyModel(), max_states=100_000, check_liveness=False)
    assert result.states > 1_000  # a real exploration, not a trivial one


def test_token_dst_model_verifies_with_liveness():
    result = check(
        TokenDstModel(coarse_sends=True, atomic_broadcasts=True),
        max_states=500_000,
    )
    assert result.liveness_checked
    assert result.states > 5_000


def test_token_arb_model_verifies_with_liveness():
    # values=1 keeps this fast for the unit suite; the full 2-value
    # configuration runs in benchmarks/bench_sec5_modelcheck.py and in
    # `python -m repro verify`.
    result = check(
        TokenArbModel(values=1, coarse_sends=True, atomic_broadcasts=True),
        max_states=1_500_000,
    )
    assert result.to_dict() == {
        "model": "TokenCMP-arb",
        "states": 123213,
        "transitions": 809301,
        "diameter": 39,
        "quiescent_states": 17,
        "liveness_checked": True,
    }


def test_token_recreate_model_verifies_with_pinned_counts():
    """The recreation recovery tier is safe under loss, crash and epoch bumps.

    Counts are pinned exactly: any change to the recovery model's
    reachable space (new transitions, changed stamping, a different
    canonicalization) must be a conscious decision.
    """
    result = check(TokenRecreateModel(), max_states=100_000, check_liveness=False)
    assert result.states == 17_640
    assert result.transitions == 102_036
    assert result.diameter == 31


def test_seeded_bug_premature_recreation_completion_caught():
    """Reconstituting tokens before every holder acked must be caught.

    The safety argument for recreation is that memory waits for surrender
    acks from *all* caches; completing one ack early leaves a laggard
    holding live tokens next to the freshly minted full set.
    """

    class Broken(TokenRecreateModel):
        name = "TokenCMP-recreate-premature"

        def transitions(self, state):
            out = []
            for label, nxt in super().transitions(state):
                if label.startswith("ack"):
                    caches, mem, net, wants, ceps, epoch, rec, lost = nxt
                    # BUG: declare victory once n-1 acks arrived.
                    if rec is not None and len(rec) == self.n - 1:
                        nxt = (caches, (self.T, True, mem[2]), net, wants,
                               ceps, epoch, None, (0, False))
                        label = "bad_done"
                out.append((label, nxt))
            return out

    with pytest.raises(VerificationError, match="conservation"):
        check(Broken(), max_states=500_000, check_liveness=False)


def test_seeded_bug_memory_granting_during_recreation_caught():
    """Memory must stay mute while a recreation is in flight.

    Tokens granted mid-recreation carry the already-bumped epoch, survive
    the reconstitution, and inflate the post-recovery census.
    """

    class Broken(TokenRecreateModel):
        name = "TokenCMP-recreate-chatty-mem"

        def transitions(self, state):
            out = super().transitions(state)
            caches, mem, net, wants, ceps, epoch, rec, lost = state
            mtok, mown, mval = mem
            # BUG: keep serving transient requests during recreation.
            if rec is not None and mtok > 0 and len(net) < self.net_cap:
                for dst in range(self.n):
                    msg = ("tok", dst, mtok, mown,
                           mval if mown else None, epoch)
                    out.append((
                        f"bad_mem->{dst}",
                        self._mk(state, mem=(0, False, mval),
                                 net=_add(net, msg)),
                    ))
            return out

    with pytest.raises(VerificationError, match="conservation"):
        check(Broken(), max_states=500_000, check_liveness=False)


def test_flat_directory_model_verifies():
    result = check(DirFlatModel(), max_states=200_000)
    assert result.states > 1_000


def test_flat_directory_model_verifies_without_migratory():
    """Covers the O/S sharing paths the migratory optimization bypasses."""
    result = check(DirFlatModel(migratory=False), max_states=500_000)
    assert result.states > 1_000


# ---------------------------------------------------------------------------
# Seeded bugs are caught.
# ---------------------------------------------------------------------------
def test_seeded_bug_premature_write_caught():
    """A write with fewer than all tokens must violate value coherence."""

    class Broken(TokenSafetyModel):
        name = "TokenCMP-broken-write"

        def _complete_transitions(self, state, make, on_complete=None):
            out = super()._complete_transitions(state, make, on_complete)
            caches, mem, net, wants = state[:4]
            for i in range(self.n):
                ctok, cown, cval, cdata = caches[i]
                # BUG: allow a write with just one token.
                if wants[i] == "w" and ctok >= 1 and cval:
                    ncache = (ctok, cown, True, (cdata + 1) % self.D)
                    nc = caches[:i] + (ncache,) + caches[i + 1:]
                    nw = wants[:i] + (None,) + wants[i + 1:]
                    out.append((f"bad_write{i}", make(state, caches=nc, wants=nw)))
            return out

    with pytest.raises(VerificationError):
        check(Broken(), max_states=500_000, check_liveness=False)


def test_seeded_bug_token_duplication_caught():
    """Minting an extra token must violate conservation."""

    class Broken(TokenSafetyModel):
        name = "TokenCMP-broken-mint"

        def _transfer_transitions(self, state, make):
            out = super()._transfer_transitions(state, make)
            caches, mem, net, wants = state[:4]
            ctok, cown, cval, cdata = caches[0]
            if ctok >= 1:
                nc = ((ctok + 1, cown, cval, cdata),) + caches[1:]
                out.append(("mint", make(state, caches=nc)))
            return out

    with pytest.raises(VerificationError, match="conservation") as err:
        check(Broken(), max_states=500_000, check_liveness=False)
    # The whole message is pinned: the shortest trace, its labels and
    # the symmetry representative printed at each step.
    assert str(err.value) == (
        "TokenCMP-broken-mint: invariant violated: token conservation broken: 4 != 3\n"
        "counterexample (most recent last):\n"
        "  initial: (((0, False, False, 0), (0, False, False, 0)), (3, True, 0), (), (None, None))\n"
        "  mem->0 -> (((0, False, False, 0), (0, False, False, 0)), (2, True, 0), "
        "(('tok', 0, 1, False, 0),), (None, None))\n"
        "  mem->1 -> (((0, False, False, 0), (0, False, False, 0)), (1, True, 0), "
        "(('tok', 0, 1, False, 0), ('tok', 1, 1, False, 0)), (None, None))\n"
        "  deliver0 -> (((0, False, False, 0), (1, False, True, 0)), (1, True, 0), "
        "(('tok', 0, 1, False, 0),), (None, None))\n"
        "  deliver0 -> (((1, False, True, 0), (1, False, True, 0)), (1, True, 0), (), (None, None))\n"
        "  mint -> (((1, False, True, 0), (2, False, True, 0)), (1, True, 0), (), (None, None))"
    )


def test_seeded_bug_directory_stale_sharer_caught():
    """A write satisfied from S without invalidations must be caught."""

    class Broken2(DirFlatModel):
        name = "Directory-broken-writeS"

        def _want_and_issue(self, state):
            out = super()._want_and_issue(state)
            caches, directory, mem, net, wants = state
            for i in range(self.n):
                cstate, value, pend = caches[i]
                if wants[i] == "w" and cstate == "S":
                    from repro.verification.dir_model import M, _set

                    nc = _set(caches, i, (M, (value + 1) % self.D, None))
                    nw = wants[:i] + (None,) + wants[i + 1:]
                    out.append((f"bad_write{i}",
                                self._make(state, caches=nc, wants=nw)))
            return out

    # Shared (S) copies only arise without the migratory optimization
    # (with it, a read of a modified block takes the whole block).
    with pytest.raises(VerificationError):
        check(Broken2(migratory=False), max_states=500_000, check_liveness=False)


def test_spec_size_counts_code_lines():
    lines = spec_size(CounterModel)
    assert 5 < lines < 20


# ---------------------------------------------------------------------------
# Symmetry reduction.
# ---------------------------------------------------------------------------
def test_symmetry_reduction_shrinks_safety_model():
    reduced = check(TokenSafetyModel(), max_states=200_000, check_liveness=False)

    class NoSym(TokenSafetyModel):
        name = "TokenCMP-safety-nosym"

        def canonicalize(self, state):
            return state

    full = check(NoSym(), max_states=200_000, check_liveness=False)
    # Near the theoretical 2x for two symmetric processors.
    assert reduced.states < full.states
    assert full.states / reduced.states > 1.8


def test_canonicalize_is_idempotent_and_orbit_stable():
    model = TokenSafetyModel()
    from repro.verification.token_model import _permutations, _permute_core

    (state,) = model.initial_states()
    # Walk a few transitions to a non-trivial state.
    for _ in range(4):
        state = model.transitions(state)[0][1]
    canon = model.canonicalize(state)
    assert model.canonicalize(canon) == canon
    for perm in _permutations(model.n):
        assert model.canonicalize(_permute_core(state, perm)) == canon
