import random

import pytest

from fairtradex.chain import (CP, ORDERING_POLICIES, RELAYED, Chain, InvalidBlock,
                              InvalidProof, MalformedTx, NOOP, PendingTx, Tx,
                              identity_policy, reverse_policy, withhold_max_policy)


def noop(i, sender="p"):
    return Tx(kind=NOOP, payload=i, sender=sender)


class TestInclusionBound:
    @pytest.mark.parametrize("t_eff", [0, -1])
    def test_inclusion_bound_below_one_block_rejected(self, t_eff):
        with pytest.raises(ValueError, match="t_eff must be >= 1"):
            Chain(t_eff=t_eff)

    @pytest.mark.parametrize("policy_name", sorted(ORDERING_POLICIES))
    @pytest.mark.parametrize("t_eff", [1, 3, 6, 40])
    def test_every_tx_lands_within_t_eff(self, policy_name, t_eff):
        chain = Chain(t_eff=t_eff, policy=ORDERING_POLICIES[policy_name], seed=5)
        rng = random.Random(42)
        landed = {}
        submitted = {}
        for step in range(120):
            for _ in range(rng.randint(0, 3)):
                p = chain.submit(noop(len(submitted)))
                submitted[p.seq] = chain.height
            for entry in chain.advance_block():
                landed[entry.seq] = chain.height
        while chain.pending:
            for entry in chain.advance_block():
                landed[entry.seq] = chain.height
        assert landed.keys() == submitted.keys()
        for seq, h0 in submitted.items():
            assert h0 < landed[seq] <= h0 + t_eff

    def test_withheld_tx_lands_exactly_at_deadline(self):
        chain = Chain(t_eff=4, policy=withhold_max_policy)
        # submit while observing height 5
        for _ in range(5):
            chain.advance_block()
        p = chain.submit(noop(0))
        assert p.deadline == 9
        heights = {}
        for _ in range(6):
            for entry in chain.advance_block():
                heights[entry.seq] = chain.height
        assert heights[p.seq] == 9


class TestOrdering:
    def test_identity_keeps_submission_order(self):
        chain = Chain(t_eff=3, policy=identity_policy)
        a, b = chain.submit(noop(0)), chain.submit(noop(1))
        executed = chain.advance_block()
        assert [e.seq for e in executed] == [a.seq, b.seq]

    def test_reverse_flips_order(self):
        chain = Chain(t_eff=3, policy=reverse_policy)
        a, b = chain.submit(noop(0)), chain.submit(noop(1))
        executed = chain.advance_block()
        assert [e.seq for e in executed] == [b.seq, a.seq]

    def test_fixed_seed_fixed_trace(self):
        def run():
            chain = Chain(t_eff=2, policy=ORDERING_POLICIES["random"], seed=77)
            trace = []
            rng = random.Random(0)
            for _ in range(30):
                for _ in range(rng.randint(0, 3)):
                    chain.submit(noop(len(trace)))
                block = chain.advance_block()
                trace.extend((e.seq, chain.height) for e in block)
            return trace
        assert run() == run()

    def test_a_chain_built_without_a_seed_orders_as_seed_zero(self):
        def order(**seed):
            chain = Chain(t_eff=2, policy=ORDERING_POLICIES["random"], **seed)
            for i in range(8):
                chain.submit(noop(i))
            return [e.seq for e in chain.advance_block()]
        assert order() == order(seed=0) != order(seed=1)


class TestBlockProducer:
    """A block runs each pending transaction at most once, and nothing else."""

    def refused(self, policy):
        chain = Chain(t_eff=3, policy=policy)
        chain.submit(noop(0))
        chain.submit(noop(1))
        pending = list(chain.pending)
        with pytest.raises(InvalidBlock):
            chain.advance_block()
        assert chain.height == 0 and chain.pending == pending

    def test_policy_cannot_run_a_transaction_twice(self):
        self.refused(lambda pending, height, rng: pending + pending)

    def test_policy_cannot_run_a_transaction_never_submitted(self):
        # the invented entry reuses a pending seq, so only identity tells them apart
        def invent(pending, height, rng):
            tx = Tx(kind=CP, payload=None, sender="producer")
            return [*pending, PendingTx(tx=tx, seq=0, deadline=height)]
        self.refused(invent)

    def test_policy_cannot_run_an_edited_copy_of_a_transaction(self):
        self.refused(lambda pending, height, rng: [p._replace(deadline=height + 9)
                                                   for p in pending])

    def test_policy_cannot_postpone_a_transaction_by_moving_its_deadline(self):
        def postpone(pending, height, rng):
            for p in pending:
                p.deadline = height + 1
            return []
        chain = Chain(t_eff=2, policy=postpone)
        p = chain.submit(noop(0))
        with pytest.raises(AttributeError):
            chain.advance_block()
        assert chain.height == 0 and chain.pending == [p] and p.deadline == 2

    def test_policy_cannot_drop_a_transaction_by_clearing_its_list(self):
        def drop_all(pending, height, rng):
            pending.clear()
            return []
        chain = Chain(t_eff=2, policy=drop_all)
        p = chain.submit(noop(0))
        assert chain.advance_block() == [] and chain.pending == [p]
        assert [e.seq for e in chain.advance_block()] == [p.seq] and not chain.pending


class TestRelay:
    def test_no_relayer_refuses_the_tx(self):
        chain = Chain(t_eff=2)
        with pytest.raises(InvalidProof, match="no relayer available"):
            chain.relay(Tx(kind=NOOP, payload=0, sender=RELAYED), lambda tx: True)
        assert not chain.pending

    def test_valid_relayed_tx_gets_exactly_one_relayer(self):
        chain = Chain(t_eff=2)
        chain.register_relayer("r1")
        chain.register_relayer("r2")
        p1 = chain.relay(Tx(kind=NOOP, payload=0, sender=RELAYED), lambda tx: True)
        p2 = chain.relay(Tx(kind=NOOP, payload=1, sender=RELAYED), lambda tx: True)
        assert {p1.relayer, p2.relayer} == {"r1", "r2"}

    def test_relayers_take_turns_and_a_refused_tx_takes_no_turn(self):
        chain = Chain(t_eff=2)
        for r in ("r1", "r2", "r3"):
            chain.register_relayer(r)
        with pytest.raises(MalformedTx):
            chain.relay(Tx(kind="", payload=0, sender=RELAYED), lambda tx: True)
        with pytest.raises(InvalidProof):
            chain.relay(Tx(kind=NOOP, payload=0, sender=RELAYED), lambda tx: False)
        queued = [chain.relay(Tx(kind=NOOP, payload=i, sender=RELAYED), lambda tx: True)
                  for i in range(4)]
        assert [p.relayer for p in queued] == ["r1", "r2", "r3", "r1"]
        assert chain.pending == queued and [p.seq for p in queued] == [0, 1, 2, 3]
        assert [e.relayer for e in chain.advance_block()] == ["r1", "r2", "r3", "r1"]

    def test_invalid_payload_dropped(self):
        chain = Chain(t_eff=2)
        chain.register_relayer("r1")
        with pytest.raises(InvalidProof):
            chain.relay(Tx(kind=NOOP, payload=0, sender=RELAYED), lambda tx: False)
        assert not chain.pending

    def test_relayed_tx_must_not_name_a_sender(self):
        chain = Chain(t_eff=2)
        chain.register_relayer("r1")
        with pytest.raises(MalformedTx):
            chain.relay(noop(0, sender="alice"), lambda tx: True)
