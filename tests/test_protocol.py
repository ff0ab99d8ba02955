import enum
import importlib.util
import json
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairtradex import membership, protocol, scenario
from fairtradex.chain import (CLIENT_REGISTER, CLIENT_REVEAL, COMMIT_CLIENT,
                              COMMIT_MM, CP, MM_REVEAL, RELAYED, Chain,
                              InvalidProof, Tx)
from fairtradex.cli import _check_report
from fairtradex.ledger import BURN_SINK, PROTOCOL_ACCOUNT, Ledger
from fairtradex.membership import (MembershipProof, gen_secret, prove_membership,
                                   reg_id)
from fairtradex.protocol import (_KINDS, ClientCommitPayload, ClientRevealPayload,
                                 CpPayload, MMCommitPayload, MMRevealPayload,
                                 Phase, Protocol, RegisterPayload,
                                 client_commitment, mm_commitment)
from fairtradex.scenario import Runner, payload_text
from fairtradex.serialize import dumps_canonical
from fairtradex.auction import find_clearing_price
from fairtradex.units import (ANY, MKT, TOKEN_A, TOKEN_B, TOKEN_REF, WITHDRAW,
                              Market)

from helpers import etx, fund, make_params, payload_to_json


class World:
    """Protocol + ledger with funded players; drives handlers directly."""

    def __init__(self, **param_overrides):
        self.params = make_params(**param_overrides)
        self.ledger = Ledger()
        self.proto = Protocol(self.params, self.ledger)
        self.ledger.mint(PROTOCOL_ACCOUNT, TOKEN_REF, 100 * self.params.res_bounty)
        self.height = 0
        self.secrets = {}

    def add_client(self, pid, seed, ref=None, a=0, b=0):
        fund(self.ledger, pid, ref=ref if ref is not None else
             2 * (self.params.e_client + self.params.f_r), a=a, b=b)
        self.secrets[pid] = gen_secret(seed)

    def add_mm(self, pid, ref=None, a=10**6, b=10**6):
        fund(self.ledger, pid, ref=ref if ref is not None else 2 * self.params.e_mm,
             a=a, b=b)

    def register(self, pid):
        return self.proto.handle(*etx(Tx(kind=CLIENT_REGISTER, sender=pid,
                                        payload=RegisterPayload(reg_id(self.secrets[pid]))),
                                     height=self.height))

    def start(self):
        self.proto.initialise(self.height)

    def commit_tx(self, pid, order):
        """``pid``'s relayed commit of ``order``, proved against the current registry."""
        tkn, size, price, width = order
        com = client_commitment(tkn, size, price, width)
        proof = prove_membership(self.secrets[pid], self.proto.clients, com)
        return Tx(kind=COMMIT_CLIENT, sender=RELAYED,
                  payload=ClientCommitPayload(com=com, serial=self.secrets[pid].s, proof=proof))

    def commit_client(self, pid, order, relayer="relay1"):
        """Execute ``pid``'s commit directly, without the relayer dry run."""
        return self.proto.handle(*etx(self.commit_tx(pid, order), height=self.height,
                                     relayer=relayer))

    def relay_commit(self, *txs, relayer="relay1"):
        """Relay ``txs`` into one block as the Runner does.

        Every tx is dry-run first; then the ones relayers carry execute in
        order.  Returns their effects, None where relayers dropped the tx.
        """
        carried = [self.proto.commit_looks_valid(tx) for tx in txs]
        return [self.proto.handle(*etx(tx, height=self.height, relayer=relayer)) if ok else None
                for tx, ok in zip(txs, carried)]

    def commit_mm(self, pid, market):
        tx = Tx(kind=COMMIT_MM, sender=pid, payload=MMCommitPayload(mm_commitment(market)))
        return self.proto.handle(*etx(tx, height=self.height))

    def reveal_client(self, pid, order, reg_token_new=None, **overrides):
        tkn, size, price, width = order
        payload = ClientRevealPayload(
            tkn=overrides.get("tkn", tkn), size=overrides.get("size", size),
            price=overrides.get("price", price), width=overrides.get("width", width),
            serial=self.secrets[pid].s, randomness=self.secrets[pid].r,
            reg_id=reg_id(self.secrets[pid]), reg_token_new=reg_token_new)
        return self.proto.handle(*etx(Tx(kind=CLIENT_REVEAL, sender=pid, payload=payload),
                                     height=self.height))

    def reveal_mm(self, pid, market):
        return self.proto.handle(*etx(Tx(kind=MM_REVEAL, sender=pid,
                                        payload=MMRevealPayload(market)),
                                     height=self.height))

    def submit_cp(self, pid="hunter"):
        if self.ledger.balance(pid, TOKEN_REF) == 0:
            fund(self.ledger, pid, ref=10 * self.params.res_bounty)
        cand = find_clearing_price(self.proto.book)
        assert cand is not None, "no crossable liquidity in test book"
        payload = CpPayload(cp=cand.cp, volume_a=cand.volume_a,
                            imbalance_a=cand.imbalance_a)
        return self.proto.handle(*etx(Tx(kind=CP, sender=pid, payload=payload),
                                     height=self.height))

    def next_phase(self):
        self.height = self.proto.last_phase_change + self.params.t_eff
        self.proto.on_block_end(self.height)

    def supplies(self):
        return self.ledger.supplies()


def spanning_market(world, mult=2):
    p = world.params
    min_bid = -(-p.q_not // int(p.p_a))
    offer = 102
    min_offer = -(-p.q_not // (int(p.p_a) * offer))
    return Market(bid=98, size_bid=mult * min_bid, offer=offer,
                  size_offer=mult * min_offer)


MKT_BUY = (TOKEN_A, 500, MKT, Fraction(121, 100))
MKT_SELL = (TOKEN_B, 5, MKT, Fraction(121, 100))

PHASES = (None, Phase.COMMIT, Phase.REVEAL, Phase.RESOLUTION)
_Z = b"\0" * 32
# Merkle paths that fail the proof's shape check: not bytes, not whole
# 33-byte nodes, or a node whose side tag is neither 0 nor 1
BAD_PATHS = [
    [1], list(b"\0" + _Z), "\0" + "x" * 32, bytearray(b"\0" + _Z), ((0, _Z),),
    b"\0" + _Z[:-1], b"\0short", b"\0" + _Z + b"\1",
    b"\2" + _Z, b"\1" + _Z + b"\xff" + _Z,
]
# payloads of each kind's own type with a field that fails the payload check
BAD_PAYLOADS = [
    (CLIENT_REGISTER, RegisterPayload(reg_id="x" * 32)),       # str, not bytes
    (CLIENT_REGISTER, RegisterPayload(reg_id=b"short")),
    (COMMIT_CLIENT, ClientCommitPayload(com=_Z, serial=_Z, proof="not-a-proof")),
    (COMMIT_CLIENT, ClientCommitPayload(com=_Z, serial=[1], proof=MembershipProof(
        root=_Z, leaf=_Z, serial=_Z, path=b"", binding=_Z))),
    # the proof's own fields: digests, and a bytes path of 33-byte (0|1, digest) nodes
    *((COMMIT_CLIENT, ClientCommitPayload(com=_Z, serial=_Z, proof=MembershipProof(
        root=_Z, leaf=_Z, serial=_Z, binding=_Z, path=path)))
      for path in BAD_PATHS),
    (COMMIT_CLIENT, ClientCommitPayload(com=_Z, serial=_Z, proof=MembershipProof(
        root=_Z, leaf="x" * 32, serial=_Z, path=b"", binding=_Z))),
    (COMMIT_CLIENT, ClientCommitPayload(com=_Z, serial=_Z, proof=MembershipProof(
        root=_Z, leaf=_Z, serial=_Z, path=b"", binding=b"short"))),
    (COMMIT_MM, MMCommitPayload(com="nope")),
    (CLIENT_REVEAL, ClientRevealPayload(tkn="C", size=1, price=MKT, width=ANY,
                                        serial=_Z, randomness=_Z, reg_id=_Z)),
    (CLIENT_REVEAL, ClientRevealPayload(tkn="A", size=1, price=1.5, width=ANY,
                                        serial=_Z, randomness=_Z, reg_id=_Z)),
    (CLIENT_REVEAL, ClientRevealPayload(tkn="A", size=1, price=MKT, width=1.5,
                                        serial=_Z, randomness=_Z, reg_id=_Z)),
    (MM_REVEAL, MMRevealPayload(market="junk")),
    (CP, CpPayload(cp=1.5, volume_a=1, imbalance_a=0)),
    (CP, CpPayload(cp=True, volume_a=1, imbalance_a=0)),
]


class TestRegister:
    def test_funded_player_registers(self):
        w = World()
        w.add_client("c1", 1)
        before = w.ledger.balance("c1", TOKEN_REF)
        assert w.register("c1")["applied"]
        assert len(w.proto.clients) == 1
        assert before - w.ledger.balance("c1", TOKEN_REF) == w.params.e_client + w.params.f_r

    def test_underfunded_rejected(self):
        w = World()
        w.add_client("c1", 1, ref=w.params.e_client + w.params.f_r)  # needs strictly more
        snap = w.ledger.snapshot()
        assert not w.register("c1")["applied"]
        assert w.ledger.snapshot() == snap and not w.proto.clients

    def test_duplicate_reg_id_appended_and_flagged(self):
        w = World()
        w.add_client("c1", 1)
        w.secrets["c2"] = w.secrets["c1"]
        fund(w.ledger, "c2", ref=2 * (w.params.e_client + w.params.f_r))
        assert w.register("c1")["duplicate_reg_id"] is False
        assert w.register("c2")["duplicate_reg_id"] is True
        assert len(w.proto.clients) == 2


class TestCommitClient:
    def setup_world(self):
        w = World()
        w.add_client("c1", 1, a=10**4, b=10**4)
        w.add_client("c2", 2, a=10**4, b=10**4)
        w.register("c1")
        w.register("c2")
        w.start()
        return w

    def test_valid_commit_pays_relayer(self):
        w = self.setup_world()
        eff = w.commit_client("c1", MKT_BUY)
        assert eff["applied"] and eff["relayer"] == "relay1"
        assert w.ledger.balance("relay1", TOKEN_REF) == w.params.f_r
        assert len(w.proto.client_commits) == 1

    def test_serial_reuse_rejected(self):
        w = self.setup_world()
        assert w.commit_client("c1", MKT_BUY)["applied"]
        eff = w.commit_client("c1", MKT_SELL)
        assert not eff["applied"] and eff["reason"] == "bad-proof"

    def test_notional_cap_boundary(self):
        w = World(q_not=2 * 1_000)  # fits exactly two client escrows
        for i, pid in enumerate(["c1", "c2", "c3"], start=1):
            w.add_client(pid, i, a=10**4)
            w.register(pid)
        w.start()
        assert w.commit_client("c1", MKT_BUY)["applied"]
        assert w.commit_client("c2", MKT_BUY)["applied"]
        assert len(w.proto.client_commits) * w.params.e_client == w.params.q_not
        eff = w.commit_client("c3", MKT_BUY)
        assert not eff["applied"] and eff["reason"] == "notional-cap"

    @pytest.mark.parametrize("spare, admitted", [(-1, 1), (0, 2), (1, 2)])
    def test_notional_cap_admits_a_commit_only_while_its_escrow_fits(self, spare, admitted):
        w = World(q_not=2 * 1_000 + spare)
        for i, pid in enumerate(["c1", "c2", "c3"], start=1):
            w.add_client(pid, i, a=10**4)
            w.register(pid)
        w.start()
        effects = [w.commit_client(pid, MKT_BUY) for pid in ("c1", "c2", "c3")]
        assert [eff["applied"] for eff in effects] == [True] * admitted + [False] * (3 - admitted)
        assert all(eff["reason"] == "notional-cap" for eff in effects[admitted:])
        assert len(w.proto.client_commits) * w.params.e_client <= w.params.q_not

    def test_phase_guard(self):
        w = self.setup_world()
        w.next_phase()  # now Reveal
        eff = w.commit_client("c1", MKT_BUY)
        assert not eff["applied"] and eff["reason"] == "phase"

    def test_unrelayed_commit_rejected(self):
        w = self.setup_world()
        eff = w.commit_client("c1", MKT_BUY, relayer=None)
        assert not eff["applied"] and eff["reason"] == "not-relayed"

    def test_relaying_is_checked_before_phase(self):
        w = self.setup_world()
        w.next_phase()  # now Reveal
        eff = w.commit_client("c1", MKT_BUY, relayer=None)
        assert not eff["applied"] and eff["reason"] == "not-relayed"

    def test_proof_under_another_serial_is_bad_proof(self):
        w = self.setup_world()
        honest = w.commit_tx("c1", MKT_BUY)
        forged = Tx(kind=COMMIT_CLIENT, sender=RELAYED,
                    payload=replace(honest.payload, serial=b"\x07" * 32))
        assert w.proto.commit_looks_valid(forged) is False
        eff = w.proto.handle(*etx(forged, height=w.height, relayer="relay1"))
        assert eff == {"applied": False, "reason": "bad-proof"}
        assert not w.proto.client_commits
        # the proof's own serial was not consumed: c1 still commits under it
        assert w.relay_commit(honest)[0]["applied"]
        assert set(w.proto.client_commits) == {w.secrets["c1"].s}

    def test_commit_into_a_protocol_without_registrations(self, monkeypatch):
        """A well-formed commit proved against another protocol's registry:
        the relayers' dry run and the handler both refuse it as
        no-registrations, and nothing moves."""
        tx = self.setup_world().commit_tx("c1", MKT_BUY)
        w = World()
        w.start()
        reasons, real = [], Protocol._proof_rejects

        def spy(self, p, authentic, record):
            reasons.append(real(self, p, authentic, record))
            return reasons[-1]
        monkeypatch.setattr(Protocol, "_proof_rejects", spy)
        snap = w.ledger.snapshot()
        assert w.proto.commit_looks_valid(tx) is False
        eff = w.proto.handle(*etx(tx, height=w.height, relayer="relay1"))
        assert eff == {"applied": False, "reason": "no-registrations"}
        assert reasons == ["no-registrations"] * 2
        assert w.ledger.snapshot() == snap
        assert not w.proto.client_commits and not w.proto.nullifiers


REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"


def count_hashes(monkeypatch):
    """Count the ``membership.h`` calls made from now on; returns the growing list."""
    calls, real = [], membership.h

    def counted(*parts):
        calls.append(parts)
        return real(*parts)
    monkeypatch.setattr(membership, "h", counted)
    return calls


class TestProofVerdictReuse:
    """The dry run's pure proof verdict is reused at execution, never beyond its Protocol."""

    def setup_world(self):
        w = World()
        for i, pid in enumerate(["c1", "c2", "c3", "c4", "c5", "c6"], start=1):
            w.add_client(pid, i, a=10**4)
        for pid in ["c1", "c2", "c3", "c4", "c5"]:
            w.register(pid)
        w.start()
        return w

    def test_relayed_commit_hashes_its_path_once(self, monkeypatch):
        w = self.setup_world()
        tx = w.commit_tx("c1", MKT_BUY)   # proving built and cached the registry's tree
        calls = count_hashes(monkeypatch)
        assert w.relay_commit(tx)[0]["applied"]
        assert len(tx.payload.proof.path) == 3 * 33
        assert len(calls) == len(tx.payload.proof.path) // 33 + 1

    def test_registration_between_dry_run_and_execution_voids_the_commit(self):
        w = self.setup_world()
        tx = w.commit_tx("c1", MKT_BUY)
        assert w.proto.commit_looks_valid(tx)
        assert w.register("c6")["applied"]
        eff = w.proto.handle(*etx(tx, height=w.height, relayer="relay1"))
        assert eff == {"applied": False, "reason": "bad-proof"}
        # the serial was not consumed: proved against the new root, it commits
        assert w.relay_commit(w.commit_tx("c1", MKT_BUY))[0]["applied"]

    def test_same_commit_relayed_twice_applies_once(self):
        w = self.setup_world()
        tx = w.commit_tx("c1", MKT_BUY)
        first, second = w.relay_commit(tx, tx)
        assert first["applied"]
        assert second == {"applied": False, "reason": "bad-proof"}
        assert w.ledger.balance("relay1", TOKEN_REF) == w.params.f_r

    def test_fresh_protocol_checks_in_full(self, monkeypatch):
        a, b = self.setup_world(), self.setup_world()
        tx = a.commit_tx("c1", MKT_BUY)
        assert b.commit_tx("c1", MKT_BUY) == tx
        calls = count_hashes(monkeypatch)
        assert a.relay_commit(tx)[0]["applied"]
        assert b.relay_commit(tx)[0]["applied"]
        assert len(calls) == 2 * (len(tx.payload.proof.path) // 33 + 1)

    def test_each_round_starts_with_an_empty_node_memo(self):
        w = TestResolution().full_round()
        memo = w.proto._nodes
        assert memo and all(v == membership.h(k) for k, v in memo.items())
        assert w.submit_cp("hunter")["applied"]
        assert w.proto._nodes == {} and w.proto._authentic == {}
        # round 1's commits share the new memo, not round 0's
        w.add_client("c3", 3, a=10**4)
        w.register("c3")
        assert w.relay_commit(w.commit_tx("c3", MKT_BUY))[0]["applied"]
        assert w.proto._nodes and w.proto._nodes is not memo

    @pytest.mark.parametrize("clients, rounds, policy, hashes", [
        (512, 1, "identity", 3_582), (16, 100, "random", 11_000)])
    def test_perfbench_scenario_hash_count(self, monkeypatch, clients, rounds, policy, hashes):
        """``membership.h`` calls in one run of the benchmark's scenario generator, seed 1:
        each round hashes each shared Merkle node once, and each secret's id once."""
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      REPO / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        config = workloads.ScenarioWorkload(REPO, 1, clients, rounds, policy).generate()
        runner = Runner(config)   # building a runner hashes nothing
        calls = count_hashes(monkeypatch)
        assert runner.run().rounds_completed == rounds
        assert len(calls) == hashes

    def test_fresh_runner_checks_in_full(self, monkeypatch):
        config = json.loads((SCENARIOS / "two_mm_competition.json").read_text())
        calls = count_hashes(monkeypatch)
        first = Runner(config).run()
        per_run = len(calls)
        second = Runner(config).run()
        assert len(calls) == 2 * per_run
        assert second.trace == first.trace


def trace_digest(text: str) -> str:
    return membership.h(text.encode()).hex()[:16]


def repr_digest(payload) -> str:
    return trace_digest(dumps_canonical({"repr": repr(payload)}))


class Lots(enum.IntEnum):
    ONE = 1
    MANY = 10**6


_digests = st.binary(min_size=32, max_size=32)
_ints = st.one_of(st.integers(-10**20, 10**20), st.sampled_from(Lots))
_sizes = st.one_of(st.integers(0, 10**20), st.sampled_from(Lots))
_prices = st.one_of(st.just(MKT), st.just(WITHDRAW), st.integers(1, 10**20),
                    st.sampled_from(Lots))
_widths = st.one_of(st.just(ANY), st.integers(1, 10**6).map(Fraction),
                    st.fractions(min_value=1, max_denominator=10**6))
_proofs = st.builds(MembershipProof, root=_digests, leaf=_digests, serial=_digests,
                    binding=_digests,
                    path=st.lists(st.tuples(st.sampled_from((b"\0", b"\1")), _digests),
                                  max_size=4).map(lambda nodes: b"".join(map(b"".join, nodes))))


@st.composite
def _markets(draw):
    bid, offer = sorted(draw(st.lists(st.integers(1, 10**9), min_size=2, max_size=2)))
    return Market(bid=bid, size_bid=draw(_sizes), offer=offer, size_offer=draw(_sizes))


_PAYLOADS = st.one_of(
    st.builds(RegisterPayload, reg_id=_digests),
    st.builds(ClientCommitPayload, com=_digests, serial=_digests, proof=_proofs),
    st.builds(MMCommitPayload, com=_digests),
    st.builds(ClientRevealPayload, tkn=st.sampled_from((TOKEN_A, TOKEN_B)), size=_sizes,
              price=_prices, width=_widths, serial=_digests, randomness=_digests,
              reg_id=_digests, reg_token_new=st.one_of(st.none(), _digests)),
    st.builds(MMRevealPayload, market=_markets()),
    st.builds(CpPayload, cp=_ints, volume_a=_ints, imbalance_a=_ints),
)


class TestTraceCodec:
    """``payload_text`` writes the reference codec's canonical JSON text directly."""

    @given(_PAYLOADS)
    def test_text_is_the_reference_objects_canonical_json(self, payload):
        assert protocol.well_formed(payload)
        assert payload_text(payload) == dumps_canonical(payload_to_json(payload))
        assert payload_text(payload, checked=True) == payload_text(payload)

    def test_edge_values(self):
        base = ClientRevealPayload(tkn=TOKEN_B, size=Lots.MANY, price=MKT, width=ANY,
                                   serial=_Z, randomness=_Z, reg_id=_Z)
        for price in (MKT, WITHDRAW, 7, Lots.ONE):
            for width in (ANY, Fraction(3), Fraction(121, 100)):
                for new in (None, b"\x01" * 32):
                    p = replace(base, price=price, width=width, reg_token_new=new)
                    assert payload_text(p) == dumps_canonical(payload_to_json(p)), p
        text = payload_text(replace(base, price=WITHDRAW, width=Fraction(121, 100)))
        assert '"price":"withdraw"' in text and '"size":1000000' in text
        assert '"width":"121/100"' in text and '"reg_token_new":null' in text

    def test_every_bad_payload_gets_the_repr_digest(self):
        runner = Runner(json.loads((SCENARIOS / "two_mm_competition.json").read_text()))
        for kind, payload in BAD_PAYLOADS:
            effects = runner.protocol.handle(*etx(Tx(kind=kind, sender="c1", payload=payload)))
            assert effects["reason"] == "malformed"
            runner._record(etx(Tx(kind=kind, sender="c1", payload=payload))[0], effects)
            assert runner.trace[-1]["digest"] == repr_digest(payload), payload

    def test_well_formed_payload_under_another_kind_keeps_its_text(self):
        # the digest reads the payload alone: the kind is recorded beside it
        w = World()
        w.add_client("c1", 1)
        w.register("c1")
        w.start()
        payload = w.commit_tx("c1", MKT_BUY).payload
        runner = Runner(json.loads((SCENARIOS / "two_mm_competition.json").read_text()))
        entry, height = etx(Tx(kind=MM_REVEAL, sender="m1", payload=payload))
        effects = runner.protocol.handle(entry, height)
        assert effects == {"applied": False, "reason": "malformed"}
        runner._record(entry, effects)
        assert runner.trace[-1]["digest"] == trace_digest(
            dumps_canonical(payload_to_json(payload)))


def count_checks(monkeypatch):
    """Count ``well_formed`` calls by payload type, where protocol and scenario look it up."""
    calls, real = Counter(), protocol.well_formed

    def counted(p):
        calls[type(p)] += 1
        return real(p)
    monkeypatch.setattr(protocol, "well_formed", counted)
    monkeypatch.setattr(scenario, "well_formed", counted)
    return calls


class TestPayloadCheckCount:
    """Each payload is checked where it is judged, and the trace record reuses that."""

    def test_each_transaction_is_checked_once_per_judgement(self, monkeypatch):
        config = json.loads((SCENARIOS / "two_mm_competition.json").read_text())
        runner = Runner(config)
        calls = count_checks(monkeypatch)
        result = runner.run()
        txs = [rec for rec in result.trace if rec["seq"] is not None]
        kinds = Counter(rec["kind"] for rec in txs)
        assert not [rec for rec in txs
                    if rec["effects"].get("reason") in ("malformed", "unknown-kind")]
        assert kinds[COMMIT_CLIENT] > 0 and kinds[CLIENT_REVEAL] > 0
        # a relayed commit: the dry run and handle; every other kind: handle
        assert calls == Counter({
            ClientCommitPayload: 2 * kinds[COMMIT_CLIENT],
            RegisterPayload: kinds[CLIENT_REGISTER],
            ClientRevealPayload: kinds[CLIENT_REVEAL],
            MMCommitPayload: kinds[COMMIT_MM], MMRevealPayload: kinds[MM_REVEAL],
            CpPayload: kinds[CP]})

    def test_rejected_as_unchecked_records_are_checked_again(self, monkeypatch):
        runner = Runner(json.loads((SCENARIOS / "two_mm_competition.json").read_text()))
        bad = RegisterPayload(reg_id=b"short")
        for kind, reason in ((CLIENT_REGISTER, "malformed"), ("garbage", "unknown-kind")):
            entry, height = etx(Tx(kind=kind, sender="c1", payload=bad))
            effects = runner.protocol.handle(entry, height)
            assert effects == {"applied": False, "reason": reason}
            calls = count_checks(monkeypatch)
            runner._record(entry, effects)
            assert calls == Counter({RegisterPayload: 1})
            assert runner.trace[-1]["digest"] == repr_digest(bad)


class TestCommitMM:
    def test_escrow_taken(self):
        w = World()
        w.add_mm("m1")
        w.start()
        assert w.commit_mm("m1", spanning_market(w))["applied"]
        assert w.ledger.balance("m1", TOKEN_REF) == w.params.e_mm

    def test_one_market_per_player(self):
        w = World()
        w.add_mm("m1", ref=10 * w.params.e_mm)
        w.start()
        assert w.commit_mm("m1", spanning_market(w))["applied"]
        eff = w.commit_mm("m1", spanning_market(w, mult=3))
        assert not eff["applied"] and eff["reason"] == "one-market-per-player"

    def test_quoter_holding_exactly_e_mm_cannot_commit(self):
        """A quoter must hold more than e_mm REF to commit a market."""
        w = World()
        w.add_mm("m1", ref=w.params.e_mm)
        w.add_mm("m2", ref=w.params.e_mm + 1)
        w.start()
        eff = w.commit_mm("m1", spanning_market(w))
        assert not eff["applied"] and eff["reason"] == "insufficient-balance"
        assert w.ledger.balance("m1", TOKEN_REF) == w.params.e_mm
        assert w.commit_mm("m2", spanning_market(w))["applied"]

    def test_phase_guard(self):
        w = World()
        w.add_mm("m1")
        w.start()
        w.next_phase()
        assert w.commit_mm("m1", spanning_market(w))["reason"] == "phase"


class TestRevealClient:
    def setup_committed(self, order=MKT_BUY, **world_kw):
        w = World(**world_kw)
        w.add_client("c1", 1, a=10**4, b=10**4)
        w.register("c1")
        w.start()
        w.commit_client("c1", order)
        w.next_phase()
        return w

    def test_matching_reveal_returns_escrow_and_books_order(self):
        w = self.setup_committed()
        ref_before = w.ledger.balance("c1", TOKEN_REF)
        eff = w.reveal_client("c1", MKT_BUY)
        assert eff["applied"] and eff["escrow_returned"]
        assert w.ledger.balance("c1", TOKEN_REF) == ref_before + w.params.e_client
        assert len(w.proto.revealed_buys) == 1
        # sold tokens escrowed with the protocol
        assert w.ledger.balance(PROTOCOL_ACCOUNT, TOKEN_A) == 500

    def test_mutated_size_rejected(self):
        w = self.setup_committed()
        eff = w.reveal_client("c1", MKT_BUY, size=400)
        assert not eff["applied"] and eff["reason"] == "commitment-mismatch"

    def test_withdraw_returns_escrow_without_order(self):
        order = (TOKEN_A, 1, WITHDRAW, Fraction(121, 100))
        w = self.setup_committed(order)
        eff = w.reveal_client("c1", order)
        assert eff["applied"] and eff.get("withdrawn")
        assert not w.proto.revealed_buys and not w.proto.revealed_sells

    def test_b_sale_size_capped_by_escrow(self):
        # e_client 1000, p_a 1, limit price 100 -> cap 10 B
        order = (TOKEN_B, 50, 100, Fraction(121, 100))
        w = self.setup_committed(order)
        eff = w.reveal_client("c1", order)
        assert eff["applied"] and eff["size"] == 10
        assert w.proto.revealed_sells[0].size == 10

    def test_a_sale_size_capped_by_escrow(self):
        order = (TOKEN_A, 5_000, MKT, Fraction(121, 100))
        w = self.setup_committed(order)
        eff = w.reveal_client("c1", order)
        assert eff["applied"] and eff["size"] == 1_000

    def test_escrow_cap_that_floors_to_zero_is_size_capped_to_zero(self):
        """A B sale is capped at the B atoms e_client is worth at its limit
        price.  A cap that floors to 0 atoms refuses the reveal as
        size-capped-to-zero; a cap of 1 atom books 1 atom."""
        # e_client 1000 REF, p_a 1: limit 1001 caps at 0 B, limit 1000 at 1 B
        order = (TOKEN_B, 5, 1001, Fraction(121, 100))
        w = self.setup_committed(order)
        eff = w.reveal_client("c1", order)
        assert not eff["applied"] and eff["reason"] == "size-capped-to-zero"
        assert w.ledger.balance("c1", TOKEN_B) == 10**4 and not w.proto.revealed_sells
        order = (TOKEN_B, 5, 1000, Fraction(121, 100))
        w = self.setup_committed(order)
        eff = w.reveal_client("c1", order)
        assert eff["applied"] and eff["size"] == 1

    def test_client_whose_balance_equals_its_size_can_reveal(self):
        """A revealing client must hold at least the revealed size of the
        token it sells: exactly that much is enough."""
        w = World()
        w.add_client("c1", 1, a=MKT_BUY[1])
        w.add_client("c2", 2, a=MKT_BUY[1] - 1)
        for pid in ("c1", "c2"):
            w.register(pid)
        w.start()
        for pid in ("c1", "c2"):
            assert w.commit_client(pid, MKT_BUY)["applied"]
        w.next_phase()
        assert w.reveal_client("c1", MKT_BUY)["applied"]
        assert w.ledger.balance("c1", TOKEN_A) == 0
        eff = w.reveal_client("c2", MKT_BUY)
        assert not eff["applied"] and eff["reason"] == "insufficient-balance"

    def test_re_registration_keeps_escrow_and_charges_fee(self):
        w = self.setup_committed()
        new_secret = gen_secret(42)
        ref_before = w.ledger.balance("c1", TOKEN_REF)
        eff = w.reveal_client("c1", MKT_BUY, reg_token_new=reg_id(new_secret))
        assert eff["applied"] and eff["re_registered"] and not eff["escrow_returned"]
        assert w.ledger.balance("c1", TOKEN_REF) == ref_before - w.params.f_r
        assert reg_id(new_secret) in w.proto.clients

    def test_unpaid_re_registration_returns_escrow(self):
        # registering leaves the client exactly f_r REF: too little for the fee
        w = World()
        w.add_client("c1", 1, ref=w.params.e_client + 2 * w.params.f_r, a=10**4)
        w.register("c1")
        w.start()
        w.commit_client("c1", MKT_BUY)
        w.next_phase()
        assert w.ledger.balance("c1", TOKEN_REF) == w.params.f_r
        new_secret = gen_secret(42)
        eff = w.reveal_client("c1", MKT_BUY, reg_token_new=reg_id(new_secret))
        assert eff["applied"] and eff["escrow_returned"] and not eff["re_registered"]
        assert w.ledger.balance("c1", TOKEN_REF) == w.params.f_r + w.params.e_client
        assert len(w.proto.clients) == 0

    def test_randomness_that_does_not_open_the_reg_id_is_rejected(self):
        w = self.setup_committed()
        secret = w.secrets["c1"]
        tkn, size, price, width = MKT_BUY
        payload = ClientRevealPayload(tkn=tkn, size=size, price=price, width=width,
                                      serial=secret.s,
                                      randomness=bytes([secret.r[0] ^ 1]) + secret.r[1:],
                                      reg_id=reg_id(secret))
        snap = w.ledger.snapshot()
        eff = w.proto.handle(*etx(Tx(kind=CLIENT_REVEAL, sender="c1", payload=payload),
                                  height=w.height))
        assert eff == {"applied": False, "reason": "reg-id-mismatch"}
        assert w.ledger.snapshot() == snap and not w.proto.revealed_buys
        # the commit still stands: the honest opening reveals it
        assert w.reveal_client("c1", MKT_BUY)["applied"]

    def test_double_reveal_rejected(self):
        w = self.setup_committed()
        assert w.reveal_client("c1", MKT_BUY)["applied"]
        eff = w.reveal_client("c1", MKT_BUY)
        assert not eff["applied"] and eff["reason"] == "unknown-serial"


class TestWrongPhaseReveals:
    def test_reveal_client_rejected_in_commit_phase(self):
        w = World()
        w.add_client("c1", 1, a=10**4)
        w.register("c1")
        w.start()
        w.commit_client("c1", MKT_BUY)
        eff = w.reveal_client("c1", MKT_BUY)  # still Commit
        assert not eff["applied"] and eff["reason"] == "phase"

    def test_reveal_mm_rejected_in_commit_phase(self):
        w = World()
        w.add_mm("m1")
        w.start()
        m = spanning_market(w)
        w.commit_mm("m1", m)
        eff = w.reveal_mm("m1", m)
        assert not eff["applied"] and eff["reason"] == "phase"


class TestRevealMM:
    def setup_committed(self, market=None, **mm_kw):
        w = World()
        w.add_mm("m1", **mm_kw)
        w.start()
        self.market = market or spanning_market(w)
        w.commit_mm("m1", self.market)
        w.next_phase()
        return w

    def test_valid_market_recorded(self):
        w = self.setup_committed()
        assert w.reveal_mm("m1", self.market)["applied"]
        assert len(w.proto.revealed_mkts) == 1
        # escrow return waits for the phase end
        assert w.ledger.balance("m1", TOKEN_REF) == w.params.e_mm

    def test_below_minimum_liquidity_ignored(self):
        w = World()
        w.add_mm("m1")
        w.start()
        thin = Market(bid=98, size_bid=10, offer=102, size_offer=1)
        w.commit_mm("m1", thin)
        w.next_phase()
        eff = w.reveal_mm("m1", thin)
        assert not eff["applied"] and eff["reason"] == "below-minimum-liquidity"
        assert "m1" in w.proto.mm_commits  # still committed, escrow at risk

    def test_mismatched_market_ignored(self):
        w = self.setup_committed()
        eff = w.reveal_mm("m1", spanning_market(w, mult=3))
        assert not eff["applied"] and eff["reason"] == "commitment-mismatch"

    def test_minimum_liquidity_boundary_is_the_whole_atom_ceiling(self):
        w = World(p_a=Fraction(7, 3))
        w.add_mm("m1")
        # q_not = 10,000 REF is 4285.7 A atoms, and 42.02 B atoms at offer 102
        edge = Market(bid=98, size_bid=4286, offer=102, size_offer=43)
        assert w.proto._mm_liquidity_ok("m1", edge)
        assert not w.proto._mm_liquidity_ok("m1", replace(edge, size_bid=4285))
        assert not w.proto._mm_liquidity_ok("m1", replace(edge, size_offer=42))

    def test_market_leg_equal_to_the_balance_stays_eligible(self):
        """Each revealed leg must be backed by the quoter's balance of its
        token, checked at the reveal and again at the reveal end: a leg
        equal to the balance is backed, one atom more is not."""
        w = World()
        m = spanning_market(w)
        w.add_mm("m1", a=m.size_bid, b=m.size_offer)
        w.start()
        w.commit_mm("m1", m)
        w.next_phase()
        assert w.reveal_mm("m1", m)["applied"]
        w.next_phase()
        assert w.proto.tight_market == ("m1", m)
        for leg in ("size_bid", "size_offer"):
            w = World()
            w.add_mm("m1", a=m.size_bid, b=m.size_offer)
            over = replace(m, **{leg: getattr(m, leg) + 1})
            assert not w.proto._mm_liquidity_ok("m1", over), leg


class TestEndRevealPhase:
    def test_one_revealed_one_silent(self):
        w = World()
        w.add_mm("m1")
        w.add_mm("m2")
        w.start()
        m = spanning_market(w)
        w.commit_mm("m1", m)
        w.commit_mm("m2", spanning_market(w, mult=3))
        w.next_phase()
        w.reveal_mm("m1", m)
        w.next_phase()  # reveal deadline
        assert w.proto.phase is Phase.RESOLUTION
        assert w.ledger.balance("m1", TOKEN_REF) == 2 * w.params.e_mm - \
            0  # escrow back
        assert w.ledger.balance(BURN_SINK, TOKEN_REF) == w.params.e_mm
        assert w.proto.tight_market[0] == "m1"

    def test_zero_markets_keeps_any_width(self):
        w = World()
        w.add_client("c1", 1, a=10**4)
        w.register("c1")
        w.start()
        w.commit_client("c1", MKT_BUY)
        w.next_phase()
        w.reveal_client("c1", MKT_BUY)
        w.next_phase()
        assert w.proto.phase is Phase.RESOLUTION
        assert w.proto.book.w_tight is ANY and w.proto.tight_market is None
        assert len(w.proto.revealed_buys) == 1  # client-only book survives

    def test_unrevealed_client_blacklisted_and_burned(self):
        w = World()
        w.add_client("c1", 1, a=10**4)
        w.add_client("c2", 2, a=10**4)
        w.register("c1")
        w.register("c2")
        w.start()
        w.commit_client("c1", MKT_BUY)
        w.commit_client("c2", MKT_BUY)
        w.next_phase()
        w.reveal_client("c1", MKT_BUY)
        w.next_phase()
        assert w.secrets["c2"].s in w.proto.blacklisted
        assert w.ledger.balance(BURN_SINK, TOKEN_REF) == w.params.e_client

    def test_quote_that_lapses_before_the_window_closes_is_burned(self):
        """m1 quotes and also sells A as a client.  Its quote passes the
        liquidity check when revealed; its client sale then takes its A below
        the bid leg, so the window's close burns its escrow and no tight
        market is picked."""
        w = World()
        m = spanning_market(w)
        w.add_client("m1", 1)
        w.add_mm("m1", a=m.size_bid, b=m.size_offer)
        w.register("m1")
        w.start()
        assert w.commit_client("m1", MKT_BUY)["applied"]
        assert w.commit_mm("m1", m)["applied"]
        w.next_phase()
        assert w.reveal_mm("m1", m)["applied"]
        assert w.reveal_client("m1", MKT_BUY)["applied"]
        assert w.ledger.balance("m1", TOKEN_A) == m.size_bid - MKT_BUY[1]
        ref, supplies = w.ledger.balance("m1", TOKEN_REF), w.supplies()
        w.next_phase()  # reveal deadline
        assert w.proto.phase is Phase.RESOLUTION
        assert w.proto._round_burned == [{"player": "m1", "token": TOKEN_REF,
                                          "amount": w.params.e_mm,
                                          "reason": "mm-liquidity-lapsed"}]
        assert w.ledger.balance(BURN_SINK, TOKEN_REF) == w.params.e_mm
        assert w.ledger.balance("m1", TOKEN_REF) == ref
        assert w.proto.tight_market is None and w.proto.book.w_tight is ANY
        # the lapsed quote put no leg in the book and moved no A or B
        assert [o.owner for o in w.proto.book.buy_orders] == ["m1"]
        assert not w.proto.book.sell_orders
        assert w.ledger.balance("m1", TOKEN_A) == m.size_bid - MKT_BUY[1]
        assert w.supplies() == supplies

    def test_tight_market_implicit_orders(self):
        w = World()
        w.add_mm("m1")
        w.start()
        m = spanning_market(w)
        w.commit_mm("m1", m)
        w.next_phase()
        w.reveal_mm("m1", m)
        w.next_phase()
        assert not w.proto.revealed_buys and not w.proto.revealed_sells
        buys, sells = w.proto.book.buy_orders, w.proto.book.sell_orders
        assert len(buys) == 1 and len(sells) == 1
        assert buys[0].width_req is ANY and sells[0].width_req is ANY
        assert buys[0].price == m.bid and sells[0].price == m.offer
        # escrow-capped sizes: e_mm 25000, p_a 1 -> bid cap 25000 A;
        # offer cap 25000 // 102 = 245 B
        assert buys[0].size == min(m.size_bid, 25_000)
        assert sells[0].size == min(m.size_offer, 245)
        assert w.ledger.balance(PROTOCOL_ACCOUNT, TOKEN_A) == buys[0].size


class TestResolution:
    def full_round(self):
        w = World()
        w.add_client("cb", 1, a=10**4)
        w.add_client("cs", 2, b=10**4)
        w.add_mm("m1")
        for pid in ("cb", "cs"):
            w.register(pid)
        w.start()
        m = spanning_market(w)
        w.commit_mm("m1", m)
        w.commit_client("cb", MKT_BUY)
        w.commit_client("cs", MKT_SELL)
        w.next_phase()
        w.reveal_client("cb", MKT_BUY)
        w.reveal_client("cs", MKT_SELL)
        w.reveal_mm("m1", m)
        w.next_phase()
        fund(w.ledger, "hunter", ref=10 * w.params.res_bounty)
        return w

    def test_valid_cp_settles_and_rewards(self):
        w = self.full_round()
        fund(w.ledger, "hunter", ref=10 * w.params.res_bounty)
        before = w.ledger.balance("hunter", TOKEN_REF)
        eff = w.submit_cp("hunter")
        assert eff["applied"]
        assert w.ledger.balance("hunter", TOKEN_REF) == before + w.params.res_bounty
        assert w.proto.phase is Phase.COMMIT and w.proto.round == 1
        assert len(w.proto.settlements) == 1
        rep = w.proto.settlements[0]
        assert rep["bounty_winner"] == "hunter" and rep["volume_b"] > 0

    def test_invalid_cp_forfeits_deposit_and_leaves_auction_open(self):
        w = self.full_round()
        fund(w.ledger, "liar", ref=10 * w.params.res_bounty)
        cand = find_clearing_price(w.proto.book)
        bogus = CpPayload(cp=cand.cp, volume_a=cand.volume_a + 1,
                          imbalance_a=cand.imbalance_a)
        before = w.ledger.balance("liar", TOKEN_REF)
        eff = w.proto.handle(*etx(Tx(kind=CP, sender="liar", payload=bogus),
                                 height=w.height))
        assert not eff["applied"] and eff["deposit_lost"]
        assert w.ledger.balance("liar", TOKEN_REF) == before - w.params.res_bounty
        assert w.proto.phase is Phase.RESOLUTION
        # a second, honest proposal still settles
        assert w.submit_cp("hunter")["applied"]

    def test_cp_rejected_outside_resolution(self):
        w = World()
        w.add_client("c1", 1, a=10**4)
        w.register("c1")
        w.start()
        fund(w.ledger, "hunter", ref=10 * w.params.res_bounty)
        payload = CpPayload(cp=100, volume_a=1, imbalance_a=0)
        eff = w.proto.handle(*etx(Tx(kind=CP, sender="hunter", payload=payload),
                                 height=w.height))
        assert not eff["applied"] and eff["reason"] == "phase"

    def test_round_isolation(self):
        w = self.full_round()
        w.submit_cp("hunter")
        assert w.proto.book is None and w.proto.width_removed == []
        assert not (w.proto.revealed_buys or w.proto.revealed_sells or w.proto.revealed_mkts)
        assert w.proto.tight_market is None
        # round 1: a fresh commitment holds the reveal window open
        w.add_client("c3", 3, a=10**4)
        w.register("c3")
        w.commit_client("c3", MKT_BUY)
        w.next_phase()
        assert w.proto.phase is Phase.REVEAL
        # the round-0 serial is spent: its reveal must not apply
        eff = w.reveal_client("cb", MKT_BUY)
        assert not eff["applied"] and eff["reason"] == "unknown-serial"

    def test_proposer_holding_exactly_res_bounty_is_refused(self):
        """A proposer must hold more than res_bounty REF to post its deposit."""
        w = self.full_round()
        fund(w.ledger, "prop", ref=w.params.res_bounty)
        eff = w.submit_cp("prop")
        assert not eff["applied"] and eff["reason"] == "insufficient-balance"
        assert w.ledger.balance("prop", TOKEN_REF) == w.params.res_bounty
        fund(w.ledger, "prop", ref=1)
        assert w.submit_cp("prop")["applied"]

    def test_exactly_two_bounties_after_the_deposit_pays_the_bounty(self):
        """A valid proposal is paid when the protocol account holds at least
        2 * res_bounty REF with the deposit in: at exactly that it settles
        and pays; one REF less is bounty-unfunded and returns the deposit."""
        for short in (0, 1):
            w = self.full_round()
            bounty = w.params.res_bounty
            # leave bounty - short REF, so the deposit brings 2 * bounty - short
            excess = w.ledger.balance(PROTOCOL_ACCOUNT, TOKEN_REF) - (bounty - short)
            w.ledger.burn(PROTOCOL_ACCOUNT, TOKEN_REF, excess)
            before = w.ledger.balance("hunter", TOKEN_REF)
            eff = w.submit_cp("hunter")
            if not short:
                assert eff["applied"]
                assert w.ledger.balance("hunter", TOKEN_REF) == before + bounty
                assert w.ledger.balance(PROTOCOL_ACCOUNT, TOKEN_REF) == 0
            else:
                assert not eff["applied"] and eff["reason"] == "bounty-unfunded"
                assert w.ledger.balance("hunter", TOKEN_REF) == before

    def test_width_removed_order_refunded_in_full(self):
        w = World()
        w.add_client("cb", 1, a=10**4)
        w.add_client("cs", 2, b=10**4)
        w.add_client("cn", 3, a=10**4)
        w.add_mm("m1")
        narrow = (TOKEN_A, 500, MKT, Fraction(1))  # tighter than the 102/98 market
        orders = {"cb": MKT_BUY, "cs": MKT_SELL, "cn": narrow}
        for pid in orders:
            w.register(pid)
        w.start()
        m = spanning_market(w)
        w.commit_mm("m1", m)
        for pid, order in orders.items():
            w.commit_client(pid, order)
        w.next_phase()
        for pid, order in orders.items():
            w.reveal_client(pid, order)
        w.reveal_mm("m1", m)
        w.next_phase()
        fund(w.ledger, "hunter", ref=10 * w.params.res_bounty)
        start = w.supplies()
        assert w.submit_cp("hunter")["applied"]
        [row] = [f for f in w.proto.settlements[0]["fills"] if f["owner"] == "cn"]
        assert row["width_removed"] is True
        assert (row["executed"], row["received"], row["refunded"]) == (0, 0, 500)
        assert w.ledger.balance("cn", TOKEN_A) == 10**4
        assert _check_report(w.proto.settlements) == []
        assert w.supplies() == start

    def test_conservation_across_full_round(self):
        w = self.full_round()
        start = w.supplies()
        w.submit_cp("hunter")
        assert w.supplies() == start

    def test_settlement_conserves_client_tokens(self):
        w = self.full_round()
        w.submit_cp("hunter")
        rep = w.proto.settlements[0]
        spent = sum(f["executed"] for f in rep["fills"] if f["side"] == "buy")
        recv = sum(f["received"] for f in rep["fills"] if f["side"] == "sell")
        assert spent == recv == rep["volume_b"] * rep["cp"]


class TestPhaseGuardTotality:
    def world_in_phase(self, phase):
        w = World()
        w.add_client("c1", 1, a=10**4)
        w.register("c1")
        if phase is None:
            return w
        w.start()
        if phase is Phase.REVEAL:
            # an empty reveal registry exits early, so park a commitment
            w.commit_client("c1", MKT_BUY)
            w.next_phase()
        elif phase is Phase.RESOLUTION:
            w.next_phase()  # empty round: straight through reveal
        assert w.proto.phase is phase
        return w

    def test_every_kind_in_every_phase_is_total(self):
        kinds = [CLIENT_REGISTER, COMMIT_CLIENT, COMMIT_MM, CLIENT_REVEAL,
                 MM_REVEAL, CP, "garbage"]
        for phase in PHASES:
            for kind in kinds:
                w = self.world_in_phase(phase)
                tx = Tx(kind=kind, sender="c1", payload={"junk": True})
                eff = w.proto.handle(*etx(tx, height=w.height))
                reason = "unknown-kind" if kind == "garbage" else "malformed"
                assert eff == {"applied": False, "reason": reason}, (phase, kind)

    def test_adversarially_typed_fields_are_noops(self):
        for phase in PHASES:
            for kind, payload in BAD_PAYLOADS:
                w = self.world_in_phase(phase)
                eff = w.proto.handle(*etx(Tx(kind=kind, sender="c1", payload=payload),
                                         height=w.height))
                assert eff == {"applied": False, "reason": "malformed"}, (phase, kind, payload)

    def test_dry_run_and_trace_codec_are_total(self):
        w = self.world_in_phase(Phase.COMMIT)
        for kind, payload in BAD_PAYLOADS:
            assert payload_text(payload) == dumps_canonical({"repr": repr(payload)}), payload
            tx = Tx(kind=kind, sender=RELAYED, payload=payload)
            assert w.proto.commit_looks_valid(tx) is False, payload

    def test_current_root_proof_with_unpaired_path_is_malformed(self):
        for phase in PHASES:
            w = self.world_in_phase(phase)
            for path in BAD_PATHS:
                proof = MembershipProof(root=w.proto.registry_root(), leaf=_Z, serial=_Z,
                                        path=path, binding=_Z)
                payload = ClientCommitPayload(com=_Z, serial=_Z, proof=proof)
                tx = Tx(kind=COMMIT_CLIENT, sender=RELAYED, payload=payload)
                assert w.proto.commit_looks_valid(tx) is False, (phase, path)
                eff = w.proto.handle(*etx(tx, height=w.height, relayer="relay1"))
                assert eff == {"applied": False, "reason": "malformed"}, (phase, path)
                assert payload_text(payload) == dumps_canonical({"repr": repr(payload)})

    def test_relayers_drop_a_commit_payload_under_another_kind(self):
        w = self.world_in_phase(Phase.COMMIT)
        payload = w.commit_tx("c1", MKT_SELL).payload
        chain = Chain(t_eff=w.params.t_eff)
        chain.register_relayer("relay1")
        with pytest.raises(InvalidProof):
            chain.relay(Tx(kind=MM_REVEAL, sender=RELAYED, payload=payload),
                        w.proto.commit_looks_valid)
        assert not chain.pending
        # the same payload under its own kind is carried
        chain.relay(Tx(kind=COMMIT_CLIENT, sender=RELAYED, payload=payload),
                    w.proto.commit_looks_valid)
        assert len(chain.pending) == 1

    def test_kinds_table_covers_each_kind_once(self):
        assert set(_KINDS) == {CLIENT_REGISTER, COMMIT_CLIENT, COMMIT_MM,
                               CLIENT_REVEAL, MM_REVEAL, CP}
        payloads = [row.payload for row in _KINDS.values()]
        assert len(set(payloads)) == len(payloads) == 6
