import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtradex import membership
from fairtradex.membership import (DIGEST_SIZE, EmptySet, MalformedProof,
                                   NotAMember, Registry, Secret, accumulate, admit,
                                   authentic, deserialize_proof, gen_secret, h,
                                   is_proof, prove_membership,
                                   serialize_proof, verify_membership)

GOLDEN = Path(__file__).parent / "golden" / "membership_proof.json"


def raw_h(data: bytes) -> bytes:
    # independent recomputation of the keyed hash
    return hashlib.blake2b(data, key=b"wsfba-hash-v1", digest_size=32).digest()


class TestSecrets:
    def test_deterministic_per_seed(self):
        assert gen_secret(1) == gen_secret(1)

    def test_distinct_seeds_distinct_serials(self):
        assert gen_secret(1).s != gen_secret(2).s

    def test_component_lengths(self):
        s = gen_secret(7)
        assert len(s.s) == len(s.r) == DIGEST_SIZE

    def test_seed_range_is_64_bits(self):
        assert gen_secret(0) != gen_secret(2**64 - 1)
        for bad in (-1, 2**64):
            with pytest.raises(ValueError):
                gen_secret(bad)

    @pytest.mark.parametrize("s_len, r_len", [(31, 32), (32, 33), (0, 32)])
    def test_components_must_be_32_bytes(self, s_len, r_len):
        with pytest.raises(ValueError, match="secret components must be 32 bytes"):
            Secret(s=b"\1" * s_len, r=b"\2" * r_len)

    def test_reg_id_is_the_hash_of_serial_and_randomness(self):
        s = gen_secret(7)
        assert s.reg_id == h(s.s, s.r) == raw_h(s.s + s.r)

    def test_equality_and_repr_read_serial_and_randomness_only(self):
        s = gen_secret(7)
        same = Secret(s.s, s.r)
        assert same == s and hash(same) == hash(s)
        assert repr(s) == f"Secret(s={s.s!r}, r={s.r!r})"
        assert Secret(s.s, gen_secret(8).r) != s
        with pytest.raises(TypeError):
            Secret(s.s, s.r, reg_id=s.reg_id)


class TestAccumulate:
    def test_single_leaf_pads_to_pair(self):
        L = gen_secret(1).reg_id
        assert accumulate(Registry([L])) == raw_h(L + L)

    def test_two_leaves(self):
        l1, l2 = (gen_secret(s).reg_id for s in (1, 2))
        assert accumulate(Registry([l1, l2])) == raw_h(l1 + l2)

    def test_three_leaves_duplicate_last(self):
        l1, l2, l3 = (gen_secret(s).reg_id for s in (1, 2, 3))
        assert accumulate(Registry([l1, l2, l3])) == raw_h(raw_h(l1 + l2) + raw_h(l3 + l3))

    def test_order_sensitivity(self):
        l1, l2 = (gen_secret(s).reg_id for s in (1, 2))
        assert accumulate(Registry([l1, l2])) != accumulate(Registry([l2, l1]))

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            accumulate(Registry([]))


class TestProveVerify:
    def test_completeness_every_member_small_sets(self):
        # exhaustive for set sizes 1..16 here; 1..64 runs in the acceptance suite
        for n in range(1, 17):
            secrets = [gen_secret(s) for s in range(n)]
            ids = Registry(s.reg_id for s in secrets)
            root = accumulate(ids)
            for sec in secrets:
                proof = prove_membership(sec, ids, b"msg")
                assert verify_membership(proof, root, b"msg", set())

    @given(n=st.integers(1, 64), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_proof_has_a_proofs_shape(self, n, data):
        secrets = [gen_secret(s) for s in range(n)]
        reg = Registry(s.reg_id for s in secrets)
        proof = prove_membership(secrets[data.draw(st.integers(0, n - 1))], reg,
                                 data.draw(st.binary(max_size=64)))
        assert is_proof(proof)
        # one 33-byte node per tree level below the root
        assert len(proof.path) == 33 * max(1, (n - 1).bit_length())

    def test_unregistered_secret(self):
        ids = Registry(gen_secret(s).reg_id for s in range(4))
        with pytest.raises(NotAMember):
            prove_membership(gen_secret(99), ids, b"msg")

    def test_replayed_serial_rejected(self):
        secrets = [gen_secret(s) for s in range(4)]
        ids = Registry(s.reg_id for s in secrets)
        root = accumulate(ids)
        nullifiers = set()
        p1 = prove_membership(secrets[0], ids, b"first")
        assert verify_membership(p1, root, b"first", nullifiers)
        assert secrets[0].s in nullifiers
        p2 = prove_membership(secrets[0], ids, b"second")
        assert not verify_membership(p2, root, b"second", nullifiers)

    def test_wrong_root_rejected(self):
        secrets = [gen_secret(s) for s in range(4)]
        ids = Registry(s.reg_id for s in secrets)
        proof = prove_membership(secrets[0], ids, b"msg")
        other_root = accumulate(Registry(s.reg_id for s in secrets[:2]))
        assert not verify_membership(proof, other_root, b"msg", set())

    def test_tampered_message_rejected(self):
        secrets = [gen_secret(s) for s in range(4)]
        ids = Registry(s.reg_id for s in secrets)
        proof = prove_membership(secrets[0], ids, b"msg")
        assert not verify_membership(proof, accumulate(ids), b"msh", set())

    def test_dry_run_does_not_consume_serial(self):
        secrets = [gen_secret(s) for s in range(2)]
        ids = Registry(s.reg_id for s in secrets)
        root = accumulate(ids)
        nullifiers = set()
        proof = prove_membership(secrets[0], ids, b"m")
        assert verify_membership(proof, root, b"m", nullifiers, record=False)
        assert not nullifiers


    def test_pure_half_reads_only_proof_and_message(self):
        secrets = [gen_secret(s) for s in range(5)]
        ids = Registry(s.reg_id for s in secrets)
        proof = prove_membership(secrets[2], ids, b"m")
        assert authentic(proof, b"m") and not authentic(proof, b"n")
        # a later registration moves the root: the pure half still holds,
        # the state half and the whole check fail
        ids.append(gen_secret(9).reg_id)
        new_root = accumulate(ids)
        nullifiers = set()
        assert not admit(proof, new_root, nullifiers)
        assert not verify_membership(proof, new_root, b"m", nullifiers)
        assert admit(proof, proof.root, nullifiers, record=False) and not nullifiers
        assert verify_membership(proof, proof.root, b"m", nullifiers)
        assert nullifiers == {proof.serial}
        assert authentic(proof, b"m") and not admit(proof, proof.root, nullifiers)


def flip_byte(blob: bytes, i: int, mask: int = 0xFF) -> bytes:
    out = bytearray(blob)
    out[i] ^= mask
    return bytes(out)


class TestNodeMemo:
    """One node memo shared by many proofs never moves a verdict."""

    @staticmethod
    def tampered(proof, message, draw):
        """The proof and message, then each with one field tampered."""
        path, nodes = proof.path, len(proof.path) // 33
        k = draw(st.integers(0, nodes - 1))
        yield proof, message
        yield replace(proof, path=flip_byte(path, 33 * k + draw(st.integers(1, 32)))), message
        yield replace(proof, path=flip_byte(path, 33 * k, 1)), message   # side tag 0 <-> 1
        yield proof, message + b"x"
        yield replace(proof, leaf=flip_byte(proof.leaf, draw(st.integers(0, 31)))), message
        yield replace(proof, path=path[:-33]), message

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_shared_memo_gives_every_verdict_of_a_fresh_check(self, data):
        memo = {}
        for _ in range(data.draw(st.integers(1, 4))):
            # seeds from a small range repeat, so registries hold duplicate ids
            seeds = data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=13))
            reg = Registry(gen_secret(s).reg_id for s in seeds)
            secret = gen_secret(data.draw(st.sampled_from(seeds)))
            message = data.draw(st.binary(max_size=16))
            proof = prove_membership(secret, reg, message)
            verdicts = []
            for p, m in self.tampered(proof, message, data.draw):
                verdicts.append(authentic(p, m, memo))
                assert verdicts[-1] == authentic(p, m)
            # a flipped side tag is harmless where a node's sibling is itself
            # (duplicate-last padding, or a duplicate id next to its first)
            assert verdicts[0] and not any(verdicts[1:2] + verdicts[3:])
        assert all(v == raw_h(k) for k, v in memo.items())

    def test_proofs_over_one_tree_hash_each_node_pair_once(self, monkeypatch):
        secrets = [gen_secret(s) for s in range(8)]
        reg = Registry(s.reg_id for s in secrets)
        proofs = [prove_membership(s, reg, b"m") for s in secrets]
        calls = []
        real = membership.h
        monkeypatch.setattr(membership, "h", lambda *p: calls.append(p) or real(*p))
        memo = {}
        assert all(authentic(p, b"m", memo) for p in proofs)
        # 7 internal nodes and 8 bindings
        assert len(calls) == 7 + 8 and len(memo) == 7
        calls.clear()
        assert all(authentic(p, b"m") for p in proofs)
        assert len(calls) == 8 * (3 + 1)


def flip_bit(blob: bytes, bit: int) -> bytes:
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


class TestBinding:
    def test_a_node_tag_that_is_no_side_is_not_authentic(self):
        """``is_proof`` refuses a path whose first node is tagged 2 (a
        serialized leaf's tag); ``authentic``, called on it anyway, says no."""
        secrets = [gen_secret(s) for s in range(8)]
        proof = prove_membership(secrets[3], Registry(s.reg_id for s in secrets), b"message")
        assert authentic(proof, b"message")
        bad = replace(proof, path=b"\2" + proof.path[1:])
        assert not is_proof(bad) and not authentic(bad, b"message")

    @given(data=st.data())
    @settings(max_examples=300)
    def test_single_bit_mutations_rejected(self, data):
        secrets = [gen_secret(s) for s in range(8)]
        ids = Registry(s.reg_id for s in secrets)
        root = accumulate(ids)
        idx = data.draw(st.integers(0, 7))
        proof = prove_membership(secrets[idx], ids, b"message")
        blob = serialize_proof(proof)
        bit = data.draw(st.integers(0, len(blob) * 8 - 1))
        mutated = flip_bit(blob, bit)
        try:
            bad = deserialize_proof(mutated)
        except MalformedProof:
            return
        assert not verify_membership(bad, root, b"message", set())


class TestSerialization:
    def test_round_trip(self):
        secrets = [gen_secret(s) for s in range(5)]
        ids = Registry(s.reg_id for s in secrets)
        proof = prove_membership(secrets[3], ids, b"xyz")
        assert deserialize_proof(serialize_proof(proof)) == proof

    def test_node_count_boundary(self):
        """A leaf-only proof (one node) round-trips; a blob that declares no node is malformed."""
        ids = Registry(gen_secret(s).reg_id for s in range(2))
        bare = replace(prove_membership(gen_secret(0), ids, b"m"), path=b"")
        blob = serialize_proof(bare)
        assert blob[64:68] == (1).to_bytes(4, "big")
        assert deserialize_proof(blob) == bare
        with pytest.raises(MalformedProof):
            deserialize_proof(blob[:64] + (0).to_bytes(4, "big") + blob[68 + 33:])

    @given(data=st.data())
    @settings(max_examples=300)
    def test_every_accepted_blob_reserializes_to_itself(self, data):
        """deserialize_proof accepts only blobs that serialize_proof writes back byte for byte."""
        digest = st.binary(min_size=32, max_size=32)
        # mostly serialize_proof's own layout: a leaf node tagged 2, then nodes tagged 0 or 1
        leaf = st.builds(lambda tag, d: bytes([tag]) + d, st.sampled_from(b"\2\2\2\0"), digest)
        node = st.builds(lambda tag, d: bytes([tag]) + d,
                         st.sampled_from(b"\0\1" * 4 + b"\2\xff"), digest)
        count = data.draw(st.integers(1, 6))
        nodes = data.draw(leaf) + b"".join(data.draw(st.lists(node, min_size=count - 1,
                                                              max_size=count - 1)))
        declared = data.draw(st.sampled_from((count, count, count - 1, count + 1)))
        laid_out = (data.draw(digest) + data.draw(digest) + declared.to_bytes(4, "big")
                    + nodes + data.draw(digest))
        blob = data.draw(st.sampled_from((laid_out, laid_out, laid_out[:-1]))
                         | st.binary(max_size=300))
        try:
            proof = deserialize_proof(blob)
        except MalformedProof:
            return
        assert is_proof(proof)
        assert serialize_proof(proof) == blob

    def test_golden_vector(self):
        doc = json.loads(GOLDEN.read_text())
        secrets = [gen_secret(s) for s in doc["seeds"]]
        ids = Registry(s.reg_id for s in secrets)
        message = doc["message"].encode()
        proof = prove_membership(secrets[doc["seeds"].index(doc["prover_seed"])], ids, message)
        assert serialize_proof(proof).hex() == doc["proof"]
        root = accumulate(ids)
        assert root.hex() == doc["root"]
        assert verify_membership(deserialize_proof(bytes.fromhex(doc["proof"])),
                                 root, message, set())


class TestTranscriptShape:
    def test_identical_orders_from_two_players_differ_only_in_proof_fields(self):
        """The public commit transcript leaks no owner-determined field
        beyond the Merkle path (simulation ceiling: paths are not hiding)."""
        secrets = [gen_secret(s) for s in range(4)]
        ids = Registry(s.reg_id for s in secrets)
        order_bytes = b"ord|A|100|mkt|121/100"
        com = h(order_bytes)
        t1 = prove_membership(secrets[0], ids, com)
        t2 = prove_membership(secrets[1], ids, com)
        # same commitment, same root, same tree shape
        assert com == com
        assert t1.root == t2.root
        assert len(t1.path) == len(t2.path)
        # everything owner-specific lives in serial / leaf / path / binding
        assert t1.serial != t2.serial
        assert t1.leaf != t2.leaf
        assert t1.path != t2.path
        assert t1.binding != t2.binding


POOL = [gen_secret(s) for s in range(6)]
POOL_IDS = [s.reg_id for s in POOL]


def naive_root(ids: list[bytes]) -> bytes:
    # independent recomputation: duplicate-last padding to a power of two >= 2
    level = list(ids)
    while len(level) < 2 or len(level) & (len(level) - 1):
        level.append(level[-1])
    while len(level) > 1:
        level = [raw_h(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def check_against_plain(reg: Registry, plain: list[bytes]) -> None:
    assert list(reg) == plain and len(reg) == len(plain)
    if not plain:
        with pytest.raises(EmptySet):
            accumulate(reg)
        return
    root = accumulate(reg)
    assert root == naive_root(plain) == accumulate(Registry(plain))
    for sec, sid in zip(POOL, POOL_IDS):
        assert (sid in reg) == (sid in plain)
        if sid in plain:
            proof = prove_membership(sec, reg, b"m")
            assert proof == prove_membership(sec, Registry(plain), b"m")
            assert verify_membership(proof, root, b"m", set())
        else:
            with pytest.raises(NotAMember):
                prove_membership(sec, reg, b"m")


class TestRegistry:
    @given(start=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33]),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_cached_tree_matches_plain_list_after_every_step(self, start, data):
        """Root, membership and every member's proof agree with the naive
        root and a fresh Registry over a plain list copy after each
        append/remove, duplicates included; a stale cache shows up as a
        mismatch."""
        pick = st.sampled_from(POOL_IDS)
        reg = Registry(data.draw(pick) for _ in range(start))
        plain = list(reg)
        check_against_plain(reg, plain)
        for add, rid in data.draw(st.lists(st.tuples(st.booleans(), pick), max_size=12)):
            if add:
                reg.append(rid)
                plain.append(rid)
            elif rid in plain:
                reg.remove(rid)
                plain.remove(rid)
            else:
                with pytest.raises(ValueError):
                    reg.remove(rid)
            check_against_plain(reg, plain)

    def test_tree_built_once_per_mutation(self, monkeypatch):
        reg = Registry(POOL_IDS[:5])
        builds = []
        real = membership._build_levels
        monkeypatch.setattr(membership, "_build_levels",
                            lambda ids: builds.append(list(ids)) or real(ids))
        root = accumulate(reg)
        for sec in POOL[:5]:
            assert prove_membership(sec, reg, b"m").root == root
        assert accumulate(reg) == root
        assert len(builds) == 1
        reg.append(POOL_IDS[5])
        reg.remove(POOL_IDS[0])
        assert len(builds) == 1
        new_root = accumulate(reg)
        assert prove_membership(POOL[5], reg, b"m").root == new_root
        assert builds == [POOL_IDS[:5], POOL_IDS[1:]]
        assert new_root == naive_root(POOL_IDS[1:])

    def test_remove_compares_no_other_id(self):
        """Removing an id looks it up by hash: no other registration is compared."""
        eq_calls = []

        class CountedId(bytes):
            __hash__ = bytes.__hash__

            def __eq__(self, other):
                eq_calls.append(1)
                return bytes.__eq__(self, other)

        ids = [CountedId(gen_secret(s).reg_id) for s in range(1_000)]
        reg = Registry(ids)
        eq_calls.clear()
        reg.remove(ids[-1])
        assert len(eq_calls) <= 2
        assert ids[-1] not in reg and list(reg) == ids[:-1]
