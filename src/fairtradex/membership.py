"""Simulated set-membership layer: commitments, Merkle proofs, nullifiers.

This stands in for a real zero-knowledge membership scheme behind the same
interface (prove/verify against a root, with a revealed serial number and a
binding to a committed message).  Proofs here are plain Merkle paths, which
are *not* hiding: the path discloses the leaf position.  Completeness,
soundness against non-members, nullifier semantics and message binding are
the behaviours the protocol layer relies on, and a hiding backend could be
swapped in without touching callers.

The registration set is a ``Registry``, the one input ``accumulate`` and
``prove_membership`` take.  It caches the Merkle tree: the first root or
proof request after a mutation builds the levels and a first-occurrence
index, and later requests reuse them until the next ``append`` or ``remove``
drops the cache.  Roots therefore cost O(1) and proofs O(log n) while the
set is unchanged.

A proof's Merkle path is one byte string of ``_NODE``-byte sibling nodes,
bottom-up: a side tag, then the sibling's digest.  Only this module reads a
proof's fields; ``is_proof`` checks an untrusted proof's shape.

Verification has two halves.  ``authentic`` is the pure half: the path
hashes the leaf up to ``proof.root`` and the binding matches the message.
Its verdict depends on the proof and the message alone, so a caller may
keep it and reuse it.  A caller that checks many proofs against one tree
may also pass one node memo to every call: it maps each hashed 64-byte
node pair to its digest, so the nodes the paths share are hashed once,
and since every entry is the true digest of its key the memo never moves
a verdict.  ``admit`` is the state half: ``proof.root`` is the accepted
root and the serial is fresh; it consumes the serial on success.
``verify_membership`` runs both.

A ``Secret`` hashes its registration id once, when it is made.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

DIGEST_SIZE = 32
_H_KEY = b"wsfba-hash-v1"

# Node tags: the sibling sits to the right of the running node (_SIB_RIGHT)
# or to its left (_SIB_LEFT); a serialized proof's leaf node is tagged 2.
_SIB_RIGHT, _SIB_LEFT = 0, 1
_RIGHT_TAG, _LEFT_TAG, _LEAF_TAG = bytes([_SIB_RIGHT]), bytes([_SIB_LEFT]), b"\2"
_NODE = 1 + DIGEST_SIZE  # one path node: side tag, then digest


# The key block is compressed once here; every call copies the keyed state.
_H_BASE = hashlib.blake2b(key=_H_KEY, digest_size=DIGEST_SIZE)


def h(*parts: bytes) -> bytes:
    """The single keyed 256-bit hash used for commitments, trees and tie-breaks."""
    ctx = _H_BASE.copy()
    ctx.update(b"".join(parts))
    return ctx.digest()


def is_digest(v: object) -> bool:
    """Whether ``v`` has the shape of an ``h`` digest: 32 bytes."""
    return isinstance(v, bytes) and len(v) == DIGEST_SIZE


class EmptySet(Exception):
    pass


class NotAMember(Exception):
    pass


class MalformedProof(Exception):
    pass


@dataclass(frozen=True)
class Secret:
    """Per-registration secret: serial number S and randomness r.

    ``reg_id`` is h(S || r), hashed once here; it plays no part in equality
    or repr, which it would only repeat.
    """

    s: bytes
    r: bytes
    reg_id: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.s) != DIGEST_SIZE or len(self.r) != DIGEST_SIZE:
            raise ValueError("secret components must be 32 bytes")
        object.__setattr__(self, "reg_id", h(self.s, self.r))


def gen_secret(seed: int) -> Secret:
    """Deterministic 32-byte (S, r) pair from a 64-bit seed."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    base = seed.to_bytes(8, "big")
    return Secret(s=h(base, b"serial"), r=h(base, b"rand"))


def reg_id(secret: Secret) -> bytes:
    """Registration identifier h(S || r)."""
    return secret.reg_id


def _padded_leaves(reg_ids: Sequence[bytes]) -> list[bytes]:
    if not reg_ids:
        raise EmptySet("cannot accumulate an empty registration set")
    leaves = list(reg_ids)
    n = 2
    while n < len(leaves):
        n *= 2
    # duplicate-last padding up to the next power of two (minimum 2 leaves)
    leaves.extend([leaves[-1]] * (n - len(leaves)))
    return leaves


def _build_levels(reg_ids: Sequence[bytes]) -> list[list[bytes]]:
    """Every level of the Merkle tree, padded leaves first, root level last."""
    level = _padded_leaves(reg_ids)
    levels = [level]
    while len(level) > 1:
        level = [h(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        levels.append(level)
    return levels


# (levels from padded leaves up to the root, {reg_id: first index})
_Tree = tuple[list[list[bytes]], dict[bytes, int]]


class Registry:
    """The ordered registration set, with its Merkle tree cached between mutations.

    Each id is stored under its append number, so ``append``, ``remove``
    (first occurrence), ``in`` and ``len`` cost O(1) and iteration follows
    append order.  The tree levels and the first-occurrence index are built
    on the first root or proof request after a mutation; every mutation
    drops them.
    """

    def __init__(self, reg_ids: Iterable[bytes] = ()):
        self._ids: dict[int, bytes] = {}         # append number -> id, in append order
        self._seqs: dict[bytes, list[int]] = {}  # id -> its append numbers, ascending
        self._appended = 0
        self._cache: _Tree | None = None
        for rid in reg_ids:
            self.append(rid)

    def append(self, rid: bytes) -> None:
        self._ids[self._appended] = rid
        self._seqs.setdefault(rid, []).append(self._appended)
        self._appended += 1
        self._cache = None

    def remove(self, rid: bytes) -> None:
        """Remove the first occurrence of ``rid``; ValueError when absent."""
        seqs = self._seqs.get(rid)
        if seqs is None:
            raise ValueError("registration id not in the registry")
        del self._ids[seqs.pop(0)]
        if not seqs:
            del self._seqs[rid]
        self._cache = None

    def __contains__(self, rid: object) -> bool:
        return rid in self._seqs

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._ids.values())

    def tree(self) -> _Tree:
        """The levels and first-occurrence index, built once per mutation."""
        if self._cache is None:
            ids = list(self)
            first: dict[bytes, int] = {}
            for i, rid in enumerate(ids):
                first.setdefault(rid, i)
            self._cache = (_build_levels(ids), first)
        return self._cache


def accumulate(reg_ids: Registry) -> bytes:
    """Canonical binary Merkle root over the ordered registration set."""
    levels, _ = reg_ids.tree()
    return levels[-1][0]


@dataclass(frozen=True)
class MembershipProof:
    root: bytes
    leaf: bytes
    serial: bytes
    path: bytes  # bottom-up sibling nodes, _NODE bytes each
    binding: bytes


def is_proof(proof: object) -> bool:
    """Whether ``proof`` has a proof's shape (so it is hashable), whatever its verdict."""
    if not isinstance(proof, MembershipProof):
        return False
    path = proof.path
    return (is_digest(proof.root) and is_digest(proof.leaf) and is_digest(proof.serial)
            and is_digest(proof.binding) and isinstance(path, bytes) and len(path) % _NODE == 0
            and not path[::_NODE].translate(None, _RIGHT_TAG + _LEFT_TAG))  # only side tags


def prove_membership(secret: Secret, reg_ids: Registry, message: bytes) -> MembershipProof:
    """Produce a proof that h(S||r) is in the set, bound to ``message``.

    Proves for the first occurrence of the registration id.  Raises
    NotAMember when the secret was never registered.
    """
    target = secret.reg_id
    levels, first = reg_ids.tree()
    try:
        pos = first[target]
    except KeyError:
        raise NotAMember("secret does not match any registration") from None

    nodes: list[bytes] = []
    for level in levels[:-1]:
        # an even position's sibling sits to its right, an odd one's to its left
        nodes.append(_LEFT_TAG if pos & 1 else _RIGHT_TAG)
        nodes.append(level[pos ^ 1])
        pos //= 2
    path = b"".join(nodes)
    binding = h(_LEAF_TAG, target, path, secret.s, message)
    return MembershipProof(root=levels[-1][0], leaf=target, serial=secret.s,
                           path=path, binding=binding)


def authentic(proof: MembershipProof, message: bytes,
              memo: dict[bytes, bytes] | None = None) -> bool:
    """The pure half: the path hashes the leaf to ``proof.root`` and the binding matches ``message``.

    Its verdict depends on nothing but the proof and the message, so it may
    be kept and reused.  ``memo`` maps the bytes of a hashed node pair to
    their digest; proofs checked against one tree share their upper nodes,
    so a caller that passes one memo to them all hashes each pair once.
    Every entry is ``h`` of its key, so a memo never changes a verdict.
    """
    if memo is None:
        memo = {}
    path = proof.path
    node = proof.leaf
    for off in range(0, len(path), _NODE):
        side, sib = path[off], path[off + 1:off + _NODE]
        if side == _SIB_RIGHT:
            pair = node + sib
        elif side == _SIB_LEFT:
            pair = sib + node
        else:
            return False
        node = memo.get(pair)
        if node is None:
            node = memo[pair] = h(pair)
    return (node == proof.root
            and proof.binding == h(_LEAF_TAG, proof.leaf, path, proof.serial, message))


def admit(proof: MembershipProof, root: bytes, nullifiers: set[bytes], *,
          record: bool = True) -> bool:
    """The state half: ``proof.root`` is ``root`` and the serial is fresh.

    On success the serial is added to ``nullifiers`` unless ``record`` is
    False.  Call it only for a proof that ``authentic`` accepts.
    """
    if proof.root != root or proof.serial in nullifiers:
        return False
    if record:
        nullifiers.add(proof.serial)
    return True


def verify_membership(proof: MembershipProof, root: bytes, message: bytes,
                      nullifiers: set[bytes], *, record: bool = True) -> bool:
    """Check a proof against the current root, message and nullifier set.

    True iff the path authenticates the leaf under ``root``, the binding
    matches ``message``, and the serial is fresh.  On success the serial is
    added to ``nullifiers`` unless ``record`` is False.  This is
    ``authentic`` followed by ``admit``.
    """
    return authentic(proof, message) and admit(proof, root, nullifiers, record=record)


def serialize_proof(proof: MembershipProof) -> bytes:
    """Length-prefixed binary layout: root, serial, node count, nodes, binding.

    Nodes are ``_NODE`` bytes each (tag + digest): the leaf, then ``proof.path``.
    """
    count = 1 + len(proof.path) // _NODE
    return b"".join([proof.root, proof.serial, count.to_bytes(4, "big"),
                     _LEAF_TAG, proof.leaf, proof.path, proof.binding])


def deserialize_proof(blob: bytes) -> MembershipProof:
    count = int.from_bytes(blob[64:68], "big")
    end = 68 + _NODE * count
    if count < 1 or len(blob) != end + DIGEST_SIZE:
        raise MalformedProof("proof blob length does not match its node count")
    if blob[68:69] != _LEAF_TAG:
        raise MalformedProof("first path node must be the leaf")
    proof = MembershipProof(root=blob[:32], leaf=blob[69:68 + _NODE], serial=blob[32:64],
                            path=blob[68 + _NODE:end], binding=blob[end:])
    if not is_proof(proof):
        raise MalformedProof("a side tag is neither 0 nor 1, or the blob is not bytes")
    return proof
