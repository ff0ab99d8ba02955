"""Discrete-block chain substrate with bounded inclusion delay.

The chain is a linear log (instant finality, no reorgs).  The entire
adversary surface is the within-block ordering policy plus delay: a policy
may reorder or withhold pending transactions, but anything reaching its
deadline, ``t_eff`` blocks after the height it was queued at, is
force-included that block.  Relayed transactions carry no sender; the
relayer is picked round-robin from the registered relayer set when the
transaction is queued, and recorded on the queued entry so the protocol
layer can pay the relay fee.  ``Chain.advance_block`` returns the entries
it includes, unchanged; their block's height is ``Chain.height``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

RELAYED = "RELAYED"

# Transaction kinds understood by the protocol layer.
CLIENT_REGISTER = "CLIENT-REGISTER"
COMMIT_CLIENT = "COMMIT-CLIENT"
COMMIT_MM = "COMMIT-MM"
CLIENT_REVEAL = "CLIENT-REVEAL"
MM_REVEAL = "MM-REVEAL"
CP = "CP"
NOOP = "NOOP"


class MalformedTx(Exception):
    pass


class InvalidProof(Exception):
    """Relayers refuse to carry a transaction whose membership proof fails."""


class InvalidBlock(Exception):
    """An ordering policy chose a transaction twice, or one that is not pending."""


@dataclass(frozen=True)
class Tx:
    kind: str
    payload: Any
    sender: str  # player id, or RELAYED


class PendingTx(NamedTuple):
    """A queued transaction, and the record of it once a block includes it.
    A tuple, so the ordering policy that reads it cannot move its deadline
    or change its relayer; a ``_replace``d copy is a different entry, which
    ``Chain.advance_block`` refuses."""

    tx: Tx
    seq: int
    deadline: int
    relayer: Optional[str] = None


def identity_policy(pending: list[PendingTx], height: int, rng: random.Random) -> list[PendingTx]:
    """Include everything, in submission order."""
    return list(pending)


def reverse_policy(pending: list[PendingTx], height: int, rng: random.Random) -> list[PendingTx]:
    """Include everything, newest first."""
    return list(reversed(pending))


def random_policy(pending: list[PendingTx], height: int, rng: random.Random) -> list[PendingTx]:
    """Include everything, shuffled by the chain's seeded rng."""
    out = list(pending)
    rng.shuffle(out)
    return out


def withhold_max_policy(pending: list[PendingTx], height: int, rng: random.Random) -> list[PendingTx]:
    """Delay every transaction to its forced-inclusion deadline."""
    return [p for p in pending if p.deadline <= height]


ORDERING_POLICIES: dict[str, Callable] = {
    "identity": identity_policy,
    "reverse": reverse_policy,
    "random": random_policy,
    "withhold_max": withhold_max_policy,
}


class Chain:
    def __init__(self, t_eff: int, policy: Callable = identity_policy, seed: int = 0):
        if t_eff < 1:
            raise ValueError("t_eff must be >= 1")
        self.t_eff = t_eff
        self.policy = policy
        self.height = 0
        self.pending: list[PendingTx] = []
        self._rng = random.Random(seed)
        self._seq = 0
        self._relayers: list[str] = []
        self._relay_cursor = 0

    def register_relayer(self, player: str) -> None:
        self._relayers.append(player)

    def submit(self, tx: Tx) -> PendingTx:
        """Queue a signed transaction; executes within t_eff blocks."""
        return self._queue(tx, None)

    def _queue(self, tx: Tx, relayer: Optional[str]) -> PendingTx:
        if not isinstance(tx, Tx) or not tx.kind:
            raise MalformedTx(f"not a transaction: {tx!r}")
        p = PendingTx(tx=tx, seq=self._seq, deadline=self.height + self.t_eff, relayer=relayer)
        self._seq += 1
        self.pending.append(p)
        return p

    def relay(self, tx: Tx, validate: Callable[[Tx], bool]) -> PendingTx:
        """Queue an anonymous transaction via the relayer mempool.

        ``validate`` is the relayer's dry-run proof check; a failing payload
        is dropped (no rational relayer would carry it).  Exactly one relayer
        is picked round-robin before the entry is built, since a pending
        entry cannot change, and the protocol handler credits it when the
        transaction runs.
        """
        if tx.sender != RELAYED:
            raise MalformedTx("relayed transactions must not carry a sender")
        if not self._relayers:
            raise InvalidProof("no relayer available")
        if not validate(tx):
            raise InvalidProof("relayers dropped the transaction")
        p = self._queue(tx, self._relayers[self._relay_cursor % len(self._relayers)])
        self._relay_cursor += 1
        return p

    def advance_block(self) -> list[PendingTx]:
        """Produce the next block and return its pending entries in execution order.

        The ordering policy selects and orders from the pending set; any
        transaction at its deadline that the policy withheld is appended in
        submission order (forced inclusion).  The entries are returned as
        queued, not copied; the block's height is ``self.height`` once the
        call returns.  The policy reads a copy of the pending list, so
        editing that list changes nothing, and each entry is a tuple, so it
        cannot move a deadline.  It may choose each pending entry at most
        once, matched by identity: a repeated entry, or one that is not
        pending, raises ``InvalidBlock`` and leaves the height and the
        pending list as they were (draws the policy made from the chain's
        rng stay drawn).
        """
        height = self.height + 1
        chosen = list(self.policy(list(self.pending), height, self._rng))
        chosen_ids = {id(p) for p in chosen}
        forced = [p for p in self.pending if p.deadline <= height and id(p) not in chosen_ids]
        waiting = [p for p in self.pending if p.deadline > height and id(p) not in chosen_ids]
        # pending entries are distinct objects, so exactly len(chosen) of them
        # are chosen when no chosen entry repeats and none is foreign
        if (len(chosen_ids) != len(chosen)
                or len(self.pending) - len(forced) - len(waiting) != len(chosen)):
            raise InvalidBlock("the ordering policy repeated a transaction or invented one")
        self.height = height
        self.pending = waiting
        return chosen + sorted(forced, key=lambda p: p.seq)
