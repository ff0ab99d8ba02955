"""Commit-reveal auction protocol: phases, escrows, blacklisting, resolution.

One instance runs a single token pair and proceeds in rounds of Commit,
Reveal and Resolution phases.  ``handle`` runs one chain entry at the
height of the block that included it; the handlers are total: every guard
failure is a recorded no-op, never an exception.  Phase deadlines are
evaluated at block end via ``on_block_end``.

``_KINDS`` is the single statement of each transaction kind's contract: its
payload type, whether a relayer must carry it, the phase it is valid in and
its handler.  ``Protocol.handle`` checks a row in this order: unknown-kind,
malformed (not the row's payload type, or not ``well_formed``), not-relayed,
phase; only then does the handler run its own guards.  The relayer dry run
(``commit_looks_valid``) uses the same ``well_formed``, and so does the
trace codec for a record ``handle`` rejected as malformed or unknown-kind.

A client commit's proof is checked in the two halves ``membership`` splits
verification into.  The dry run keeps the pure half's verdict (path and
binding, which read only the payload) in a per-round dict keyed by the
payload; the commit handler pops it, or computes it when the commit was
never dry-run.  Both pass one per-round node memo to ``authentic``, so the
Merkle nodes a round's proofs share are hashed once.  The state half
(blacklist, root, nullifier) always runs at execution, so the kept verdict
never depends on chain state.  Both dicts are emptied when a round opens.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Any, Callable, NamedTuple, Optional

from . import membership
from .auction import (AuctionBook, Fill, filter_by_width, round_book, select_tight_market,
                      settle, verify_clearing_price)
from .chain import (CLIENT_REGISTER, CLIENT_REVEAL, COMMIT_CLIENT, COMMIT_MM,
                    CP, MM_REVEAL, PendingTx, Tx)
from .ledger import PROTOCOL_ACCOUNT, Ledger
from .membership import MembershipProof, h, is_digest
from .serialize import price_to_json, width_to_json
from .units import (MKT, TOKEN_A, TOKEN_B, TOKEN_REF, WITHDRAW, Market, Order, Price,
                    ProtocolParams, QuantityError, Width, check_price, check_quantity,
                    check_width, encode_market, encode_order_fields)


class Phase(enum.Enum):
    COMMIT = "commit"
    REVEAL = "reveal"
    RESOLUTION = "resolution"


@dataclass(frozen=True)
class RegisterPayload:
    reg_id: bytes


@dataclass(frozen=True)
class ClientCommitPayload:
    com: bytes
    serial: bytes
    proof: MembershipProof


@dataclass(frozen=True)
class MMCommitPayload:
    com: bytes


@dataclass(frozen=True)
class ClientRevealPayload:
    tkn: str
    size: int
    price: Price
    width: Width
    serial: bytes
    randomness: bytes
    reg_id: bytes
    reg_token_new: Optional[bytes] = None


@dataclass(frozen=True)
class MMRevealPayload:
    market: Market


@dataclass(frozen=True)
class CpPayload:
    cp: int
    volume_a: int
    imbalance_a: int


def client_commitment(tkn: str, size: int, price: Price, width: Width) -> bytes:
    return h(encode_order_fields(tkn, size, price, width))


def mm_commitment(market: Market) -> bytes:
    return h(encode_market(market))


def _passes(check: Callable, v) -> bool:
    """Whether the ``units`` validator ``check`` accepts ``v``."""
    try:
        check(v)
    except QuantityError:
        return False
    return True


def well_formed(p: Any) -> bool:
    """The payload check: one of the six payload types, every field passing."""
    if isinstance(p, RegisterPayload):
        return is_digest(p.reg_id)
    if isinstance(p, ClientCommitPayload):
        # a proof that passes is_proof is hashable, as the dry-run verdicts need
        return is_digest(p.com) and is_digest(p.serial) and membership.is_proof(p.proof)
    if isinstance(p, MMCommitPayload):
        return is_digest(p.com)
    if isinstance(p, ClientRevealPayload):
        return (p.tkn in (TOKEN_A, TOKEN_B) and _passes(check_quantity, p.size)
                and (p.price is MKT or p.price is WITHDRAW or _passes(check_price, p.price))
                and _passes(check_width, p.width)
                and is_digest(p.serial) and is_digest(p.randomness) and is_digest(p.reg_id)
                and (p.reg_token_new is None or is_digest(p.reg_token_new)))
    if isinstance(p, MMRevealPayload):
        return isinstance(p.market, Market)
    return isinstance(p, CpPayload) and all(isinstance(v, int) and not isinstance(v, bool)
                                            for v in (p.cp, p.volume_a, p.imbalance_a))


class Protocol:
    def __init__(self, params: ProtocolParams, ledger: Ledger):
        self.params = params
        self.ledger = ledger
        self.phase: Optional[Phase] = None
        self.round = 0
        self.last_phase_change = 0
        self.clients = membership.Registry()
        self.blacklisted: set[bytes] = set()
        self.nullifiers: set[bytes] = set()
        self.settlements: list[dict] = []
        self._oid = 0
        self._open_round()

    def _open_round(self) -> None:
        """Start a round: every per-round field, and only those, is set here."""
        self.client_commits: dict[bytes, bytes] = {}   # serial -> commitment
        self.mm_commits: dict[str, bytes] = {}         # player  -> commitment
        # the revealed client orders; the tight market's legs are only in ``book``
        self.revealed_buys: list[Order] = []
        self.revealed_sells: list[Order] = []
        self.revealed_mkts: list[tuple[str, Market]] = []
        self.tight_market: Optional[tuple[str, Market]] = None
        # the width-filtered book, fixed when the reveal window closes
        self.book: Optional[AuctionBook] = None
        self.width_removed: list[Order] = []
        self._round_burned: list[dict] = []
        self._round_blacklisted: list[str] = []
        # dry-run verdicts of ``membership.authentic``, popped at execution,
        # and the node memo every ``authentic`` call of the round shares
        self._authentic: dict[ClientCommitPayload, bool] = {}
        self._nodes: dict[bytes, bytes] = {}

    # -- lifecycle ---------------------------------------------------------

    def initialise(self, height: int) -> None:
        self.phase = Phase.COMMIT
        self.last_phase_change = height

    def registry_root(self) -> Optional[bytes]:
        if not self.clients:
            return None
        return membership.accumulate(self.clients)

    def _next_oid(self) -> int:
        oid = self._oid
        self._oid += 1
        return oid

    # -- relayer-side dry run ----------------------------------------------

    def commit_looks_valid(self, tx: Tx) -> bool:
        """Relayer mempool check: would this client commit pay out?

        Runs the handler's payload check and proof guard without consuming
        the serial, and keeps the proof's pure verdict for execution, which
        re-checks everything else.
        """
        p = tx.payload
        if not (tx.kind == COMMIT_CLIENT and isinstance(p, ClientCommitPayload)
                and well_formed(p)):
            return False
        authentic = self._authentic[p] = membership.authentic(p.proof, p.com, self._nodes)
        return self._proof_rejects(p, authentic, record=False) is None

    def _proof_rejects(self, p: ClientCommitPayload, authentic: bool,
                       record: bool) -> Optional[str]:
        """The commit's proof guard: why ``p`` fails it, or None (``record`` consumes the serial).

        ``authentic`` is ``membership.authentic``'s verdict on ``p``.
        """
        if p.serial in self.blacklisted:
            return "blacklisted-serial"
        root = self.registry_root()
        if root is None:
            return "no-registrations"
        # the commit is keyed and later revealed under p.serial, so it must be the proven one
        if not (authentic and p.serial == p.proof.serial
                and membership.admit(p.proof, root, self.nullifiers, record=record)):
            return "bad-proof"
        return None

    # -- message handlers ----------------------------------------------------

    def handle(self, entry: PendingTx, height: int) -> dict:
        """Enforce the kind's ``_KINDS`` row, then run its handler on ``entry``,
        included in the block at ``height``."""
        row = _KINDS.get(entry.tx.kind)
        if row is None:
            return {"applied": False, "reason": "unknown-kind"}
        p = entry.tx.payload
        if not isinstance(p, row.payload) or not well_formed(p):
            return {"applied": False, "reason": "malformed"}
        if row.relayed and entry.relayer is None:
            return {"applied": False, "reason": "not-relayed"}
        if row.phase is not None and self.phase is not row.phase:
            return {"applied": False, "reason": "phase"}
        return row.handler(self, p, entry, height)

    def _handle_register(self, p: RegisterPayload, entry: PendingTx, height: int) -> dict:
        sender = entry.tx.sender
        need = self.params.e_client + self.params.f_r
        if not self.ledger.balance(sender, TOKEN_REF) > need:
            return {"applied": False, "reason": "insufficient-balance"}
        self.ledger.transfer(sender, PROTOCOL_ACCOUNT, TOKEN_REF, need)
        duplicate = p.reg_id in self.clients
        self.clients.append(p.reg_id)
        return {"applied": True, "registrations": len(self.clients),
                "duplicate_reg_id": duplicate}

    def _handle_commit_client(self, p: ClientCommitPayload, entry: PendingTx, height: int) -> dict:
        authentic = self._authentic.pop(p, None)
        # during COMMIT entries are only added, each under a fresh serial
        if not (len(self.client_commits) + 1) * self.params.e_client <= self.params.q_not:
            return {"applied": False, "reason": "notional-cap"}
        if authentic is None:
            authentic = membership.authentic(p.proof, p.com, self._nodes)
        reason = self._proof_rejects(p, authentic, record=True)
        if reason is not None:
            return {"applied": False, "reason": reason}
        self.client_commits[p.serial] = p.com
        self.ledger.transfer(PROTOCOL_ACCOUNT, entry.relayer, TOKEN_REF, self.params.f_r)
        return {"applied": True, "relayer": entry.relayer,
                "client_commits": len(self.client_commits)}

    def _handle_commit_mm(self, p: MMCommitPayload, entry: PendingTx, height: int) -> dict:
        sender = entry.tx.sender
        if sender in self.mm_commits:
            return {"applied": False, "reason": "one-market-per-player"}
        if not self.ledger.balance(sender, TOKEN_REF) > self.params.e_mm:
            return {"applied": False, "reason": "insufficient-balance"}
        self.ledger.transfer(sender, PROTOCOL_ACCOUNT, TOKEN_REF, self.params.e_mm)
        self.mm_commits[sender] = p.com
        return {"applied": True, "mm_commits": len(self.mm_commits)}

    def _client_size_cap(self, tkn: str, price: Price) -> Optional[int]:
        """Escrow-implied order size cap in sold-token atoms.

        Sales of A cap at the A atoms worth e_client, sales of B at the B
        atoms worth e_client at the limit price; a B market order carries no
        price so no escrow cap can be evaluated for it (balance still bounds it).
        """
        if tkn == TOKEN_A:
            return self.params.atoms_floor(self.params.e_client)
        if isinstance(price, int):
            return self.params.atoms_floor(self.params.e_client, price)
        return None

    def _handle_reveal_client(self, p: ClientRevealPayload, entry: PendingTx, height: int) -> dict:
        sender = entry.tx.sender
        if p.serial not in self.client_commits:
            return {"applied": False, "reason": "unknown-serial"}
        if h(p.serial, p.randomness) != p.reg_id:
            return {"applied": False, "reason": "reg-id-mismatch"}
        if client_commitment(p.tkn, p.size, p.price, p.width) != self.client_commits[p.serial]:
            return {"applied": False, "reason": "commitment-mismatch"}

        if p.price is WITHDRAW:
            self.ledger.transfer(PROTOCOL_ACCOUNT, sender, TOKEN_REF, self.params.e_client)
            self._consume_registration(p.serial, p.reg_id)
            return {"applied": True, "withdrawn": True}

        if self.ledger.balance(sender, p.tkn) < p.size:
            return {"applied": False, "reason": "insufficient-balance"}
        cap = self._client_size_cap(p.tkn, p.price)
        size = p.size if cap is None else min(p.size, cap)
        if size == 0:
            return {"applied": False, "reason": "size-capped-to-zero"}

        self.ledger.transfer(sender, PROTOCOL_ACCOUNT, p.tkn, size)
        order = Order(oid=self._next_oid(), owner=sender, tkn=p.tkn,
                      size=size, price=p.price, width_req=p.width)
        (self.revealed_buys if p.tkn == TOKEN_A else self.revealed_sells).append(order)

        re_registered = (p.reg_token_new is not None
                         and self.ledger.balance(sender, TOKEN_REF) > self.params.f_r)
        if re_registered:
            # escrow stays behind the new registration; fee pot is refilled
            self.ledger.transfer(sender, PROTOCOL_ACCOUNT, TOKEN_REF, self.params.f_r)
            self.clients.append(p.reg_token_new)
        else:
            self.ledger.transfer(PROTOCOL_ACCOUNT, sender, TOKEN_REF, self.params.e_client)
        self._consume_registration(p.serial, p.reg_id)
        return {"applied": True, "oid": order.oid, "size": size,
                "escrow_returned": not re_registered, "re_registered": re_registered}

    def _consume_registration(self, serial: bytes, reg_id: bytes) -> None:
        del self.client_commits[serial]
        if reg_id in self.clients:
            self.clients.remove(reg_id)

    def _mm_liquidity_ok(self, player: str, market: Market) -> bool:
        """Both quote legs must cover the minimum notional and be backed.

        A leg's size is whole atoms, so covering ``q_not`` exactly is the
        same test as covering its ``atoms_ceil``.
        """
        atoms, qn = self.params.atoms_ceil, self.params.q_not
        if not atoms(qn) <= market.size_bid <= self.ledger.balance(player, TOKEN_A):
            return False
        return atoms(qn, market.offer) <= market.size_offer <= self.ledger.balance(player, TOKEN_B)

    def _handle_reveal_mm(self, p: MMRevealPayload, entry: PendingTx, height: int) -> dict:
        sender = entry.tx.sender
        if sender not in self.mm_commits:
            return {"applied": False, "reason": "no-commitment"}
        if mm_commitment(p.market) != self.mm_commits[sender]:
            return {"applied": False, "reason": "commitment-mismatch"}
        if not self._mm_liquidity_ok(sender, p.market):
            return {"applied": False, "reason": "below-minimum-liquidity"}
        self.revealed_mkts.append((sender, p.market))
        del self.mm_commits[sender]
        return {"applied": True, "revealed_markets": len(self.revealed_mkts)}

    # -- phase transitions ---------------------------------------------------

    def on_block_end(self, height: int) -> list[str]:
        """Evaluate deadline and early-exit conditions after a block executes.

        The commit and the reveal window each last the maximal inclusion
        delay, ``params.t_eff`` blocks.
        """
        t_eff = self.params.t_eff
        events: list[str] = []
        if self.phase is Phase.COMMIT and height >= self.last_phase_change + t_eff:
            self.phase = Phase.REVEAL
            self.last_phase_change = height
            events.append("phase:reveal")
        if self.phase is Phase.REVEAL:
            deadline = height >= self.last_phase_change + t_eff
            all_revealed = not self.client_commits and not self.mm_commits
            if deadline or all_revealed:
                self._end_reveal_phase(height)
                events.append("phase:resolution")
        return events

    def _end_reveal_phase(self, height: int) -> None:
        """Close the reveal window: settle escrows, pick the tight market, fix the book.

        Revealed markets are re-validated against current balances; the ones
        that still qualify get their escrow back and enter the tie-break.
        The tight market's two legs, capped by the MM escrow, move into the
        protocol account.  Unrevealed client serials are blacklisted and
        their escrows burned; unrevealed MM escrows burn too.
        Last, ``auction.round_book`` builds the round's book from the
        revealed client orders and the capped legs (oids ``oid`` and
        ``oid + 1``; a leg capped to 0 atoms adds no order), and its
        width-filtered form is fixed as ``book`` (the dropped orders as
        ``width_removed``): no handler changes orders during RESOLUTION.
        ``revealed_buys`` and ``revealed_sells`` keep only the client orders.
        """
        eligible = []
        for player, m in self.revealed_mkts:
            if self._mm_liquidity_ok(player, m):
                eligible.append((player, m))
                self.ledger.transfer(PROTOCOL_ACCOUNT, player, TOKEN_REF, self.params.e_mm)
            else:
                self._burn(player, self.params.e_mm, "mm-liquidity-lapsed")

        self.tight_market = select_tight_market(self.revealed_mkts, eligible)
        oid, capped = self._oid, None
        if self.tight_market is not None:
            player, m = self.tight_market
            m = replace(m, size_bid=min(m.size_bid, self.params.atoms_floor(self.params.e_mm)),
                        size_offer=min(m.size_offer,
                                       self.params.atoms_floor(self.params.e_mm, m.offer)))
            self.ledger.transfer(player, PROTOCOL_ACCOUNT, TOKEN_A, m.size_bid)
            self.ledger.transfer(player, PROTOCOL_ACCOUNT, TOKEN_B, m.size_offer)
            self._oid += 2
            capped = (player, m)

        for serial in list(self.client_commits):
            self.blacklisted.add(serial)
            self._round_blacklisted.append(serial.hex())
            self._burn(None, self.params.e_client, "client-no-reveal")
            del self.client_commits[serial]
        for player in list(self.mm_commits):
            self._burn(player, self.params.e_mm, "mm-no-reveal")
            del self.mm_commits[player]

        self.book, self.width_removed = filter_by_width(round_book(
            self.revealed_buys, self.revealed_sells, capped, oid))
        self.phase = Phase.RESOLUTION
        self.last_phase_change = height

    def _burn(self, player: Optional[str], amount: int, reason: str) -> None:
        """Burn an escrow of ``amount`` REF and record it in the round's report."""
        self.ledger.burn(PROTOCOL_ACCOUNT, TOKEN_REF, amount)
        self._round_burned.append({"player": player, "token": TOKEN_REF,
                                   "amount": amount, "reason": reason})

    # -- resolution ----------------------------------------------------------

    def _handle_cp(self, p: CpPayload, entry: PendingTx, height: int) -> dict:
        """Verify a proposed clearing price against ``book``; if valid, settle it.

        Settlement refunds each ``width_removed`` order in full; the report
        has one row per order, sorted by oid.  Then the next round opens.
        """
        sender = entry.tx.sender
        if not self.ledger.balance(sender, TOKEN_REF) > self.params.res_bounty:
            return {"applied": False, "reason": "insufficient-balance"}
        self.ledger.transfer(sender, PROTOCOL_ACCOUNT, TOKEN_REF, self.params.res_bounty)

        if not verify_clearing_price(self.book, p.cp, p.volume_a, p.imbalance_a):
            # deposit forfeited; the auction stays open for another attempt
            return {"applied": False, "reason": "invalid-cp", "deposit_lost": True}
        if self.ledger.balance(PROTOCOL_ACCOUNT, TOKEN_REF) < 2 * self.params.res_bounty:
            # bounty budget exhausted: hand the deposit back rather than
            # punishing an honest proposer for a scenario funding gap
            self.ledger.transfer(PROTOCOL_ACCOUNT, sender, TOKEN_REF, self.params.res_bounty)
            return {"applied": False, "reason": "bounty-unfunded"}

        result = settle(self.book, p.cp)
        removed = {o.oid for o in self.width_removed}
        fills = (*result.fills, *(Fill(o.oid, 0, 0, o.size, o) for o in self.width_removed))
        fills_report = []
        for oid, executed, received, refunded, o in sorted(fills, key=itemgetter(0)):
            other = TOKEN_B if o.tkn == TOKEN_A else TOKEN_A
            self.ledger.transfer(PROTOCOL_ACCOUNT, o.owner, other, received)
            self.ledger.transfer(PROTOCOL_ACCOUNT, o.owner, o.tkn, refunded)
            fills_report.append({"oid": oid, "owner": o.owner, "side": o.side,
                                 "price": price_to_json(o.price), "size": o.size,
                                 "executed": executed, "received": received,
                                 "refunded": refunded, "width_removed": oid in removed})

        self.ledger.transfer(PROTOCOL_ACCOUNT, sender, TOKEN_REF, 2 * self.params.res_bounty)
        report = {
            "round": self.round,
            "cp": result.cp,
            "volume_b": result.volume_settled_b,
            "imbalance_a": result.imbalance_a,
            "w_tight": width_to_json(self.book.w_tight),
            "fills": fills_report,
            "burned": self._round_burned,
            "blacklisted": sorted(self._round_blacklisted),
            "bounty_winner": sender,
        }
        self.settlements.append(report)
        self._open_round()
        self.round += 1
        self.phase = Phase.COMMIT
        self.last_phase_change = height
        return {"applied": True, "cp": result.cp,
                "volume_b": result.volume_settled_b, "round_closed": self.round - 1}


class _Kind(NamedTuple):
    """One transaction kind's contract, enforced by ``Protocol.handle``."""
    payload: type
    relayed: bool               # a relayer must carry it
    phase: Optional[Phase]      # the phase it is valid in; None for any
    handler: Callable[[Protocol, Any, PendingTx, int], dict]


_KINDS: dict[str, _Kind] = {
    CLIENT_REGISTER: _Kind(RegisterPayload, False, None, Protocol._handle_register),
    COMMIT_CLIENT: _Kind(ClientCommitPayload, True, Phase.COMMIT, Protocol._handle_commit_client),
    COMMIT_MM: _Kind(MMCommitPayload, False, Phase.COMMIT, Protocol._handle_commit_mm),
    CLIENT_REVEAL: _Kind(ClientRevealPayload, False, Phase.REVEAL, Protocol._handle_reveal_client),
    MM_REVEAL: _Kind(MMRevealPayload, False, Phase.REVEAL, Protocol._handle_reveal_mm),
    CP: _Kind(CpPayload, False, Phase.RESOLUTION, Protocol._handle_cp),
}
