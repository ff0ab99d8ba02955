"""Token balances with explicit protocol and burn accounts.

Every escrow line in the protocol is a plain transfer into the protocol
account; "burning" moves tokens to an unspendable sink account instead of
deleting them, so total supply per token is invariant and conservation can
be asserted globally at any point.
"""

from __future__ import annotations

from .units import check_quantity

PROTOCOL_ACCOUNT = "protocol"
BURN_SINK = "burn"


class InsufficientBalance(Exception):
    pass


class Ledger:
    def __init__(self):
        self._balances: dict[str, dict[str, int]] = {}

    def mint(self, account: str, tkn: str, amt: int) -> None:
        """Scenario setup only: create supply out of thin air."""
        check_quantity(amt)
        acct = self._balances.setdefault(account, {})
        acct[tkn] = acct.get(tkn, 0) + amt

    def balance(self, account: str, tkn: str) -> int:
        return self._balances.get(account, {}).get(tkn, 0)

    def transfer(self, frm: str, to: str, tkn: str, amt: int) -> None:
        check_quantity(amt)
        if amt == 0:
            return
        have = self.balance(frm, tkn)
        if have < amt:
            raise InsufficientBalance(f"{frm} has {have} {tkn}, needs {amt}")
        self._balances[frm][tkn] = have - amt
        acct = self._balances.setdefault(to, {})
        acct[tkn] = acct.get(tkn, 0) + amt

    def burn(self, frm: str, tkn: str, amt: int) -> None:
        """Move tokens to the sink account; supply including the sink is conserved."""
        self.transfer(frm, BURN_SINK, tkn, amt)

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Deep, detached copy for conservation assertions."""
        return {acct: dict(tkns) for acct, tkns in self._balances.items()}

    def supplies(self) -> dict[str, int]:
        """Per-token totals over all accounts, burn sink included."""
        out: dict[str, int] = {}
        for tkns in self._balances.values():
            for tkn, amt in tkns.items():
                out[tkn] = out.get(tkn, 0) + amt
        return out
