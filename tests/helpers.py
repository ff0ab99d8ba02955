"""Shared test fixtures: independent clearing enumerator, reference trace
codec, book generators, and a thin harness for driving protocol handlers
without a chain."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from fairtradex.auction import AuctionBook, candidate_prices, score_at
from fairtradex.chain import PendingTx, Tx
from fairtradex.ledger import Ledger
from fairtradex.membership import serialize_proof
from fairtradex.protocol import (ClientCommitPayload, ClientRevealPayload, MMCommitPayload,
                                 MMRevealPayload, RegisterPayload, well_formed)
from fairtradex.serialize import price_to_json, width_to_json
from fairtradex.units import ANY, MKT, TOKEN_A, TOKEN_B, TOKEN_REF, Order, ProtocolParams


def naive_clear(book):
    """Independent brute-force enumerator used as the clearing oracle's oracle.

    Scans every tick from 1 up to an analytic bound (past the highest limit
    and past the point where all remaining market-order buys are absorbed,
    nothing can rank better) and applies the (max volume, min |imbalance|,
    lowest price) selection directly.  Vectorised with numpy but otherwise
    definitionally naive.  Returns (cp, volume_a, imbalance_a) or None.
    """
    import numpy as np

    if not book.buy_orders or not book.sell_orders:
        return None
    cps = np.arange(1, naive_bound(book) + 1, dtype=np.int64)

    buy_vol = np.zeros_like(cps)
    for o in book.buy_orders:
        if o.price is MKT:
            buy_vol += o.size
        else:
            buy_vol += np.where(o.price >= cps, o.size, 0)
    sell_vol = np.zeros_like(cps)
    for o in book.sell_orders:
        if o.price is MKT:
            sell_vol += o.size
        else:
            sell_vol += np.where(o.price <= cps, o.size, 0)

    vol = np.minimum(buy_vol, sell_vol * cps)
    imb = buy_vol - sell_vol * cps
    if not (vol > 0).any():
        return None
    best_vol = vol.max()
    tied = vol == best_vol
    best_imb = np.abs(imb[tied]).min()
    tied &= np.abs(imb) == best_imb
    cp = int(cps[tied][0])
    return cp, int(best_vol), int(imb[tied][0])


def ranked_clear(book):
    """Reference ranking of the oracle's own candidates: score each tick with ``score_at``.

    Takes the best ``candidate_prices`` tick under (max volume, min
    |imbalance|, lowest price).  Returns (cp, volume_a, imbalance_a) or None.
    """
    scored = [(cp, *score_at(book, cp)) for cp in candidate_prices(book)]
    return min(scored, key=lambda s: (-s[1], abs(s[2]), s[0]), default=None)


def naive_bound(book):
    """Highest tick ``naive_clear`` scans, for a book with both sides non-empty.

    One past the highest limit, and one past the tick where every sell
    absorbs every buy: above both, volume is flat and |imbalance| grows.
    """
    total_buy = sum(o.size for o in book.buy_orders)
    total_sell = sum(o.size for o in book.sell_orders)
    limits = [o.price for o in (*book.buy_orders, *book.sell_orders)
              if isinstance(o.price, int)]
    return max(max(limits, default=1) + 1, -(-total_buy // total_sell) + 1)


def payload_to_json(payload):
    """Reference trace codec: a payload's JSON object built field by field, or its repr.

    ``scenario.payload_text`` must write exactly ``dumps_canonical`` of this.
    """
    if not well_formed(payload):
        return {"repr": repr(payload)}
    if isinstance(payload, RegisterPayload):
        return {"reg_id": payload.reg_id.hex()}
    if isinstance(payload, ClientCommitPayload):
        return {"com": payload.com.hex(), "serial": payload.serial.hex(),
                "proof": serialize_proof(payload.proof).hex()}
    if isinstance(payload, MMCommitPayload):
        return {"com": payload.com.hex()}
    if isinstance(payload, ClientRevealPayload):
        return {"tkn": payload.tkn, "size": payload.size,
                "price": price_to_json(payload.price),
                "width": width_to_json(payload.width),
                "serial": payload.serial.hex(), "randomness": payload.randomness.hex(),
                "reg_id": payload.reg_id.hex(),
                "reg_token_new": payload.reg_token_new.hex() if payload.reg_token_new else None}
    if isinstance(payload, MMRevealPayload):
        m = payload.market
        return {"bid": m.bid, "size_bid": m.size_bid, "offer": m.offer,
                "size_offer": m.size_offer}
    return {"cp": payload.cp, "volume_a": payload.volume_a,
            "imbalance_a": payload.imbalance_a}


def random_book(rng: random.Random, max_orders: int = 12, band: int = 32,
                base_price: int = 50, max_size: int = 200,
                with_spanning_market: bool = False, q_not: int = 0) -> AuctionBook:
    """Random small book: limit prices inside a tick band, some market orders."""
    n = rng.randint(2, max_orders)
    buys, sells = [], []
    oid = 0
    for i in range(n):
        side = rng.choice(("buy", "sell"))
        size = rng.randint(1, max_size)
        # a spanning-market book always gets one market order so it crosses
        force_mkt = with_spanning_market and i == 0
        price = (MKT if force_mkt or rng.random() < 0.25
                 else rng.randint(base_price, base_price + band - 1))
        order = Order(oid=oid, owner=f"p{oid}", tkn=TOKEN_A if side == "buy" else TOKEN_B,
                      size=size, price=price, width_req=ANY)
        (buys if side == "buy" else sells).append(order)
        oid += 1
    w_tight = ANY
    if with_spanning_market:
        mid = base_price + band // 2
        half = rng.randint(0, band // 4)
        bid, offer = mid - half, mid + half
        size_bid = max(q_not, sum(o.size for o in sells) * offer + 1)
        size_offer = max(q_not, sum(o.size for o in buys) // bid + q_not + 1)
        buys.append(Order(oid=oid, owner="mm", tkn=TOKEN_A, size=size_bid, price=bid,
                          width_req=ANY))
        sells.append(Order(oid=oid + 1, owner="mm", tkn=TOKEN_B, size=size_offer, price=offer,
                           width_req=ANY))
        w_tight = Fraction(offer, bid)
    return AuctionBook(buy_orders=tuple(buys), sell_orders=tuple(sells), w_tight=w_tight)


def wide_book(rng: random.Random, n_orders: int, lo: int = 1_000,
              hi: int = 100_000) -> AuctionBook:
    """Large book with distinct limit prices drawn from ticks [lo, hi).

    About 10% market orders; each order asks for one of five widths against
    a tight width of 11/10, so about a fifth are width-filtered.  Buys sell
    up to 10^6 A atoms and sells up to 20 B atoms, which puts the balance
    price inside the tick range.
    """
    widths = (ANY, Fraction(1), Fraction(11, 10), Fraction(121, 100), Fraction(3, 2))
    buys, sells = [], []
    for oid, limit in enumerate(rng.sample(range(lo, hi), n_orders)):
        is_buy = rng.random() < 0.5
        size = rng.randint(1, 10**6) if is_buy else rng.randint(1, 20)
        price = MKT if rng.random() < 0.1 else limit
        order = Order(oid=oid, owner=f"p{oid}", tkn=TOKEN_A if is_buy else TOKEN_B,
                      size=size, price=price, width_req=rng.choice(widths))
        (buys if is_buy else sells).append(order)
    return AuctionBook(buy_orders=tuple(buys), sell_orders=tuple(sells),
                       w_tight=Fraction(11, 10))


def crowd_config(n_clients: int, rounds: int, seed: int, policy: str) -> dict:
    """``scenarios/two_mm_competition.json`` scaled to ``n_clients`` market-order clients.

    Random sides, two quoters at width 1 around the fair price.  ``q_not``
    admits every client's commit, and every agent and the protocol's
    bounty pot are funded for every round, so each round closes.
    """
    path = Path(__file__).resolve().parent.parent / "scenarios" / "two_mm_competition.json"
    cfg = json.loads(path.read_text())
    cfg.pop("outputs", None)
    p = cfg["params"]
    notional, y0 = 1100, cfg["mifp"]["y0"]
    p["q_not"] = n_clients * p["e_client"]
    flow_a = n_clients * notional                      # worst one-sided round, in A
    p["e_mm"] = max(p["e_mm"], 2 * flow_a)             # the tight market absorbs all flow
    size_b = 2 * (p["q_not"] // y0 + 1)                # quoter offer size, in B
    agents = [a for a in cfg["agents"] if a["role"] in ("relayer", "bounty_hunter")]
    for mm in ("mm1", "mm2"):
        agents.append({"id": mm, "role": "mm",
                       "funding": {"REF": p["e_mm"] + 10_000,
                                   "A": 2 * p["q_not"] + rounds * flow_a + 10_000,
                                   "B": size_b + rounds * flow_a // y0 + 1_000},
                       "strategy": {"width": 1, "ref": "mifp", "size_mult": 2}})
    client_ref = p["e_client"] + p["f_r"] + 1 + rounds * p["f_r"]
    for i in range(n_clients):
        agents.append({"id": f"c{i}", "role": "client",
                       "funding": {"REF": client_ref, "A": rounds * notional,
                                   "B": rounds * (notional // y0)},
                       "strategy": {"order": "mkt", "side": "random", "notional": notional,
                                    "width_req": "121/100"}})
    cfg.update(seed=seed, rounds=rounds, ordering_policy=policy, agents=agents,
               protocol_funding=cfg["protocol_funding"] + rounds * p["res_bounty"])
    return cfg


def make_params(**overrides) -> ProtocolParams:
    base = dict(e_client=1_000, e_mm=25_000, q_not=10_000, f_r=10,
                res_bounty=50, p_a=Fraction(1), t_blocks=2)
    base.update(overrides)
    return ProtocolParams(**base)


def fund(ledger: Ledger, player: str, ref=0, a=0, b=0) -> None:
    if ref:
        ledger.mint(player, TOKEN_REF, ref)
    if a:
        ledger.mint(player, TOKEN_A, a)
    if b:
        ledger.mint(player, TOKEN_B, b)


_SEQ = iter(range(10**9))


def etx(tx: Tx, height: int = 1, relayer=None) -> tuple[PendingTx, int]:
    """Fabricate a chain entry included at ``height``, as ``(entry, height)``,
    for direct handler tests: ``proto.handle(*etx(tx))``."""
    return PendingTx(tx=tx, seq=next(_SEQ), deadline=height, relayer=relayer), height
