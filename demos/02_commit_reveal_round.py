"""
One commit-reveal round, message by message
===========================================

Drives the protocol state machine directly: register behind a hash
commitment, commit an order anonymously via a relayer with a membership
proof, reveal, punish a silent quoter, and resolve the auction for a
bounty.  Every escrow movement is a ledger transfer, so conservation can
be checked at any point.
"""

from fractions import Fraction

from fairtradex.chain import (CLIENT_REGISTER, CLIENT_REVEAL, COMMIT_CLIENT,
                              COMMIT_MM, CP, MM_REVEAL, RELAYED, PendingTx, Tx)
from fairtradex.auction import find_clearing_price
from fairtradex.ledger import BURN_SINK, PROTOCOL_ACCOUNT, Ledger
from fairtradex.membership import gen_secret, prove_membership, reg_id
from fairtradex.protocol import (ClientCommitPayload, ClientRevealPayload,
                                 CpPayload, MMCommitPayload, MMRevealPayload,
                                 Protocol, RegisterPayload, client_commitment,
                                 mm_commitment)
from fairtradex.units import MKT, TOKEN_A, TOKEN_B, TOKEN_REF, Market, ProtocolParams

params = ProtocolParams(e_client=2000, e_mm=50_000, q_not=20_000, f_r=10,
                        res_bounty=100, p_a=Fraction(1), t_blocks=2)
ledger = Ledger()
proto = Protocol(params, ledger)

# fund everyone; the protocol account carries the bounty budget
ledger.mint(PROTOCOL_ACCOUNT, TOKEN_REF, 1_000)
for pid, ref, a, b in [("buyer", 3_000, 5_000, 0), ("seller", 3_000, 0, 50),
                       ("quoter", 60_000, 100_000, 1_000),
                       ("lazy-quoter", 60_000, 100_000, 1_000),
                       ("hunter", 1_000, 0, 0)]:
    ledger.mint(pid, TOKEN_REF, ref)
    ledger.mint(pid, TOKEN_A, a)
    ledger.mint(pid, TOKEN_B, b)
start_supplies = ledger.supplies()

seq = iter(range(1000))
def deliver(tx, height=0, relayer=None):
    entry = PendingTx(tx=tx, seq=next(seq), deadline=height, relayer=relayer)
    return proto.handle(entry, height)

# -- registration: deposit escrow + relay fee behind h(S || r) --------------
secrets = {pid: gen_secret(i) for i, pid in enumerate(["buyer", "seller"], start=1)}
for pid, secret in secrets.items():
    deliver(Tx(kind=CLIENT_REGISTER, sender=pid,
               payload=RegisterPayload(reg_id(secret))))
print(f"registered {len(proto.clients)} clients; protocol holds "
      f"{ledger.balance(PROTOCOL_ACCOUNT, TOKEN_REF)} REF")
proto.initialise(height=0)

# -- commit phase ------------------------------------------------------------
orders = {"buyer": (TOKEN_A, 1100, MKT, Fraction(121, 100)),
          "seller": (TOKEN_B, 10, MKT, Fraction(121, 100))}
for pid, order in orders.items():
    com = client_commitment(*order)
    proof = prove_membership(secrets[pid], proto.clients, com)
    tx = Tx(kind=COMMIT_CLIENT, sender=RELAYED,
            payload=ClientCommitPayload(com=com, serial=secrets[pid].s, proof=proof))
    effects = deliver(tx, relayer="relayer")
    print(f"{pid} committed anonymously, relayer credited: {effects}")

market = Market(bid=108, size_bid=40_000, offer=112, size_offer=360)
deliver(Tx(kind=COMMIT_MM, sender="quoter", payload=MMCommitPayload(mm_commitment(market))))
deliver(Tx(kind=COMMIT_MM, sender="lazy-quoter",
           payload=MMCommitPayload(mm_commitment(market))))

# -- reveal phase ------------------------------------------------------------
proto.on_block_end(params.t_eff)  # commit deadline passes
for pid, (tkn, size, price, width) in orders.items():
    deliver(Tx(kind=CLIENT_REVEAL, sender=pid,
               payload=ClientRevealPayload(tkn=tkn, size=size, price=price,
                                           width=width, serial=secrets[pid].s,
                                           randomness=secrets[pid].r,
                                           reg_id=reg_id(secrets[pid]))),
            height=params.t_eff)
deliver(Tx(kind=MM_REVEAL, sender="quoter", payload=MMRevealPayload(market)),
        height=params.t_eff)
# lazy-quoter stays silent: its escrow burns at the deadline
proto.on_block_end(2 * params.t_eff)
print(f"reveal closed: tight market {proto.tight_market[0]} width {proto.book.w_tight}, "
      f"burn sink holds {ledger.balance(BURN_SINK, TOKEN_REF)} REF")

# -- resolution: anyone can propose the clearing price for a bounty ----------
cand = find_clearing_price(proto.book)
effects = deliver(Tx(kind=CP, sender="hunter",
                     payload=CpPayload(cp=cand.cp, volume_a=cand.volume_a,
                                       imbalance_a=cand.imbalance_a)),
                  height=2 * params.t_eff)
print(f"resolution: {effects}")
report = proto.settlements[-1]
print(f"round {report['round']} settled at {report['cp']}: "
      f"{report['volume_b']} B traded, bounty to {report['bounty_winner']}")

assert ledger.supplies() == start_supplies
print("token supplies unchanged across the whole round")
