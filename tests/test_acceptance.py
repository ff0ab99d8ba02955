"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
output.  Tolerances are pinned here and nowhere else.
"""

import csv
import itertools
import json
import random
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from fairtradex.analysis import (ClientProfile, MMProfile, StrategyProfile,
                                 best_response_check, mm_expected_profit,
                                 p_ref_argmax)
from fairtradex.auction import (find_clearing_price, settle,
                                validate_clearing_result, verify_clearing_price)
from fairtradex.chain import (CLIENT_REGISTER, CLIENT_REVEAL, COMMIT_CLIENT,
                              COMMIT_MM, CP, MM_REVEAL, NOOP, ORDERING_POLICIES,
                              RELAYED, Chain, Tx)
from fairtradex.cli import main as cli_main
from fairtradex.ledger import PROTOCOL_ACCOUNT, Ledger
from fairtradex.membership import (Registry, accumulate, deserialize_proof, gen_secret,
                                   prove_membership, reg_id, serialize_proof,
                                   verify_membership, MalformedProof)
from fairtradex.protocol import (ClientCommitPayload, ClientRevealPayload,
                                 CpPayload, MMCommitPayload, MMRevealPayload,
                                 Phase, Protocol, RegisterPayload,
                                 client_commitment, mm_commitment)
from fairtradex.units import (MKT, TOKEN_A, TOKEN_B, TOKEN_REF, WITHDRAW,
                              Market, ProtocolParams)

from helpers import etx, fund, naive_clear, random_book

REPO = Path(__file__).resolve().parent.parent
REPORTS = REPO / "reports"


def test_criterion_1_oracle_vs_naive_enumerator():
    rng = random.Random(20_240_001)
    t0 = time.time()
    checked = 0
    for _ in range(10_000):
        book = random_book(rng, max_orders=12, band=32)
        cand = find_clearing_price(book)
        naive = naive_clear(book)
        if cand is None:
            assert naive is None
        else:
            assert naive == (cand.cp, cand.volume_a, cand.imbalance_a)
            # settlement at the oracle price conserves both tokens exactly
            validate_clearing_result(book, settle(book, cand.cp))
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 1: oracle == naive enumerator on 10,000 books "
          f"({checked} cleared and settled exactly) in {elapsed:.1f}s")


def test_criterion_2_verifier_soundness():
    rng = random.Random(20_240_002)
    failures = 0
    for _ in range(1_000):
        book = random_book(rng, max_orders=10, band=32, with_spanning_market=True,
                           q_not=1_000)
        cand = find_clearing_price(book)
        assert cand is not None
        if not verify_clearing_price(book, cand.cp, cand.volume_a, cand.imbalance_a):
            failures += 1
    assert failures == 0
    print("PASS criterion 2: 1,000/1,000 oracle-optimal prices pass the verifier")


def _fuzz_one_round(rng: random.Random) -> tuple[int, bool]:
    """One protocol round with randomized (mis)behaviour; returns
    (handler calls, settled)."""
    params = ProtocolParams(
        e_client=rng.choice([500, 1_000]), e_mm=30_000,
        q_not=rng.choice([2_000, 20_000]), f_r=rng.choice([0, 7]),
        res_bounty=50, p_a=Fraction(1), t_blocks=1)
    ledger = Ledger()
    proto = Protocol(params, ledger)
    ledger.mint(PROTOCOL_ACCOUNT, TOKEN_REF, 10 * params.res_bounty)
    fund(ledger, "hunter", ref=20 * params.res_bounty)
    fund(ledger, "liar", ref=20 * params.res_bounty)

    n_clients = rng.randint(1, 4)
    n_mms = rng.randint(0, 2)
    clients = []
    for i in range(n_clients):
        pid = f"c{i}"
        secret = gen_secret(rng.getrandbits(63))
        rich = rng.random() > 0.15
        fund(ledger, pid, ref=(2 * (params.e_client + params.f_r)) if rich else 1,
             a=rng.randint(0, 3_000), b=rng.randint(0, 60))
        clients.append((pid, secret))
        proto.handle(*etx(Tx(kind=CLIENT_REGISTER, sender=pid,
                            payload=RegisterPayload(reg_id(secret))), height=0))
    mms = []
    for i in range(n_mms):
        pid = f"m{i}"
        fund(ledger, pid, ref=2 * params.e_mm, a=10**6, b=10**6)
        mms.append(pid)
    proto.initialise(0)
    start = ledger.supplies()
    calls = 0

    def check():
        assert ledger.supplies() == start, "conservation broken"

    committed = {}
    for pid, secret in clients:
        if rng.random() < 0.15 or reg_id(secret) not in proto.clients:
            continue
        side = rng.choice(["buy", "buy", "sell", "sell", "withdraw"])
        if side == "withdraw":
            order = (TOKEN_A, 1, WITHDRAW, Fraction(121, 100))
        elif side == "buy":
            order = (TOKEN_A, rng.randint(1, 2_000), rng.choice([MKT, rng.randint(90, 130)]),
                     Fraction(121, 100))
        else:
            order = (TOKEN_B, rng.randint(1, 40), rng.choice([MKT, rng.randint(90, 130)]),
                     Fraction(121, 100))
        com = client_commitment(*order)
        proof = prove_membership(secret, proto.clients, com)
        eff = proto.handle(*etx(Tx(kind=COMMIT_CLIENT, sender=RELAYED,
                                  payload=ClientCommitPayload(com, secret.s, proof)),
                               height=0, relayer="relay"))
        calls += 1
        check()
        if eff["applied"]:
            committed[pid] = (secret, order)
    markets = {}
    for pid in mms:
        if rng.random() < 0.2:
            continue
        offer = rng.randint(105, 118)
        bid = rng.randint(max(1, offer - 12), offer)
        thin = rng.random() < 0.15
        m = Market(bid=bid, size_bid=10 if thin else 25_000,
                   offer=offer, size_offer=1 if thin else 300)
        eff = proto.handle(*etx(Tx(kind=COMMIT_MM, sender=pid,
                                  payload=MMCommitPayload(mm_commitment(m))), height=0))
        calls += 1
        check()
        if eff["applied"]:
            markets[pid] = m

    proto.on_block_end(params.t_eff)  # commit deadline
    check()

    for pid, (secret, order) in committed.items():
        action = rng.random()
        if action < 0.25:
            continue  # silent: blacklist + burn
        mutate = action < 0.4
        tkn, size, price, width = order
        payload = ClientRevealPayload(
            tkn=tkn, size=size + (1 if mutate else 0), price=price, width=width,
            serial=secret.s, randomness=secret.r, reg_id=reg_id(secret),
            reg_token_new=None)
        proto.handle(*etx(Tx(kind=CLIENT_REVEAL, sender=pid, payload=payload),
                         height=params.t_eff))
        calls += 1
        check()
    for pid, m in markets.items():
        action = rng.random()
        if action < 0.25:
            continue
        wrong = action < 0.4
        reveal = MMRevealPayload(Market(m.bid, m.size_bid + 1, m.offer, m.size_offer)
                                 if wrong else m)
        proto.handle(*etx(Tx(kind=MM_REVEAL, sender=pid, payload=reveal),
                         height=params.t_eff))
        calls += 1
        check()

    proto.on_block_end(2 * params.t_eff)  # reveal deadline, burns + blacklist
    check()

    settled = False
    if proto.phase is Phase.RESOLUTION:
        cand = find_clearing_price(proto.book)
        if cand is not None and rng.random() < 0.5:
            bogus = CpPayload(cand.cp, cand.volume_a + 1, cand.imbalance_a)
            proto.handle(*etx(Tx(kind=CP, sender="liar", payload=bogus),
                             height=2 * params.t_eff))
            calls += 1
            check()
        if cand is not None:
            good = CpPayload(cand.cp, cand.volume_a, cand.imbalance_a)
            eff = proto.handle(*etx(Tx(kind=CP, sender="hunter", payload=good),
                                   height=2 * params.t_eff))
            calls += 1
            check()
            settled = eff["applied"]
    return calls, settled


def test_criterion_3_conservation_over_fuzzed_rounds():
    rng = random.Random(20_240_003)
    t0 = time.time()
    settled = calls = 0
    for _ in range(10_000):
        c, s = _fuzz_one_round(rng)
        calls += c
        settled += int(s)
    print(f"PASS criterion 3: conservation bit-exact across 10,000 fuzzed rounds "
          f"({settled} settled, {calls} messages) in {time.time()-t0:.1f}s")


def _escrow_case(client_reveals: tuple[bool, bool], mm_reveals: tuple[bool, bool]):
    params = ProtocolParams(e_client=1_000, e_mm=30_000, q_not=20_000, f_r=10,
                            res_bounty=50, p_a=Fraction(1), t_blocks=1)
    ledger = Ledger()
    proto = Protocol(params, ledger)
    ledger.mint(PROTOCOL_ACCOUNT, TOKEN_REF, 10 * params.res_bounty)
    orders = {"c0": (TOKEN_A, 500, MKT, Fraction(121, 100)),
              "c1": (TOKEN_B, 5, MKT, Fraction(121, 100))}
    secrets = {}
    for i in range(2):
        fund(ledger, f"c{i}", ref=2_020, a=1_000, b=1_000)
        fund(ledger, f"m{i}", ref=40_000, a=10**6, b=10**6)
    ref0 = {p: ledger.balance(p, TOKEN_REF) for p in ("c0", "c1", "m0", "m1")}
    for i in range(2):
        pid = f"c{i}"
        secrets[pid] = gen_secret(i + 1)
        proto.handle(*etx(Tx(kind=CLIENT_REGISTER, sender=pid,
                            payload=RegisterPayload(reg_id(secrets[pid]))), height=0))
    m = Market(bid=108, size_bid=25_000, offer=112, size_offer=200)
    proto.initialise(0)

    for i in range(2):
        pid = f"c{i}"
        com = client_commitment(*orders[pid])
        proof = prove_membership(secrets[pid], proto.clients, com)
        assert proto.handle(*etx(Tx(kind=COMMIT_CLIENT, sender=RELAYED,
                                   payload=ClientCommitPayload(com, secrets[pid].s, proof)),
                                height=0, relayer="relay"))["applied"]
    for i in range(2):
        assert proto.handle(*etx(Tx(kind=COMMIT_MM, sender=f"m{i}",
                                   payload=MMCommitPayload(mm_commitment(m))),
                                height=0))["applied"]
    proto.on_block_end(1)
    for i, reveals in enumerate(client_reveals):
        pid = f"c{i}"
        if not reveals:
            continue
        tkn, size, price, width = orders[pid]
        assert proto.handle(*etx(Tx(kind=CLIENT_REVEAL, sender=pid,
                                   payload=ClientRevealPayload(
                                       tkn=tkn, size=size, price=price, width=width,
                                       serial=secrets[pid].s, randomness=secrets[pid].r,
                                       reg_id=reg_id(secrets[pid]), reg_token_new=None)),
                                height=1))["applied"]
    for i, reveals in enumerate(mm_reveals):
        if not reveals:
            continue
        assert proto.handle(*etx(Tx(kind=MM_REVEAL, sender=f"m{i}",
                                   payload=MMRevealPayload(m)), height=1))["applied"]
    proto.on_block_end(2)
    assert proto.phase is Phase.RESOLUTION
    deltas = {}
    for i in range(2):
        deltas[f"c{i}"] = ledger.balance(f"c{i}", TOKEN_REF) - ref0[f"c{i}"]
        deltas[f"m{i}"] = ledger.balance(f"m{i}", TOKEN_REF) - ref0[f"m{i}"]
    return params, deltas


def test_criterion_4_escrow_discipline_exhaustive_matrix():
    """Relative to pre-registration balances: a revealer is out only the
    relay fee (escrow recovered exactly); a silent client loses exactly
    e_client on top of the fee, and a silent quoter loses exactly e_mm."""
    cases = 0
    for c0, c1, m0, m1 in itertools.product((True, False), repeat=4):
        params, deltas = _escrow_case((c0, c1), (m0, m1))
        for i, reveals in enumerate((c0, c1)):
            expect = -params.f_r if reveals else -(params.e_client + params.f_r)
            assert deltas[f"c{i}"] == expect, (c0, c1, m0, m1, deltas)
        for i, reveals in enumerate((m0, m1)):
            expect = 0 if reveals else -params.e_mm
            assert deltas[f"m{i}"] == expect, (c0, c1, m0, m1, deltas)
        cases += 1
    assert cases == 16
    print("PASS criterion 4: all 16 reveal/silent cases settle escrows exactly")


def test_criterion_5_quoter_argmax_and_zero_profit():
    rng = np.random.default_rng(20_240_005)
    for _ in range(100):
        x = float(rng.uniform(0.1, 1e6))
        y = float(rng.uniform(5.0, 5e3))
        w = float(rng.uniform(1.0, 3.0))
        d = float(rng.uniform(1.0, 1.5))
        p_star = p_ref_argmax(x, y, w, d)
        assert abs(p_star - y) <= y / 1000 + 1e-9 * y
    for x in (1.0, 123.0, 7.7e8):
        assert abs(mm_expected_profit(x, 321.0, 321.0, 1.0, 1.0)) <= 1e-12 * x
    print("PASS criterion 5: profit argmax at the fair price for 100 random "
          "parameter draws; zero profit on the width-1 line")


# Archived report floats may move in the last digits across platforms;
# structure, labels and flags must match exactly.
ARCHIVE_REL_TOL = 1e-9
ARCHIVE_ABS_TOL = 1e-12   # float noise around zero, e.g. an archived gain of 5.6e-17


def _assert_matches_archive(got, want, where):
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert got == pytest.approx(want, rel=ARCHIVE_REL_TOL, abs=ARCHIVE_ABS_TOL), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for k in want:
            _assert_matches_archive(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches_archive(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


def _csv_cells(path):
    """CSV rows with every numeric cell parsed as a float."""
    def cell(v):
        try:
            return float(v)
        except ValueError:
            return v
    with open(path, newline="") as fh:
        return [[cell(v) for v in row] for row in csv.reader(fh)]


def test_criterion_6_best_response_reports(tmp_path):
    f_mcf = Fraction(121, 100)
    monopoly = StrategyProfile(client=ClientProfile(order_type="mkt", width_req=f_mcf),
                               mm=MMProfile(width=f_mcf))
    rep1 = best_response_check(monopoly, n_mms=1, notional=1.0)
    assert rep1.confirmed, [e for e in rep1.entries if e.improves]
    competitive = StrategyProfile(client=ClientProfile(order_type="mkt", width_req=f_mcf),
                                  mm=MMProfile(width=Fraction(1)))
    rep2 = best_response_check(competitive, n_mms=2, paths=10_000, seed=20_240_006)
    assert rep2.paths >= 10_000
    assert rep2.confirmed, [e for e in rep2.entries if e.improves]
    for name, rep in (("best_response_n1", rep1), ("best_response_n2", rep2)):
        with open(tmp_path / f"{name}.json", "w") as fh:
            json.dump(rep.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        (tmp_path / f"{name}.csv").write_text(rep.to_csv())
        for ext, load in ((".json", lambda p: json.loads(p.read_text())), (".csv", _csv_cells)):
            _assert_matches_archive(load(tmp_path / f"{name}{ext}"),
                                    load(REPORTS / f"{name}{ext}"), f"{name}{ext}")
    print(f"PASS criterion 6: no improving deviation in either profile "
          f"(N=1 max gain {rep1.max_gain:.2e}; N=2 max gain {rep2.max_gain:.2e}); "
          f"both reports match the archive under reports/")


def test_criterion_7_cost_matrix_reproduction(capsys):
    t0 = time.time()
    code = cli_main(["costs"])
    out = capsys.readouterr().out
    elapsed = time.time() - t0
    assert code == 0 and elapsed < 1.0
    rows = {line.split(",")[0]: line.split(",")[1:] for line in out.strip().splitlines()[1:]}
    for label, cells in rows.items():
        assert cells[0] == "0"  # zero execution cost column
    assert rows["P1-10000"] == ["0", "50", "0", "0"]
    assert rows["P2-10000"] == ["0", "50", "0", "0"]
    assert rows["P1-10000000"] == ["0", "150000", "100000", "0"]
    assert rows["P2-10000000"] == ["0", "150000", "100000", "100000"]
    # the reference cost table quotes 3000 for this cell although the stated
    # 0.15% impact + 0.5% slippage on 500k works out to 3250; we emit the
    # arithmetic value and require agreement within 10% of the quoted figure
    assert abs(float(rows["P1-500000"][1]) - 3000) <= 0.10 * 3000
    assert rows["P1-500000"][2] == "750" and rows["P2-500000"][3] == "750"
    print(f"PASS criterion 7: cost matrix reproduced in {elapsed*1000:.0f}ms "
          f"(500k AMM cell {rows['P1-500000'][1]} vs quoted 3000, within 10%)")


def test_criterion_8_inclusion_bound_all_policies():
    combos = [(3, Fraction(0), 3), (3, Fraction(1, 2), 6), (10, Fraction(3, 4), 40)]
    for t_blocks, alpha, expect_t_eff in combos:
        params = ProtocolParams(e_client=1, e_mm=3, q_not=2, f_r=0, res_bounty=0,
                                p_a=Fraction(1), t_blocks=t_blocks, alpha=alpha)
        assert params.t_eff == expect_t_eff
        # t_eff is computed once per params object; a replaced field gives a new value
        assert replace(params, alpha=Fraction(1, 2)).t_eff == 2 * t_blocks
        for name, policy in ORDERING_POLICIES.items():
            chain = Chain(t_eff=params.t_eff, policy=policy, seed=8)
            rng = random.Random(31)
            submitted, landed = {}, {}
            for _ in range(150):
                for _ in range(rng.randint(0, 3)):
                    p = chain.submit(Tx(kind=NOOP, payload=len(submitted), sender="p"))
                    submitted[p.seq] = chain.height
                for e in chain.advance_block():
                    landed[e.seq] = chain.height
            while chain.pending:
                for e in chain.advance_block():
                    landed[e.seq] = chain.height
            assert landed.keys() == submitted.keys()
            for seq, h0 in submitted.items():
                assert landed[seq] <= h0 + params.t_eff, (name, t_blocks, alpha)
    print("PASS criterion 8: inclusion within t_eff for all four policies at "
          "(3,0), (3,1/2), (10,3/4)")


def test_criterion_9_membership_layer():
    # completeness, exhaustive over set sizes 1..64
    for n in range(1, 65):
        secrets = [gen_secret(s) for s in range(n)]
        ids = Registry(reg_id(s) for s in secrets)
        root = accumulate(ids)
        for sec in secrets:
            proof = prove_membership(sec, ids, b"acceptance")
            assert verify_membership(proof, root, b"acceptance", set())

    # nullifier replay: 1,000 replays, all rejected
    secrets = [gen_secret(s) for s in range(50)]
    ids = Registry(reg_id(s) for s in secrets)
    root = accumulate(ids)
    nullifiers = set()
    for sec in secrets:
        assert verify_membership(prove_membership(sec, ids, b"m"), root, b"m", nullifiers)
    rng = random.Random(20_240_009)
    rejected = 0
    for _ in range(1_000):
        sec = secrets[rng.randrange(len(secrets))]
        replay = prove_membership(sec, ids, b"m")
        if not verify_membership(replay, root, b"m", nullifiers):
            rejected += 1
    assert rejected == 1_000

    # single-bit mutations: 10,000 fuzz cases, all rejected
    mutated_rejected = 0
    for i in range(10_000):
        sec = secrets[rng.randrange(len(secrets))]
        proof = prove_membership(sec, ids, b"bind")
        blob = bytearray(serialize_proof(proof))
        bit = rng.randrange(len(blob) * 8)
        blob[bit // 8] ^= 1 << (bit % 8)
        try:
            bad = deserialize_proof(bytes(blob))
        except MalformedProof:
            mutated_rejected += 1
            continue
        if not verify_membership(bad, root, b"bind", set()):
            mutated_rejected += 1
    assert mutated_rejected == 10_000
    print("PASS criterion 9: completeness 1..64; 1,000/1,000 replays rejected; "
          "10,000/10,000 bit flips rejected")


def test_criterion_10_byte_identical_runs(tmp_path):
    scenario = REPO / "scenarios" / "two_mm_competition.json"
    assert cli_main(["run", str(scenario), "--outdir", str(tmp_path / "a")]) == 0
    assert cli_main(["run", str(scenario), "--outdir", str(tmp_path / "b")]) == 0
    for name in ("trace.jsonl", "settlements.json", "summary.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    print("PASS criterion 10: trace, settlements and summary byte-identical "
          "across two runs")
