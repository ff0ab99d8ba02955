"""The four benchmark workloads: input generators, operations and checks.

Each workload makes raw inputs from the seed alone (``generate``), turns
them into program objects (``build``, timed as set-up), runs one operation
at a time (``run_op``, timed) and checks the outputs afterwards (``check``,
untimed).  Operations reach the program only through public functions, and
always through the module attribute (``auction.find_clearing_price``), so
the traced run's wrappers see them.

An operation's ``units`` are what throughput counts: rounds for the
scenario workloads, books for ``clear_wide``, report pairs for
``best_response_mc``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from fairtradex import analysis, auction, cli, scenario
from fairtradex.serialize import dumps_canonical
from fairtradex.units import ANY, MKT, TOKEN_A, TOKEN_B, Order

ARCHIVE_SEED = 20_240_006   # the seed the archived n=2 report was made with


@dataclass
class OpResult:
    units: int
    attempted: int
    failed: int
    digest: str
    failures: Counter = field(default_factory=Counter)   # what failed -> count
    rejected: Counter = field(default_factory=Counter)   # "kind|reason" -> count
    stalled: int = 0


def _digest(obj) -> str:
    return hashlib.sha256(dumps_canonical(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


class ScenarioWorkload:
    """A scaled copy of ``scenarios/two_mm_competition.json``.

    Market-order clients on random sides; two quoters at width 1 around the
    fair price.  ``q_not`` admits every client's commit, and every agent and
    the protocol's bounty pot are funded for every round, so each round
    carries the same mix of transactions and closes.
    """

    def __init__(self, root: Path, seed: int, n_clients: int, rounds: int, policy: str):
        self.root, self.seed = root, seed
        self.n_clients, self.rounds, self.policy = n_clients, rounds, policy
        self.last_settlements = None

    def generate(self) -> dict:
        with open(self.root / "scenarios" / "two_mm_competition.json") as fh:
            cfg = json.load(fh)
        cfg.pop("outputs", None)
        n, r = self.n_clients, self.rounds
        p = cfg["params"]
        notional, y0 = 1100, cfg["mifp"]["y0"]
        p["q_not"] = n * p["e_client"]                      # every commit fits the cap
        flow_a = n * notional                              # worst one-sided round, in A
        p["e_mm"] = max(p["e_mm"], 2 * flow_a)             # tight market absorbs all flow
        size_b = 2 * (p["q_not"] // y0 + 1)                # quoter offer size, in B
        agents = [a for a in cfg["agents"] if a["role"] in ("relayer", "bounty_hunter")]
        for mm in ("mm1", "mm2"):
            agents.append({"id": mm, "role": "mm",
                           "funding": {"REF": p["e_mm"] + 10_000,
                                       "A": 2 * p["q_not"] + r * flow_a + 10_000,
                                       "B": size_b + r * flow_a // y0 + 1_000},
                           "strategy": {"width": 1, "ref": "mifp", "size_mult": 2}})
        client_ref = p["e_client"] + p["f_r"] + 1 + r * p["f_r"]
        for i in range(n):
            agents.append({"id": f"c{i}", "role": "client",
                           "funding": {"REF": client_ref, "A": r * notional,
                                       "B": r * (notional // y0)},
                           "strategy": {"order": "mkt", "side": "random",
                                        "notional": notional, "width_req": "121/100"}})
        cfg.update(seed=self.seed, rounds=r, ordering_policy=self.policy, agents=agents,
                   protocol_funding=cfg["protocol_funding"] + r * p["res_bounty"])
        return cfg

    def build(self, config: dict):
        return scenario.Runner(config)

    def prepare(self, runner, i: int):
        # a runner runs once, so every operation gets a fresh one, untimed
        return scenario.Runner(runner.config)

    def run_op(self, runner) -> OpResult:
        result = runner.run()
        rejected = Counter()
        executed = 0
        for rec in result.trace:
            if rec["seq"] is None:        # phase-change record, not a transaction
                continue
            executed += 1
            if not rec["effects"].get("applied", False):
                rejected[f"{rec['kind']}|{rec['effects'].get('reason', '?')}"] += 1
        stalled = self.rounds - result.rounds_completed
        failures = Counter({f"{key.replace('|', ' rejected: ')}": n
                            for key, n in rejected.items()})
        if stalled:
            failures["round did not close"] = stalled
        self.last_settlements = result.settlements
        return OpResult(units=self.rounds, attempted=executed + self.rounds,
                        failed=sum(rejected.values()) + stalled,
                        digest=_digest(result.settlements), failures=failures,
                        rejected=rejected, stalled=stalled)

    def check(self, results: list[OpResult], scratch: Path) -> list[str]:
        problems = []
        if len({r.digest for r in results}) != 1:
            problems.append("settlements differ between repeats of one seed")
        stalled = sum(r.stalled for r in results)
        if stalled:
            problems.append(f"{stalled} round(s) did not close")
        path = scratch / "settlements.json"
        path.write_text(dumps_canonical(self.last_settlements) + "\n")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["check", str(path)])
        if code != 0:
            problems.append(f"fairtradex check failed: {err.getvalue().strip()}")
        return problems


# ---------------------------------------------------------------------------
# wide books
# ---------------------------------------------------------------------------

_WIDTHS = (ANY, Fraction(1), Fraction(11, 10), Fraction(121, 100), Fraction(3, 2))
_W_TIGHT = Fraction(11, 10)


class ClearWorkload:
    """Books with distinct limit prices over a wide tick range.

    About 10% market orders; width requests drawn from ``_WIDTHS`` against a
    tight width of 11/10, so about a fifth of the orders are width-filtered.
    Buys sell up to 10^6 A atoms and sells up to 20 B atoms, which puts the
    balance price near the middle of the tick range.
    """

    PRICE_LO, PRICE_HI = 1_000, 100_000

    def __init__(self, root: Path, seed: int, orders: int, pool: int, naive_checks: int):
        self.root, self.seed = root, seed
        self.orders, self.pool, self.naive_checks = orders, pool, naive_checks
        self.results: dict[int, tuple] = {}

    def generate(self) -> list[list[tuple]]:
        rng = random.Random(self.seed)
        books = []
        for _ in range(self.pool):
            prices = rng.sample(range(self.PRICE_LO, self.PRICE_HI), self.orders)
            specs = []
            for oid, limit in enumerate(prices):
                buy = rng.random() < 0.5
                size = rng.randint(1, 10**6) if buy else rng.randint(1, 20)
                price = None if rng.random() < 0.1 else limit
                specs.append((oid, buy, size, price, rng.randrange(len(_WIDTHS))))
            books.append(specs)
        return books

    def build(self, specs):
        books = []
        for book in specs:
            buys, sells = [], []
            for oid, buy, size, price, w in book:
                o = Order(oid=oid, owner=f"p{oid}", tkn=TOKEN_A if buy else TOKEN_B,
                          size=size, price=MKT if price is None else price,
                          width_req=_WIDTHS[w])
                (buys if buy else sells).append(o)
            books.append(auction.AuctionBook(buy_orders=tuple(buys), sell_orders=tuple(sells),
                                             w_tight=_W_TIGHT))
        return books

    def prepare(self, books, i: int):
        return i % len(books), books[i % len(books)]

    def run_op(self, item) -> OpResult:
        index, book = item
        filtered, removed = auction.filter_by_width(book)
        cand = auction.find_clearing_price(filtered)
        failure = None
        if cand is None:
            failure = "no clearing price"
        elif not auction.verify_clearing_price(filtered, cand.cp, cand.volume_a,
                                               cand.imbalance_a):
            failure = "clearing price failed verification"
        else:
            res = auction.settle(filtered, cand.cp)
            try:
                auction.validate_clearing_result(filtered, res)
            except AssertionError as e:
                failure = f"settlement failed validation: {e}"
        outcome = (None if cand is None else (cand.cp, cand.volume_a, cand.imbalance_a),
                   failure, len(removed))
        self.results.setdefault(index, outcome)
        return OpResult(units=1, attempted=1, failed=failure is not None,
                        digest=_digest([index, outcome]),
                        failures=Counter([failure] if failure else []))

    def check(self, results: list[OpResult], scratch: Path) -> list[str]:
        problems = []
        if len({r.digest for r in results}) != len(self.results):
            problems.append("a book cleared differently on a repeat")
        naive_clear = _test_helpers(self.root).naive_clear
        books = self.build(self.generate())
        for i in sorted(self.results)[:self.naive_checks]:
            filtered, _removed = auction.filter_by_width(books[i])
            got = self.results[i][0]
            want = naive_clear(filtered)
            if want != got:
                problems.append(f"book {i}: oracle {got} != naive enumerator {want}")
        return problems


def _test_helpers(root: Path):
    """``tests/helpers.py`` of the checkout, loaded by path."""
    spec = importlib.util.spec_from_file_location("fairtradex_test_helpers",
                                                  root / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# best response
# ---------------------------------------------------------------------------


class BestResponseWorkload:
    """Criterion 6's pair of checks: the competitive profile with two quoters
    (Monte Carlo over the auction engine) and the one-quoter monopoly profile
    (closed form).  The seed is the Monte Carlo seed."""

    Y = 110
    F_MCF = Fraction(121, 100)

    def __init__(self, root: Path, seed: int, paths: int):
        self.root, self.seed, self.paths = root, seed, paths

    def generate(self) -> int:
        return self.seed

    def build(self, mc_seed: int):
        f = self.F_MCF
        competitive = analysis.StrategyProfile(
            client=analysis.ClientProfile(order_type="mkt", width_req=f),
            mm=analysis.MMProfile(width=Fraction(1)))
        monopoly = analysis.StrategyProfile(
            client=analysis.ClientProfile(order_type="mkt", width_req=f),
            mm=analysis.MMProfile(width=f))
        return competitive, monopoly, analysis.default_grid(self.Y, f), mc_seed

    def prepare(self, inputs, i: int):
        return inputs

    def _competitive(self, inputs, paths: int):
        competitive, _monopoly, grid, mc_seed = inputs
        return analysis.best_response_check(competitive, n_mms=2, grid=grid, y=self.Y,
                                            f_mcf=self.F_MCF, paths=paths, seed=mc_seed)

    def run_op(self, inputs) -> OpResult:
        _competitive, monopoly, grid, _mc_seed = inputs
        rep2 = self._competitive(inputs, self.paths)
        rep1 = analysis.best_response_check(monopoly, n_mms=1, grid=grid, y=self.Y,
                                            f_mcf=self.F_MCF)
        failures = Counter(
            f"n_mms={rep.n_mms} not confirmed: {e.player} {e.label} "
            f"(gain {e.gain:.6g} > tolerance {e.tolerance:.6g})"
            for rep in (rep2, rep1) for e in rep.entries if e.improves)
        return OpResult(units=1, attempted=2, failed=(not rep2.confirmed) + (not rep1.confirmed),
                        digest=_digest([rep2.to_json_dict(), rep1.to_json_dict()]),
                        failures=failures)

    def check(self, results: list[OpResult], scratch: Path) -> list[str]:
        # at other seeds an unconfirmed report is a failed operation, not a
        # wrong output: the 2-SE test can reject the profile by chance
        problems = []
        if len({r.digest for r in results}) != 1:
            problems.append("reports differ between repeats of one seed")
        with open(self.root / "reports" / "best_response_n2.json") as fh:
            archived = json.load(fh)
        rep = self._competitive(self.build(ARCHIVE_SEED), archived["paths"])
        want = [(d["player"], d["label"], d["improves"]) for d in archived["deviations"]]
        got = [(e.player, e.label, e.improves) for e in rep.entries]
        if not rep.confirmed or got != want:
            problems.append(f"seed {ARCHIVE_SEED}: improves flags differ from "
                            "reports/best_response_n2.json")
        return problems


# ---------------------------------------------------------------------------

#: full size, and the smoke size the benchmark's own tests use
WORKLOADS = {
    "scenario_crowd": (lambda root, seed: ScenarioWorkload(root, seed, 512, 1, "identity"),
                       lambda root, seed: ScenarioWorkload(root, seed, 16, 1, "identity")),
    "scenario_long": (lambda root, seed: ScenarioWorkload(root, seed, 16, 100, "random"),
                      lambda root, seed: ScenarioWorkload(root, seed, 4, 3, "random")),
    "clear_wide": (lambda root, seed: ClearWorkload(root, seed, 1_000, 16, 3),
                   lambda root, seed: ClearWorkload(root, seed, 60, 2, 2)),
    "best_response_mc": (lambda root, seed: BestResponseWorkload(root, seed, 10_000),
                         lambda root, seed: BestResponseWorkload(root, seed, 200)),
}


def make(name: str, root: Path, seed: int, smoke: bool = False):
    full, small = WORKLOADS[name]
    return (small if smoke else full)(root, seed)


def scratch_dir(root: Path):
    """A temporary directory inside the benchmark's own output directory."""
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=out)
