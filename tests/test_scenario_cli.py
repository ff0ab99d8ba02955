import copy
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from fairtradex import auction, scenario
from fairtradex.auction import (filter_by_width, find_clearing_price, settle,
                                validate_clearing_result)
from fairtradex.chain import COMMIT_CLIENT, ORDERING_POLICIES
from fairtradex.cli import main
from fairtradex.ledger import InsufficientBalance
from fairtradex.protocol import Phase
from fairtradex.scenario import (InvariantViolation, Runner, ScenarioError, derive_seed,
                                 validate_config)
from fairtradex.serialize import book_from_json, price_to_json

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SCENARIOS = REPO / "scenarios"
REPORTS = REPO / "reports"
TWO_MM = SCENARIOS / "two_mm_competition.json"
GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "scenario_digests.json"
GOLDEN_BOOK = Path(__file__).parent / "golden" / "clearing_fixture.json"


def load(name="two_mm_competition.json"):
    return json.loads((SCENARIOS / name).read_text())


def _node(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _set(*path, value):
    def mutate(cfg):
        _node(cfg, path[:-1])[path[-1]] = value
        return cfg
    return mutate


def _drop(*path):
    def mutate(cfg):
        del _node(cfg, path[:-1])[path[-1]]
        return cfg
    return mutate


MM1, C1, HUNTER = 0, 2, 7  # agent indices in two_mm_competition.json
BUNDLED = sorted(p.name for p in SCENARIOS.glob("*.json"))


def load_with_policy(name, policy):
    return {**load(name), "ordering_policy": policy}


def stalled_config():
    """``two_mm_competition`` where no quoter commits and every client buys:
    no price trades, so no round closes."""
    cfg = load()
    for agent in cfg["agents"]:
        if agent["role"] == "mm":
            agent["strategy"]["commit"] = False
        elif agent["role"] == "client":
            agent["strategy"]["side"] = "buy"
    return cfg


#: one malformed config per validation rule, and the field its error names
MALFORMED = [
    pytest.param(lambda cfg: [], "<root>", id="root-not-object"),
    pytest.param(_set("agents", value={}), "agents", id="agents-not-array"),
    pytest.param(_set("agents", MM1, value="mm1"), "agents.0", id="agent-not-object"),
    pytest.param(_set("agents", MM1, "strategy", value=[]), "strategy", id="strategy-not-object"),
    *(pytest.param(_drop(key), key, id=f"missing-{key}")
      for key in ("seed", "rounds", "params", "mifp", "agents")),
    *(pytest.param(_drop("params", key), key, id=f"missing-params.{key}")
      for key in ("e_client", "e_mm", "q_not", "f_r", "res_bounty", "p_a", "t_blocks")),
    pytest.param(_drop("mifp", "y0"), "y0", id="missing-mifp.y0"),
    pytest.param(_drop("agents", MM1, "id"), "id", id="missing-agent-id"),
    pytest.param(_drop("agents", MM1, "role"), "role", id="missing-agent-role"),
    *(pytest.param(_set(*path, "mystery", value=1), "mystery", id=f"unknown-key-{where}")
      for where, path in (("root", ()), ("params", ("params",)), ("mifp", ("mifp",)),
                          ("funding", ("agents", MM1, "funding")),
                          ("outputs", ("outputs",)), ("agent", ("agents", MM1)))),
    *(pytest.param(_set(*path, value=-1), ".".join(map(str, path[-2:])),
                   id="negative-" + ".".join(map(str, path)))
      for path in (("seed",), ("rounds",), ("protocol_funding",), ("n_psi",),
                   ("params", "e_client"), ("params", "f_r"), ("mifp", "seed"),
                   ("agents", MM1, "funding", "REF"))),
    pytest.param(_set("agents", MM1, "strategy", "size_mult", value=0), "strategy.size_mult",
                 id="zero-size_mult"),
    pytest.param(_set("agents", C1, "strategy", "notional", value=0), "strategy.notional",
                 id="zero-notional"),
    pytest.param(_set("ordering_policy", value="fifo"), "ordering_policy", id="bad-ordering_policy"),
    pytest.param(_set("agents", MM1, "role", value="oracle"), "role", id="bad-role"),
    pytest.param(_set("agents", C1, "strategy", "order", value="stop"), "strategy.order",
                 id="bad-order"),
    pytest.param(_set("agents", C1, "strategy", "side", value="both"), "strategy.side",
                 id="bad-side"),
    pytest.param(_set("agents", MM1, "id", value=""), "agents.0.id", id="empty-id"),
    pytest.param(_set("agents", MM1, "id", value=7), "agents.0.id", id="non-string-id"),
    # the Runner relays a transaction by its sender, so that id is reserved
    pytest.param(_set("agents", MM1, "id", value="RELAYED"), "agents.0.id", id="reserved-id"),
    pytest.param(_set("mifp", "y0", value=0), "y0", id="zero-y0"),
    pytest.param(_set("params", "t_blocks", value=0), "t_blocks", id="zero-t_blocks"),
    pytest.param(_set("outputs", "trace", value=1), "outputs.trace", id="non-string-trace"),
    # each output is its own file in the output directory
    pytest.param(_set("outputs", value={"trace": "x.txt", "settlements": "x.txt"}), "outputs",
                 id="repeated-output-name"),
    pytest.param(_set("outputs", value={"trace": "summary.csv"}), "outputs",
                 id="output-name-of-a-default"),
    pytest.param(_set("outputs", "trace", value=""), "outputs.trace", id="empty-output-name"),
    *(pytest.param(_set("outputs", "summary", value=name), "outputs.summary",
                   id=f"output-name-{name}")
      for name in ("a/summary.csv", "/tmp/summary.csv", "a\\summary.csv", ".", "..")),
    pytest.param(_set("seed", value=True), "seed", id="bool-seed"),
    pytest.param(_set("params", "p_a", value=1.5), "p_a", id="float-p_a"),
    pytest.param(_set("agents", HUNTER, "strategy", value={"invalid_first": 1}),
                 "strategy.invalid_first", id="non-bool-invalid_first"),
    pytest.param(_set("agents", C1, "strategy", "commit", value="yes"), "strategy.commit",
                 id="non-bool-commit"),
    # an integer field takes only a JSON integer: each float used to crash
    # the run or pass silently
    *(pytest.param(_set(*path, value=value), field, id=f"float-{field}")
      for path, value, field in (
          (("seed",), 42.0, "seed"),
          (("rounds",), 3.0, "rounds"),
          (("mifp", "seed"), 3.0, "mifp.seed"),
          (("agents", MM1, "funding", "REF"), 5000.0, "funding.REF"),
          (("agents", MM1, "strategy", "size_mult"), 2.0, "strategy.size_mult"),
          (("protocol_funding",), 10.0, "protocol_funding"),
          (("params", "t_blocks"), 2.0, "params.t_blocks"),
          (("agents", C1, "strategy", "notional"), 1100.0, "strategy.notional"),
          (("mifp", "y0"), 110.0, "mifp.y0"),
          (("n_psi",), 2.0, "n_psi"))),
    pytest.param(_set("agents", C1, "strategy", value={"order": "limit", "notional": 1100,
                                                       "limit_price": 120.0}),
                 "strategy.limit_price", id="float-limit_price"),
    pytest.param(_set("seed", value=2**64), "seed", id="seed-past-64-bits"),
    # a run's block budget is capped, so a run ends in bounded time
    pytest.param(_set("rounds", value=10**30), "rounds", id="budget-rounds"),
    pytest.param(_set("params", "t_blocks", value=10**30), "params.t_blocks",
                 id="budget-t_blocks"),
    pytest.param(_set("params", "alpha", value="999999/1000000"), "params.t_blocks",
                 id="budget-alpha"),
]


#: every scalar of every bundled scenario takes each of these values in turn
PROBE_VALUES = (0, -1, 1, 2, 10**30, "x", 1.5, None, True, [], {}, "1/0", "0", "-1/2", "3/2")
#: the probe's rounds cap: enough to reach the protocol_funding crash
#: below, which comes at the second round's reveal end
PROBE_ROUNDS = 2
#: the (scenario, path, value) rows that crash (ROADMAP item 13)
PROBE_CRASHES = [(name, ("protocol_funding",), value)
                 for name in ("monopoly_mm.json", "two_mm_competition.json")
                 for value in (0, 1, 2)]


def _scalar_paths(node, path=()):
    """The path of every scalar in a JSON value: a leaf that is no object or array."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _scalar_paths(child, (*path, key))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _scalar_paths(child, (*path, i))
    else:
        yield path


PROBE_FIELDS = [pytest.param(name, path, id=f"{name[:-5]}:{'.'.join(map(str, path))}")
                for name in BUNDLED for path in _scalar_paths(load(name))]


#: a three-order book that clears at 102; every scalar of it takes each of
#: ``PROBE_VALUES`` in turn, under ``clear`` and ``clear --verify 102``
PROBE_BOOK = {"w_tight": "51/49", "orders": [
    {"oid": 0, "owner": "c-buy", "side": "buy", "size": 1100, "price": "mkt", "width": "121/100"},
    {"oid": 1, "owner": "c-sell", "side": "sell", "size": 10, "price": 100, "width": "any"},
    {"oid": 2, "owner": "mm", "side": "sell", "size": 20, "price": 102, "width": "any"}]}
PROBE_BOOK_FIELDS = [pytest.param(path, id=".".join(map(str, path)))
                     for path in _scalar_paths(PROBE_BOOK)]


def _probe(name, path, value):
    """Run ``name`` with the scalar at ``path`` set to ``value`` and at most
    ``PROBE_ROUNDS`` rounds (unless ``path`` is ``rounds`` itself)."""
    cfg = load(name)
    cfg["rounds"] = min(cfg["rounds"], PROBE_ROUNDS)
    _node(cfg, path[:-1])[path[-1]] = copy.deepcopy(value)
    return Runner(cfg).run()


class TestInputProbe:
    """ROADMAP item 11's probe: every input either runs or is refused as a
    configuration error.  ``Runner(cfg).run()`` returns a ``RunResult`` or
    raises ``ScenarioError``, and nothing else."""

    @pytest.mark.parametrize("name, path", PROBE_FIELDS)
    def test_every_value_runs_or_raises_scenario_error(self, name, path):
        # compared by repr, since True == 1
        crashes = {(n, p, repr(v)) for n, p, v in PROBE_CRASHES}
        wrong = []
        for value in PROBE_VALUES:
            if (name, path, repr(value)) in crashes:
                continue
            try:
                result = _probe(name, path, value)
            except ScenarioError:
                continue
            except Exception as exc:
                wrong.append((value, repr(exc)))
            else:
                if not isinstance(result, scenario.RunResult):
                    wrong.append((value, result))
        assert wrong == []

    @pytest.mark.xfail(strict=True, raises=InsufficientBalance,
                       reason="ROADMAP item 13: the bounty-unfunded guard reads the whole "
                              "protocol account, so the bounty is paid out of escrow and a "
                              "later escrow return raises out of Runner.run")
    @pytest.mark.parametrize("name, path, value", PROBE_CRASHES)
    def test_tiny_protocol_funding_runs(self, name, path, value):
        assert isinstance(_probe(name, path, value), scenario.RunResult)

    @pytest.mark.parametrize("path", PROBE_BOOK_FIELDS)
    def test_every_book_value_clears_or_exits_2(self, tmp_path, capsys, path):
        """``fairtradex clear`` and ``clear --verify`` exit 0 or 2 on every probed
        book file; any exception out of ``main`` fails the test."""
        p = tmp_path / "book.json"
        for value in PROBE_VALUES:
            book = copy.deepcopy(PROBE_BOOK)
            _node(book, path[:-1])[path[-1]] = copy.deepcopy(value)
            p.write_text(json.dumps(book))
            assert main(["clear", "--book", str(p)]) in (0, 2), value
            assert main(["clear", "--book", str(p), "--verify", "102"]) in (0, 2), value
        capsys.readouterr()

    def test_probe_book_clears_at_102(self, tmp_path, capsys):
        p = tmp_path / "book.json"
        p.write_text(json.dumps(PROBE_BOOK))
        assert main(["clear", "--book", str(p)]) == 0
        assert json.loads(capsys.readouterr().out)["cp"] == 102
        assert len(PROBE_BOOK_FIELDS) == 19

    def test_fields_cover_every_scalar_of_every_bundled_scenario(self):
        assert {row.values[0] for row in PROBE_FIELDS} == set(BUNDLED)
        assert len(PROBE_FIELDS) == 186


class TestConfigValidation:
    def test_bundled_configs_validate(self):
        for p in SCENARIOS.glob("*.json"):
            validate_config(json.loads(p.read_text()))

    def test_missing_q_not_names_the_field(self):
        cfg = load()
        del cfg["params"]["q_not"]
        with pytest.raises(ScenarioError, match="q_not"):
            Runner(cfg)

    def test_unknown_key_rejected(self):
        cfg = load()
        cfg["params"]["mystery"] = 1
        with pytest.raises(ScenarioError, match="mystery"):
            Runner(cfg)

    def test_duplicate_agent_id_rejected(self):
        cfg = load()
        cfg["agents"].append(copy.deepcopy(cfg["agents"][0]))
        with pytest.raises(ScenarioError, match="duplicate"):
            Runner(cfg)

    @pytest.mark.parametrize("mutate, field", MALFORMED)
    def test_malformed_config_names_the_field(self, tmp_path, capsys, mutate, field):
        cfg = mutate(load())
        with pytest.raises(ScenarioError, match=re.escape(field)):
            validate_config(cfg)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run", str(bad), "--outdir", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err


class TestSeedDerivation:
    def test_component_seeds_differ(self):
        assert derive_seed(1, "ordering") != derive_seed(1, "mifp")
        assert derive_seed(1, "ordering") != derive_seed(2, "ordering")
        assert derive_seed(1, "ordering") == derive_seed(1, "ordering")


class TestRunner:
    def test_conservation_check_raises_on_a_changed_supply(self):
        runner = Runner(load())
        runner._check_conservation()
        runner._check_conservation()
        runner.ledger.mint("c1", "A", 1)
        with pytest.raises(InvariantViolation, match="token conservation broken"):
            runner._check_conservation()

    def test_zero_rounds_completes_empty(self):
        cfg = load()
        cfg["rounds"] = 0
        res = Runner(cfg).run()
        assert res.settlements == [] and not res.stalled

    def test_width_one_tight_market_every_round(self):
        res = Runner(load()).run()
        assert res.rounds_completed == 3
        assert all(rep["w_tight"] == 1 for rep in res.settlements)
        assert all(rep["cp"] == 110 for rep in res.settlements)

    def test_notional_cap_keeps_client_flow_inside_the_tight_market(self):
        """Every client buys 2,000 A under ``q_not`` 3,000: one commit fits the
        cap, so the tight market's offer leg absorbs the flow and cp lies
        inside its quote.  Admitting a second commit cleared at 143."""
        cfg = load()
        cfg["rounds"] = 1
        cfg["params"]["q_not"] = 3000
        for agent in cfg["agents"]:
            if agent["role"] == "mm":
                agent["strategy"]["size_mult"] = 1
            elif agent["role"] == "client":
                agent["strategy"].update(side="buy", notional=2000)
        runner = Runner(cfg)
        res = runner.run()
        commits = [rec["effects"] for rec in res.trace if rec["kind"] == COMMIT_CLIENT]
        assert [eff["applied"] for eff in commits] == [True, False, False, False]
        assert {eff.get("reason") for eff in commits[1:]} == {"notional-cap"}
        cp = res.settlements[0]["cp"]
        for agent in runner.agents:
            if isinstance(agent, scenario.MMAgent):
                assert agent.market.bid <= cp <= agent.market.offer
        assert cp == 110

    def test_second_run_raises_and_keeps_the_first_result(self):
        runner = Runner(load())
        first = runner.run()
        kept = copy.deepcopy(first)
        with pytest.raises(RuntimeError, match="runs once"):
            runner.run()
        assert first == kept
        assert len(first.trace) == len(Runner(load()).run().trace)

    def test_deterministic_trace(self):
        a, b = Runner(load()).run(), Runner(load()).run()
        assert a.trace == b.trace
        assert a.settlements == b.settlements

    def test_different_seed_changes_flow(self):
        cfg2 = load()
        cfg2["seed"] = 43
        a, b = Runner(load()).run(), Runner(cfg2).run()
        assert a.trace != b.trace

    def test_adversarial_scenario_burns_and_blacklists(self):
        res = Runner(load("adversarial_ordering.json")).run()
        first = res.settlements[0]
        assert len(first["blacklisted"]) == 1
        reasons = {b["reason"] for b in first["burned"]}
        assert reasons == {"client-no-reveal", "mm-no-reveal"}

    @pytest.mark.parametrize("name", ["two_mm_competition.json",
                                      "monopoly_mm.json",
                                      "adversarial_ordering.json"])
    def test_liveness_settles_within_three_deadlines(self, name):
        cfg = load(name)
        runner = Runner(cfg)
        res = runner.run()
        assert not res.stalled
        t_eff = runner.params.t_eff
        settle_heights = [rec["height"] for rec in res.trace
                          if rec["kind"] == "CP" and rec["effects"].get("applied")]
        assert len(settle_heights) == cfg["rounds"]
        round_start = res.init_height
        for h in settle_heights:
            assert h <= round_start + 3 * t_eff, (name, h, round_start)
            round_start = h

    @pytest.mark.parametrize("name", ["two_mm_competition.json",
                                      "monopoly_mm.json",
                                      "adversarial_ordering.json"])
    def test_one_depth_view_per_round(self, name, monkeypatch):
        # the round's book is fixed at reveal close: the bounty hunter's
        # oracle, every proposal's verifier and settlement share its view
        built = []

        class CountedDepth(auction._Depth):
            def __init__(self, book):
                built.append(book)
                super().__init__(book)
        monkeypatch.setattr(auction, "_Depth", CountedDepth)
        cfg = load(name)
        res = Runner(cfg).run()
        assert res.rounds_completed == cfg["rounds"]
        assert len(built) == cfg["rounds"]

    def test_a_withdrawal_draws_no_direction(self):
        # a random-side client's direction moves the fair price, so only a
        # trading order may draw one
        cfg = load()
        cfg["agents"][C1]["strategy"] = {"order": "withdraw"}
        runner = Runner(cfg)
        draws, draw = [], runner.next_direction
        runner.next_direction = lambda: draws.append(draw()) or draws[-1]
        res = runner.run()
        reveals = [rec["effects"] for rec in res.trace if rec["kind"] == "CLIENT-REVEAL"]
        assert sum("withdrawn" in eff for eff in reveals) == 1
        assert len(draws) == sum("oid" in eff for eff in reveals) == 9

    @pytest.mark.parametrize("field, value", [
        ("ref", 10**400), ("width", 10**400), ("width", str(10**400)),
    ], ids=["int-ref", "int-width", "str-width"])
    def test_ten_to_the_400_quote_runs(self, field, value):
        # a 401-digit ref or width overflowed the float quote (exit 1)
        cfg = load()
        cfg["agents"][MM1]["strategy"][field] = value
        assert Runner(cfg).run().rounds_completed == cfg["rounds"]

    def test_n_psi_floor_warning(self):
        cfg = load()
        cfg["n_psi"] = 50  # more than the four bundled registrations
        res = Runner(cfg).run()
        assert any("n_psi" in w for w in res.warnings)
        cfg["n_psi"] = 2
        assert not Runner(cfg).run().warnings


class TestAgentTurns:
    """The Runner asks each agent once per phase: the registration window,
    then each phase of each round that a block is made in."""

    @staticmethod
    def record_turns(runner):
        """Each agent's (round, phase) per ``on_block`` call, and each block's."""
        turns = {agent.pid: [] for agent in runner.agents}
        for agent in runner.agents:
            def on_block(r, pid=agent.pid, act=agent.on_block):
                turns[pid].append((r.protocol.round, r.protocol.phase))
                return act(r)
            agent.on_block = on_block
        blocks, advance = [], runner.chain.advance_block

        def advance_block():
            blocks.append((runner.protocol.round, runner.protocol.phase))
            return advance()
        runner.chain.advance_block = advance_block
        return turns, blocks

    @pytest.mark.parametrize("policy", sorted(ORDERING_POLICIES))
    @pytest.mark.parametrize("name", BUNDLED)
    def test_one_turn_per_phase(self, name, policy):
        cfg = load_with_policy(name, policy)
        runner = Runner(cfg)
        turns, blocks = self.record_turns(runner)
        assert not runner.run().stalled
        phases = list(dict.fromkeys(blocks))
        assert phases[0] == (0, None)
        assert len(phases) == 1 + 3 * cfg["rounds"]
        for pid, seen in turns.items():
            assert seen == phases, pid

    def test_stalled_resolution_asks_the_hunter_once(self, monkeypatch):
        runner = Runner(stalled_config())
        turns, blocks = self.record_turns(runner)
        searches, search = [], scenario.find_clearing_price
        monkeypatch.setattr(scenario, "find_clearing_price",
                            lambda book: searches.append(book) or search(book))
        res = runner.run()
        stuck = (0, Phase.RESOLUTION)
        assert res.stalled and blocks.count(stuck) > 1
        assert turns["hunter"] == [(0, None), (0, Phase.COMMIT), (0, Phase.REVEAL), stuck]
        assert len(searches) == 1

    @pytest.mark.parametrize("policy", sorted(ORDERING_POLICIES))
    def test_unrevealed_commits_burn_and_blacklist(self, policy):
        # round 0: c2's serial is blacklisted, and c2's and mm2's escrows
        # burn; round 1: c2's serial stays blacklisted, so its commit is
        # dropped, and mm2 cannot afford another escrow
        res = Runner(load_with_policy("adversarial_ordering.json", policy)).run()
        assert [(len(rep["blacklisted"]), [(b["player"], b["reason"]) for b in rep["burned"]])
                for rep in res.settlements] == [
            (1, [(None, "client-no-reveal"), ("mm2", "mm-no-reveal")]), (0, [])]


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_run_writes_outputs(self, tmp_path):
        code = self.run_cli("run", str(TWO_MM), "--outdir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "trace.jsonl").exists()
        assert (tmp_path / "settlements.json").exists()
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("round,cp,volume_b")
        assert len(summary) == 4

    def test_run_byte_identical_across_runs(self, tmp_path):
        self.run_cli("run", str(TWO_MM), "--outdir", str(tmp_path / "a"))
        self.run_cli("run", str(TWO_MM), "--outdir", str(tmp_path / "b"))
        for name in ("trace.jsonl", "settlements.json", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("name", sorted(json.loads(GOLDEN_DIGESTS.read_text())))
    def test_bundled_scenario_outputs_match_golden_digests(self, tmp_path, name):
        """sha256 of each output, pinned across commits: a change that alters
        any output must update the fixture and say why.

        A key ``file.json:policy`` is the scenario run under that ordering
        policy; a bare file name is the scenario as bundled.
        """
        golden = json.loads(GOLDEN_DIGESTS.read_text())[name]
        bundled, _, policy = name.partition(":")
        path = SCENARIOS / bundled
        if policy:
            path = tmp_path / bundled
            path.write_text(json.dumps(load_with_policy(bundled, policy)))
        assert self.run_cli("run", str(path), "--outdir", str(tmp_path / "out")) == 0
        digests = {out: hashlib.sha256((tmp_path / "out" / out).read_bytes()).hexdigest()
                   for out in golden}
        assert digests == golden
        # the report's writer (the protocol) and its reader (check) agree
        assert self.run_cli("check", str(tmp_path / "out" / "settlements.json")) == 0

    def test_golden_digests_cover_every_ordering_policy(self):
        keys = set(json.loads(GOLDEN_DIGESTS.read_text()))
        expected = set()
        for path in SCENARIOS.glob("*.json"):
            bundled = load(path.name)["ordering_policy"]
            expected |= {path.name if policy == bundled else f"{path.name}:{policy}"
                         for policy in ORDERING_POLICIES}
        assert keys == expected

    def test_multi_seed_runs_in_subdirs(self, tmp_path):
        code = self.run_cli("run", str(TWO_MM), "--outdir", str(tmp_path),
                            "--seeds", "5,6", "--jobs", "2")
        assert code == 0
        for seed in (5, 6):
            assert (tmp_path / f"seed-{seed}" / "summary.csv").exists()
        # distinct seeds produce distinct traces
        a = (tmp_path / "seed-5" / "trace.jsonl").read_bytes()
        b = (tmp_path / "seed-6" / "trace.jsonl").read_bytes()
        assert a != b

    def test_run_stalled_exit_4(self, tmp_path, capsys):
        stall = tmp_path / "stall.json"
        stall.write_text(json.dumps(stalled_config()))
        assert self.run_cli("run", str(stall), "--outdir", str(tmp_path / "out")) == 4
        assert "warning: stalled after 0 of 3 rounds" in capsys.readouterr().err
        for name in ("trace.jsonl", "settlements.json", "summary.csv"):
            assert (tmp_path / "out" / name).exists()
        assert self.run_cli("run", str(stall), "--outdir", str(tmp_path / "seeds"),
                            "--seeds", "1,2") == 4

    def test_run_prints_each_warning(self, tmp_path, capsys):
        cfg = load()
        cfg["n_psi"] = 100
        path = tmp_path / "thin.json"
        path.write_text(json.dumps(cfg))
        assert self.run_cli("run", str(path), "--outdir", str(tmp_path / "out")) == 0
        assert ("warning: registrations (4) below the assumed anonymity floor n_psi=100"
                in capsys.readouterr().err)

    def test_run_invariant_violation_exit_3(self, tmp_path, capsys, monkeypatch):
        def broken(runner):
            raise InvariantViolation("token conservation broken: stand-in")
        monkeypatch.setattr(Runner, "_check_conservation", broken)
        assert self.run_cli("run", str(TWO_MM), "--outdir", str(tmp_path)) == 3
        assert ("invariant violation: token conservation broken: stand-in"
                in capsys.readouterr().err)

    def test_tight_market_leg_capped_to_zero_adds_no_order(self, tmp_path):
        # the quoter's escrow buys 0 B atoms at an offer near 66,000 ticks,
        # so its offer leg is empty; its bid leg still trades
        cfg = load("monopoly_mm.json")
        for agent in cfg["agents"]:
            if agent["id"] == "mm1":
                agent["strategy"]["ref"] = 60000
            elif agent["role"] == "client":
                agent["strategy"]["width_req"] = "3/2"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert self.run_cli("run", str(path), "--outdir", str(tmp_path / "out")) == 0
        settlements = tmp_path / "out" / "settlements.json"
        assert self.run_cli("check", str(settlements)) == 0
        reports = json.loads(settlements.read_text())
        # each round's legs take oids 2 and 3 after the clients' two: no oid moves
        assert [[(f["oid"], f["side"]) for f in rep["fills"] if f["owner"] == "mm1"]
                for rep in reports] == [[(2, "buy")], [(6, "buy")]]

    def test_zero_q_not_stalls_without_a_crash(self, tmp_path):
        # every quote leg sizes to 0 atoms, and the cap admits no client commit
        cfg = load()
        cfg["params"]["q_not"] = 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert self.run_cli("run", str(path), "--outdir", str(tmp_path / "out")) == 4

    def test_run_config_error_exit_2(self, tmp_path, capsys):
        cfg = load()
        del cfg["params"]["q_not"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert self.run_cli("run", str(bad), "--outdir", str(tmp_path)) == 2
        assert "q_not" in capsys.readouterr().err
        # the config is parsed once, before any seed's run starts
        assert self.run_cli("run", str(bad), "--outdir", str(tmp_path),
                            "--seeds", "1,2", "--jobs", "2") == 2
        assert "q_not" in capsys.readouterr().err
        assert not (tmp_path / "seed-1").exists()

    def test_run_over_long_integer_exit_2(self, tmp_path, capsys):
        # json.load raises a plain ValueError past Python's integer digit limit
        text = re.sub(r'"seed": \d+', '"seed": ' + "9" * 5000, TWO_MM.read_text(), count=1)
        assert text != TWO_MM.read_text()
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert self.run_cli("run", str(bad), "--outdir", str(tmp_path / "out")) == 2
        assert "cannot read config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", ["1,x", "1.5", "1,,2"])
    def test_run_non_integer_seeds_exit_2(self, tmp_path, capsys, seeds):
        with pytest.raises(SystemExit) as exc:
            self.run_cli("run", str(TWO_MM), "--outdir", str(tmp_path), "--seeds", seeds)
        assert exc.value.code == 2
        assert "error: argument --seeds" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_run_seed_out_of_range_exit_2(self, tmp_path, capsys, seed):
        assert self.run_cli("run", str(TWO_MM), "--outdir", str(tmp_path),
                            "--seeds", f"1,{seed}") == 2
        assert "error: config error at seed" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("agent, field, value", [
        ("mm1", "width", 0),
        ("mm1", "width", "1/0"),
        ("mm1", "width", "x"),
        ("mm1", "width", "1/2"),
        ("mm1", "ref", "abc"),
        ("mm1", "ref", 0),
        ("mm1", "ref", -5),
        ("c1", "width_req", "1/2"),
        ("c1", "order", "limit"),            # no limit_price
        # exponent notation: these parsed, then failed mid-run (exit 1) or took seconds to parse
        ("c1", "width_req", "1e5000"),
        ("c1", "width_req", "1.5E10000000"),
    ])
    def test_run_bad_strategy_exit_2(self, tmp_path, capsys, agent, field, value):
        cfg = load()
        next(a for a in cfg["agents"] if a["id"] == agent)["strategy"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert self.run_cli("run", str(bad), "--outdir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert repr(agent) in err and f"strategy.{field}" in err

    @pytest.mark.parametrize("agent, strategy, field", [
        ("mm1", {"notional": 5}, "notional"),           # a client key on a quoter
        ("mm1", {"width_req": "1/2"}, "width_req"),
        ("hunter", {"width": 3}, "width"),              # a quoter key on a bounty hunter
        ("relay1", {"reveal": False}, "reveal"),        # relayers have no strategy keys
        ("c1", {"size_mult": 2}, "size_mult"),
        ("c1", {"order": "silent", "side": "buy"}, "silent"),
        ("c1", {"order": "silent", "side": "sell"}, "silent"),
    ])
    def test_run_key_outside_role_exit_2(self, tmp_path, capsys, agent, strategy, field):
        cfg = load()
        next(a for a in cfg["agents"] if a["id"] == agent).setdefault("strategy", {}).update(strategy)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert self.run_cli("run", str(bad), "--outdir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert repr(agent) in err and field in err

    @pytest.mark.parametrize("order", [{"order": "mkt"}, {"order": "limit", "limit_price": 120}])
    def test_run_client_without_notional_exit_2(self, tmp_path, capsys, order):
        cfg = load()
        strategy = next(a for a in cfg["agents"] if a["id"] == "c1")["strategy"]
        del strategy["notional"]
        strategy.update(order)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert self.run_cli("run", str(bad), "--outdir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "'c1'" in err and "strategy.notional" in err

    def test_withdraw_client_needs_no_notional(self):
        cfg = load()
        strategy = next(a for a in cfg["agents"] if a["id"] == "c1")["strategy"]
        del strategy["notional"]
        strategy["order"] = "withdraw"
        assert not Runner(cfg).run().stalled

    def test_clear_golden_book(self, capsys):
        golden = Path(__file__).parent / "golden" / "clearing_fixture.json"
        doc = json.loads(golden.read_text())
        book_path = Path(__file__).parent / "golden" / "_book_tmp.json"
        book_path.write_text(json.dumps(doc["book"]))
        try:
            assert self.run_cli("clear", "--book", str(book_path)) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["cp"] == doc["settlement"]["cp"]
            assert out["fills"] == doc["settlement"]["fills"]
            assert self.run_cli("clear", "--book", str(book_path), "--verify",
                                str(doc["settlement"]["cp"])) == 0
            assert "valid" in capsys.readouterr().out
        finally:
            book_path.unlink()

    def test_clear_empty_book(self, tmp_path, capsys):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"w_tight": "any", "orders": []}))
        assert self.run_cli("clear", "--book", str(p)) == 0
        assert "no crossable liquidity" in capsys.readouterr().out

    def test_clear_malformed_book_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert self.run_cli("clear", "--book", str(p)) == 2

    @pytest.mark.parametrize("mutate, field", [
        (_set("orders", 0, "size", value=100.9), "size"),
        (_set("orders", 0, "size", value="100"), "size"),
        (_set("orders", 0, "size", value=True), "size"),
        # would be oid 1, which the book already has
        (_set("orders", 0, "oid", value=True), "oid"),
        (_set("orders", 0, "oid", value=1.0), "oid"),
        # the book's second order has oid 2
        (_set("orders", 0, "oid", value=2), "oid"),
        (_set("orders", 0, "oid", value=None), "oid"),
        (_set("orders", 0, "side", value="both"), "side"),
        (_set("orders", 0, "price", value=98.5), "price"),
        # a withdrawal is a reveal, never an order: this used to clear with exit 0
        (_set("orders", 0, "price", value="withdraw"), "not a price: 'withdraw'"),
        # a width below 1 used to clear with exit 0
        (_set("w_tight", value="1/2"), "w_tight"),
        (_set("w_tight", value=0), "w_tight"),
        (_set("w_tight", value="-3"), "w_tight"),
        # exponent notation used to clear with exit 0
        (_set("w_tight", value="1e5000"), "w_tight"),
        # these four used to crash with a traceback (exit 1) or clear
        (lambda book: [], "<root>"),
        (_set("orders", value=5), "orders"),
        (_set("orders", 0, value=5), "orders.0"),
        (_set("orders", 0, "owner", value=7), "owner"),
    ], ids=["float-size", "string-size", "bool-size", "bool-oid", "float-oid",
            "duplicate-oid", "null-oid", "bad-side", "float-price", "withdraw-price",
            "half-w_tight", "zero-w_tight", "negative-w_tight", "exponent-w_tight",
            "root-not-object", "orders-not-list", "order-not-object", "int-owner"])
    def test_clear_malformed_book_names_the_field(self, tmp_path, capsys, mutate, field):
        book = mutate(json.loads(GOLDEN_BOOK.read_text())["book"])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(book))
        assert self.run_cli("clear", "--book", str(p)) == 2
        assert field in capsys.readouterr().err

    def test_costs_default_matrix(self, capsys):
        assert self.run_cli("costs") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "order,FairTraDEX,Uniswap,DirectionRevealing,IdentityRevealing"
        cells = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
        assert cells["P1-10000000"][1] == "150000"
        assert all(row[0] == "0" for row in cells.values())

    @pytest.mark.parametrize("flag, value", [
        ("--slippage", "nan"), ("--impact", "inf"), ("--slippage", "-inf"),
        ("--impact", "-0.5"), ("--slippage", "-1e-9"), ("--impact", "x"),
        ("--impact", "1e308"), ("--slippage", "1.5")])
    def test_costs_bad_fraction_exit_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            self.run_cli("costs", flag, value)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert not out and f"error: argument {flag}" in err

    def test_costs_whole_notional(self, capsys):
        assert self.run_cli("costs", "--impact", "1", "--slippage", "0") == 0
        rows = [row.split(",") for row in capsys.readouterr().out.strip().splitlines()[1:]]
        assert all(row[2] == row[0].split("-")[1] for row in rows)

    def test_costs_zeroed(self, capsys):
        assert self.run_cli("costs", "--impact", "0", "--slippage", "0") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for row in lines[1:]:
            assert all(v == "0" for v in row.split(",")[1:])

    def test_check_validates_real_report(self, tmp_path, capsys):
        self.run_cli("run", str(TWO_MM), "--outdir", str(tmp_path))
        assert self.run_cli("check", str(tmp_path / "settlements.json")) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_rejects_tampered_report(self, tmp_path):
        self.run_cli("run", str(TWO_MM), "--outdir", str(tmp_path))
        reports = json.loads((tmp_path / "settlements.json").read_text())
        reports[0]["fills"][0]["executed"] += 1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(reports))
        assert self.run_cli("check", str(tampered)) == 3

    @staticmethod
    def golden_settlement():
        """The golden book cleared and settled, plus its one-round report."""
        book, _ = filter_by_width(book_from_json(json.loads(GOLDEN_BOOK.read_text())["book"]))
        res = settle(book, find_clearing_price(book).cp)
        fills = [{"oid": f.oid, "owner": f.order.owner, "side": f.order.side,
                  "price": price_to_json(f.order.price), "size": f.order.size,
                  "executed": f.executed, "received": f.received, "refunded": f.refunded,
                  "width_removed": False} for f in res.fills]
        report = {"round": 0, "cp": res.cp, "volume_b": res.volume_settled_b, "fills": fills}
        return book, res, report

    def check_exit_code(self, tmp_path, reports):
        path = tmp_path / "settlements.json"
        path.write_text(json.dumps(reports))
        return self.run_cli("check", str(path))

    @pytest.mark.parametrize("side, field", [(side, field) for side in ("buy", "sell")
                                             for field in ("executed", "received", "refunded")]
                             + [(None, "volume_b")])
    def test_both_checkers_flag_tampering(self, tmp_path, side, field):
        book, res, report = self.golden_settlement()
        validate_clearing_result(book, res)
        assert self.check_exit_code(tmp_path, [report]) == 0
        if side is None:
            res = dataclasses.replace(res, volume_settled_b=res.volume_settled_b + 1)
            report["volume_b"] += 1
        else:
            i = next(i for i, f in enumerate(report["fills"]) if f["side"] == side)
            fills = list(res.fills)
            fills[i] = fills[i]._replace(**{field: getattr(fills[i], field) + 1})
            res = dataclasses.replace(res, fills=tuple(fills))
            report["fills"][i][field] += 1
        with pytest.raises(AssertionError):
            validate_clearing_result(book, res)
        assert self.check_exit_code(tmp_path, [report]) == 3

    @pytest.mark.parametrize("tamper", [
        lambda reps: reps[0]["fills"][0].update(executed=str(reps[0]["fills"][0]["executed"])),
        lambda reps: reps[0].update(cp=None),
        lambda reps: reps.append(["not", "an", "object"]),
        lambda reps: reps[0]["fills"][-1].update(side="bogus"),
        lambda reps: reps[0]["fills"][0].update(price="x"),
        lambda reps: reps[0]["fills"][0].update(oid="3"),
        lambda reps: reps[0]["fills"][0].update(owner=5),
        lambda reps: reps[0]["fills"][0].pop("price"),
        lambda reps: reps[0]["fills"].__setitem__(0, 5),
        lambda reps: reps[0]["fills"][0].update(price="withdraw"),
    ], ids=["string-amount", "null-cp", "non-object-entry", "unknown-side",
            "string-price", "string-oid", "non-string-owner", "missing-price",
            "non-object-fill", "withdraw-price"])
    def test_check_malformed_report_exit_2(self, tmp_path, capsys, tamper):
        reports = [self.golden_settlement()[2]]
        tamper(reports)
        assert self.check_exit_code(tmp_path, reports) == 2
        assert "malformed report" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{}, {"round": 0, "cp": 1, "volume_b": 0, "fills": []}])
    def test_check_report_not_a_list_exit_2(self, tmp_path, capsys, doc):
        assert self.check_exit_code(tmp_path, doc) == 2
        assert "settlement report must be a JSON list" in capsys.readouterr().err

    def test_check_width_removed_row_must_refund_in_full(self, tmp_path, capsys):
        """A width-removed row stays out of the conservation sums and must
        refund its whole size."""
        report = self.golden_settlement()[2]
        removed = {"oid": 99, "owner": "w", "side": "buy", "price": "mkt", "size": 5,
                   "executed": 0, "received": 0, "refunded": 5, "width_removed": True}
        report["fills"].append(removed)
        assert self.check_exit_code(tmp_path, [report]) == 0
        removed.update(executed=1, refunded=4)
        assert self.check_exit_code(tmp_path, [report]) == 3
        assert "round 0 oid 99: bad width-removed refund" in capsys.readouterr().err

    @staticmethod
    def python(*args):
        """A fresh interpreter that imports this checkout's package."""
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})

    def test_modules_import_without_jsonschema(self):
        code = ("import fairtradex.cli, fairtradex.scenario, fairtradex.analysis; import sys; "
                "assert 'jsonschema' not in sys.modules")
        proc = self.python("-c", code)
        assert proc.returncode == 0, proc.stderr

    def test_commands_run_without_numpy_or_a_process_pool(self, tmp_path):
        """With numpy made unimportable, every command runs, and so do the
        closed form and both best-response checks; none starts a pool."""
        code = textwrap.dedent("""\
            import sys
            sys.modules["numpy"] = None  # any numpy import now raises ImportError
            import fairtradex.cli, fairtradex.scenario, fairtradex.analysis
            from fractions import Fraction
            from fairtradex.analysis import (ClientProfile, MMProfile, StrategyProfile,
                                             best_response_check, mm_expected_profit,
                                             p_ref_argmax, p_ref_grid)
            scenario, book, out = sys.argv[1:]
            codes = [fairtradex.cli.main(argv) for argv in (
                ["run", scenario, "--outdir", out], ["clear", "--book", book],
                ["check", f"{out}/settlements.json"], ["costs"])]
            assert codes == [0, 0, 0, 0], codes
            assert "concurrent.futures.process" not in sys.modules
            assert mm_expected_profit(1.0, 110.0, 110.0, 1.0, 1.0) == 0.0
            grid = p_ref_grid(110.0)
            assert len(grid) == 1501 and p_ref_argmax(1.0, 110.0, 1.21, 1.0) == grid[500]
            f_mcf = Fraction(121, 100)
            monopoly = StrategyProfile(ClientProfile(order_type="mkt", width_req=f_mcf),
                                       MMProfile(width=f_mcf))
            assert best_response_check(monopoly, n_mms=1).confirmed
            competitive = StrategyProfile(ClientProfile(order_type="mkt", width_req=f_mcf),
                                          MMProfile(width=Fraction(1)))
            assert best_response_check(competitive, n_mms=2, paths=200).confirmed
        """)
        book = tmp_path / "book.json"
        book.write_text(json.dumps(json.loads(GOLDEN_BOOK.read_text())["book"]))
        proc = self.python("-c", code, str(TWO_MM), str(book), str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr

    def test_best_response_never_loads_numpy_and_keeps_archived_verdicts(self):
        """Neither the one-quoter check nor the two-quoter Monte Carlo check
        loads numpy, and the two-quoter check repeats the archived verdicts."""
        code = textwrap.dedent("""\
            import json, sys
            from fractions import Fraction
            from fairtradex.analysis import (ClientProfile, MMProfile, StrategyProfile,
                                             best_response_check)
            f_mcf = Fraction(121, 100)
            best_response_check(StrategyProfile(ClientProfile(order_type="mkt", width_req=f_mcf),
                                                MMProfile(width=f_mcf)), n_mms=1)
            assert "numpy" not in sys.modules
            rep = best_response_check(
                StrategyProfile(ClientProfile(order_type="mkt", width_req=f_mcf),
                                MMProfile(width=Fraction(1))),
                n_mms=2, paths=10_000, seed=20_240_006)
            with open(sys.argv[1]) as fh:
                archived = json.load(fh)["deviations"]
            assert ([(e.player, e.label, e.improves) for e in rep.entries]
                    == [(d["player"], d["label"], d["improves"]) for d in archived])
            assert "numpy" not in sys.modules
        """)
        proc = self.python("-c", code, str(REPORTS / "best_response_n2.json"))
        assert proc.returncode == 0, proc.stderr

    def test_console_entry_point(self):
        proc = self.python("-m", "fairtradex.cli", "costs")
        assert proc.returncode == 0 and "FairTraDEX" in proc.stdout
