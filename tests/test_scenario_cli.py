import copy
import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fairtradex import auction
from fairtradex.auction import (filter_by_width, find_clearing_price, settle,
                                validate_clearing_result)
from fairtradex.cli import main
from fairtradex.scenario import Runner, ScenarioError, derive_seed, validate_config
from fairtradex.serialize import book_from_json

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TWO_MM = SCENARIOS / "two_mm_competition.json"
GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "scenario_digests.json"
GOLDEN_BOOK = Path(__file__).parent / "golden" / "clearing_fixture.json"


def load(name="two_mm_competition.json"):
    return json.loads((SCENARIOS / name).read_text())


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


class TestSeedDerivation:
    def test_component_seeds_differ(self):
        assert derive_seed(1, "ordering") != derive_seed(1, "mifp")
        assert derive_seed(1, "ordering") != derive_seed(2, "ordering")
        assert derive_seed(1, "ordering") == derive_seed(1, "ordering")


class TestRunner:
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

    def test_n_psi_floor_warning(self):
        cfg = load()
        cfg["n_psi"] = 50  # more than the four bundled registrations
        res = Runner(cfg).run()
        assert any("n_psi" in w for w in res.warnings)
        cfg["n_psi"] = 2
        assert not Runner(cfg).run().warnings


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
        any output must update the fixture and say why."""
        golden = json.loads(GOLDEN_DIGESTS.read_text())[name]
        assert self.run_cli("run", str(SCENARIOS / name), "--outdir", str(tmp_path)) == 0
        digests = {out: hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
                   for out in golden}
        assert digests == golden

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
        # no quoter commits and every client buys: no price trades, so no
        # round closes
        cfg = load()
        for agent in cfg["agents"]:
            if agent["role"] == "mm":
                agent["strategy"]["commit"] = False
            elif agent["role"] == "client":
                agent["strategy"]["side"] = "buy"
        stall = tmp_path / "stall.json"
        stall.write_text(json.dumps(cfg))
        assert self.run_cli("run", str(stall), "--outdir", str(tmp_path / "out")) == 4
        assert "warning: stalled after 0 of 3 rounds" in capsys.readouterr().err
        for name in ("trace.jsonl", "settlements.json", "summary.csv"):
            assert (tmp_path / "out" / name).exists()
        assert self.run_cli("run", str(stall), "--outdir", str(tmp_path / "seeds"),
                            "--seeds", "1,2") == 4

    def test_run_config_error_exit_2(self, tmp_path, capsys):
        cfg = load()
        del cfg["params"]["q_not"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert self.run_cli("run", str(bad), "--outdir", str(tmp_path)) == 2
        assert "q_not" in capsys.readouterr().err

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

    def test_costs_default_matrix(self, capsys):
        assert self.run_cli("costs") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "order,FairTraDEX,Uniswap,DirectionRevealing,IdentityRevealing"
        cells = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
        assert cells["P1-10000000"][1] == "150000"
        assert all(row[0] == "0" for row in cells.values())

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
        orders = {o.oid: o for o in (*book.buy_orders, *book.sell_orders)}
        fills = [{"oid": f.oid, "side": orders[f.oid].side, "size": orders[f.oid].size,
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
            fills[i] = dataclasses.replace(fills[i], **{field: getattr(fills[i], field) + 1})
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
    ], ids=["string-amount", "null-cp", "non-object-entry", "unknown-side"])
    def test_check_malformed_report_exit_2(self, tmp_path, capsys, tamper):
        reports = [self.golden_settlement()[2]]
        tamper(reports)
        assert self.check_exit_code(tmp_path, reports) == 2
        assert "malformed report" in capsys.readouterr().err

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "fairtradex.cli", "costs"],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and "FairTraDEX" in proc.stdout
