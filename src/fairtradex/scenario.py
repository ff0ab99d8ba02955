"""Scenario runner: wire chain + protocol + agents from a JSON config.

A scenario is deterministic in (config, seed): every random draw flows from
the scenario seed through a documented per-component derivation
(``derive_seed``), agents act in config order at the top of every block,
and the chain's ordering policy is the only adversarial degree of freedom.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Any, Optional

import jsonschema

# filter_by_width is unused here; perfbench/tracer.py wraps it in this module
from .auction import filter_by_width, find_clearing_price
from .chain import (CLIENT_REGISTER, CLIENT_REVEAL, COMMIT_CLIENT, COMMIT_MM,
                    CP, MM_REVEAL, ORDERING_POLICIES, RELAYED, Chain,
                    ExecutedTx, InvalidProof, Tx)
from .ledger import PROTOCOL_ACCOUNT, Ledger
from .membership import gen_secret, h, prove_membership, reg_id, serialize_proof
from .protocol import (ClientCommitPayload, ClientRevealPayload, CpPayload,
                       MMCommitPayload, MMRevealPayload, Phase, Protocol,
                       RegisterPayload, client_commitment, mm_commitment)
from .serialize import (dumps_canonical, fraction_from_json, price_to_json,
                        width_to_json)
from .units import (MKT, TOKEN_A, TOKEN_B, TOKEN_REF, WITHDRAW, Market,
                    ProtocolParams, quote)


class ScenarioError(Exception):
    """Bad configuration (CLI exit code 2)."""


class InvariantViolation(Exception):
    """A runtime invariant broke mid-scenario (CLI exit code 3)."""


def derive_seed(seed: int, component: str) -> int:
    """Per-component 64-bit seed: first 8 bytes of h(seed || component)."""
    return int.from_bytes(h(seed.to_bytes(8, "big"), component.encode())[:8], "big")


_RATIONAL = {"type": ["integer", "string"]}
_BOOL = {"type": "boolean"}
_FUNDING = {
    "type": "object",
    "additionalProperties": False,
    "properties": {t: {"type": "integer", "minimum": 0} for t in (TOKEN_REF, TOKEN_A, TOKEN_B)},
}


def _strategy(**properties: dict) -> jsonschema.Draft202012Validator:
    return jsonschema.Draft202012Validator(
        {"type": "object", "additionalProperties": False, "properties": properties})


#: each role's strategy schema accepts exactly the keys its agent reads
_STRATEGIES = {
    "client": _strategy(
        order={"enum": ["mkt", "limit", "withdraw"]},
        side={"enum": ["buy", "sell", "random"]},
        notional={"type": "integer", "minimum": 1},
        width_req=_RATIONAL,
        limit_price={"type": "integer", "minimum": 1},
        commit=_BOOL, reveal=_BOOL, re_register=_BOOL),
    "mm": _strategy(width=_RATIONAL, ref={"type": ["integer", "string"]},
                    size_mult={"type": "integer", "minimum": 1},
                    commit=_BOOL, reveal=_BOOL),
    "relayer": _strategy(),
    "bounty_hunter": _strategy(invalid_first=_BOOL),
}

SCENARIO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["seed", "rounds", "params", "mifp", "agents"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "rounds": {"type": "integer", "minimum": 0},
        "ordering_policy": {"enum": sorted(ORDERING_POLICIES)},
        "protocol_funding": {"type": "integer", "minimum": 0},
        # assumed anonymity-set floor; recorded, never computed
        "n_psi": {"type": "integer", "minimum": 0},
        "params": {
            "type": "object",
            "additionalProperties": False,
            "required": ["e_client", "e_mm", "q_not", "f_r", "res_bounty", "p_a", "t_blocks"],
            "properties": {
                "e_client": {"type": "integer", "minimum": 0},
                "e_mm": {"type": "integer", "minimum": 0},
                "q_not": {"type": "integer", "minimum": 0},
                "f_r": {"type": "integer", "minimum": 0},
                "res_bounty": {"type": "integer", "minimum": 0},
                "p_a": _RATIONAL,
                "t_blocks": {"type": "integer", "minimum": 1},
                "alpha": _RATIONAL,
            },
        },
        "mifp": {
            "type": "object",
            "additionalProperties": False,
            "required": ["y0"],
            "properties": {
                "y0": {"type": "integer", "minimum": 1},
                "delta": _RATIONAL,
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "agents": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["id", "role"],
                "properties": {
                    "id": {"type": "string", "minLength": 1},
                    "role": {"enum": list(_STRATEGIES)},
                    "funding": _FUNDING,
                    # checked against the role's schema in validate_config
                    "strategy": {"type": "object"},
                },
            },
        },
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trace": {"type": "string"},
                "settlements": {"type": "string"},
                "summary": {"type": "string"},
            },
        },
    },
}


def validate_config(config: dict) -> None:
    try:
        jsonschema.validate(config, SCENARIO_SCHEMA)
    except jsonschema.ValidationError as e:
        path = ".".join(str(p) for p in e.absolute_path) or "<root>"
        raise ScenarioError(f"config error at {path}: {e.message}") from None
    for agent in config["agents"]:
        error = jsonschema.exceptions.best_match(
            _STRATEGIES[agent["role"]].iter_errors(agent.get("strategy", {})))
        if error is not None:
            field = ".".join(["strategy", *map(str, error.absolute_path)])
            raise ScenarioError(f"config error in agent {agent['id']!r} {field}: {error.message}")


def _params_from_config(d: dict) -> ProtocolParams:
    try:
        return ProtocolParams(
            e_client=d["e_client"], e_mm=d["e_mm"], q_not=d["q_not"],
            f_r=d["f_r"], res_bounty=d["res_bounty"],
            p_a=fraction_from_json(d["p_a"]), t_blocks=d["t_blocks"],
            alpha=fraction_from_json(d.get("alpha", 0)),
        )
    except (ValueError, KeyError) as e:
        raise ScenarioError(f"config error in params: {e}") from None


def _rational_at_least_one(value: Any, where: str) -> Fraction:
    """Parse a rational config value that must be >= 1 (a width or a delta)."""
    try:
        r = fraction_from_json(value)
    except ValueError as e:
        raise ScenarioError(f"config error in {where}: {e}") from None
    if r < 1:
        raise ScenarioError(f"config error in {where}: must be >= 1, got {r}")
    return r


def payload_to_json(payload: Any) -> Any:
    """Deterministic JSON form of a tx payload (bytes fields hex-encoded)."""
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
    if isinstance(payload, CpPayload):
        return {"cp": payload.cp, "volume_a": payload.volume_a,
                "imbalance_a": payload.imbalance_a}
    return {"repr": repr(payload)}


class ClientAgent:
    def __init__(self, pid: str, strategy: dict, rounds: int, seed: int):
        self.pid = pid
        self.rounds = rounds
        self.seed = seed  # the scenario seed; every secret derives from it
        self.order_kind = strategy.get("order", "mkt")
        self.side = strategy.get("side", "random")
        self.notional = strategy.get("notional")
        if self.order_kind != "withdraw" and self.notional is None:
            raise ScenarioError(f"config error in agent {pid!r} strategy.notional: "
                                f"a {self.order_kind} order needs notional")
        self.width_req = _rational_at_least_one(
            strategy.get("width_req", "121/100"), f"agent {pid!r} strategy.width_req")
        self.limit_price = strategy.get("limit_price")
        if self.order_kind == "limit" and self.limit_price is None:
            raise ScenarioError(f"config error in agent {pid!r} strategy.order: "
                                f"a limit order needs limit_price")
        self.commit = strategy.get("commit", True)
        self.reveal = strategy.get("reveal", True)
        self.re_register = strategy.get("re_register", rounds > 1)
        self.secret = None
        self.committed_round = -1
        self.revealed_round = -1
        self.order: Optional[tuple] = None  # (tkn, size, price, width)
        self._secret_counter = 0

    def _fresh_secret(self):
        self._secret_counter += 1
        return gen_secret(derive_seed(self.seed, f"client:{self.pid}:{self._secret_counter}"))

    def plan_registration(self) -> Tx:
        self.secret = self._fresh_secret()
        return Tx(kind=CLIENT_REGISTER, payload=RegisterPayload(reg_id(self.secret)),
                  sender=self.pid)

    def _sized_order(self, runner: "Runner", params: ProtocolParams):
        side = self.side
        if side == "random":
            side = "buy" if runner.next_direction() > 0 else "sell"
        price = MKT if self.order_kind == "mkt" else self.limit_price
        if self.order_kind == "withdraw":
            price = WITHDRAW
            return (TOKEN_A, 1, price, self.width_req)
        if side == "buy":
            size = int(Fraction(self.notional) / params.p_a)
            return (TOKEN_A, size, price, self.width_req)
        hint = runner.current_y() if price is MKT else price
        size = int(Fraction(self.notional) / (params.p_a * hint))
        return (TOKEN_B, size, price, self.width_req)

    def on_block(self, runner: "Runner") -> list[tuple[str, Tx]]:
        proto = runner.protocol
        rnd = proto.round
        if proto.phase is Phase.COMMIT and self.commit and self.committed_round < rnd:
            if reg_id(self.secret) not in proto.clients:
                return []  # registration not confirmed yet
            self.order = self._sized_order(runner, proto.params)
            tkn, size, price, width = self.order
            com = client_commitment(tkn, size, price, width)
            proof = prove_membership(self.secret, proto.clients, com)
            tx = Tx(kind=COMMIT_CLIENT, sender=RELAYED,
                    payload=ClientCommitPayload(com=com, serial=self.secret.s, proof=proof))
            self.committed_round = rnd
            return [("relay", tx)]
        if (proto.phase is Phase.REVEAL and self.reveal
                and self.committed_round == rnd and self.revealed_round < rnd):
            tkn, size, price, width = self.order
            stay = self.re_register and rnd + 1 < self.rounds
            new_token = None
            if stay:
                next_secret = self._fresh_secret()
                new_token = reg_id(next_secret)
            tx = Tx(kind=CLIENT_REVEAL, sender=self.pid,
                    payload=ClientRevealPayload(
                        tkn=tkn, size=size, price=price, width=width,
                        serial=self.secret.s, randomness=self.secret.r,
                        reg_id=reg_id(self.secret), reg_token_new=new_token))
            self.revealed_round = rnd
            if stay:
                self.secret = next_secret
            return [("submit", tx)]
        return []


class MMAgent:
    def __init__(self, pid: str, strategy: dict):
        self.pid = pid
        self.width = _rational_at_least_one(strategy.get("width", 1),
                                            f"agent {pid!r} strategy.width")
        self.ref = strategy.get("ref", "mifp")
        if self.ref != "mifp" and not (isinstance(self.ref, int) and self.ref >= 1):
            raise ScenarioError(f"config error in agent {pid!r} strategy.ref: "
                                f"expected \"mifp\" or a tick count >= 1, got {self.ref!r}")
        self.size_mult = strategy.get("size_mult", 2)
        self.commit = strategy.get("commit", True)
        self.reveal = strategy.get("reveal", True)
        self.committed_round = -1
        self.revealed_round = -1
        self.market: Optional[Market] = None

    def _make_market(self, runner: "Runner", params: ProtocolParams) -> Market:
        bid, offer = quote(runner.current_y() if self.ref == "mifp" else self.ref, self.width)
        min_bid = ceil(Fraction(params.q_not) / params.p_a)
        min_offer = ceil(Fraction(params.q_not) / (params.p_a * offer))
        return Market(bid=bid, size_bid=self.size_mult * min_bid,
                      offer=offer, size_offer=self.size_mult * min_offer)

    def on_block(self, runner: "Runner") -> list[tuple[str, Tx]]:
        proto = runner.protocol
        rnd = proto.round
        if proto.phase is Phase.COMMIT and self.commit and self.committed_round < rnd:
            self.market = self._make_market(runner, proto.params)
            tx = Tx(kind=COMMIT_MM, sender=self.pid,
                    payload=MMCommitPayload(mm_commitment(self.market)))
            self.committed_round = rnd
            return [("submit", tx)]
        if (proto.phase is Phase.REVEAL and self.reveal
                and self.committed_round == rnd and self.revealed_round < rnd):
            tx = Tx(kind=MM_REVEAL, sender=self.pid,
                    payload=MMRevealPayload(self.market))
            self.revealed_round = rnd
            return [("submit", tx)]
        return []


class BountyHunterAgent:
    def __init__(self, pid: str, strategy: dict):
        self.pid = pid
        self.invalid_first = strategy.get("invalid_first", False)
        self.attempted_round = -1

    def on_block(self, runner: "Runner") -> list[tuple[str, Tx]]:
        proto = runner.protocol
        if proto.phase is not Phase.RESOLUTION or self.attempted_round >= proto.round:
            return []
        cand = find_clearing_price(proto.book)
        if cand is None:
            return []
        self.attempted_round = proto.round
        out = []
        if self.invalid_first:
            # a doomed proposal first, in the same block, to forfeit a deposit
            bogus = CpPayload(cp=cand.cp, volume_a=cand.volume_a + 1,
                              imbalance_a=cand.imbalance_a)
            out.append(("submit", Tx(kind=CP, sender=self.pid, payload=bogus)))
        payload = CpPayload(cp=cand.cp, volume_a=cand.volume_a,
                            imbalance_a=cand.imbalance_a)
        out.append(("submit", Tx(kind=CP, sender=self.pid, payload=payload)))
        return out


@dataclass
class RunResult:
    trace: list[dict]
    settlements: list[dict]
    summary_rows: list[list]
    rounds_completed: int
    stalled: bool
    init_height: int = 0
    warnings: tuple[str, ...] = ()


SUMMARY_HEADER = ["round", "cp", "volume_b", "imbalance_a", "w_tight",
                  "fills", "burn_events", "blacklisted", "bounty_winner"]


class Runner:
    def __init__(self, config: dict):
        validate_config(config)
        self.config = config
        self.seed = config["seed"]
        self.rounds = config["rounds"]
        self.params = _params_from_config(config["params"])

        self.ledger = Ledger()
        policy = ORDERING_POLICIES[config.get("ordering_policy", "identity")]
        self.chain = Chain(t_eff=self.params.t_eff, policy=policy,
                           seed=derive_seed(self.seed, "ordering"))
        self.protocol = Protocol(self.params, self.ledger)

        mifp = config["mifp"]
        self._y0 = mifp["y0"]
        self._mifp_delta = _rational_at_least_one(mifp.get("delta", 1), "mifp.delta")
        self._net_buys = 0
        self._direction_rng = random.Random(
            derive_seed(mifp.get("seed", derive_seed(self.seed, "mifp")), "directions"))

        self.clients: list[ClientAgent] = []
        self.agents: list = []
        seen = set()
        for spec in config["agents"]:
            pid = spec["id"]
            if pid in seen:
                raise ScenarioError(f"config error in agents: duplicate id {pid!r}")
            seen.add(pid)
            for tkn, amt in spec.get("funding", {}).items():
                self.ledger.mint(pid, tkn, amt)
            strategy = spec.get("strategy", {})
            if spec["role"] == "client":
                agent = ClientAgent(pid, strategy, self.rounds, self.seed)
                self.clients.append(agent)
                self.agents.append(agent)
            elif spec["role"] == "mm":
                self.agents.append(MMAgent(pid, strategy))
            elif spec["role"] == "bounty_hunter":
                self.agents.append(BountyHunterAgent(pid, strategy))
            else:
                self.chain.register_relayer(pid)
        self.ledger.mint(PROTOCOL_ACCOUNT, TOKEN_REF, config.get("protocol_funding", 0))

        self.trace: list[dict] = []
        self._initial_supplies = None

    # -- mifp ---------------------------------------------------------------

    def current_y(self) -> int:
        y = self._y0 * self._mifp_delta ** self._net_buys
        return max(1, round(y))

    def next_direction(self) -> int:
        # impact applies as order flow arrives: each drawn direction moves
        # the fair price by delta (or 1/delta) for everyone who quotes later
        d = self._direction_rng.choice((1, -1))
        self._net_buys += 1 if d > 0 else -1
        return d

    # -- block loop -----------------------------------------------------------

    def _record(self, etx: ExecutedTx, effects: dict) -> None:
        digest = h(dumps_canonical(payload_to_json(etx.tx.payload)).encode()).hex()[:16]
        self.trace.append({
            "height": etx.height, "seq": etx.seq, "kind": etx.tx.kind,
            "sender": etx.tx.sender, "relayer": etx.relayer,
            "digest": digest, "effects": effects,
        })

    def _step_block(self) -> None:
        for agent in self.agents:
            for channel, tx in agent.on_block(self):
                if channel == "relay":
                    try:
                        self.chain.relay(tx, self.protocol.commit_looks_valid)
                    except InvalidProof:
                        pass  # relayers silently drop it
                else:
                    self.chain.submit(tx)
        for etx in self.chain.advance_block():
            effects = self.protocol.handle(etx)
            self._record(etx, effects)
        if self.protocol.phase is not None:
            events = self.protocol.on_block_end(self.chain.height)
            for ev in events:
                self.trace.append({"height": self.chain.height, "seq": None,
                                   "kind": ev, "sender": None, "relayer": None,
                                   "digest": "", "effects": {}})
        self._check_conservation()

    def _check_conservation(self) -> None:
        supplies = self.ledger.supplies()
        if self._initial_supplies is None:
            self._initial_supplies = supplies
        elif supplies != self._initial_supplies:
            raise InvariantViolation(
                f"token conservation broken: {supplies} != {self._initial_supplies}")

    def run(self) -> RunResult:
        # registration window: queue all registrations, then let them land;
        # every agent stays silent while protocol.phase is None
        for agent in self.clients:
            self.chain.submit(agent.plan_registration())
        while self.chain.pending:
            self._step_block()
        self.protocol.initialise(self.chain.height)
        init_height = self.chain.height

        warnings = []
        n_psi = self.config.get("n_psi", 0)
        if len(self.protocol.clients) < n_psi:
            warnings.append(f"registrations ({len(self.protocol.clients)}) below "
                            f"the assumed anonymity floor n_psi={n_psi}")

        if self.rounds > 0:
            budget = self.rounds * (3 * self.params.t_eff + 4) + 4 * self.params.t_eff
            for _ in range(budget):
                self._step_block()
                if self.protocol.round >= self.rounds:
                    break
        stalled = self.protocol.round < self.rounds

        summary_rows = []
        for rep in self.protocol.settlements:
            summary_rows.append([
                rep["round"], rep["cp"], rep["volume_b"], rep["imbalance_a"],
                rep["w_tight"], len(rep["fills"]), len(rep["burned"]),
                len(rep["blacklisted"]), rep["bounty_winner"],
            ])
        return RunResult(trace=self.trace, settlements=self.protocol.settlements,
                         summary_rows=summary_rows,
                         rounds_completed=self.protocol.round, stalled=stalled,
                         init_height=init_height, warnings=tuple(warnings))
