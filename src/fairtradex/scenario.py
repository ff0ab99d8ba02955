"""Scenario runner: wire chain + protocol + agents from a JSON config.

A scenario is deterministic in (config, seed): every random draw flows from
the scenario seed through a documented per-component derivation
(``derive_seed``), agents act in config order on the first block of each
phase (``Runner._act``), and the chain's ordering policy is the only
adversarial degree of freedom.
"""

from __future__ import annotations

import random
from dataclasses import MISSING, dataclass, field, fields, replace
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Any, NoReturn, Optional, Union

# filter_by_width is unused here; perfbench/tracer.py wraps it in this module
from .auction import filter_by_width, find_clearing_price
from .chain import (CLIENT_REGISTER, CLIENT_REVEAL, COMMIT_CLIENT, COMMIT_MM,
                    CP, MM_REVEAL, ORDERING_POLICIES, RELAYED, Chain,
                    InvalidProof, PendingTx, Tx)
from .ledger import PROTOCOL_ACCOUNT, Ledger
from .membership import gen_secret, h, prove_membership, serialize_proof
from .protocol import (ClientCommitPayload, ClientRevealPayload, CpPayload,
                       MMCommitPayload, MMRevealPayload, Phase, Protocol,
                       RegisterPayload, client_commitment, mm_commitment, well_formed)
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


def _fail(where: str, problem: str) -> NoReturn:
    raise ScenarioError(f"config error at {where or '<root>'}: {problem}")


def _at(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _object(value: Any, where: str, keys) -> dict:
    """``value`` as a JSON object whose keys all lie in ``keys``."""
    if type(value) is not dict:
        _fail(where, f"expected an object, got {value!r}")
    for key in value:
        if key not in keys:
            _fail(_at(where, key), "unknown key")
    return value


def _parse(cls, value: Any, where: str, parsers: Optional[dict] = None):
    """Build the frozen dataclass ``cls`` from a JSON object, one parser per field.

    A field's parser is in its metadata, or in ``parsers`` for a class
    defined elsewhere; a field without a default is required.
    """
    raw = _object(value, where, cls.__dataclass_fields__)
    kwargs = {}
    for f in fields(cls):
        if f.name in raw:
            parse = parsers[f.name] if parsers else f.metadata["parse"]
            kwargs[f.name] = parse(raw[f.name], _at(where, f.name))
        elif f.default is MISSING and f.default_factory is MISSING:
            _fail(_at(where, f.name), "required key missing")
    try:
        return cls(**kwargs)
    except ValueError as e:  # a class's cross-field rules
        _fail(where, str(e))


def _field(parse, default=MISSING, **kwargs):
    return field(default=default, metadata={"parse": parse}, **kwargs)


def _check(test, expected: str):
    """A parser that keeps a JSON value passing ``test`` and names any other."""
    def parse(value: Any, where: str):
        if not test(value):
            _fail(where, f"expected {expected}, got {value!r}")
        return value
    return parse


def _choice(*options: str):
    return _check(lambda v: v in options, f"one of {list(options)}")


# an integer field takes only a JSON integer: not True, not 42.0
_amount = _check(lambda v: type(v) is int and v >= 0, "an integer >= 0")
_positive = _check(lambda v: type(v) is int and v >= 1, "an integer >= 1")
# derive_seed encodes a seed in 8 bytes
_seed = _check(lambda v: type(v) is int and 0 <= v < 2**64, "an integer in [0, 2**64)")
_boolean = _check(lambda v: type(v) is bool, "a boolean")
# the Runner relays a transaction by its sender, so no agent may be RELAYED
_id = _check(lambda v: type(v) is str and v not in ("", RELAYED),
             f"a non-empty string other than {RELAYED!r}")
_ref = _check(lambda v: v == "mifp" or type(v) is int and v >= 1,
              '"mifp" or a tick count >= 1')


def _rational(value: Any, where: str) -> Fraction:
    try:
        return fraction_from_json(value)
    except ValueError as e:
        _fail(where, str(e))


def _rational_at_least_one(value: Any, where: str) -> Fraction:
    """Parse a rational config value that must be >= 1 (a width or a delta)."""
    r = _rational(value, where)
    if r < 1:
        _fail(where, f"must be >= 1, got {r}")
    return r


def _funding(value: Any, where: str) -> tuple[tuple[str, int], ...]:
    raw = _object(value, where, (TOKEN_REF, TOKEN_A, TOKEN_B))
    return tuple((tkn, _amount(amt, _at(where, tkn))) for tkn, amt in raw.items())


_PARAMS = {**dict.fromkeys(("e_client", "e_mm", "q_not", "f_r", "res_bounty"), _amount),
           "p_a": _rational, "t_blocks": _positive, "alpha": _rational}


@dataclass(frozen=True)
class ClientStrategy:
    order: str = _field(_choice("mkt", "limit", "withdraw"), "mkt")
    side: str = _field(_choice("buy", "sell", "random"), "random")
    notional: Optional[int] = _field(_positive, None)  # REF value; a withdraw reads none
    width_req: Fraction = _field(_rational_at_least_one, Fraction(121, 100))
    limit_price: Optional[int] = _field(_positive, None)
    commit: bool = _field(_boolean, True)
    reveal: bool = _field(_boolean, True)


@dataclass(frozen=True)
class MMStrategy:
    width: Fraction = _field(_rational_at_least_one, Fraction(1))
    ref: Union[str, int] = _field(_ref, "mifp")  # quote around the fair price or a fixed tick
    size_mult: int = _field(_positive, 2)
    commit: bool = _field(_boolean, True)
    reveal: bool = _field(_boolean, True)


@dataclass(frozen=True)
class HunterStrategy:
    invalid_first: bool = _field(_boolean, False)


@dataclass(frozen=True)
class RelayerStrategy:
    """A relayer reads no strategy keys: it only carries relayed commits."""


class ClientAgent:
    def __init__(self, pid: str, strategy: ClientStrategy):
        self.pid = pid
        self.strategy = strategy
        self.secret = None
        self.order: Optional[tuple] = None  # (tkn, size, price, width) committed this round
        self._secret_counter = 0

    def _fresh_secret(self, runner: "Runner"):
        # every secret derives from the scenario seed
        self._secret_counter += 1
        return gen_secret(derive_seed(runner.config.seed,
                                      f"client:{self.pid}:{self._secret_counter}"))

    def _sized_order(self, runner: "Runner", params: ProtocolParams):
        s = self.strategy
        if s.order == "withdraw":
            return (TOKEN_A, 1, WITHDRAW, s.width_req)
        side = s.side
        if side == "random":
            side = "buy" if runner.next_direction() > 0 else "sell"
        price = MKT if s.order == "mkt" else s.limit_price
        if side == "buy":
            size = params.atoms_floor(s.notional)
            return (TOKEN_A, size, price, s.width_req)
        hint = runner.current_y() if price is MKT else price
        size = params.atoms_floor(s.notional, hint)
        return (TOKEN_B, size, price, s.width_req)

    def on_block(self, runner: "Runner") -> list[Tx]:
        proto = runner.protocol
        if proto.phase is None:
            self.secret = self._fresh_secret(runner)
            return [Tx(kind=CLIENT_REGISTER, payload=RegisterPayload(self.secret.reg_id),
                       sender=self.pid)]
        if proto.phase is Phase.COMMIT:
            self.order = None
            # a registration missing now stays missing: none lands during COMMIT
            if not self.strategy.commit or self.secret.reg_id not in proto.clients:
                return []
            self.order = self._sized_order(runner, proto.params)
            com = client_commitment(*self.order)
            proof = prove_membership(self.secret, proto.clients, com)
            return [Tx(kind=COMMIT_CLIENT, sender=RELAYED,
                       payload=ClientCommitPayload(com=com, serial=self.secret.s, proof=proof))]
        if proto.phase is Phase.REVEAL and self.strategy.reveal and self.order is not None:
            tkn, size, price, width = self.order
            old, new_token = self.secret, None
            if proto.round + 1 < runner.rounds:
                # stay registered: the next round proves with a fresh secret
                self.secret = self._fresh_secret(runner)
                new_token = self.secret.reg_id
            return [Tx(kind=CLIENT_REVEAL, sender=self.pid,
                       payload=ClientRevealPayload(
                           tkn=tkn, size=size, price=price, width=width,
                           serial=old.s, randomness=old.r, reg_id=old.reg_id,
                           reg_token_new=new_token))]
        return []


class MMAgent:
    def __init__(self, pid: str, strategy: MMStrategy):
        self.pid = pid
        self.strategy = strategy
        self.market: Optional[Market] = None  # set at each COMMIT if it commits

    def _make_market(self, runner: "Runner", params: ProtocolParams) -> Market:
        s = self.strategy
        bid, offer = quote(runner.current_y() if s.ref == "mifp" else s.ref, s.width)
        min_bid = params.atoms_ceil(params.q_not)
        min_offer = params.atoms_ceil(params.q_not, offer)
        return Market(bid=bid, size_bid=s.size_mult * min_bid,
                      offer=offer, size_offer=s.size_mult * min_offer)

    def on_block(self, runner: "Runner") -> list[Tx]:
        proto = runner.protocol
        if proto.phase is Phase.COMMIT and self.strategy.commit:
            self.market = self._make_market(runner, proto.params)
            return [Tx(kind=COMMIT_MM, sender=self.pid,
                       payload=MMCommitPayload(mm_commitment(self.market)))]
        if proto.phase is Phase.REVEAL and self.strategy.reveal and self.market is not None:
            return [Tx(kind=MM_REVEAL, sender=self.pid, payload=MMRevealPayload(self.market))]
        return []


class BountyHunterAgent:
    def __init__(self, pid: str, strategy: HunterStrategy):
        self.pid = pid
        self.strategy = strategy

    def on_block(self, runner: "Runner") -> list[Tx]:
        proto = runner.protocol
        if proto.phase is not Phase.RESOLUTION:
            return []
        cand = find_clearing_price(proto.book)
        if cand is None:
            return []
        out = []
        if self.strategy.invalid_first:
            # a doomed proposal first, in the same block, to forfeit a deposit
            bogus = CpPayload(cp=cand.cp, volume_a=cand.volume_a + 1,
                              imbalance_a=cand.imbalance_a)
            out.append(Tx(kind=CP, sender=self.pid, payload=bogus))
        payload = CpPayload(cp=cand.cp, volume_a=cand.volume_a,
                            imbalance_a=cand.imbalance_a)
        out.append(Tx(kind=CP, sender=self.pid, payload=payload))
        return out


#: each role's strategy record (exactly the keys its agent reads) and agent
#: class; a relayer is no agent, the chain assigns it relayed transactions
_ROLES = {"client": (ClientStrategy, ClientAgent), "mm": (MMStrategy, MMAgent),
          "relayer": (RelayerStrategy, None),
          "bounty_hunter": (HunterStrategy, BountyHunterAgent)}


@dataclass(frozen=True)
class AgentConfig:
    id: str = _field(_id)
    role: str = _field(_choice(*_ROLES))
    funding: tuple[tuple[str, int], ...] = _field(_funding, ())
    # the raw JSON object until _agents parses it for the role
    strategy: Union[ClientStrategy, MMStrategy, HunterStrategy, RelayerStrategy] = _field(
        lambda value, where: value, default_factory=dict)


def _agents(value: Any, where: str) -> tuple[AgentConfig, ...]:
    if type(value) is not list:
        _fail(where, f"expected an array, got {value!r}")
    agents, seen = [], set()
    for i, item in enumerate(value):
        agent = _parse(AgentConfig, item, f"{where}.{i}")
        if agent.id in seen:
            _fail(where, f"duplicate id {agent.id!r}")
        seen.add(agent.id)
        at = f"agent {agent.id!r} strategy"
        strategy = _parse(_ROLES[agent.role][0], agent.strategy, at)
        if agent.role == "client":
            if strategy.order != "withdraw" and strategy.notional is None:
                _fail(f"{at}.notional", f"a {strategy.order} order needs notional")
            if strategy.order == "limit" and strategy.limit_price is None:
                _fail(f"{at}.order", "a limit order needs limit_price")
        agents.append(replace(agent, strategy=strategy))
    return tuple(agents)


@dataclass(frozen=True)
class MifpConfig:
    """The market-implied fair price path: y0 ticks, moved by delta per order."""
    y0: int = _field(_positive)
    delta: Fraction = _field(_rational_at_least_one, Fraction(1))
    seed: Optional[int] = _field(_seed, None)  # None: derived from the scenario seed


# an output is a file in the output directory: no path separator, not "." or ".."
_file_name = _check(lambda v: type(v) is str and v not in ("", ".", "..")
                    and "/" not in v and "\\" not in v, "a file name without a path separator")


@dataclass(frozen=True)
class Outputs:
    trace: str = _field(_file_name, "trace.jsonl")
    settlements: str = _field(_file_name, "settlements.json")
    summary: str = _field(_file_name, "summary.csv")

    def __post_init__(self):
        if len({self.trace, self.settlements, self.summary}) < 3:
            raise ValueError("each output needs its own file name")


MAX_RUN_BLOCKS = 10**6  # the most blocks a run may step: a stalled run takes ~15 s (2-vCPU VM)


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario: each field's type, bound and default, once."""
    seed: int = _field(_seed)
    rounds: int = _field(_amount)
    params: ProtocolParams = _field(partial(_parse, ProtocolParams, parsers=_PARAMS))
    mifp: MifpConfig = _field(partial(_parse, MifpConfig))
    agents: tuple[AgentConfig, ...] = _field(_agents)
    ordering_policy: str = _field(_choice(*sorted(ORDERING_POLICIES)), "identity")
    protocol_funding: int = _field(_amount, 0)
    n_psi: int = _field(_amount, 0)  # assumed anonymity-set floor; recorded, never computed
    outputs: Outputs = _field(partial(_parse, Outputs), Outputs())

    def __post_init__(self):
        if self.block_budget > MAX_RUN_BLOCKS:
            raise ValueError(f"rounds and params.t_blocks (with params.alpha) allow a run of "
                             f"{self.block_budget} blocks, over the limit of {MAX_RUN_BLOCKS}")

    @property
    def block_budget(self) -> int:
        """Blocks ``Runner.run`` steps after registration before it calls the run stalled."""
        return self.rounds * (3 * self.params.t_eff + 4) + 4 * self.params.t_eff

    def with_seed(self, seed: Any) -> "ScenarioConfig":
        return replace(self, seed=_seed(seed, "seed"))


def validate_config(config: dict) -> ScenarioConfig:
    """Parse a scenario's JSON object; a bad field raises ScenarioError naming it."""
    return _parse(ScenarioConfig, config, "")


def _text(v: Any) -> str:
    """json's text for a string or an int, int subclasses included."""
    return encode_basestring_ascii(v) if isinstance(v, str) else int.__repr__(v)


def payload_text(p: Any, checked: bool = False) -> str:
    """Canonical JSON text of a tx payload, written directly; a malformed one's repr.

    The text is what ``dumps_canonical`` makes of the payload's fields
    (sorted keys, bytes as lowercase hex, a missing ``reg_token_new`` as
    ``null``), or of ``{"repr": repr(payload)}`` for a payload that fails
    ``well_formed``.  ``checked`` skips that check for a payload known to pass it.
    """
    if not (checked or well_formed(p)):
        return dumps_canonical({"repr": repr(p)})
    if isinstance(p, RegisterPayload):
        return f'{{"reg_id":"{p.reg_id.hex()}"}}'
    if isinstance(p, ClientCommitPayload):
        return (f'{{"com":"{p.com.hex()}","proof":"{serialize_proof(p.proof).hex()}",'
                f'"serial":"{p.serial.hex()}"}}')
    if isinstance(p, MMCommitPayload):
        return f'{{"com":"{p.com.hex()}"}}'
    if isinstance(p, ClientRevealPayload):
        new = f'"{p.reg_token_new.hex()}"' if p.reg_token_new else "null"
        return (f'{{"price":{_text(price_to_json(p.price))},"randomness":"{p.randomness.hex()}",'
                f'"reg_id":"{p.reg_id.hex()}","reg_token_new":{new},'
                f'"serial":"{p.serial.hex()}","size":{_text(p.size)},'
                f'"tkn":{_text(p.tkn)},"width":{_text(width_to_json(p.width))}}}')
    if isinstance(p, MMRevealPayload):
        m = p.market
        return (f'{{"bid":{_text(m.bid)},"offer":{_text(m.offer)},'
                f'"size_bid":{_text(m.size_bid)},"size_offer":{_text(m.size_offer)}}}')
    return (f'{{"cp":{_text(p.cp)},"imbalance_a":{_text(p.imbalance_a)},'
            f'"volume_a":{_text(p.volume_a)}}}')


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
    def __init__(self, config: Union[dict, ScenarioConfig]):
        """Build a run from a scenario's JSON object, or from one already parsed."""
        self.config = cfg = config if isinstance(config, ScenarioConfig) else validate_config(config)
        self.rounds = cfg.rounds
        self.params = cfg.params

        self.ledger = Ledger()
        self.chain = Chain(t_eff=self.params.t_eff, policy=ORDERING_POLICIES[cfg.ordering_policy],
                           seed=derive_seed(cfg.seed, "ordering"))
        self.protocol = Protocol(self.params, self.ledger)

        self._net_buys = 0
        self._y: dict[int, int] = {}  # _net_buys -> current_y(), filled as the run visits it
        mifp_seed = derive_seed(cfg.seed, "mifp") if cfg.mifp.seed is None else cfg.mifp.seed
        self._direction_rng = random.Random(derive_seed(mifp_seed, "directions"))

        self.agents: list = []
        for spec in cfg.agents:
            for tkn, amt in spec.funding:
                self.ledger.mint(spec.id, tkn, amt)
            _, cls = _ROLES[spec.role]
            if cls is None:
                self.chain.register_relayer(spec.id)
            else:
                self.agents.append(cls(spec.id, spec.strategy))
        self.ledger.mint(PROTOCOL_ACCOUNT, TOKEN_REF, cfg.protocol_funding)

        self.trace: list[dict] = []
        self._initial_supplies = None
        self._acted_in: Optional[tuple] = None  # the (round, phase) agents last acted in
        self._ran = False

    # -- mifp ---------------------------------------------------------------

    def current_y(self) -> int:
        y = self._y.get(self._net_buys)
        if y is None:
            mifp = self.config.mifp
            y = self._y[self._net_buys] = max(1, round(mifp.y0 * mifp.delta ** self._net_buys))
        return y

    def next_direction(self) -> int:
        # impact applies as order flow arrives: each drawn direction moves
        # the fair price by delta (or 1/delta) for everyone who quotes later
        d = self._direction_rng.choice((1, -1))
        self._net_buys += 1 if d > 0 else -1
        return d

    # -- block loop -----------------------------------------------------------

    def _record(self, entry: PendingTx, effects: dict) -> None:
        # handle checked the payload, unless it rejected it for failing the check
        checked = effects.get("reason") not in ("malformed", "unknown-kind")
        digest = h(payload_text(entry.tx.payload, checked).encode())[:8].hex()
        self.trace.append({
            "height": self.chain.height, "seq": entry.seq, "kind": entry.tx.kind,
            "sender": entry.tx.sender, "relayer": entry.relayer,
            "digest": digest, "effects": effects,
        })

    def _act(self) -> None:
        """Let the agents act, in config order, once per (round, phase): a player
        registers once, and commits, reveals and resolves once per batch."""
        turn = (self.protocol.round, self.protocol.phase)
        if turn == self._acted_in:
            return
        self._acted_in = turn
        for agent in self.agents:
            for tx in agent.on_block(self):
                if tx.sender == RELAYED:
                    try:
                        self.chain.relay(tx, self.protocol.commit_looks_valid)
                    except InvalidProof:
                        pass  # relayers silently drop it
                else:
                    self.chain.submit(tx)

    def _step_block(self) -> None:
        self._act()
        for entry in self.chain.advance_block():
            effects = self.protocol.handle(entry, self.chain.height)
            self._record(entry, effects)
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
        """Run the scenario once; a second call raises, as it would corrupt the first result."""
        if self._ran:
            raise RuntimeError("a Runner runs once; build a new Runner to run again")
        self._ran = True
        # registration window: the agents' turn queues every registration,
        # and blocks follow until all have landed (none when nobody registers)
        self._act()
        while self.chain.pending:
            self._step_block()
        self.protocol.initialise(self.chain.height)
        init_height = self.chain.height

        warnings = []
        if len(self.protocol.clients) < self.config.n_psi:
            warnings.append(f"registrations ({len(self.protocol.clients)}) below "
                            f"the assumed anonymity floor n_psi={self.config.n_psi}")

        if self.rounds > 0:
            for _ in range(self.config.block_budget):
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
