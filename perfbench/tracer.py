"""Span and count tracing of fairtradex layers, installed from outside.

The traced run replaces public layer functions *in place where the calling
module looks them up*: ``fairtradex.membership.accumulate`` for the
protocol's ``membership.accumulate(...)``, ``fairtradex.scenario.prove_membership``
for the scenario's direct import, class attributes for methods.  Nothing in
``src/`` is edited.  A span wrapper records ``(id, name, start, end, parent)``;
a counting wrapper only bumps a counter, because it sits on calls made
hundreds of thousands of times per round.

Self time of a span is its duration minus the time its child spans cover.
Totals are kept per span name for every span; the span records themselves
are kept for the first ``MAX_SPANS`` spans only, so a long traced run stays
small in memory.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

MAX_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []            # (id, name, start, end, parent id)
        self.totals: dict[str, list] = {}       # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self._stack: list[list] = []            # open spans: [id, child seconds]
        self._next_id = 0
        self._undo: list = []

    def _span_wrapper(self, name, fn, after=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                if len(spans) < MAX_SPANS:
                    spans.append((sid, name, t0, t1, parent))
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        # positional arguments only: these wrappers sit on the hottest calls
        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owners, attr, name, after=None) -> None:
        """Wrap ``attr`` on every owner (module or class) with one span wrapper.

        Every owner must bind the same function object, so that one wrapper
        stands in at each place the function is looked up.
        """
        fn = owners[0].__dict__[attr]
        for owner in owners[1:]:
            if owner.__dict__[attr] is not fn:
                raise RuntimeError(f"{owner.__name__}.{attr} is not {fn.__qualname__}")
        wrapper = self._span_wrapper(name, fn, after)
        for owner in owners:
            self.patch(owner, attr, wrapper)

    def count(self, owner, attr, name) -> None:
        self.patch(owner, attr, self._count_wrapper(name, owner.__dict__[attr]))

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks.get(name, -1):
            self.peaks[name] = value

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the fairtradex package."""
    from fairtradex import analysis, auction, chain, ledger, membership, protocol, scenario

    counts = tracer.counts

    # membership: the protocol calls membership.<fn>; the scenario imported
    # prove_membership by name; h is counted where membership looks it up
    def _leaves(args, _root):
        counts["membership.accumulate_leaves"] += len(args[0])

    def _verified(_args, ok):
        if not ok:
            counts["membership.verify_failed"] += 1
    tracer.span([membership], "accumulate", "membership.accumulate", after=_leaves)
    tracer.span([scenario], "prove_membership", "membership.prove")
    tracer.span([membership], "verify_membership", "membership.verify", after=_verified)
    tracer.count(membership, "h", "membership.hash_calls")

    # auction: one wrapper per function, installed in every importing module
    def _candidates(_args, cands):
        counts["auction.oracle_candidates"] += len(cands)
    tracer.span([auction, scenario, analysis], "find_clearing_price", "auction.oracle")
    tracer.span([auction, protocol], "verify_clearing_price", "auction.verify")
    tracer.span([auction, protocol, analysis], "settle", "auction.settle")
    tracer.span([auction, protocol, scenario, analysis], "filter_by_width", "auction.filter")
    tracer.span([protocol, analysis], "select_tight_market", "auction.tiebreak")
    tracer.span([auction], "validate_clearing_result", "auction.validate")
    tracer.span([auction], "candidate_prices", "auction.candidates", after=_candidates)

    # analysis: the books its engine clears are the oracle calls made from it
    tracer.span([analysis], "best_response_check", "analysis.best_response")
    tracer.count(analysis, "find_clearing_price", "analysis.engine_books")

    # protocol
    P = protocol.Protocol
    tracer.span([P], "registry_root", "protocol.registry_root")
    tracer.span([P], "commit_looks_valid", "protocol.relay_dryrun")
    tracer.span([P], "handle", "protocol.handle")
    tracer.span([P], "on_block_end", "protocol.block_end")

    # chain: what was pending before a block is what it included plus what
    # is still pending after it
    C = chain.Chain

    def _block(args, block):
        counts["chain.txs"] += len(block)
        tracer.peak("chain.pending_peak", len(block) + len(args[0].pending))
    tracer.span([C], "advance_block", "chain.advance_block", after=_block)
    relay = C.relay

    @functools.wraps(relay)
    def counted_relay(self, tx, validate):
        try:
            return relay(self, tx, validate)
        except chain.InvalidProof:
            counts["chain.relay_dropped"] += 1
            raise
    tracer.patch(C, "relay", counted_relay)

    # ledger and serialize
    tracer.count(ledger.Ledger, "transfer", "ledger.transfer_calls")
    tracer.span([ledger.Ledger], "supplies", "ledger.supplies")
    tracer.span([scenario], "dumps_canonical", "serialize.dumps")

    # scenario: the run loop and the agents' per-block decisions
    tracer.span([scenario.Runner], "run", "scenario.run")
    for agent_cls in (scenario.ClientAgent, scenario.MMAgent, scenario.BountyHunterAgent):
        tracer.span([agent_cls], "on_block", "scenario.agents")
