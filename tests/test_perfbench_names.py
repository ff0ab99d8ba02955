"""The benchmark's tracer wraps fairtradex functions where callers look them
up; a renamed or moved function makes ``install`` raise ``KeyError``."""

import importlib.util
import json
from pathlib import Path

from fairtradex.ledger import Ledger
from fairtradex.membership import gen_secret, reg_id
from fairtradex.protocol import Protocol
from fairtradex.scenario import Runner

from helpers import make_params

REPO = Path(__file__).resolve().parent.parent
TRACER = REPO / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_then_uninstall_restores_every_name():
    tracer_mod = load_tracer_module()
    originals = {}

    class RecordingTracer(tracer_mod.Tracer):
        def patch(self, owner, attr, wrapper):
            # a name wrapped twice keeps the object it had before the first wrap
            originals.setdefault((owner, attr), owner.__dict__[attr])
            super().patch(owner, attr, wrapper)

    tracer = RecordingTracer()
    try:
        tracer_mod.install(tracer)
        assert originals
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"


def test_tracer_counts_registry_root_leaves():
    """The per-layer leaf count reads the length of the Registry the protocol passes."""
    tracer_mod = load_tracer_module()
    tracer = tracer_mod.Tracer()
    proto = Protocol(make_params(), Ledger())
    for seed in range(3):
        proto.clients.append(reg_id(gen_secret(seed)))
    tracer_mod.install(tracer)
    try:
        proto.registry_root()
        assert tracer.counts["membership.accumulate_leaves"] == 3
    finally:
        tracer.uninstall()


def test_tracer_sees_every_tie_break_and_width_filter():
    """Each closed round picks its tight market and filters its book once,
    through the names the tracer wraps.  The analysis engine's calls of the
    same ``analysis`` attributes are counted in ``test_analysis``."""
    tracer_mod = load_tracer_module()
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    try:
        cfg = json.loads((REPO / "scenarios" / "two_mm_competition.json").read_text())
        rounds = Runner(cfg).run().rounds_completed
        assert rounds == 3
        assert tracer.totals["auction.tiebreak"][0] == rounds
        assert tracer.totals["auction.filter"][0] == rounds
    finally:
        tracer.uninstall()
