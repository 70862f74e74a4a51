"""Smoke test of tools/output_digests.py, the script that prints digests of
the outputs a change must keep bit for bit."""

import importlib.util
import io
import json
import os
from contextlib import redirect_stdout

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tools", "output_digests.py")


def run(module, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert module.main(argv) == 0
    return out.getvalue()


def test_digests_are_deterministic():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    argv = ["--section", "pipeline", "--section", "training", "--section", "baselines"]
    first = run(module, argv)
    assert run(module, argv) == first
    digests = json.loads(first)
    assert set(digests) == {"pipeline", "training", "baselines"}
    assert all(r["reconstruct_equal"] for r in digests["pipeline"].values())
    assert len(digests["pipeline"]["sequential"]["per_seed"]) == 3
    assert set(digests["training"]["l2_init_ema"]) == {"final", "losses"}
    assert set(digests["baselines"]) == {"early_stopping", "l2_init", "learning_rate", "ema"}
