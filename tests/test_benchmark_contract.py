"""What the benchmark under perfbench/ relies on: every function its tracer
wraps exists, and ``verify --suite all`` reports the check ids its oracle
expects at each rank.  The benchmark files are only read here."""

import importlib

from chaplygin import run_all_suites

from conftest import fresh_modules, standard_body


def test_tracer_targets_resolve(perfbench):
    tracer, _ = perfbench
    for layer, function in tracer.TARGETS:
        owner = importlib.import_module(f"chaplygin.{layer}")
        for attr in function.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), f"{layer}.{function}"


def test_cli_loads_every_traced_layer(perfbench):
    """Tracer.installed looks each of its layers up in sys.modules, so a
    process that imports chaplygin.cli must hold all of them: cli imports
    verify at module level for that reason, until the tracer skips a layer
    that is not loaded (ROADMAP, repair the benchmark)."""
    tracer, _ = perfbench
    assert {f"chaplygin.{layer}" for layer in tracer.LAYERS} <= set(fresh_modules("import chaplygin.cli"))


def test_verify_check_ids_match_the_oracle(perfbench, rank):
    _, workloads = perfbench
    ids = {c["id"] for suite in run_all_suites(standard_body(rank), trials=2) for c in suite["checks"]}
    assert ids == workloads.VERIFY_CHECK_IDS[rank]
