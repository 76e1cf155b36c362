"""The benchmark's hook targets exist: every `nrpos` function or method
that perfbench/worker.py names in a `Hook(...)` resolves by import and
attribute lookup. A hook whose target is gone is skipped and its
per-layer metric reads null, so a refactor that renames or deletes a
target must fail here instead. The worker is parsed, not imported: it is
a script that sets up its own import path. A hook on the link draw sees
one call per TRP, as the benchmark's call count assumes."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def hook_targets() -> list[tuple[str, str]]:
    """(module, attribute path) of every `Hook(...)` call in the worker,
    its arguments given by position or by keyword."""
    targets = []
    for node in ast.walk(ast.parse(WORKER.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Hook":
            args = dict(zip(("name", "module", "attr"), node.args))
            args.update((k.arg, k.value) for k in node.keywords)
            targets.append((ast.literal_eval(args["module"]), ast.literal_eval(args["attr"])))
    return targets


NRPOS_TARGETS = [(m, a) for m, a in hook_targets() if m.split(".")[0] == "nrpos"]


def test_worker_hooks_nrpos_layers():
    assert ("nrpos.channel", "realize_budget_link") in NRPOS_TARGETS
    assert ("nrpos.simulate", "Simulator.run_drop") in NRPOS_TARGETS


@pytest.mark.parametrize("module,attr", NRPOS_TARGETS, ids=[f"{m}.{a}" for m, a in NRPOS_TARGETS])
def test_hook_target_resolves(module, attr):
    target = importlib.import_module(module)
    for name in attr.split("."):
        target = getattr(target, name)
    assert callable(target)


@pytest.mark.parametrize("preset", ["ioo-fr1", "uma", "umi"])
def test_link_hook_counts_one_call_per_trp(preset, monkeypatch):
    """A counting wrapper bound in place of `channel.realize_budget_link` in
    every nrpos module that holds it, as perfbench/tracer.py installs a
    hook, sees one call per TRP in a drop: the benchmark's
    `channel.realize_budget_link.calls` is drops x TRPs."""
    from nrpos import channel
    from nrpos.config import preset_config
    from nrpos.simulate import Simulator

    target, calls = channel.realize_budget_link, []

    def counting(*args, **kwargs):
        calls.append(args)
        return target(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "nrpos" or name.startswith("nrpos."):
            for key, value in list(vars(module).items()):
                if value is target:
                    monkeypatch.setattr(module, key, counting)
    sim = Simulator(preset_config(preset, n_drops=1))
    sim.run_drop(0)
    assert len(calls) == len(sim.trps)
