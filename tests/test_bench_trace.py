"""The names that `bench/run.py --trace 1` patches still exist in momlat, and
its tracer puts every binding back: the per-layer run itself takes seconds,
so this checks its install and uninstall alone, around one traced call."""

import contextlib
import io
import sys
from pathlib import Path

import momlat.cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import run  # noqa: E402  (bench/ is not a package)
import spans  # noqa: E402


def momlat_bindings() -> dict:
    """{(owner, name): value} of every momlat module and of every class they
    define, keyed by the owner's qualified name."""
    bindings = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "momlat" or module_name.startswith("momlat.")):
            continue
        for name, value in vars(module).items():
            bindings[module_name, name] = value
            if isinstance(value, type) and value.__module__ == module_name:
                for attr, member in vars(value).items():
                    bindings[f"{module_name}.{value.__qualname__}", attr] = member
    return bindings


def traced_names() -> set:
    return {n for names in run.SELF_TIME.values() for n in names} | \
        set(run.INCLUSIVE_TIME.values())


def resolve(name: str):
    module, *attrs = name.split(".")
    value = sys.modules["momlat." + module]
    for attr in attrs:
        value = getattr(value, attr)
    return value


def test_tracer_wraps_each_traced_name_and_restores_every_binding():
    before = momlat_bindings()
    originals = {name: resolve(name) for name in traced_names()}
    tracer = spans.Tracer()
    run.install_tracer(tracer)
    try:
        for name, original in originals.items():
            assert getattr(resolve(name), "__wrapped__", None) is original, name
        with contextlib.redirect_stdout(io.StringIO()):
            assert momlat.cli.main(["verify", "--n", "96"]) == 0
        layers = run.layer_metrics(tracer, 1.0)
    finally:
        tracer.uninstall()
    after = momlat_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
    # the symbolic verdicts were certified at import: the call multiplied
    # no normal forms, and its numeric suite did its 26 banded products
    assert layers["algebra.mul_calls"] == 0
    assert layers["operators.product_calls"] == 26
    assert layers["algebra.symbolic_suite_s"] > 0
