"""The benchmark's tracer still finds every package function it wraps.

perfbench/tracing.py rebinds the functions its TARGETS name, by module and
attribute, from outside the package.  A refactor that deletes or renames one
of them (say LayerSchedule.epsilon_after) breaks the per-layer metrics, and
this test says so.  The tracer is loaded by path, the way the benchmark
loads tests/oracles.py, so perfbench/ never lands on sys.path.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def resolve(tracing, modname, attr):
    owner = importlib.import_module(f"{tracing.PACKAGE}.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name).__dict__[meth]
    return getattr(owner, attr)


def test_tracer_wraps_every_target_and_restores_it():
    tracing = load_tracing()
    targets = [(modname, attr) for _, modname, attr in tracing.TARGETS]
    originals = [resolve(tracing, *t) for t in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = [resolve(tracing, *t) for t in targets]
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(resolve(tracing, *t) is o for t, o in zip(targets, originals))
