"""Smoke-run every example script so the documented flows cannot rot.

Each example is imported as a module and its ``main()`` executed; the
examples contain their own assertions, so completing without an exception
is the pass criterion.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "delivery_route_planning.py",
    "privacy_preserving_audit.py",
    "spoofing_defense.py",
    "low_power_signing.py",
]

SLOW_EXAMPLES = [
    "rogue_drone_audit.py",     # five worlds with 1024-bit keys
    "fleet_compliance.py",      # three drones, several missions
]


def run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / name
    assert path.exists(), f"example {name} is missing"
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    # Keep the module importable for any internal relative lookups.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_examples_run(name, capsys):
    out = run_example(name, capsys)
    assert out.strip(), f"{name} produced no output"


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW_EXAMPLES)
def test_slow_examples_run(name, capsys):
    out = run_example(name, capsys)
    assert out.strip()


def test_quickstart_narrates_the_protocol(capsys):
    out = run_example("quickstart.py", capsys)
    for expected in ("zone zone-", "registered as drone-",
                     "PoA verification: accepted", "cleared"):
        assert expected in out


def test_spoofing_example_declines(capsys):
    out = run_example("spoofing_defense.py", capsys)
    assert "DECLINED" in out
    assert "signed" in out
