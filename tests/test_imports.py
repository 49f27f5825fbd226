"""What each entry point loads: the CLI imports only the layers a subcommand
runs, and the package resolves its public names on first access."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chebotarev_lab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "chebotarev_lab"


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = f"{code}\nimport json, sys\nsys.stderr.write('\\n' + json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stderr.splitlines()[-1]))


def package_modules(modules: set[str]) -> set[str]:
    return {name.split(".", 1)[1] for name in modules if name.startswith(PACKAGE + ".")}


def cli_call(*argv: str) -> str:
    return f"from chebotarev_lab.cli import main\nassert main({list(argv)!r}) == 0"


def test_cli_import_loads_only_errors():
    modules = loaded_after("import chebotarev_lab.cli")
    assert "numpy" not in modules and "scipy" not in modules
    assert package_modules(modules) == {"cli", "errors"}


def test_chebotarev_loads_no_other_layer():
    modules = package_modules(loaded_after(cli_call("chebotarev", "--field", "s3cubic", "--class", "2", "--x", "300")))
    assert "chebotarev" in modules
    assert not modules & {"artin", "families", "large_sieve", "zfr", "oracles", "selftests"}


def test_weights_runs_without_numpy():
    modules = loaded_after(cli_call("weights"))
    assert "weights" in package_modules(modules)
    assert "numpy" not in modules


def test_selftest_module_does_not_import_cli():
    modules = loaded_after("import chebotarev_lab.selftests")
    assert "cli" not in package_modules(modules)


def test_every_lazy_export_is_its_module_attribute():
    for name, home in chebotarev_lab._HOME.items():
        module = importlib.import_module(f"{PACKAGE}.{home}")
        assert getattr(chebotarev_lab, name) is getattr(module, name), name


def test_unknown_name_and_submodules():
    with pytest.raises(AttributeError, match="no_such_name"):
        chebotarev_lab.no_such_name  # noqa: B018
    from chebotarev_lab import fields

    assert fields is importlib.import_module(f"{PACKAGE}.fields")
