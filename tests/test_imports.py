"""What each entry point loads: the CLI imports only the layers a subcommand
runs, and the package resolves its public names on first access."""

import ast
import importlib
import io
import json
import os
import subprocess
import sys
import tokenize
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


@pytest.mark.parametrize("argv", [("family", "--catalog", str(ROOT / "demos" / "catalog_quadratics.txt")),
                                  ("large-sieve",)])
def test_family_commands_load_no_counting_layer(argv):
    # a family's counts read the class tally in fields, not chebotarev and its weights
    modules = package_modules(loaded_after(cli_call(*argv)))
    assert "families" in modules
    assert not modules & {"chebotarev", "weights"}, modules & {"chebotarev", "weights"}


@pytest.mark.parametrize("code", [
    cli_call("chebotarev", "--field", "s3cubic", "--class", "2", "--x", "300", "--weights-eps", "0.1"),
    cli_call("coeffs", "--field", "zeta7", "--n", "200"),
    cli_call("family", "--catalog", str(ROOT / "demos" / "catalog_quadratics.txt")),
    cli_call("large-sieve", "--sigma", "0.9"),
    cli_call("eta", "--Q", "100"),
    f"import {PACKAGE}\nfor name in {PACKAGE}.__all__: getattr({PACKAGE}, name)",
], ids=["chebotarev", "coeffs", "family", "large-sieve", "eta", "all-exports"])
def test_no_dataclasses_loaded(code):
    # the records are NamedTuples and __slots__ classes: no class generates code at import
    assert "dataclasses" not in loaded_after(code)


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


# -- the layering, read off the source alone ---------------------------------------

LOWER = {"sieve", "groups", "arith", "gfpoly", "fields", "weights"}
UPPER = {"artin", "chebotarev", "large_sieve", "families", "zfr", "cli", "selftests"}


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in (ROOT / "src" / PACKAGE).glob("*.py")}


def _relative_imports(text: str) -> set[str]:
    """The package modules a module's ``from .x import`` and ``from . import x``
    name anywhere, lazy imports in functions and TYPE_CHECKING blocks included."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module.split(".")[0]} if node.module else {alias.name for alias in node.names}
    return out


def test_package_imports_are_layered():
    graph = {name: _relative_imports(text) for name, text in _sources().items()}
    for name in LOWER:
        assert not graph[name] & UPPER, (name, graph[name] & UPPER)
    # depth-first search for a cycle: a module met again while on the path
    done, path = set(), []

    def visit(name: str) -> None:
        assert name not in path, f"import cycle: {' -> '.join(path[path.index(name):] + [name])}"
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph.get(name, ())):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_only_artin_refuses_index_divisors():
    # fields only classifies and large_sieve reads artin, so neither names RamifiedPrime in code
    def names(text: str) -> set[str]:
        return {tok.string for tok in tokenize.generate_tokens(io.StringIO(text).readline) if tok.type == tokenize.NAME}

    sources = _sources()
    assert "RamifiedPrime" in names(sources["artin"])
    for module in ("fields", "large_sieve"):
        assert "RamifiedPrime" not in names(sources[module]), module
    from_fields = [alias.name for node in ast.walk(ast.parse(sources["large_sieve"]))
                   if isinstance(node, ast.ImportFrom) and node.module == "fields" for alias in node.names]
    assert from_fields == ["FieldDescriptor"]
