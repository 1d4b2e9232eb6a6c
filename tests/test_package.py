"""Package exports and import footprint, each checked in a fresh interpreter
so that no module an earlier test imported hides a missing or extra load."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(code: str):
    """The JSON value a fresh interpreter prints as its last stdout line."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("WITTKIT_SEED", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "json.dumps(sorted(m for m in sys.modules if m.startswith('wittkit')))"


class TestImportFootprint:
    def test_cli_import_loads_no_command_module(self):
        loaded = fresh(f"import json, sys\nimport wittkit.cli\nprint({LOADED})")
        # omega is bound eagerly by the package, and it needs scalars
        assert loaded == ["wittkit", "wittkit.cli", "wittkit.errors", "wittkit.omega",
                          "wittkit.scalars"]

    def test_convert_g22_loads_only_what_it_runs(self):
        mv = {"signature": [1, -1, 1, -1],
              "terms": [{"blade": [0, 3], "coeff": [{"d": 1, "re": "2"}]}]}
        loaded = fresh(
            "import contextlib, io, json, sys\n"
            "from wittkit import cli\n"
            f"sys.stdin = io.StringIO({json.dumps(json.dumps(mv))})\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['convert', 'mv2mat', '--algebra', 'g22']) == 0\n"
            f"print({LOADED})")
        assert not {"wittkit.verify", "wittkit.witt_local", "wittkit.dirac"} & set(loaded)
        assert {"wittkit.ga", "wittkit.witt_global"} <= set(loaded)

    def test_plain_package_import_loads_no_algebra(self):
        loaded = fresh(f"import json, sys\nimport wittkit\nprint({LOADED})")
        assert loaded == ["wittkit", "wittkit.errors", "wittkit.omega", "wittkit.scalars"]


class TestExports:
    def test_every_name_is_its_home_module_object(self):
        # each name read through the package is the object its defining
        # module holds under that name
        wrong = fresh(
            "import importlib, json, wittkit\n"
            "wrong = [n for n in wittkit.__all__ if getattr(wittkit, n) is not getattr(\n"
            "    importlib.import_module(getattr(wittkit, n).__module__), n)]\n"
            "print(json.dumps(wrong))")
        assert wrong == []

    def test_star_import(self):
        missing = fresh("import json, wittkit\nfrom wittkit import *\n"
                        "print(json.dumps([n for n in wittkit.__all__ if n not in globals()]))")
        assert missing == []

    @pytest.mark.parametrize("first", ["import wittkit.verify", "import wittkit.omega",
                                       "import wittkit.witt_local", "import wittkit.cli",
                                       "from wittkit import *", "import wittkit"])
    def test_omega_stays_the_function(self, first):
        # importing a submodule binds it on the package under its own name
        kinds = fresh(f"import json\n{first}\nimport wittkit\nfrom wittkit import omega\n"
                      "print(json.dumps([type(omega).__name__, type(wittkit.omega).__name__,\n"
                      "                  omega(1).rows]))")
        assert kinds == ["function", "function", [[1, 1], [1, -1]]]

    def test_submodules_read_as_attributes(self):
        names = fresh("import json, wittkit\n"
                      "print(json.dumps([wittkit.ga.__name__, wittkit.verify.__name__]))")
        assert names == ["wittkit.ga", "wittkit.verify"]

    def test_unknown_name_raises_attribute_error(self):
        import wittkit
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            wittkit.nonexistent

    def test_cli_suites_match_verify(self):
        suites = fresh("import json\nfrom wittkit import cli, verify\n"
                       "print(json.dumps([cli._SUITES, list(verify.SUITES)]))")
        assert suites[0] == suites[1]


class TestSourceHygiene:
    def test_no_module_imports_an_unused_name(self):
        # every name a module binds by import is read somewhere in it;
        # __init__ binds its eager export for the package namespace
        unused = []
        for path in sorted((SRC / "wittkit").glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        and getattr(node, "module", None) != "__future__"
                        for alias in node.names}
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                       if name not in used]
        assert unused == []

    def test_every_private_definition_is_read(self):
        # every module-level private name and private method is read in src/
        trees = {path.name: ast.parse(path.read_text(), filename=str(path))
                 for path in sorted((SRC / "wittkit").glob("*.py"))}
        read = {node.id if isinstance(node, ast.Name) else node.attr
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load)}
        defined = []
        for name, tree in trees.items():
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    defined += [(name, f.lineno, f.name) for f in node.body
                                if isinstance(f, ast.FunctionDef)]
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((name, node.lineno, node.name))
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined += [(name, node.lineno, t.id) for t in targets
                                if isinstance(t, ast.Name)]
        private = [d for d in defined if d[2].startswith("_") and not d[2].endswith("__")]
        assert private
        assert [f"{name}:{line} {ident}" for name, line, ident in private
                if ident not in read] == []
