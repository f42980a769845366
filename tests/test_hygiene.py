"""Source hygiene: every module in src/ and tests/ uses each name it
imports, every private module-level name in src/ has a use in src/, and
src/ imports nothing beyond the standard library, numpy and
scipy.sparse with its csgraph, and no thread, process or event-loop
module, no two raise statements in src/ raise one exception class
with one message, only cli.build_parser builds argparse parsers, no
f-string in src/ or tests/ lacks a placeholder, and solvers.SOLVERS
holds no lambda and is the one place in src/ that writes a sweep
promise key."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(source):
    """Names bound by an import statement and never read as a name.

    ``import a.b`` binds ``a``; an attribute chain ``a.b.c`` reads ``a``.
    ``from __future__ import ...`` is a compiler directive, not a binding.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_detected():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import comb, inf\n"
              "print(os.path.sep, comb(3, 2))\n")
    assert _unused_imports(source) == ["np", "inf"]


def test_no_unused_imports():
    # __init__.py imports names to re-export them
    modules = sorted(path for top in ("src", "tests")
                     for path in (ROOT / top).rglob("*.py")
                     if path.name != "__init__.py")
    assert len(modules) > 10
    unused = [f"{path.relative_to(ROOT)}: {name}" for path in modules
              for name in _unused_imports(path.read_text())]
    assert unused == []


def _private_definitions(tree):
    """Module-level functions, classes and constants named ``_x`` (not
    dunders)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names
            if name.startswith("_") and not name.startswith("__")]


def _references(tree):
    """Names read, attributes read and names imported."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def _unused_privates(sources):
    trees = [ast.parse(source) for source in sources]
    refs = set().union(*map(_references, trees))
    return [name for tree in trees for name in _private_definitions(tree)
            if name not in refs]


def test_unused_privates_detected():
    a = ("_LIMIT = 3\n_unused: int = 0\n__version__ = '1'\n"
         "def _helper():\n    return _LIMIT\n"
         "class _Dead:\n    pass\n"
         "def _recurse(x):\n    return x\n")
    b = "from a import _helper\nprint(_helper(), obj._recurse)\n"
    assert _unused_privates([a, b]) == ["_unused", "_Dead"]


def test_no_unused_private_names_in_src():
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert len(modules) > 5
    assert _unused_privates(path.read_text() for path in modules) == []


# the scipy modules src/ may import: every other one costs start-up time
# and memory in each process (scipy.optimize alone took ~0.25 s and ~17 MB)
SCIPY_MODULES = {"scipy.sparse", "scipy.sparse.csgraph"}


def _foreign_imports(source, package):
    """Modules imported that are not in the standard library, not numpy,
    not one of SCIPY_MODULES and not the package itself (relative imports
    are the package): top-level names, and whole names under scipy."""
    allowed = set(sys.stdlib_module_names) | {"numpy", package}
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    return [name if top == "scipy" else top for name in imported
            for top in [name.split(".")[0]]
            if top not in allowed and name not in SCIPY_MODULES]


def test_foreign_imports_detected():
    source = ("from __future__ import annotations\n"
              "import heapq, os.path, requests\nimport numpy as np\n"
              "from scipy.sparse import csgraph\nfrom . import core\n"
              "from .core import cost\nfrom pkg import cli\n"
              "from pandas.api import types\n"
              "from scipy.sparse.csgraph import floyd_warshall\n"
              "from scipy.optimize import linear_sum_assignment\n"
              "import scipy.sparse.linalg, numpy.linalg\n"
              "from scipy import optimize\nimport scipy\n")
    assert _foreign_imports(source, "pkg") == [
        "requests", "pandas", "scipy.optimize", "scipy.sparse.linalg",
        "scipy", "scipy"]


def test_src_imports_only_stdlib_numpy_scipy():
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert len(modules) > 5
    foreign = [f"{path.relative_to(ROOT)}: {name}" for path in modules
               for name in _foreign_imports(path.read_text(),
                                            "kcenter_resilience")]
    assert foreign == []


def test_cli_import_loads_no_scipy_optimize():
    # a fresh process: the test run itself may have imported it
    code = ("import sys, kcenter_resilience.cli\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[:2] == ['scipy', 'optimize']))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


# src/ batches its vectorised work rather than spreading it over threads,
# processes or an event loop: it runs on small shared hosts
POOLS = ("threading", "multiprocessing", "concurrent.futures", "asyncio")


def _pool_imports(source):
    """The modules of POOLS that each import statement of source imports
    (a relative import is the package's own)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        found += [pool for pool in POOLS
                  if any(name == pool or name.startswith(pool + ".")
                         for name in names)]
    return found


def test_pool_imports_detected():
    source = ("import threading\nimport os, asyncio.events\n"
              "from concurrent import futures\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "from multiprocessing.pool import Pool\nimport concurrent\n"
              "from . import threading\nfrom .asyncio import run\n"
              "import heapq\n")
    assert _pool_imports(source) == ["threading", "asyncio",
                                     "concurrent.futures",
                                     "concurrent.futures", "multiprocessing"]


def test_src_starts_no_threads_processes_or_event_loops():
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert len(modules) > 5
    pooled = [f"{path.relative_to(ROOT)}: {name}" for path in modules
              for name in _pool_imports(path.read_text())]
    assert pooled == []


def _message_template(node):
    """A raise's message as a template, each f-string field as ``{}``; None
    when the first argument is not a string or an f-string, or when its
    text outside the fields has no letter (``f"{path}: {e}"`` only passes
    another message on)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        template = node.value
    elif isinstance(node, ast.JoinedStr):
        template = "".join(part.value if isinstance(part, ast.Constant)
                           else "{}" for part in node.values)
    else:
        return None
    return template if any(map(str.isalpha, template.replace("{}", ""))) \
        else None


def _repeated_raise_messages(sources):
    """(exception class, message template) pairs raised from more than one
    place: each rule of the package should have one owner."""
    seen = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call) and node.exc.args):
                continue
            template = _message_template(node.exc.args[0])
            if template is not None:
                key = (ast.unparse(node.exc.func), template)
                seen[key] = seen.get(key, 0) + 1
    return sorted(key for key, count in seen.items() if count > 1)


def test_repeated_raise_messages_detected():
    a = ("def f(n, k, alpha):\n"
         "    if k > n:\n"
         "        raise ValueError(f'need k <= n, got k={k}')\n"
         "    if alpha < 1:\n"
         "        raise ValueError('alpha must be >= 1')\n"
         "    raise errors.Bad('alpha must be >= 1')\n")
    b = ("def g(m, j):\n"
         "    if j > m:\n"
         "        raise ValueError(f'need k <= n, got k={j}')\n"
         "    raise KciFormatError(3, 'alpha must be >= 1')\n"
         "    raise ValueError(msg)\n"
         "    raise ValueError(msg)\n"
         "    raise ValueError\n")
    c = ("raise TypeError('alpha must be >= 1')\nraise TypeError('alpha')\n"
         "raise TypeError(f'{path}: {e}')\n")
    assert _repeated_raise_messages([a, b, c + c]) == [
        ("TypeError", "alpha"), ("TypeError", "alpha must be >= 1"),
        ("ValueError", "need k <= n, got k={}")]


def test_each_raise_message_has_one_raise_site():
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert len(modules) > 5
    assert _repeated_raise_messages(path.read_text()
                                    for path in modules) == []


# `kcenter-pr`'s argparse tree is built once per process, by the cached
# cli.build_parser; a parser built anywhere else would be rebuilt per call
PARSER_CALLS = {"_Parser", "ArgumentParser", "add_subparsers", "add_parser"}


def _parser_builds(source):
    """(enclosing function or None, callee) of each call in source that
    builds an argparse parser or subparser."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee in PARSER_CALLS:
                found.append((function, callee))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_parser_builds_detected():
    source = ("import argparse\n"
              "PARSER = argparse.ArgumentParser(prog='x')\n"
              "def build_parser():\n"
              "    p = _Parser(prog='x')\n"
              "    sub = p.add_subparsers(dest='c')\n"
              "    sub.add_parser('a').add_argument('--k')\n"
              "def main(argv):\n"
              "    def inner():\n"
              "        return _Parser()\n"
              "    return build_parser().parse_args(argv)\n")
    assert _parser_builds(source) == [
        (None, "ArgumentParser"), ("build_parser", "_Parser"),
        ("build_parser", "add_subparsers"), ("build_parser", "add_parser"),
        ("inner", "_Parser")]


def test_src_builds_parsers_only_in_cli_build_parser():
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert len(modules) > 5
    builds = {(path.name, function) for path in modules
              for function, _ in _parser_builds(path.read_text())}
    assert builds == {("cli.py", "build_parser")}


def _placeholderless_fstrings(source):
    """Line of each f-string with no placeholder.  A format spec's inner
    string (the ``>8`` of ``f"{x:>8}"``) is not an f-string of its own."""
    tree = ast.parse(source)
    specs = {id(node.format_spec) for node in ast.walk(tree)
             if isinstance(node, ast.FormattedValue) and node.format_spec}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.JoinedStr) and id(node) not in specs
                  and not any(isinstance(part, ast.FormattedValue)
                              for part in node.values))


def test_placeholderless_fstrings_detected():
    source = ('a = f"kci 1"\n'
              'b = f"{x:>8} {y!r}" + f"{x:{w}.2f}"\n'
              'c = (f"no "\n     "field")\n'
              'd = "plain " f"{z}"\n'
              'e = [f"", "f{x}"]\n')
    assert _placeholderless_fstrings(source) == [1, 3, 6]


def test_every_fstring_has_a_placeholder():
    modules = sorted(path for top in ("src", "tests")
                     for path in (ROOT / top).rglob("*.py"))
    assert len(modules) > 10
    bare = [f"{path.relative_to(ROOT)}:{line}" for path in modules
            for line in _placeholderless_fstrings(path.read_text())]
    assert bare == []


# each solver's contract is written once, on its solvers.SOLVERS record: the
# record holds its layer function, not a lambda adapter, and the sweep
# promise's keys are written nowhere else, so no layer claims one per call
PROMISE_KEYS = {"consistency_factor", "monotone", "needs_hop_cover"}


def _registry_faults(source):
    """(line, fault) of each lambda inside a module-level ``SOLVERS = ...``
    and of each promise key written outside it: a ``{...}`` key, a keyword
    (``dict(monotone=True)``) or a subscript assignment."""
    tree = ast.parse(source)
    inside = {id(node) for top in tree.body if isinstance(top, ast.Assign)
              and any(getattr(t, "id", None) == "SOLVERS" for t in top.targets)
              for node in ast.walk(top)}
    faults = []
    for node in ast.walk(tree):
        if id(node) in inside:
            if isinstance(node, ast.Lambda):
                faults.append((node.lineno, "lambda"))
            continue
        if isinstance(node, ast.Dict):
            written = [(key.lineno, key.value) for key in node.keys
                       if isinstance(key, ast.Constant)]
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Store)
              and isinstance(node.slice, ast.Constant)):
            written = [(node.lineno, node.slice.value)]
        elif isinstance(node, ast.keyword):
            written = [(node.lineno, node.arg)]
        else:
            continue
        faults += [(line, key) for line, key in written if key in PROMISE_KEYS]
    return sorted(faults)


def test_registry_faults_detected():
    source = ("SOLVERS = {\n"
              "    'a': Solver(lambda i, k, r, e: f(i, k), promise={\n"
              "        'monotone': True}),\n"
              "    'b': Solver(g, promise=dict(consistency_factor=2.0)),\n"
              "}\n"
              "def f(i, k):\n"
              "    out = {'component_count': k, 'needs_hop_cover': True}\n"
              "    out['consistency_factor'] = 1.0\n"
              "    out.update(monotone=True)\n"
              "    return out.get('monotone'), lambda x: x\n"
              "OTHER = {'x': Solver(lambda i, k: i)}\n")
    assert _registry_faults(source) == [
        (2, "lambda"), (7, "needs_hop_cover"), (8, "consistency_factor"),
        (9, "monotone")]


def test_solver_contract_written_only_on_the_registry():
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert len(modules) > 5
    faults = [f"{path.relative_to(ROOT)}:{line}: {fault}" for path in modules
              for line, fault in _registry_faults(path.read_text())]
    assert faults == []
    registry = ast.parse((ROOT / "src/kcenter_resilience/solvers.py")
                         .read_text())
    assert any(getattr(t, "id", None) == "SOLVERS" for top in registry.body
               if isinstance(top, ast.Assign) for t in top.targets)
