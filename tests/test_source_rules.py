"""Rules for the library source, read from its syntax tree: invariants are
raised as exceptions (an `assert` vanishes under `python -O`), no input is
run as code (rules are parsed and walked, never evaluated), and no handler
swallows every exception (a bare `except:` also catches KeyboardInterrupt
and a worker's SystemExit).  Work is spread over processes in one place,
`arith.worker_map`, so no other module names ProcessPoolExecutor, and the
job count is an argument, so nothing reads the environment."""

import ast
from pathlib import Path

import bqfsieve

SRC = Path(bqfsieve.__file__).resolve().parent
CODE_RUNNERS = {"eval", "exec", "compile"}
POOL_MODULE = "arith.py"


def _violations(path: Path) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Assert):
            out.append(f"{where}: assert statement")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in CODE_RUNNERS):
            out.append(f"{where}: call to {node.func.id}")
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            out.append(f"{where}: bare except")
        elif "ProcessPoolExecutor" in _names(node) and path.name != POOL_MODULE:
            out.append(f"{where}: process pool outside {POOL_MODULE}")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "os" and node.attr in ("environ", "getenv")):
            out.append(f"{where}: environment read")
    return out


def _names(node: ast.AST) -> set[str]:
    # the names a node spells: a name, an attribute or an imported name
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name, node.asname}
    return set()


def test_source_has_no_assert_eval_or_bare_except():
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    bad = [v for path in files for v in _violations(path)]
    assert bad == []


def test_rules_catch_each_pattern(tmp_path):
    # the checker itself: one file with each forbidden pattern
    path = tmp_path / "bad.py"
    path.write_text("assert x\neval('1')\nexec('y = 1')\ncompile('1', 'f', 'eval')\n"
                    "try:\n    pass\nexcept:\n    pass\nre.compile('a')\n"
                    "from concurrent.futures import ProcessPoolExecutor\n"
                    "concurrent.futures.ProcessPoolExecutor(2)\n"
                    "os.environ.get('BQF_THREADS')\nos.getenv('BQF_THREADS')\n")
    assert [v.split(": ", 1)[1] for v in _violations(path)] == [
        "assert statement", "call to eval", "call to exec", "call to compile",
        "bare except", "process pool outside arith.py",
        "process pool outside arith.py", "environment read", "environment read"]
