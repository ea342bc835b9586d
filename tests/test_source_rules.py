"""Rules for the library source, read from its syntax tree: invariants are
raised as exceptions (an `assert` vanishes under `python -O`) and as
RuntimeError (an AssertionError reads as a failed assert), no input is
run as code (rules are parsed and walked, never evaluated), and no handler
swallows every exception (a bare `except:` also catches KeyboardInterrupt
and a worker's SystemExit).  Work is spread over processes in one place,
`arith.worker_map`, so no other module names ProcessPoolExecutor, and the
job count is an argument, so nothing reads the environment.  The value
bitmap serves the almost-prime count alone: pi_f gathers from the prime
mask and divides by the representation number, with no bitmap.  The sieve
reports the sieve: `selberg_upper_bound` counts no pi_f and evaluates no
theorem bound.  SciPy serves two functions, `digamma` inside
`characters._digamma` and `expi` inside `cli._Li`, each imported on first
use, and no other import of it is admitted: the package's use of SciPy
grows no further than those two, and importing the package loads none of
it.  No module imports another module's underscore name
(`from .lattice import _rows`): what one module keeps private, no other
module builds on.  Process-wide state is the two tables a workload reads
across rows, so a `global` statement appears in `arith` alone and names only
the prime mask or the Omega table."""

import ast
from pathlib import Path

import bqfsieve

SRC = Path(bqfsieve.__file__).resolve().parent
CODE_RUNNERS = {"eval", "exec", "compile"}
POOL_MODULE = "arith.py"
BITMAP_CALLER = "count_almost_primes"
SIEVE = "selberg_upper_bound"
THEOREM_CALLS = {"pi_f", "pi_f_interval", "theorem_rhs"}
# each SciPy name a module may import: (file, enclosing function)
SCIPY_NAMES = {"digamma": ("characters.py", "_digamma"), "expi": ("cli.py", "_Li")}
TABLE_MODULE = "arith.py"
SHARED_TABLES = {"_mask", "_omega"}


def _violations(path: Path) -> list[str]:
    out = []
    tree = ast.parse(path.read_text(), str(path))
    owner = _enclosing_functions(tree)
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Assert):
            out.append(f"{where}: assert statement")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in CODE_RUNNERS):
            out.append(f"{where}: call to {node.func.id}")
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            out.append(f"{where}: bare except")
        elif (isinstance(node, ast.Raise) and node.exc is not None
              and "AssertionError" in _names(getattr(node.exc, "func", node.exc))):
            out.append(f"{where}: raise AssertionError")
        elif isinstance(node, ast.Global):
            out.extend(f"{where}: global {name} outside the shared tables"
                       for name in node.names
                       if path.name != TABLE_MODULE or name not in SHARED_TABLES)
        elif "ProcessPoolExecutor" in _names(node) and path.name != POOL_MODULE:
            out.append(f"{where}: process pool outside {POOL_MODULE}")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "os" and node.attr in ("environ", "getenv")):
            out.append(f"{where}: environment read")
        elif (isinstance(node, ast.Call) and "value_bitmap" in _names(node.func)
              and owner.get(node) != BITMAP_CALLER):
            out.append(f"{where}: value_bitmap outside {BITMAP_CALLER}")
        elif (isinstance(node, ast.Call) and _names(node.func) & THEOREM_CALLS
              and owner.get(node) == SIEVE):
            out.append(f"{where}: {min(_names(node.func))} inside {SIEVE}")
        elif _imports_scipy(node) and not all(
                SCIPY_NAMES.get(alias.name) == (path.name, owner.get(node))
                for alias in node.names):
            out.append(f"{where}: scipy import other than {sorted(SCIPY_NAMES)}")
        elif isinstance(node, ast.ImportFrom) and node.level and node.module:
            out.extend(f"{where}: private name {alias.name} from .{node.module}"
                       for alias in node.names if alias.name.startswith("_"))
    return sorted(out, key=lambda v: int(v.split(":")[1]))  # in source order


def _enclosing_functions(tree: ast.AST) -> dict[ast.AST, str]:
    # the name of the innermost function around each node; ast.walk meets an
    # outer def before the defs inside it, so those overwrite its entries
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[node] = fn.name
    return owner


def _imports_scipy(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    elif isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    else:
        return False
    return any(m.split(".")[0] == "scipy" for m in modules)


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
                    "os.environ.get('BQF_THREADS')\nos.getenv('BQF_THREADS')\n"
                    "value_bitmap(f, x)\n"
                    "def count_almost_primes():\n    value_bitmap(f, x)\n"
                    "def pi_f():\n    lattice.value_bitmap(f, x)\n"
                    "def selberg_upper_bound():\n    pi_f(f, x)\n"
                    "    sieve.pi_f_interval(f, x, y)\n    theorem_rhs(f, x, y, 0, 1)\n"
                    "    selberg_system(f, z)\n"
                    "import scipy.special\nfrom scipy.special import digamma\n"
                    "from .lattice import (EllipseWindow, _row_span,\n    _row_values)\n"
                    "from . import __version__\nfrom .arith import MASK_CAP\n"
                    "raise AssertionError\nraise AssertionError('x')\n"
                    "raise RuntimeError('x')\nglobal _mask\n")
    assert [v.split(": ", 1)[1] for v in _violations(path)] == [
        "assert statement", "call to eval", "call to exec", "call to compile",
        "bare except", "process pool outside arith.py",
        "process pool outside arith.py", "environment read", "environment read",
        "value_bitmap outside count_almost_primes",
        "value_bitmap outside count_almost_primes", "pi_f inside selberg_upper_bound",
        "pi_f_interval inside selberg_upper_bound",
        "theorem_rhs inside selberg_upper_bound",
        "scipy import other than ['digamma', 'expi']",
        "scipy import other than ['digamma', 'expi']",
        "private name _row_span from .lattice", "private name _row_values from .lattice",
        "raise AssertionError", "raise AssertionError",
        "global _mask outside the shared tables"]
    # the two admitted imports, each only where it is admitted
    for name, text in (("characters.py", "from scipy.special import digamma\n"
                                         "def _digamma():\n    from scipy.special import digamma\n"
                                         "def f():\n    from scipy.special import digamma\n"
                                         "def _digamma():\n"
                                         "    from scipy.special import bernoulli, digamma\n"),
                       ("cli.py", "from scipy.special import expi\n"
                                  "def _Li():\n    from scipy.special import expi\n"
                                  "def g():\n    from scipy.special import expi\n"),
                       ("arith.py", "def f():\n    global _mask, _omega\n"
                                    "def g():\n    global _omega, _spf\n")):
        path = tmp_path / name
        path.write_text(text)
        assert [v.split(":")[1] for v in _violations(path)] == {
            "characters.py": ["1", "5", "7"], "cli.py": ["1", "5"], "arith.py": ["4"]}[name]
