"""Which hmfcert modules a CLI process runs.

hmfcert.cli registers every module of the package when it is imported and
runs a module's body on first use, so each command pays start-up only for
the modules it calls.  Nor does any command load dataclasses, and with it
inspect, ast, dis and tokenize: the package's records are namedtuples and
plain classes.  Each check runs in a fresh interpreter, since the test
process has long since loaded everything.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Standard-library modules that no command may load: dataclasses imports
# inspect, which imports ast, dis and tokenize.
HEAVY = ("dataclasses", "inspect")

# Runs ``python -m hmfcert.cli ARGV`` through runpy, then prints its exit code,
# the hmfcert modules whose bodies executed (a module that is registered but
# never used keeps its lazy module type) and the HEAVY modules loaded.
WHICH = textwrap.dedent(f"""
    import contextlib, io, json, runpy, sys, types
    sys.argv = ["hmfcert", *sys.argv[1:]]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("hmfcert.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    ran = sorted(name.split(".", 1)[1] for name, m in sys.modules.items()
                 if name.startswith("hmfcert.") and type(m) is types.ModuleType)
    print(json.dumps([code, ran, [m for m in {HEAVY!r} if m in sys.modules]]))
""")


def _python(*args, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-B", *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, **kwargs)


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    d = tmp_path_factory.mktemp("configs")
    q5 = d / "q5.json"
    q5.write_text(json.dumps({"field": {"min_poly": [-5, 0, 1], "units": [["3/2", "1/2"]]},
                              "weight": {"k": [4, 2]}, "level": {"Delta": 20}}))
    cm = d / "cm.json"
    cm.write_text(json.dumps({"lattice": [[1, 1], [0, 5]], "split": 1, "p": 5,
                              "ops": [[[2, 0], [0, 7]]]}))
    return {"q5": str(q5), "cm": str(cm)}


COMMANDS = [
    (["weights", "--k", "4,2"], ["exact", "primes", "weights"]),
    (["bgg-table", "--k", "4,2,2"], ["bgg", "exact", "primes", "weights"]),
    (["recover-weights", "--multiset", "1,2,4,5", "--d", "2"], ["exact", "gl2img", "primes"]),
    (["classify-image", "--p", "7", "--gens", "1,1,0,1;1,0,1,1", "--li"],
     ["exact", "gl2img", "primes"]),
    (["exclude-primes", "--config", "{q5}"],
     ["criteria", "exact", "nfield", "primes", "weights"]),
    (["congruence-module", "--config", "{cm}"], ["exact", "lattice", "primes"]),
    (["adjoint-check", "--samples", "2"],
     ["exact", "modform", "nfield", "primes", "weights"]),
]


@pytest.mark.parametrize("argv,expected", COMMANDS, ids=[c[0][0] for c in COMMANDS])
def test_command_runs_only_its_modules(configs, argv, expected):
    argv = [a.format(**configs) for a in argv]
    out = _python("-c", WHICH, *argv)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [0, expected, []]


def test_import_registers_every_module_and_the_tracer_installs():
    modules = sorted(f"hmfcert.{name[:-3]}" for name in os.listdir(os.path.join(SRC, "hmfcert"))
                     if name.endswith(".py") and name != "__init__.py")
    script = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {os.path.join(ROOT, "bench")!r})
        import hmfcert.cli
        registered = sorted(n for n in sys.modules if n.startswith("hmfcert."))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
        print(json.dumps(registered))
    """)
    out = _python("-c", script)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == modules


def test_validation_error_after_lazy_load():
    out = _python("-m", "hmfcert.cli", "weights", "--k", "3,4")
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("validation error: ")


def test_validation_error_runs_only_its_modules():
    # run() catches ValueError alone, so an error path loads no module to
    # name the exception classes it catches
    out = _python("-c", WHICH, "weights", "--k", "3,4")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [1, ["exact", "primes", "weights"], []]


def test_classify_image_default_cap():
    argv = ["-m", "hmfcert.cli", "classify-image", "--p", "7", "--gens", "1,1,0,1;1,0,1,1"]
    default = _python(*argv)
    explicit = _python(*argv, "--cap", "1000000")
    assert default.returncode == explicit.returncode == 0
    assert default.stdout == explicit.stdout != ""
    assert default.stderr == explicit.stderr == ""


def test_no_module_imports_dataclasses_or_typing():
    # site may preload typing (a .pth file can import it), so sys.modules
    # cannot show that the package does not; read the imports instead
    pkg = os.path.join(SRC, "hmfcert")
    found = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [(name, m) for m in modules
                      if m.split(".")[0] in ("dataclasses", "typing")]
    assert found == []


def test_exact_imports_nothing_from_the_package():
    # exact is the leaf module that nfield, lattice, gl2img and modform share,
    # so that each can use it without loading another
    with open(os.path.join(SRC, "hmfcert", "exact.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), "exact.py")
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert {"math", "fractions"} <= set(modules)
    assert [m for m in modules if m.startswith(".") or m.split(".")[0] == "hmfcert"] == []
