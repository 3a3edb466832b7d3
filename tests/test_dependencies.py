import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tests.conftest import child_env

ROOT = Path(__file__).resolve().parents[1]


def imported_packages(src: Path) -> set[str]:
    """Top-level names of every absolute import in the package's modules,
    lazy imports inside functions included."""
    names = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_dependencies(pyproject: Path) -> set[str]:
    body = re.search(
        r"^dependencies = \[(.*?)\]", pyproject.read_text(encoding="utf-8"), re.M | re.S
    ).group(1)
    return {name.lower().replace("-", "_") for name in re.findall(r'"([A-Za-z0-9_.\-]+)', body)}


def test_third_party_imports_are_exactly_the_declared_dependencies():
    third_party = imported_packages(ROOT / "src" / "lag") - set(sys.stdlib_module_names) - {"lag"}
    assert third_party == declared_dependencies(ROOT / "pyproject.toml")


def unused_imports(path: Path) -> list[str]:
    """Names a module imports at module level and never references; a
    reference is a bare name, or the head of a dotted one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in (ROOT / "src" / "lag").glob("*.py")))
def test_every_module_level_import_is_used(module):
    assert unused_imports(ROOT / "src" / "lag" / module) == []


def _definitions(body: list[ast.stmt]) -> list[str]:
    """Functions, classes and assigned names a block of statements defines,
    dunders excepted."""
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def top_level_definitions(path: Path) -> list[str]:
    """Functions, classes and assigned names a module defines at top level,
    dunders excepted."""
    return _definitions(ast.parse(path.read_text(encoding="utf-8")).body)


def class_members(path: Path) -> list[str]:
    """Methods, properties, class attributes and dataclass fields of the
    classes a module defines at top level, dunders excepted."""
    names = []
    for cls in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(cls, ast.ClassDef):
            names += _definitions(cls.body)
    return names


def referenced_names() -> set[str]:
    """Every name read, attribute taken, keyword argument passed or name
    imported in the program's Python files, and every identifier in README's
    code blocks."""
    names = set()
    for folder in ("src", "lagbench", "benchmarks"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
    for block in re.findall(r"```\w*\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        names.update(re.findall(r"\w+", block))
    return names


@pytest.mark.parametrize("module", sorted(p.name for p in (ROOT / "src" / "lag").glob("*.py")))
def test_every_top_level_definition_is_used(module):
    used = referenced_names()
    dead = [n for n in top_level_definitions(ROOT / "src" / "lag" / module) if n not in used]
    assert dead == []


@pytest.mark.parametrize("module", sorted(p.name for p in (ROOT / "src" / "lag").glob("*.py")))
def test_every_class_member_is_used(module):
    used = referenced_names()
    dead = [n for n in class_members(ROOT / "src" / "lag" / module) if n not in used]
    assert dead == []


def lag_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) of every ``from lag... import name`` in a file, lazy
    imports inside functions included."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "lag"
        for alias in node.names
    ]


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "benchmarks").glob("*.py")))
def test_every_lag_import_in_the_benchmarks_resolves(script):
    # the benchmarks import lag lazily, inside the functions that time it
    missing = [
        f"{module}.{name}" for module, name in lag_imports(ROOT / "benchmarks" / script)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


BENCH_KERNELS_ROWS = [
    "attention.prefill", "attention.prefill392", "attention.decode",
    "greedy_decode.prefix0", "greedy_decode.prefix512", "greedy_decode.prefix2048",
    "model.decode_step", "store.open",
    "assemble.prefix3", "assemble.prefix10", "assemble.prefix24",
    "store.put", "generate.rounds4", "generate.repeat4", "encode_log.last_round",
]


def test_bench_kernels_measures_every_row():
    # one child of benchmarks/bench_kernels.py, as the script starts each:
    # one BLAS thread, over this suite's lag; it calls what the imports
    # above only resolve
    env = child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"), "--measure"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert sorted(rows) == sorted(BENCH_KERNELS_ROWS)
    assert all(row["ms"] > 0 for row in rows.values())


def test_setup_path_imports_no_serving_module():
    # what a fresh process loads to build the model and open a store
    code = (
        "import sys, lag, lag.config, lag.model, lag.store; "
        "print(sorted(m for m in ('lag.backends', 'lag.orchestrator', 'lag.metrics', "
        "'urllib.request') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], check=True, env=child_env(),
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "[]"


def test_setup_path_starts_no_thread(tmp_path):
    # the attention kernel's workers start with the first split call, so set-up
    # pays neither for a thread nor for a thread-pool import
    from lag.codec import LogEntry, SelectionStrategy
    from lag.config import ModelConfig
    from lag.model import build_model, encode
    from lag.store import LogStore

    model = build_model(ModelConfig())
    with LogStore(tmp_path / "s", "w") as store:
        store.put(LogEntry(
            task_text="t", retrieval_key_text="k", embedding=np.ones(4, dtype=np.float32) / 2,
            strategy=SelectionStrategy("last_round"), kv=encode(model, list(range(16)))[0],
        ))
    code = (
        "import sys, threading, lag.config, lag.model, lag.store; "
        "lag.model.build_model(lag.config.ModelConfig()); "
        f"lag.store.LogStore({str(tmp_path / 's')!r}, 'r'); "
        "print(threading.active_count(), sorted(m for m in ('concurrent.futures', "
        "'multiprocessing', 'queue') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], check=True, env=child_env(),
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "1 []"


IN_PROCESS_RUN = (
    "import argparse, lag.cli, lag.runner, lag.synth, lag.orchestrator; "
    "from lag.config import ModelConfig; from lag.model import build_model; "
    "model = build_model(ModelConfig()); "
    "[lag.cli._build_generator(argparse.Namespace(generator=g), model) "
    "for g in ('reference', 'synth-hop')]"
)
LAGBENCH_WORKER = f"import sys; sys.path.insert(0, {str(ROOT / 'lagbench')!r}); import workloads"


@pytest.mark.parametrize("code", [IN_PROCESS_RUN, LAGBENCH_WORKER], ids=["cli", "lagbench"])
def test_in_process_runs_load_no_http_stack(code):
    code += (
        "; import sys; print(sorted(m for m in ('ssl', 'http.client', 'urllib.request') "
        "if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], check=True, env=child_env(),
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "[]"


def test_readme_library_example_runs():
    [block] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    subprocess.run([sys.executable, "-c", block], check=True, env=child_env())
