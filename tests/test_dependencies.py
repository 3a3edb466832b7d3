import ast
import re
import sys
from pathlib import Path

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
