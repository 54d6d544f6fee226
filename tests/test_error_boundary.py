import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "undersolve"


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_library_raises_only_solver_errors():
    # every rejection must carry a SolverError kind (and so a CLI exit code),
    # never a bare builtin exception such as ValueError
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = _raised_name(node)
            builtin = getattr(builtins, name or "", None)
            if isinstance(builtin, type) and issubclass(builtin, BaseException):
                offenders.append(f"{path.name}:{node.lineno}: raise {name}")
    assert not offenders, "\n".join(offenders)
