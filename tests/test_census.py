"""The path census: no function in ``src/repro`` takes a parameter its body
never reads.

A parameter nobody reads is a path that only looks live: every caller
builds and threads a value the callee drops.  This walks every function
with the stdlib ``ast`` module and names each such parameter as
``file:line function(param)``.  Abstract and stub bodies are skipped, and
:data:`ALLOWED` keeps the few signatures that are fixed from outside,
each with its reason; an entry that no longer matches anything fails too,
so the list cannot go stale.
"""

import ast
import fnmatch
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``file::qualname(param)`` patterns (``fnmatch``) -> why the parameter
#: stays unread.
ALLOWED = {
    "service/verbs.py::_verb_*(*)":
        "the registry calls every verb handler as (server, conn, args)",
    "service/protocol.py::LineDialect.parse_request(op)":
        "LineDialect and FrameDialect share one signature; a JSON line "
        "carries its op inside the body",
    "service/protocol.py::FrameDialect.upgraded(version)":
        "LineDialect and FrameDialect share one signature; frames never "
        "change dialect again",
    "service/protocol.py::FrameDialect.reply(args)":
        "LineDialect and FrameDialect share one signature; a frame reply "
        "echoes no request field",
    "__main__.py::*.verifier(message)":
        "the loadtest verifier callback's signature is the load "
        "generator's; every verify checks one seeded pair",
    "*::*.__exit__(exc_info)":
        "the context-manager protocol passes the exception; these exits "
        "close either way",
    "*::*.__aexit__(exc_info)":
        "the context-manager protocol passes the exception; these exits "
        "close either way",
}


def _is_stub(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Abstract, overload or placeholder body: nothing to read with."""
    for decorator in function.decorator_list:
        name = getattr(decorator, "attr", getattr(decorator, "id", ""))
        if name in ("abstractmethod", "overload"):
            return True
    body = function.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    if all(isinstance(statement, ast.Pass)
           or (isinstance(statement, ast.Expr)
               and isinstance(statement.value, ast.Constant))
           for statement in body):
        return True
    if len(body) == 1 and isinstance(body[0], ast.Raise) \
            and body[0].exc is not None:
        raised = body[0].exc
        raised = raised.func if isinstance(raised, ast.Call) else raised
        return getattr(raised, "id", "") == "NotImplementedError"
    return False


def _functions(tree: ast.AST, prefix: str = ""):
    """``(qualname, node)`` for every function, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qualname = f"{prefix}{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield qualname, node
            yield from _functions(node, qualname + ".")
        else:
            yield from _functions(node, prefix)


def unread_parameters(root: Path = SRC) -> list[tuple[str, str]]:
    """``(census key, "file:line function(param)")`` per unread parameter."""
    found = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        for qualname, function in _functions(ast.parse(path.read_text())):
            if _is_stub(function):
                continue
            arguments = function.args
            parameters = [*arguments.posonlyargs, *arguments.args,
                          *arguments.kwonlyargs,
                          *filter(None, (arguments.vararg, arguments.kwarg))]
            read = {node.id for statement in function.body
                    for node in ast.walk(statement)
                    if isinstance(node, ast.Name)}
            for parameter in parameters:
                name = parameter.arg
                if name in ("self", "cls") or name in read:
                    continue
                found.append((f"{relative}::{qualname}({name})",
                              f"{relative}:{function.lineno} "
                              f"{function.name}({name})"))
    return found


def test_every_parameter_is_read():
    unread = [where for key, where in unread_parameters()
              if not any(fnmatch.fnmatchcase(key, pattern)
                         for pattern in ALLOWED)]
    assert not unread, (
        "parameters no function body reads (delete them, or add an "
        "ALLOWED entry with its reason):\n  " + "\n  ".join(unread))


def test_every_allowance_is_still_needed():
    keys = [key for key, _ in unread_parameters()]
    stale = [pattern for pattern in ALLOWED
             if not any(fnmatch.fnmatchcase(key, pattern) for key in keys)]
    assert not stale, f"ALLOWED entries that match nothing: {stale}"


def test_the_census_sees_an_unread_parameter(tmp_path):
    (tmp_path / "module.py").write_text(
        "def build(params, compiler):\n"
        "    return params\n"
        "class Model:\n"
        "    def stub(self, unused):\n"
        "        raise NotImplementedError\n"
        "    def run(self, used, *dropped):\n"
        "        return [used for _ in range(2)]\n")
    assert [where for _, where in unread_parameters(tmp_path)] == [
        "module.py:1 build(compiler)", "module.py:6 run(dropped)"]
