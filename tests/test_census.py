"""The path census: no function in ``src/repro`` takes a parameter its body
never reads, and no command of ``python -m repro`` takes a flag it never
reads.

A parameter nobody reads is a path that only looks live: every caller
builds and threads a value the callee drops.  This walks every function
with the stdlib ``ast`` module and names each such parameter as
``file:line function(param)``.  Abstract and stub bodies are skipped, and
:data:`ALLOWED` keeps the few signatures that are fixed from outside,
each with its reason; an entry that no longer matches anything fails too,
so the list cannot go stale.

The flag census is the same rule one level up: an ``add_argument`` whose
value the command's handler never reads (:func:`unread_flags`) is a knob
that only looks live.
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


# ----------------------------------------------------------------------
# The flag census: no command-line flag its command never reads
# ----------------------------------------------------------------------
MAIN = SRC / "__main__.py"


def _dest(call: ast.Call) -> str:
    """The namespace attribute an ``add_argument`` call fills."""
    for keyword in call.keywords:
        if keyword.arg == "dest":
            return keyword.value.value
    names = [arg.value for arg in call.args if isinstance(arg, ast.Constant)]
    flags = [name for name in names if name.startswith("--")]
    return (flags or names)[0].lstrip("-").replace("-", "_")


def unread_flags(path: Path = MAIN) -> list[str]:
    """``"file:line command(--flag)"`` per ``add_argument`` whose dest
    the handler of its command — or a function of the module that the
    handler calls, however deep — never reads as ``args.<dest>`` or
    ``getattr(args, "<dest>", ...)``."""
    tree = ast.parse(path.read_text())
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def adds(scope: ast.AST, parser: str) -> list[ast.Call]:
        """``add_argument`` calls on *parser* in *scope*, and in every
        function of the module *parser* is handed to."""
        found = []
        for call in (node for node in ast.walk(scope)
                     if isinstance(node, ast.Call)):
            func = call.func
            if isinstance(func, ast.Attribute) \
                    and func.attr == "add_argument" \
                    and getattr(func.value, "id", None) == parser:
                found.append(call)
            elif isinstance(func, ast.Name) and func.id in functions \
                    and any(getattr(arg, "id", None) == parser
                            for arg in call.args):
                helper = functions[func.id]
                index = [getattr(arg, "id", None)
                         for arg in call.args].index(parser)
                found += adds(helper, helper.args.args[index].arg)
        return found

    def reads(function, seen: set) -> set[str]:
        if function.name in seen:
            return set()
        seen.add(function.name)
        found = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute) \
                    and getattr(node.value, "id", None) == "args":
                found.add(node.attr)
            elif isinstance(node, ast.Call) \
                    and getattr(node.func, "id", None) == "getattr" \
                    and getattr(node.args[0], "id", None) == "args":
                found.add(node.args[1].value)
            elif isinstance(node, ast.Call) \
                    and getattr(node.func, "id", None) in functions:
                found |= reads(functions[node.func.id], seen)
        return found

    commands = {}  # parser variable -> command name
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and getattr(node.value.func, "attr", None) == "add_parser":
            commands[node.targets[0].id] = node.value.args[0].value
    unread = []
    for call in calls:
        if getattr(call.func, "attr", None) != "set_defaults":
            continue
        parser = call.func.value.id
        [handler] = [keyword.value.id for keyword in call.keywords
                     if keyword.arg == "func"]
        read = reads(functions[handler], set())
        for add in adds(tree, parser):
            if _dest(add) not in read:
                unread.append(f"{path.name}:{add.lineno} "
                              f"{commands[parser]}({add.args[0].value})")
    return sorted(unread)


def test_every_flag_is_read():
    unread = unread_flags()
    assert not unread, (
        "flags whose command never reads them (delete them with their "
        "plumbing):\n  " + "\n  ".join(unread))


def test_the_census_sees_an_unread_flag(tmp_path):
    (tmp_path / "cli.py").write_text(
        "def _common(p):\n"
        "    p.add_argument('--used')\n"
        "    p.add_argument('--dropped-too')\n"
        "def _helper(args):\n"
        "    return args.used, getattr(args, 'optional', None)\n"
        "def _cmd_run(args):\n"
        "    return _helper(args), args.kept\n"
        "def main(argv):\n"
        "    p_run = sub.add_parser('run')\n"
        "    _common(p_run)\n"
        "    p_run.add_argument('-k', '--kept')\n"
        "    p_run.add_argument('--optional')\n"
        "    p_run.add_argument('--dropped', dest='gone')\n"
        "    p_run.set_defaults(func=_cmd_run)\n")
    assert unread_flags(tmp_path / "cli.py") == [
        "cli.py:13 run(--dropped)", "cli.py:3 run(--dropped-too)"]
