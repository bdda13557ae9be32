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

The settable-value census is the other half.  A default that no call
outside ``tests/`` overrides (:func:`unset_options`) is a value only a
test ever changes: it is a constant with extra plumbing.  A flag that no
page of ``docs/``, the README or CI names (:func:`unnamed_flags`) is a
knob no reader can find.

The reach census goes one step further: a function, method or class
that no code outside ``tests/`` names (:func:`unreached_definitions`) is
code only a test runs.  A method is named through its receiver where
the receiver's class is known, so a test-only method cannot hide behind
a live one of the same name.

The format census is the same rule for files: a reader whose format
only a test writes (:func:`format_findings`, over :data:`FORMATS`) is
code only a test runs too, and no name census can see it.
"""

import ast
import fnmatch
import re
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

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
    "service/protocol.py::LineDialect.encode_result(op)":
        "LineDialect and FrameDialect share one signature; a JSON line "
        "carries its op inside the result",
    "service/*.py::*.get_buffer(sizehint)":
        "asyncio's BufferedProtocol signature; a connection's buffer "
        "grows to what it reads, not to the transport's hint",
    "service/server.py::_Connection.connection_lost(exc)":
        "asyncio's Protocol signature; the peer's tasks answer either way",
    "service/server.py::_Connection._done(task)":
        "a task's done callback; whether to close depends on the whole "
        "connection",
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
    stale = [pattern
             for table, found in (
                 (ALLOWED, unread_parameters()),
                 (OPTIONS_ALLOWED, unset_options()),
                 (FLAGS_ALLOWED, unnamed_flags()),
                 (DEFINITIONS_ALLOWED, unreached_definitions()))
             for pattern in table
             if not any(fnmatch.fnmatchcase(key, pattern)
                        for key, _ in found)]
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


# ----------------------------------------------------------------------
# The option census: no default that only a test overrides
# ----------------------------------------------------------------------
#: Where a setting counts as set: the program, the repo's benchmark, the
#: paper tables and the examples — everything but ``tests/``.
CALLERS = tuple(REPO / name
                for name in ("src", "bench", "benchmarks", "examples"))

#: ``file::qualname(param)`` patterns (``fnmatch``) -> why the default
#: stays settable although nothing outside ``tests/`` sets it.
OPTIONS_ALLOWED = {
    "__main__.py::main(argv)":
        "the console script reads sys.argv; tests hand in their own",
    "api/*.py::*":
        "the repro.api surface, pinned signature by signature in "
        "tests/api_surface.json",
    "ledger/service.py::LedgerService.__init__(key)":
        "deployment setting: which of the log tenant's keys signs",
    "ledger/service.py::LedgerService.__init__(log_id)":
        "deployment setting: the log's name in every checkpoint",
    "ledger/service.py::LedgerService.__init__(tracer)":
        "the ledger's append/seal/prove span sink; no command serves a "
        "ledger, so only a library deployment wires one",
    "*::*.__init__(host)":
        "deployment setting: the interface a server binds",
    "runtime/pool.py::WorkerPool.ping(timeout)":
        "deployment setting: how long a liveness probe waits",
    "service/keystore.py::Keystore.__init__(max_cached)":
        "docs/operations.md documents the resident-tenant bound",
    "service/keystore.py::Keystore.__init__(rate_*)":
        "docs/operations.md documents per-tenant admission",
    "service/keystore.py::Keystore.set_rate_limit(rate_burst)":
        "docs/operations.md documents the per-tenant burst override",
    "service/keystore.py::Keystore.__init__(clock)":
        "seam: a test freezes the token buckets' clock",
    "runtime/pool.py::WorkerPool.inject_crash(when)":
        "seam: a test picks the moment a worker dies",
    "cluster/local.py::LocalCluster.__init__(router_keystore)":
        "seam: a test fronts an in-process fleet with a rate-limited "
        "registry, the router-side admission serve-cluster runs before "
        "a HOST:PORT fleet",
    "testing/chaos.py::FlakyProxy.__init__(*)":
        "repro.testing's kit: each chaos test dials its own faults",
    "testing/corpus.py::*(seed)":
        "repro.testing's kit: a fuzz test picks the seed it replays",
    "testing/oracle.py::DifferentialOracle.__init__(*)":
        "repro.testing's kit: tests run the passes they check on the "
        "corpus they need",
}


def _name(node: ast.AST) -> str | None:
    """The last name of a ``Name`` or ``Attribute``."""
    return getattr(node, "id", getattr(node, "attr", None))


def _definitions(root: Path):
    """``(file, qualname, enclosing class or None, function)``."""
    def walk(tree, prefix, cls, relative):
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, ast.ClassDef):
                yield from walk(node, f"{prefix}{node.name}.", node,
                                relative)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield relative, f"{prefix}{node.name}", cls, node
                yield from walk(node, f"{prefix}{node.name}.", None,
                                relative)
            else:
                yield from walk(node, prefix, cls, relative)

    for path in sorted(root.rglob("*.py")):
        yield from walk(ast.parse(path.read_text()), "", None,
                        path.relative_to(root).as_posix())


def _not_values(tree: ast.AST) -> set[int]:
    """Nodes that name a function or class without handing it on:
    annotations, base classes, ``isinstance`` / ``except`` types."""
    skipped = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            skipped += [node.returns] + [
                argument.annotation for argument in (
                    *arguments.posonlyargs, *arguments.args,
                    *arguments.kwonlyargs, arguments.vararg, arguments.kwarg)
                if argument is not None]
        elif isinstance(node, ast.AnnAssign):
            skipped.append(node.annotation)
        elif isinstance(node, ast.ClassDef):
            skipped += node.bases
        elif isinstance(node, ast.ExceptHandler):
            skipped.append(node.type)
        elif isinstance(node, ast.Call) \
                and _name(node.func) in ("isinstance", "issubclass"):
            skipped += node.args[1:]
    return {id(inner) for node in skipped if node is not None
            for inner in ast.walk(node)}


def unset_options(root: Path = SRC,
                  callers: tuple[Path, ...] = CALLERS
                  ) -> list[tuple[str, str]]:
    """``(census key, "file:line function(param)")`` per defaulted
    parameter of a function under *root* that no call under *callers*
    sets, by keyword or by position.

    Calls resolve by name: ``f(...)`` and ``x.f(...)`` to every ``f``,
    ``Cls(...)`` and ``cls(...)`` to the ``__init__`` that class runs,
    ``super().__init__(...)`` to the bases', and ``partial(f, ...)`` to
    ``f``.  A function or class that is ever handed on as a value (a verb
    table, a callback, a factory), and a call that forwards ``*args`` or
    ``**kwargs``, count as setting every parameter.
    """
    bases, has_init = {}, set()
    for _, qualname, cls, _ in _definitions(root):
        if cls is not None:
            bases[cls.name] = [_name(base) for base in cls.bases]
            if qualname.endswith(".__init__"):
                has_init.add(cls.name)

    def runs(name: str, seen: frozenset = frozenset()) -> str | None:
        """The class whose ``__init__`` a call to class *name* runs."""
        if name not in bases or name in seen:
            return None
        if name in has_init:
            return name
        return next(filter(None, (runs(base, seen | {name})
                                  for base in bases[name])), None)

    calls = []  # (target, positional count, keywords, forwards)
    names, attributes = set(), set()
    for path in sorted({path for folder in callers
                        for path in folder.rglob("*.py")}):
        tree = ast.parse(path.read_text())
        called = _not_values(tree)

        def visit(node, cls):
            if isinstance(node, ast.ClassDef):
                cls = node
            if isinstance(node, ast.Call):
                func, args = node.func, node.args
                if _name(func) == "partial" and args:
                    called.add(id(func))
                    func, args = args[0], args[1:]
                called.add(id(func))
                name = _name(func)
                if name == "__init__" and isinstance(func.value, ast.Call) \
                        and _name(func.value.func) == "super" and cls:
                    targets = [("init", runs(_name(base)))
                               for base in cls.bases]
                elif name == "cls" and cls:
                    targets = [("init", runs(cls.name))]
                elif name in bases:
                    targets = [("init", runs(name))]
                else:
                    targets = [("call", name)]
                forwards = any(isinstance(arg, ast.Starred) for arg in args) \
                    or any(keyword.arg is None for keyword in node.keywords)
                keywords = {keyword.arg for keyword in node.keywords}
                calls.extend((target, len(args), keywords, forwards)
                             for target in targets)
            elif isinstance(node, ast.Name) and id(node) not in called:
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                called.add(id(node.value))  # ``Cls.attr`` hands on no Cls
                if id(node) not in called:
                    attributes.add(node.attr)
            for child in ast.iter_child_nodes(node):
                visit(child, cls)

        visit(tree, None)

    found = []
    for relative, qualname, cls, function in _definitions(root):
        arguments = function.args
        positional = [*arguments.posonlyargs, *arguments.args]
        if cls is not None and not any(
                _name(decorator) == "staticmethod"
                for decorator in function.decorator_list):
            positional = positional[1:]  # self / cls
        first_default = len(positional) - len(arguments.defaults)
        defaulted = [(index, parameter.arg)
                     for index, parameter in enumerate(positional)
                     if index >= first_default]
        defaulted += [(None, parameter.arg) for parameter, default
                      in zip(arguments.kwonlyargs, arguments.kw_defaults)
                      if default is not None]
        if function.name == "__init__" and cls is not None:
            target, handed_on = ("init", cls.name), \
                cls.name in names | attributes
        else:
            target = ("call", function.name)
            handed_on = function.name in attributes \
                or (cls is None and function.name in names)
        if handed_on:
            continue
        mine = [call for call in calls if call[0] == target]
        for index, name in defaulted:
            if not any(forwards or name in keywords
                       or (index is not None and index < count)
                       for _, count, keywords, forwards in mine):
                found.append((f"{relative}::{qualname}({name})",
                              f"{relative}:{function.lineno} "
                              f"{qualname}({name})"))
    return found


def test_every_option_is_set_outside_tests():
    unset = [where for key, where in unset_options()
             if not any(fnmatch.fnmatchcase(key, pattern)
                        for pattern in OPTIONS_ALLOWED)]
    assert not unset, (
        "defaults nothing outside tests/ overrides (make each a constant, "
        "or add an OPTIONS_ALLOWED entry with its reason):\n  "
        + "\n  ".join(unset))


def test_the_census_sees_an_option_only_tests_set(tmp_path):
    package, tests = tmp_path / "pkg", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "module.py").write_text(
        "import functools\n"
        "def plain(a, b=1, c=2):\n"
        "    return a, b, c\n"
        "def forwarded(x=1):\n"
        "    return x\n"
        "def handler(y=1):\n"
        "    return y\n"
        "def bound(p=0, q=0):\n"
        "    return p, q\n"
        "class Base:\n"
        "    def __init__(self, size=1, mode='a'):\n"
        "        self.size, self.mode = size, mode\n"
        "class Child(Base):\n"
        "    def __init__(self, extra=0, spare=0):\n"
        "        super().__init__(mode='b')\n"
        "        self.extra, self.spare = extra, spare\n"
        "    @classmethod\n"
        "    def make(cls) -> 'Child':\n"
        "        return cls(extra=1)\n"
        "def main(**options):\n"
        "    plain(0, 5)\n"
        "    forwarded(**options)\n"
        "    functools.partial(bound, q=3)()\n"
        "    return {'verb': handler}, Child.make()\n")
    (tests / "test_module.py").write_text(
        "from pkg.module import Base, Child, bound, plain\n"
        "plain(0, c=3), bound(p=1), Base(size=2), Child(spare=1)\n")
    assert [where for _, where in unset_options(package, (package,))] == [
        "module.py:2 plain(c)", "module.py:8 bound(p)",
        "module.py:11 Base.__init__(size)",
        "module.py:14 Child.__init__(spare)"]
    assert unset_options(package, (package, tests)) == []


# ----------------------------------------------------------------------
# The flag census, second half: no flag that no page names
# ----------------------------------------------------------------------
#: The pages a flag must be named on: every doc, the README and CI.
PAGES = (*sorted((REPO / "docs").glob("*.md")), REPO / "README.md",
         REPO / ".github" / "workflows" / "ci.yml")

#: Flag patterns (``fnmatch``) -> why no page names the flag.
FLAGS_ALLOWED = {
    "--protocol": "goes with the v2 dialect (ROADMAP item 5(a)); "
                  "documenting it now would document a deletion",
}


def unnamed_flags(path: Path = MAIN, pages: tuple[Path, ...] = PAGES
                  ) -> list[tuple[str, str]]:
    """``(flag, "file:line flag")`` per ``add_argument`` flag that no
    page in *pages* names as a whole word (``--key`` is not named by
    ``--keystore``)."""
    text = "\n".join(page.read_text() for page in pages)
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) \
                and getattr(node.func, "attr", None) == "add_argument":
            for flag in (arg.value for arg in node.args
                         if isinstance(arg, ast.Constant)):
                if flag.startswith("--") and not re.search(
                        rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text):
                    found.append((node.lineno, flag))
    return [(flag, f"{path.name}:{line} {flag}")
            for line, flag in sorted(found)]


def test_every_flag_is_named_by_a_page():
    unnamed = [where for flag, where in unnamed_flags()
               if not any(fnmatch.fnmatchcase(flag, pattern)
                          for pattern in FLAGS_ALLOWED)]
    assert not unnamed, (
        "flags no doc, README line or CI step names (document them, or "
        "delete them with their plumbing):\n  " + "\n  ".join(unnamed))


def test_the_census_sees_a_flag_only_help_names(tmp_path):
    (tmp_path / "cli.py").write_text(
        "p.add_argument('--named', help='documented')\n"
        "p.add_argument('-k', '--key', help='only --help names it')\n"
        "p.add_argument('--hidden', help='only --help names it')\n")
    (tmp_path / "page.md").write_text(
        "Run with `--named`; `--keystore` and `--hidden-too` are others.\n")
    assert unnamed_flags(tmp_path / "cli.py", (tmp_path / "page.md",)) == [
        ("--key", "cli.py:2 --key"), ("--hidden", "cli.py:3 --hidden")]


# ----------------------------------------------------------------------
# The reach census: no definition that only tests reach
# ----------------------------------------------------------------------
#: ``file::qualname`` patterns (``fnmatch``) -> why the definition stays
#: although nothing outside ``tests/`` names it.
DEFINITIONS_ALLOWED = {
    "api/*.py::*":
        "the repro.api surface, pinned signature by signature in "
        "tests/api_surface.json",

    "obs/metrics.py::parse_prometheus":
        "repro.testing's kit: tests read /metrics back through it",
    "testing/chaos.py::FlakyProxy":
        "repro.testing's kit: the chaos tests' fault-injecting proxy",
    "testing/corpus.py::*":
        "repro.testing's kit: the fuzz corpora tests replay",
    "runtime/pool.py::WorkerPool.inject_crash":
        "seam: a test kills a worker at a chosen moment",
    "cluster/local.py::LocalCluster.restart_node":
        "seam: a test brings a killed node back",
    "gpusim/occupancy.py::paper_occupancy_eq1":
        "the paper's Eq. 1, which tests hold the occupancy model to",
    "runtime/layercache.py::tradeoff_table":
        "docs/architecture.md prints the layer-cache trade-off table",
    "runtime/layercache.py::savings_fraction":
        "a column of the trade-off table docs/architecture.md prints",
    "service/keystore.py::Keystore.set_rate_limit":
        "docs/operations.md documents per-tenant admission overrides",
    "service/keystore.py::Keystore.rotate_key":
        "docs/operations.md documents key rotation for library "
        "deployments",
    "service/keystore.py::Keystore.delete_tenant":
        "docs/operations.md documents tenant removal for library "
        "deployments",
}


#: Methods that code outside the scanned tree calls by their names: they
#: are reached from the start, and so is what their bodies name.
CALLED_BY_NAME = {
    **{f"service/*.py::*.{callback}":
       "asyncio calls a protocol's callbacks by their names"
       for callback in ("connection_made", "connection_lost", "get_buffer",
                        "buffer_updated", "eof_received", "pause_writing",
                        "resume_writing")},
    "obs/metrics.py::*.Handler.do_GET":
        "http.server calls the handler hook by its name",
    "obs/metrics.py::*.Handler.log_message":
        "http.server calls the handler hook by its name",
}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _instances(scope: ast.AST, classes: set[str]) -> tuple[set, dict]:
    """The names *scope* binds, and of those the ones bound exactly once,
    by ``x = Cls(...)``, mapped to ``Cls``.  Nested functions are scopes
    of their own; class bodies and comprehensions count as this one (a
    second binding only makes the name unknown)."""
    counts, built = {}, {}

    def bind(name, times=1):
        counts[name] = counts.get(name, 0) + times

    if isinstance(scope, _SCOPES):
        arguments = scope.args
        for argument in (*arguments.posonlyargs, *arguments.args,
                         *arguments.kwonlyargs, arguments.vararg,
                         arguments.kwarg):
            if argument is not None:
                bind(argument.arg)
    body = scope.body if isinstance(scope.body, list) else [scope.body]
    pending = list(body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bind(node.name)
        if isinstance(node, _SCOPES):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bind(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bind(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bind(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            for name in node.names:
                bind(name, 2)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            value = node.value
            if len(targets) == 1 and isinstance(targets[0], ast.Name) \
                    and isinstance(value, ast.Call) \
                    and _name(value.func) in classes:
                built[targets[0].id] = _name(value.func)
        pending.extend(ast.iter_child_nodes(node))
    return set(counts), {name: cls for name, cls in built.items()
                         if counts.get(name) == 1}


def _receiver(value: ast.AST, cls: str | None, scopes: tuple,
              classes: set[str]) -> str | None:
    """The class an attribute's receiver *value* is known to be, if any:
    ``self``, ``cls`` and ``super()`` are the enclosing class *cls*,
    ``Cls(...)`` is ``Cls``, and a name bound once, by ``x = Cls(...)``,
    in the scope it resolves to is ``Cls``."""
    if isinstance(value, ast.Name) and value.id in ("self", "cls"):
        return cls
    if isinstance(value, ast.Call):
        name = _name(value.func)
        if name == "super":
            return cls
        return name if name in classes else None
    if isinstance(value, ast.Name):
        for bound, built in scopes:
            if value.id in bound:
                return built.get(value.id)
    return None


def unreached_definitions(root: Path = SRC,
                          callers: tuple[Path, ...] = CALLERS,
                          called_by_name: dict[str, str] = CALLED_BY_NAME
                          ) -> list[tuple[str, str]]:
    """``(census key, "file:line qualname")`` per function, method or
    class under *root* that no code under *callers* names.

    A definition is reached when a reached scope names it — as a
    ``Name``, an ``Attribute`` or an import — and a scope is reached when
    it is module-level code, code outside *root*, or the body of a
    reached definition, so a name used only inside unreached definitions
    (its own body included) reaches nothing.

    An attribute resolves by its receiver where the receiver's class is
    known (:func:`_receiver`): ``self.m``, ``cls.m``, ``super().m``,
    ``Cls(...).m`` and ``x.m`` after ``x = Cls(...)`` reach ``m`` on every
    class a receiver of that class can dispatch to — the class, its
    in-tree bases, its in-tree subclasses and theirs — so interfaces and
    overrides stay live.  Any other name resolves by its last part:
    ``x.sign`` reaches every ``sign``.  A package's ``__init__.py``
    re-exports reach nothing, strings (``__all__``, docstrings) are not
    names, and dunder methods are never reported; their bodies belong to
    their class.  A definition *called_by_name* matches is reached.
    """
    definitions = {}  # census key -> (node, name, relative path, class)
    # census key of the owning definition, None at top -> the names and
    # ``(class, attribute)`` pairs its body uses
    names = {}
    inside = {path.resolve() for path in root.rglob("*.py")}
    trees = {path: ast.parse(path.read_text())
             for path in sorted({path for folder in (root, *callers)
                                 for path in folder.rglob("*.py")})}
    bases = {}  # class name -> the names of its bases, every file
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    filter(None, map(_name, node.bases)))
    classes = set(bases)

    def walk(tree, owner, prefix, relative, reexports, cls, member,
             scopes):
        for node in ast.iter_child_nodes(tree):
            # Inside the node: the class ``self`` names, the class a def
            # is a method of, and the scopes a name looks itself up in.
            inner_cls, inner_member, inner = cls, member, scopes
            if isinstance(node, ast.ClassDef):
                inner_cls = inner_member = node.name
            elif isinstance(node, _SCOPES):
                inner_member = None
                inner = (_instances(node, classes), *scopes)
            if relative is not None and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
                qualname = prefix + node.name
                scope = owner
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    scope = f"{relative}::{qualname}"
                    definitions[scope] = (node, node.name, relative, member)
                walk(node, scope, qualname + ".", relative, reexports,
                     inner_cls, inner_member, inner)
                continue
            found = names.setdefault(owner, set())
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                receiver = _receiver(node.value, cls, scopes, classes)
                found.add((receiver, node.attr) if receiver else node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and not reexports:
                found.update(alias.name.rpartition(".")[2]
                             for alias in node.names)
            walk(node, owner, prefix, relative, reexports, inner_cls,
                 inner_member, inner)

    for path, tree in trees.items():
        mine = path.resolve() in inside
        walk(tree, None, "",
             path.relative_to(root).as_posix() if mine else None,
             mine and path.name == "__init__.py", None, None,
             (_instances(tree, classes),))

    subclasses = {}
    for name, parents in bases.items():
        for parent in parents:
            subclasses.setdefault(parent, set()).add(name)

    def closure(start: str, edges: dict) -> set[str]:
        found, pending = set(), [start]
        while pending:
            name = pending.pop()
            if name not in found:
                found.add(name)
                pending.extend(edges.get(name, ()))
        return found

    def dispatch(cls: str) -> set[str]:
        """Every class whose methods a receiver of class *cls* runs."""
        return {ancestor for below in closure(cls, subclasses)
                for ancestor in closure(below, bases)}

    by_name = {}  # definition name -> [(census key, its class)]
    for key, (_, name, _, member) in definitions.items():
        by_name.setdefault(name, []).append((key, member))

    def targets(reference) -> list[str]:
        if isinstance(reference, str):
            return [key for key, _ in by_name.get(reference, ())]
        cls, name = reference
        family = dispatch(cls)
        return [key for key, member in by_name.get(name, ())
                if member in family]

    reached = {key for key in definitions
               if any(fnmatch.fnmatchcase(key, pattern)
                      for pattern in called_by_name)}
    pending = [reference for key in (None, *reached)
               for reference in names.get(key, ())]
    seen = set()
    while pending:
        reference = pending.pop()
        if reference in seen:
            continue
        seen.add(reference)
        for key in targets(reference):
            if key not in reached:
                reached.add(key)
                pending.extend(names.get(key, ()))
    return [(key, f"{relative}:{node.lineno} {key.partition('::')[2]}")
            for key, (node, _, relative, _) in definitions.items()
            if key not in reached]


def test_every_definition_is_reached_outside_tests():
    unreached = [where for key, where in unreached_definitions()
                 if not any(fnmatch.fnmatchcase(key, pattern)
                            for pattern in DEFINITIONS_ALLOWED)]
    assert not unreached, (
        "definitions nothing outside tests/ names (delete them with the "
        "tests that only they served, or add a DEFINITIONS_ALLOWED entry "
        "with its reason):\n  " + "\n  ".join(unreached))


def test_every_name_called_from_outside_is_defined():
    unreached = [key for key, _ in unreached_definitions(called_by_name={})]
    stale = [pattern for pattern in CALLED_BY_NAME
             if not any(fnmatch.fnmatchcase(key, pattern)
                        for key in unreached)]
    assert not stale, f"CALLED_BY_NAME entries that match nothing: {stale}"


def test_the_census_sees_a_definition_only_tests_call(tmp_path):
    package, tests = tmp_path / "pkg", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "__init__.py").write_text(
        "from .module import Model, reexported, used\n"
        "__all__ = ['Model', 'reexported', 'used']\n")
    (package / "module.py").write_text(
        "def used():\n"
        "    return _helper()\n"
        "def _helper():\n"
        "    return 1\n"
        "def reexported():\n"
        "    'Only a docstring names used().'\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else _only_for_tested()\n"
        "def _only_for_tested():\n"
        "    return 0\n"
        "class Model:\n"
        "    def __init__(self):\n"
        "        self.size = _sized()\n"
        "    def method(self):\n"
        "        return self.size\n"
        "def _sized():\n"
        "    return 2\n"
        "print(used(), Model().method())\n")
    (tests / "test_module.py").write_text(
        "from pkg.module import recursive, reexported\n"
        "recursive(2), reexported()\n")
    assert [where for _, where in unreached_definitions(
        package, (package,))] == [
        "module.py:5 reexported", "module.py:7 recursive",
        "module.py:9 _only_for_tested"]
    assert unreached_definitions(package, (package, tests)) == []


def test_the_census_resolves_a_method_by_its_receiver(tmp_path):
    package, tests = tmp_path / "pkg", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "module.py").write_text(
        "class Service:\n"
        "    def report(self):\n"
        "        return self._render()\n"
        "    def _render(self):\n"
        "        return 'service'\n"
        "class Scheduler:\n"
        "    def report(self):\n"
        "        return 'scheduler'\n"
        "class Base:\n"
        "    def run(self):\n"
        "        return self.step()\n"
        "    def step(self):\n"
        "        return 0\n"
        "    def spare(self):\n"
        "        return 0\n"
        "    def _unused(self):\n"
        "        return 0\n"
        "class Child(Base):\n"
        "    def step(self):\n"
        "        return 1\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls._build()\n"
        "    @classmethod\n"
        "    def _build(cls):\n"
        "        return cls()\n"
        "    def run(self):\n"
        "        return super().run()\n"
        "class Other:\n"
        "    def _unused(self):\n"
        "        return 1\n"
        "    def spare(self):\n"
        "        return 1\n"
        "_SHARED = Other()\n"
        "def main():\n"
        "    service = Service()\n"
        "    scheduler = Scheduler()\n"
        "    either = Child()\n"
        "    either = _SHARED\n"
        "    return (service, scheduler.report(), Child.make().run(),\n"
        "            either.spare(), _SHARED._unused())\n"
        "main()\n")
    (tests / "test_module.py").write_text(
        "from pkg.module import Base, Service\n"
        "Service().report(), Base()._unused()\n")
    assert [where for _, where in unreached_definitions(
        package, (package,))] == [
        "module.py:2 Service.report", "module.py:4 Service._render",
        "module.py:16 Base._unused"]
    assert unreached_definitions(package, (package, tests)) == []


# ----------------------------------------------------------------------
# The format census: no file reader whose only writer is a test
# ----------------------------------------------------------------------
class Format(NamedTuple):
    """One on-disk format: the ``file::qualname`` under ``src/repro``
    that reads it, and the one that writes it — or, for a file the user
    brings, the reason nothing in the program writes it."""

    reader: str
    writer: str | None = None
    reason: str = ""


#: Every on-disk format the program reads, by its path pattern.
FORMATS = {
    "<keystore>/shards/<xx>/<tenant>.json":
        Format("service/keystore.py::Keystore._load_tenant",
               "service/keystore.py::Keystore._save"),
    "<log>/segments/<start>.seg":
        Format("ledger/merkle.py::MerkleLog._load",
               "ledger/merkle.py::MerkleLog.write_segment"),
    "<log>/checkpoints/<size>.json":
        Format("ledger/service.py::load_checkpoints",
               "ledger/service.py::LedgerService._sign_and_write"),
    "--trace-out <spans>.jsonl, read by trace --input":
        Format("obs/trace.py::load_spans", "obs/trace.py::Tracer.record"),
    "sign --out <signature>, read by verify --sig":
        Format("__main__.py::_cmd_verify", "__main__.py::_cmd_sign"),
    "<vectors>/kat_<set>.json":
        Format("testing/kat.py::load_kat", "testing/kat.py::generate_kat"),
    "sign / verify --file <message>":
        Format("__main__.py::_read_message",
               reason="the user's message: the program signs and verifies "
                      "the bytes it is handed"),
}


def _reads_a_file(call: ast.Call) -> bool:
    """``x.read_text()``, ``x.read_bytes()``, ``json.load(...)``, or the
    builtin ``open`` with no mode or one that neither writes, appends,
    creates nor updates."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("read_text", "read_bytes") or (
            func.attr == "load" and _name(func.value) == "json")
    if getattr(func, "id", None) != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (keyword.value for keyword in call.keywords
         if keyword.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant)
                and set(str(mode.value)) & set("wax+"))


def file_readers(root: Path = SRC) -> dict[str, str]:
    """``census key -> "file:line qualname"`` per function under *root*
    whose own body (not a nested function's) reads a file."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        for qualname, function in _functions(ast.parse(path.read_text())):
            pending = list(function.body)
            while pending:
                node = pending.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(node, ast.Call) and _reads_a_file(node):
                    found[f"{relative}::{qualname}"] = \
                        f"{relative}:{function.lineno} {qualname}"
                    break
                pending.extend(ast.iter_child_nodes(node))
    return found


def format_findings(root: Path = SRC, callers: tuple[Path, ...] = CALLERS,
                    formats: dict[str, Format] = FORMATS) -> list[str]:
    """What is wrong with *formats*: a function under *root* that reads a
    file no entry names, an entry whose reader reads no file, and an
    entry whose writer is not defined or is reached only from tests (by
    :func:`unreached_definitions` over *callers*)."""
    readers = file_readers(root)
    listed = {entry.reader for entry in formats.values()}
    defined = {f"{relative}::{qualname}"
               for relative, qualname, _, _ in _definitions(root)}
    unreached = {key for key, _ in unreached_definitions(root, callers)}
    found = [f"{where} reads a file no FORMATS entry names"
             for key, where in readers.items() if key not in listed]
    for pattern, entry in formats.items():
        if entry.reader not in readers:
            found.append(f"{pattern}: {entry.reader} reads no file")
        if entry.writer is None:
            if not entry.reason:
                found.append(f"{pattern}: names neither a writer nor the "
                             "reason it has none")
        elif entry.writer not in defined:
            found.append(f"{pattern}: {entry.writer} is not defined")
        elif entry.writer in unreached:
            found.append(f"{pattern}: its writer {entry.writer} is "
                         "reached only from tests")
    return found


def test_every_file_format_names_a_live_writer():
    found = format_findings()
    assert not found, (
        "file readers without a listed format or a live writer (delete a "
        "reader whose only writer is a test, with its tests; or list the "
        "format in FORMATS):\n  " + "\n  ".join(found))


def test_the_census_sees_a_reader_only_tests_write_for(tmp_path):
    package, tests = tmp_path / "pkg", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "store.py").write_text(
        "import json\n"
        "class Store:\n"
        "    def save(self, path, value):\n"
        "        path.write_text(json.dumps(value))\n"
        "    def load(self, path):\n"
        "        return json.loads(path.read_text())\n"
        "class Cache:\n"
        "    def save(self, path):\n"
        "        with open(path, 'a') as handle:\n"
        "            handle.write('{}')\n"
        "    def load(self, path):\n"
        "        with open(path) as handle:\n"
        "            return json.load(handle)\n"
        "def peek(path):\n"
        "    with open(path, mode='rb') as handle:\n"
        "        return handle.read()\n"
        "def given(path):\n"
        "    return path.read_bytes()\n"
        "def main(path):\n"
        "    store = Store()\n"
        "    cache = Cache()\n"
        "    cache.save(path)\n"
        "    return (store.load(path), cache.load(path), peek(path),\n"
        "            given(path))\n"
        "print(main)\n")
    (tests / "test_store.py").write_text(
        "from pkg.store import Store\n"
        "Store().save(None, 1)\n")
    formats = {
        "<dir>/store.json": Format("store.py::Store.load",
                                   "store.py::Store.save"),
        "<dir>/cache.json": Format("store.py::Cache.load",
                                   "store.py::Cache.save"),
        "<input>": Format("store.py::given", reason="the user's file"),
        "<gone>": Format("store.py::Cache.save", "store.py::gone"),
        "<unexplained>": Format("store.py::given"),
    }
    stale = ["<gone>: store.py::Cache.save reads no file",
             "<gone>: store.py::gone is not defined",
             "<unexplained>: names neither a writer nor the reason it has "
             "none"]
    assert format_findings(package, (package,), formats) == [
        "store.py:14 peek reads a file no FORMATS entry names",
        "<dir>/store.json: its writer store.py::Store.save is reached "
        "only from tests", *stale]
    assert format_findings(package, (package, tests), formats) == [
        "store.py:14 peek reads a file no FORMATS entry names", *stale]
