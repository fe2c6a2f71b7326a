"""Module boundaries the design relies on, checked on the source text.

The tree core keeps its node types, bind queue and resolver private.  Only
the core itself and the fused store fold in ``stores`` may use them, so
there is one resolution loop and one fold that steps it directly.  The fold
uses two of them, the bind queue's node ``_Cat`` and the resolver
``_resolve``: it defers work through ``lazy``, not through a thunk of its
own.

The in-place store path is one module: ``stores`` alone defines the store
declarations, the write sites, the store continuations, the route tables
and lookup and the fused store fold, and the tree core, the event algebra,
the values and the generic handlers import nothing from it.  Each store of
``imp`` and ``asm`` is one ``StoreEvents`` declaration, which interns its
events and sites, so neither module interns anything itself.

Store events and write sites cache their route in a ``memo`` slot that
only ``events``, which defines it for events, and ``stores`` may read or
assign: the fold's loop key relies on an event or a site never changing
what it stands for, and the cache only saves a lookup.

Both denotations loop only through their shared loop marks
(``combinators.loop_mark``): ``imp`` and ``asm`` use no iteration
combinator and take no sums apart themselves, so every back edge of either
language is one mark.

Both denotations are in continuation-passing form: each event is one node,
a ``vis`` node for a read and the node a ``Write`` builds for a write, so
``imp`` and ``asm`` use ``trigger`` only in ``halt``, their one
single-event helper that is not a ``StoreEvents`` method.

The package exports its functions and types by an explicit list, which
names no submodule.

Strong bisimulation and ``eutt`` run one loop over their pending list, in
``bisim._bisim``; the two public checkers only set it up.

The value functions the interpreters call per event, and the fused store
fold itself, read ``Tag`` members through module-level aliases: reading a
member off the ``Enum`` class costs about ten times a global name read.
"""
import ast
import os
import types

import itrees

SRC = os.path.dirname(itrees.__file__)
MAY_USE_CORE_PRIVATES = {"core.py", "stores.py"}


def _core_privates(tree):
    """Private names of ``itrees.core`` a module imports or reads."""
    found, core_aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            from_core = (node.level == 1 and module == "core") or module == "itrees.core"
            for alias in node.names:
                if from_core and alias.name.startswith("_"):
                    found.append(alias.name)
                if (node.level == 1 and not module) or module == "itrees":
                    if alias.name == "core":
                        core_aliases.add(alias.asname or "core")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "itrees.core" and alias.asname:
                    core_aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in core_aliases):
            found.append(node.attr)
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Attribute) and node.value.attr == "core"):
            found.append(node.attr)
    return found


def test_only_core_and_the_store_fold_use_core_privates():
    offenders = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name in MAY_USE_CORE_PRIVATES:
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            used = _core_privates(ast.parse(fh.read(), name))
        if used:
            offenders[name] = used
    assert offenders == {}


def test_the_store_fold_uses_only_the_bind_queue_and_the_resolver():
    with open(os.path.join(SRC, "stores.py"), encoding="utf-8") as fh:
        used = _core_privates(ast.parse(fh.read(), "stores.py"))
    assert sorted(set(used)) == ["_Cat", "_resolve"]


def test_the_check_sees_private_imports():
    samples = {
        "from .core import ITree, _resolve": ["_resolve"],
        "from itrees.core import _cat as cat": ["_cat"],
        "from . import core\ncore._Cat(None, None)": ["_Cat"],
        "import itrees.core\nitrees.core._pop(None)": ["_pop"],
        "import itrees.core as c\nc._Thunk": ["_Thunk"],
        "from .core import ITree, observe\nfrom . import values\nvalues._x": [],
    }
    for text, want in samples.items():
        assert _core_privates(ast.parse(text)) == want, text


STORE_PATH = {"StoreEvents", "Site", "Write", "Compute", "Guard", "write_at", "_route_table",
              "_route", "interp_stores", "_fold"}
BELOW_THE_STORE_PATH = ("core.py", "events.py", "values.py", "interp.py")


def _top_level_definitions(tree):
    """The names a module binds at top level by a definition or an
    assignment."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return found


def _imports_of_stores(tree):
    """The lines where a module imports ``itrees.stores`` or a name from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            package = (node.level == 1 and not module) or module == "itrees"
            if ((node.level == 1 and module == "stores") or module == "itrees.stores"
                    or (package and any(a.name == "stores" for a in node.names))):
                found.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name == "itrees.stores" for a in node.names):
                found.append(node.lineno)
    return found


def test_the_store_path_is_defined_in_stores_only():
    where = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            for defined in _top_level_definitions(tree):
                if defined in STORE_PATH:
                    where.setdefault(defined, []).append(name)
    assert where == {defined: ["stores.py"] for defined in STORE_PATH}


def _interning(tree):
    """The names ``lru_cache`` and ``INTERNED`` wherever a module imports or
    reads them."""
    return _uses(tree, {"lru_cache", "INTERNED"})


def test_the_denotations_intern_only_through_store_declarations():
    offenders = {}
    for name in ("imp.py", "asm.py"):
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            used = _interning(ast.parse(fh.read(), name))
        if used:
            offenders[name] = used
    assert offenders == {}


def test_the_check_sees_interning():
    samples = {
        "from functools import lru_cache": ["lru_cache"],
        "import functools\n@functools.lru_cache(maxsize=8)\ndef f(k):\n    pass":
            ["lru_cache"],
        "from .stores import INTERNED, Guard": ["INTERNED"],
        "from . import stores\nn = stores.INTERNED": ["INTERNED"],
        "_VARS = StoreEvents(IMP_STATE, 'GetVar', 'SetVar', (LEFT,), sym)": [],
    }
    for text, want in samples.items():
        assert _interning(ast.parse(text)) == want, text


def test_the_layers_below_the_store_path_import_nothing_from_it():
    offenders = {}
    for name in BELOW_THE_STORE_PATH:
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            used = _imports_of_stores(ast.parse(fh.read(), name))
        if used:
            offenders[name] = used
    assert offenders == {}


def test_the_check_sees_store_path_definitions_and_imports():
    definitions = {
        "class Write:\n    pass": ["Write"],
        "write_at = Write\nSite: type = object": ["write_at", "Site"],
        "def f():\n    Guard = 1": ["f"],
        "from .stores import Guard": [],
    }
    for text, want in definitions.items():
        assert _top_level_definitions(ast.parse(text)) == want, text
    imports = {
        "from .stores import Site": [1],
        "from itrees.stores import interp_stores": [1],
        "from . import core, stores": [1],
        "from itrees import stores": [1],
        "import itrees.stores": [1],
        "from .interp import interp_map\nfrom .values import UNIT": [],
    }
    for text, want in imports.items():
        assert _imports_of_stores(ast.parse(text)) == want, text


MAY_USE_ROUTE_CACHE = {"events.py", "stores.py"}


def _memo_uses(tree):
    """The lines where a module reads or assigns a ``memo`` attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "memo"]


def test_only_events_and_the_store_fold_use_the_route_cache():
    offenders = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name in MAY_USE_ROUTE_CACHE:
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            used = _memo_uses(ast.parse(fh.read(), name))
        if used:
            offenders[name] = used
    assert offenders == {}


def test_the_check_sees_route_cache_uses():
    samples = {
        "def f(e):\n    return e.memo": [2],
        "e.memo = (None, None)": [1],
        "x = head.event.memo[1]": [1],
        "getattr(e, 'memo')\nmemo = e.args": [],
    }
    for text, want in samples.items():
        assert _memo_uses(ast.parse(text)) == want, text


# The denotations loop only through their shared loop marks: a back edge is
# the mark built by ``combinators.loop_mark``, never a sum through a
# combinator.
LOOPS_ONLY_THROUGH_LOOP_MARKS = {
    "imp.py": {"iterate", "loop", "mrec", "un_sum"},
    "asm.py": {"iterate", "loop", "mrec", "un_sum"},
}


def _uses(tree, names):
    """The names among ``names`` a module imports or reads as an attribute
    or a free name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in names]
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in names:
            found.append(node.id)
    return found


def test_the_denotations_loop_only_through_loop_marks():
    offenders = {}
    for name, forbidden in sorted(LOOPS_ONLY_THROUGH_LOOP_MARKS.items()):
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        used = _uses(tree, forbidden)
        if used:
            offenders[name] = used
        assert "loop_mark" in _uses(tree, {"loop_mark"}), name
    assert offenders == {}


def test_one_builder_makes_every_loop_mark():
    # ``_mark=True`` is passed in ``loop_mark`` alone, and only the
    # denotations read it: ``combinators``, which defines it, calls it
    # nowhere.
    marks = {}
    users = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef) and any(
                        isinstance(k, ast.keyword) and k.arg == "_mark"
                        for k in ast.walk(fn)):
                    marks.setdefault(name, []).append(fn.name)
            if _uses(tree, {"loop_mark"}):
                users.append(name)
    assert marks == {"combinators.py": ["loop_mark"]}
    assert users == ["asm.py", "imp.py"]


def _loops(fn):
    """The loops in a function, as the names each loop's test or iterable
    reads; comprehensions count as loops over their iterables."""
    loops = []
    for node in ast.walk(fn):
        if isinstance(node, ast.While):
            head = node.test
        elif isinstance(node, (ast.For, ast.comprehension)):
            head = node.iter
        else:
            continue
        loops.append({n.id for n in ast.walk(head) if isinstance(n, ast.Name)})
    return loops


def test_one_loop_runs_both_bisimulations():
    with open(os.path.join(SRC, "bisim.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    over_pending = [name for name, fn in functions.items()
                    for names in _loops(fn) if "pending" in names]
    assert over_pending == ["_bisim"]
    assert _loops(functions["strong_bisim"]) == _loops(functions["eutt"]) == []


def test_the_check_sees_loops():
    samples = {
        "def f(pending):\n    while pending:\n        pending.pop()": [{"pending"}],
        "def f(xs):\n    for x in xs:\n        pass": [{"xs"}],
        "def f(xs):\n    return [x for x in xs]": [{"xs"}],
        "def f(pending):\n    return g(pending)": [],
    }
    for text, want in samples.items():
        assert _loops(ast.parse(text)) == want, text


def test_the_check_sees_other_iteration():
    forbidden = LOOPS_ONLY_THROUGH_LOOP_MARKS["asm.py"]
    samples = {
        "from .combinators import KTree, loop": ["loop"],
        "from .values import inl, un_sum": ["un_sum"],
        "from . import combinators\ncombinators.mrec(h, e)": ["mrec"],
        "from . import values\nvalues.un_sum(v)": ["un_sum"],
        "from .combinators import KTree, iterate": ["iterate"],
        "from .combinators import loop_mark\nloop_asm(u, 1)": [],
    }
    for text, want in samples.items():
        assert _uses(ast.parse(text), forbidden) == want, text


# The store helpers (``get_var``, ``set_reg``, ``load``, ...) are bound
# ``StoreEvents`` methods, which trigger in ``stores``.
SINGLE_EVENT_HELPERS = {"halt"}


def _triggers_outside(tree, allowed):
    """Where a module reads ``trigger`` (as a name or an attribute), other
    than in an import or inside a top-level function named in ``allowed``:
    the enclosing top-level definition, or None at module level."""
    found = []
    for top in tree.body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            continue
        name = getattr(top, "name", None)
        if name in allowed and isinstance(top, ast.FunctionDef):
            continue
        for node in ast.walk(top):
            if ((isinstance(node, ast.Name) and node.id == "trigger")
                    or (isinstance(node, ast.Attribute) and node.attr == "trigger")):
                found.append(name)
    return found


def test_the_denotations_trigger_only_in_single_event_helpers():
    offenders = {}
    for name in ("imp.py", "asm.py"):
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            used = _triggers_outside(ast.parse(fh.read(), name), SINGLE_EVENT_HELPERS)
        if used:
            offenders[name] = used
    assert offenders == {}


def test_the_check_sees_triggers():
    samples = {
        "from .core import trigger\ndef halt():\n    return trigger(e)": [],
        "def denote(s):\n    return bind(trigger(e), k)": ["denote"],
        "def denote(s):\n    def go(v):\n        return trigger(v)\n    return go": ["denote"],
        "def halt():\n    return trigger(e)\ndef f():\n    return core.trigger(e)": ["f"],
        "h = KTree(trigger)": [None],
        "class Halt:\n    def halt(self):\n        return trigger(e)": ["Halt"],
        "def get_var(n):\n    return trigger(e(n))": ["get_var"],
        "def denote(s):\n    return vis(e, lambda v: rest)": [],
    }
    for text, want in samples.items():
        assert _triggers_outside(ast.parse(text), SINGLE_EVENT_HELPERS) == want, text


def test_the_package_exports_names_not_modules():
    for name in itrees.__all__:
        assert not isinstance(getattr(itrees, name), types.ModuleType), name
    assert len(set(itrees.__all__)) == len(itrees.__all__)


HOT_PATHS = {
    "values.py": {"nat", "label", "pair", "fst", "snd", "un_sum", "map_items",
                  "_store_map", "VType.accepts"},
    "stores.py": {"interp_stores", "_fold", "_next_batch", "_answered", "_raising"},
}


def _tag_member_reads(tree, names):
    """``Tag.<MEMBER>`` reads inside the functions (or ``Class.method``s)
    named in ``names``, as (function, member) pairs, and the names found."""
    found, seen = [], set()
    scopes = [(top, top.name) for top in tree.body if isinstance(top, ast.FunctionDef)]
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            scopes += [(f, f"{top.name}.{f.name}") for f in top.body
                       if isinstance(f, ast.FunctionDef)]
    for fn, name in scopes:
        if name not in names:
            continue
        seen.add(name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and (
                    (isinstance(node.value, ast.Name) and node.value.id == "Tag")
                    or (isinstance(node.value, ast.Attribute) and node.value.attr == "Tag")):
                found.append((name, node.attr))
    return found, seen


def test_hot_paths_read_no_tag_member_through_the_enum():
    offenders = {}
    for name, functions in sorted(HOT_PATHS.items()):
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            found, seen = _tag_member_reads(ast.parse(fh.read(), name), functions)
        assert seen == functions, name
        if found:
            offenders[name] = found
    assert offenders == {}


def test_the_check_sees_tag_member_reads():
    names = {"nat", "VType.accepts", "interp_stores"}
    samples = {
        "def nat(n):\n    return UValue(Tag.NAT, n)": [("nat", "NAT")],
        "def nat(n):\n    return UValue(_NAT, n)": [],
        "class VType:\n    def accepts(self, v):\n        return v.tag is values.Tag.EMPTY":
            [("VType.accepts", "EMPTY")],
        "def interp_stores(t):\n    def go(h):\n        return h.tag is Tag.UNIT\n":
            [("interp_stores", "UNIT")],
        "def render(v):\n    return v.tag is Tag.NAT": [],
    }
    for text, want in samples.items():
        assert _tag_member_reads(ast.parse(text), names)[0] == want, text
