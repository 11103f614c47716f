"""The flow-analysis core: CFG shape and call-graph resolution."""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.base import SourceModule
from repro.analysis.flow.callgraph import TOP, CallGraph
from repro.analysis.flow.cfg import CFG, Step, WithExit, build_cfg


def _module(relative: str, source: str) -> SourceModule:
    return SourceModule(f"src/repro/{relative}", textwrap.dedent(source))


def _function(module: SourceModule, name: str) -> ast.FunctionDef:
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
            return node
    raise AssertionError(f"no function {name!r} in fixture")


def _reachable_steps(cfg: CFG) -> list[Step]:
    """Every step of every block reachable from the entry, in block order."""
    return [step for block_id in sorted(cfg.reachable()) for step in cfg.block(block_id).steps]


# ---------------------------------------------------------------------------
# CFG shape
# ---------------------------------------------------------------------------


def test_cfg_if_branches_meet_at_join():
    module = _module(
        "core/shape.py",
        """\
        def f(c):
            if c:
                a = 1
            else:
                a = 2
            return a
        """,
    )
    cfg = build_cfg(_function(module, "f"))
    # Both arms and the join are reachable, and the graph reaches the
    # normal exit but not the raise exit (there is no raise).
    reachable = cfg.reachable()
    assert cfg.exit_id in reachable
    assert cfg.raise_id not in reachable
    # The branch block (holding the test) has two successors.
    branch_blocks = [
        b for b in cfg.blocks if any(isinstance(s, ast.expr) for s in b.steps)
    ]
    assert any(len(b.succs) == 2 for b in branch_blocks)


def test_cfg_while_loops_back_and_for_has_else_arm():
    module = _module(
        "core/shape.py",
        """\
        def f(items):
            total = 0
            while total < 10:
                total += 1
            for item in items:
                total += item
            else:
                total = -total
            return total
        """,
    )
    cfg = build_cfg(_function(module, "f"))
    reachable = cfg.reachable()
    assert cfg.exit_id in reachable
    # A loop means some reachable block has a back edge (an edge to a
    # block with a smaller id that is also reachable).
    assert any(
        succ < block.id and succ in reachable
        for block in cfg.blocks
        if block.id in reachable
        for succ in block.succs
    )


def test_cfg_early_return_makes_tail_unreachable():
    module = _module(
        "core/shape.py",
        """\
        def f():
            return 1
            x = 2
        """,
    )
    cfg = build_cfg(_function(module, "f"))
    steps = _reachable_steps(cfg)
    assert not any(isinstance(s, ast.Assign) for s in steps)  # dead code skipped
    assert cfg.exit_id in cfg.reachable()


def test_cfg_raise_routes_to_raise_exit_not_normal_exit():
    module = _module(
        "core/shape.py",
        """\
        def f():
            raise ValueError("boom")
        """,
    )
    cfg = build_cfg(_function(module, "f"))
    reachable = cfg.reachable()
    assert cfg.raise_id in reachable
    assert cfg.exit_id not in reachable


def test_cfg_try_body_edges_into_handler():
    module = _module(
        "core/shape.py",
        """\
        def f():
            try:
                risky()
            except ValueError:
                handled = True
            finally:
                cleanup()
            return 1
        """,
    )
    cfg = build_cfg(_function(module, "f"))
    reachable = cfg.reachable()
    assert cfg.exit_id in reachable
    # The handler body and the finally body both execute on some path.
    names = {
        node.id
        for step in _reachable_steps(cfg)
        if isinstance(step, ast.stmt)
        for node in ast.walk(step)
        if isinstance(node, ast.Name)
    }
    assert {"handled", "cleanup"} <= names


def test_cfg_with_emits_enter_and_exit_markers():
    module = _module(
        "core/shape.py",
        """\
        def f(self):
            with self._ctx:
                x = 1
        """,
    )
    cfg = build_cfg(_function(module, "f"))
    steps = _reachable_steps(cfg)
    kinds = [type(s).__name__ for s in steps]
    assert kinds.index("WithEnter") < kinds.index("Assign") < kinds.index("WithExit")


def test_cfg_early_return_leaves_the_with_on_its_edge():
    module = _module(
        "core/shape.py",
        """\
        def f(self, c):
            with self._ctx:
                if c:
                    return 1
                kept = 2
            done = 3
        """,
    )
    cfg = build_cfg(_function(module, "f"))
    exits = [s for s in _reachable_steps(cfg) if isinstance(s, WithExit)]
    assert len(exits) >= 2  # one on the return edge, one at block end


# ---------------------------------------------------------------------------
# Call-graph resolution
# ---------------------------------------------------------------------------


CALLER_SOURCE = """\
    import repro.core.util as util
    from repro.core.util import helper, Widget
    from repro.core.util import helper as aliased

    class Engine:
        def _private(self):
            return 1

        def run(self):
            self._private()  # self-method
            helper()  # from-import
            aliased()  # aliased from-import
            util.helper()  # module alias
            Widget()  # constructor
            Widget.poke(None)  # unbound method
            unknown_function()  # unresolvable
            self.dynamic()  # no such method
"""

UTIL_SOURCE = """\
    def helper():
        return 1

    class Widget:
        def __init__(self):
            self.ready = True

        def poke(self):
            return self.ready
"""


def _graph() -> tuple[CallGraph, SourceModule]:
    caller = _module("core/caller.py", CALLER_SOURCE)
    util = _module("core/util.py", UTIL_SOURCE)
    return CallGraph.build([caller, util]), caller


def _calls_in(graph: CallGraph, caller_module: SourceModule, func: str) -> list:
    info = graph.functions[f"core/caller.py::Engine.{func}"]
    return [
        (ast.unparse(node.func), graph.resolve_call(info, node))
        for node in ast.walk(info.node)
        if isinstance(node, ast.Call)
    ]


def test_callgraph_indexes_functions_and_methods():
    graph, _ = _graph()
    assert "core/util.py::helper" in graph.functions
    assert "core/util.py::Widget.__init__" in graph.functions
    assert "core/caller.py::Engine.run" in graph.functions
    assert graph.functions["core/caller.py::Engine.run"].is_public
    assert not graph.functions["core/caller.py::Engine._private"].is_public


def test_callgraph_resolves_each_supported_shape():
    graph, caller = _graph()
    resolved = dict(_calls_in(graph, caller, "run"))
    assert resolved["self._private"] == ["core/caller.py::Engine._private"]
    assert resolved["helper"] == ["core/util.py::helper"]
    assert resolved["aliased"] == ["core/util.py::helper"]
    assert resolved["util.helper"] == ["core/util.py::helper"]
    assert resolved["Widget"] == ["core/util.py::Widget.__init__"]
    assert resolved["Widget.poke"] == ["core/util.py::Widget.poke"]


def test_callgraph_unknown_callees_degrade_to_top():
    graph, caller = _graph()
    resolved = dict(_calls_in(graph, caller, "run"))
    assert resolved["unknown_function"] is TOP
    assert resolved["self.dynamic"] is TOP


def test_callgraph_resolve_class_project_builtin_and_dynamic():
    errors = _module(
        "storage/errors.py",
        """\
        class StorageError(RuntimeError):
            pass
        """,
    )
    user = _module(
        "storage/user.py",
        """\
        from repro.storage.errors import StorageError

        def f():
            raise StorageError("x")
        """,
    )
    graph = CallGraph.build([errors, user])
    name = ast.Name(id="StorageError", ctx=ast.Load())
    resolved = graph.resolve_class(user, name)
    assert isinstance(resolved, tuple)
    owner, cls = resolved
    assert owner is errors and cls.name == "StorageError"
    # A name with no project definition comes back as a bare string
    # (builtin candidate) ...
    assert graph.resolve_class(user, ast.Name(id="ValueError", ctx=ast.Load())) == "ValueError"
    # ... and a dynamic expression resolves to nothing.
    call = ast.parse("factory()", mode="eval").body
    assert graph.resolve_class(user, call) is None
