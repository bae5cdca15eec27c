"""Every public name, and every defaulted parameter of a public function,
is used by the package itself, or says why not; every dataclass field is
read by the package.

A name counts as used when the command line reaches it through the
package's own code: another module calls it, or calls a function of its
module that does (``BerPoint`` is built by ``monte_carlo_curves``, which
``cli`` calls). A defaulted parameter counts as used when a call in code
the command line reaches passes it, by position or by keyword. References
are read from the source, so a name that only the tests or a docstring
mention is not used.
"""

import ast
import inspect
from pathlib import Path

import mixnum

PACKAGE = Path(mixnum.__file__).parent

# name -> why it is public although the command line does not reach it
ALLOWED = {
    "monte_carlo_ber": "one point of monte_carlo_curves; the benchmark's "
                       "span recorder wraps it by name",
    "evm_db": "EVM is a reported metric of the simulator; no command "
              "writes it yet",
    "save_scenario": "the counterpart of load_scenario",
}

# (function, parameter) -> why it keeps a default that the command line
# never overrides
ALLOWED_DEFAULTS = {
    ("monte_carlo_curves", "min_errors"): "tests lower it to stay fast",
    ("monte_carlo_curves", "max_bits"): "tests lower it to stay fast",
}


def defined_names(node):
    """Names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def top_level_definitions():
    """(module, name), statement and the module's name binding for each
    top-level definition; the binding maps a name the module uses to the
    (module, name) definition it stands for."""
    for path in PACKAGE.glob("*.py"):
        module = path.stem
        if module == "__init__":
            continue
        tree = ast.parse(path.read_text())
        binding = {name: (module, name) for node in tree.body
                   for name in defined_names(node)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                binding.update({a.asname or a.name: (node.module, a.name)
                                for a in node.names})
        for node in tree.body:
            for name in defined_names(node):
                yield (module, name), node, binding


def reference_graph():
    """(module, name) of each top-level definition -> the (module, name)
    definitions its code refers to."""
    graph = {}
    for key, node, binding in top_level_definitions():
        graph.setdefault(key, set()).update(
            binding[n.id] for n in ast.walk(node)
            if isinstance(n, ast.Name) and n.id in binding)
    return graph


def reached_from_the_command_line():
    graph = reference_graph()
    seen, todo = set(), [("cli", "main")]
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(graph.get(key, ()))
    return seen


def test_every_public_name_is_used_or_allowed():
    reached = reached_from_the_command_line()
    unused = []
    for name in mixnum.__all__:
        module = getattr(mixnum, name).__module__.rsplit(".", 1)[-1]
        if (module, name) not in reached and name not in ALLOWED:
            unused.append(name)
    assert unused == []


def test_every_allowed_name_is_public_and_unused():
    reached = reached_from_the_command_line()
    for name in ALLOWED:
        assert name in mixnum.__all__
        module = getattr(mixnum, name).__module__.rsplit(".", 1)[-1]
        assert (module, name) not in reached, name


def calls_reached_from_the_command_line():
    """(module, name) -> (positional count, keyword names) of each call of
    that definition made in code the command line reaches."""
    reached = reached_from_the_command_line()
    calls = {}
    for key, node, binding in top_level_definitions():
        if key not in reached:
            continue
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in binding):
                calls.setdefault(binding[call.func.id], []).append(
                    (len(call.args), {kw.arg for kw in call.keywords}))
    return calls


def test_every_default_is_overridden_or_allowed():
    calls = calls_reached_from_the_command_line()
    never_passed = set()
    for name in mixnum.__all__:
        fn = getattr(mixnum, name)
        if inspect.isclass(fn) or name in ALLOWED:
            continue  # dataclass fields, and functions nothing calls
        module = fn.__module__.rsplit(".", 1)[-1]
        params = inspect.signature(fn).parameters.values()
        for k, p in enumerate(params):
            if p.default is not p.empty and not any(
                    k < n or p.name in keywords
                    for n, keywords in calls.get((module, name), ())):
                never_passed.add((name, p.name))
    assert never_passed == set(ALLOWED_DEFAULTS)


def _is_dataclass(node):
    """Whether a class is decorated ``@dataclass`` or ``@dataclass(...)``."""
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


def test_every_dataclass_field_is_read():
    """Each field of a dataclass under the package is read by attribute
    (``x.field``) somewhere in the package, or its class is serialized
    whole: passed to ``asdict`` as a parameter annotated with the class."""
    fields, read, whole = [], set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += [(node.name, f.target.id) for f in node.body
                           if isinstance(f, ast.AnnAssign)]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            elif isinstance(node, ast.FunctionDef):
                annotated = {a.arg: ast.unparse(a.annotation)
                             for a in node.args.args if a.annotation}
                whole.update(
                    annotated[call.args[0].id] for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "asdict"
                    and isinstance(call.args[0], ast.Name)
                    and call.args[0].id in annotated)
    assert "ScenarioConfig" in whole
    assert [f for f in fields if f[0] not in whole and f[1] not in read] == []
