"""Every public name is used by the package itself, or says why not.

A name counts as used when the command line reaches it through the
package's own code: another module calls it, or calls a function of its
module that does (``BerPoint`` is built by ``monte_carlo_curves``, which
``cli`` calls). References are read from the source, so a name that only
the tests or a docstring mention is not used.
"""

import ast
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


def defined_names(node):
    """Names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def reference_graph():
    """(module, name) of each top-level definition -> the (module, name)
    definitions its code refers to."""
    graph = {}
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
            refs = {binding[n.id] for n in ast.walk(node)
                    if isinstance(n, ast.Name) and n.id in binding}
            for name in defined_names(node):
                graph.setdefault((module, name), set()).update(refs)
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
