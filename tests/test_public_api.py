"""Every public name of the library has a user.

Each public (no leading underscore) module-level function and class of
``src/gausslift/*.py``, which covers every name ``gausslift/__init__.py``
exports, must meet at least one of these rules:

- code in ``src/gausslift`` outside its own definition and outside
  ``__init__.py`` refers to it;
- ``bench/workloads.py`` imports it from a ``gausslift`` module;
- a per-layer metric of ``BENCHMARK.json`` names it, as
  ``<module>.<name>.<stat>`` or ``fail.<name>.count``;
- it is the ``[project.scripts]`` entry of ``pyproject.toml``;
- it is on ``PAPER_API``, with the reason it stays.

Each public method, property and annotated field (a dataclass field) of a
public class must be read as an attribute (``x.<member>``) by code in
``src/gausslift`` outside its own definition, or by ``bench/workloads.py``, or
be on ``PAPER_API`` as ``<Class>.<member>``.  The match is by the bare
attribute name, whatever the class of ``x``: the sources are not typed, so a
dead ``Foo.dim`` passes while ``KahlerStructure.dim`` is read anywhere, and a
field passes on a read in its own class's methods (``self.<field>`` in
``__post_init__``).  The member rule catches a name no code reads at all.

A ``PAPER_API`` entry that is not a public name, or that already meets
another rule, fails as well, so the map cannot go stale.  The test reads the
sources and never imports ``gausslift``.
"""

import ast
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gausslift"

#: public names (``<name>`` or ``<Class>.<member>``) no other rule keeps: the
#: paper's group API, each with its reason
PAPER_API = {
    "disp_multiply": "the Heisenberg law of the displacement group",
    "displacement_to_gaussian": "the embedding (z, theta) -> (I, z, e^{-i theta})",
    "ig_decompose": "the factorization U = e^{i theta} D(z) S(M, psi)",
    "ig_identity": "the identity triple (I, 0, 1)",
}


def read_sources():
    """{module: source} of every module of the package but ``__init__``."""
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def public_names(sources):
    """{name: module} of every public module-level function and class."""
    return {node.name: module
            for module, text in sources.items()
            for node in ast.parse(text).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _member_name(statement):
    """The name a class-body statement defines as a method, property or
    annotated field; None for any other statement."""
    if isinstance(statement, ast.FunctionDef):
        return statement.name
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return statement.target.id
    return None


def public_members(sources):
    """{"<Class>.<member>": module} of every public method, property and
    annotated field of a public class."""
    return {f"{node.name}.{name}": module
            for module, text in sources.items()
            for node in ast.parse(text).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for name in map(_member_name, node.body)
            if name and not name.startswith("_")}


def _units(text):
    """The module-level statements of a source, each class split into the
    statements of its body, so that a member is a unit of its own."""
    for statement in ast.parse(text).body:
        yield from statement.body if isinstance(statement, ast.ClassDef) else [statement]


def attribute_reads(tree):
    """Attribute names (``x.<name>``) read anywhere in a syntax tree."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def member_reads(sources):
    """Attribute names the modules read; a member's reads of its own name
    (``self.<name>`` inside it) are not counted."""
    found = set()
    for text in sources.values():
        for unit in _units(text):
            found |= attribute_reads(unit) - {getattr(unit, "name", None)}
    return found


def referenced_names(sources):
    """Names the modules load.  The modules import each other's names, so a
    use is a bare name; a definition's uses of its own name (recursion) are
    not counted."""
    found = set()
    for text in sources.values():
        for statement in ast.parse(text).body:
            names = {node.id for node in ast.walk(statement)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            names.discard(getattr(statement, "name", None))
            found |= names
    return found


def bench_imports(workloads):
    """Names ``bench/workloads.py`` imports from ``gausslift`` or one of its modules."""
    return {alias.name
            for node in ast.walk(ast.parse(workloads))
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module == "gausslift" or node.module.startswith("gausslift."))
            for alias in node.names}


def metric_names(benchmark):
    """(module, name) of every per-layer metric that names a function or class."""
    named = set()
    for metric in json.loads(benchmark)["per_layer"]:
        parts = metric["name"].split(".")
        if parts[0] == "fail" and parts[1] != "other":
            named.add(("errors", parts[1]))
        elif len(parts) == 3:
            named.add((parts[0], parts[1]))
    return named


def script_entries(pyproject):
    """(module, name) of every ``[project.scripts]`` entry, read with a string
    match (``tomllib`` needs Python 3.11)."""
    section = pyproject.partition("[project.scripts]")[2].split("\n[")[0]
    return set(re.findall(r'"gausslift\.(\w+):(\w+)"', section))


def public_api_problems(sources, workloads, benchmark, pyproject, paper_api):
    """A message for each public name with no user and each stale ``paper_api`` entry."""
    public = public_names(sources)
    members = public_members(sources)
    referenced = referenced_names(sources)
    imported = bench_imports(workloads)
    keyed = metric_names(benchmark) | script_entries(pyproject)
    attributes = member_reads(sources) | attribute_reads(ast.parse(workloads))
    used = {name: name in referenced or name in imported or (module, name) in keyed
            for name, module in public.items()}
    used.update({name: name.split(".")[1] in attributes for name in members})
    problems = []
    for name, module in sorted({**public, **members}.items()):
        if name not in paper_api and not used[name]:
            problems.append(f"{module}.{name} has no user")
        elif name in paper_api and used[name]:
            problems.append(f"PAPER_API entry {name} is used elsewhere; drop it")
    problems += [f"PAPER_API entry {name} is no public name"
                 for name in sorted(set(paper_api) - set(public) - set(members))]
    return problems


def repo_inputs():
    """The arguments of ``public_api_problems`` read from this checkout."""
    return (read_sources(), (ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"),
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"),
            (ROOT / "pyproject.toml").read_text(encoding="utf-8"))


def test_every_public_name_has_a_user():
    assert public_api_problems(*repo_inputs(), PAPER_API) == []


def test_every_export_is_scanned():
    exported = {alias.name
                for node in ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert exported <= set(public_names(read_sources()))


@pytest.mark.parametrize("module", sorted(read_sources()))
def test_a_dead_function_fails(module):
    sources, *rest = repo_inputs()
    sources[module] += "\n\ndef dead_public_function():\n    return None\n"
    assert public_api_problems(sources, *rest, PAPER_API) == [
        f"{module}.dead_public_function has no user"]


@pytest.mark.parametrize("member", [
    "def dead_member(self):\n        return self.dead_member\n",
    "@property\n    def dead_member(self):\n        return self.dead_member\n",
    "dead_member: int = 0\n",
], ids=["method", "property", "field"])
def test_a_dead_member_fails(member):
    # a public class whose own name has a user, with one member nobody reads
    sources, *rest = repo_inputs()
    sources["phase_space"] += (
        f"\n\nclass Holder:\n    {member}"
        "\n\ndef _holder():\n    return Holder\n")
    assert public_api_problems(sources, *rest, PAPER_API) == [
        "phase_space.Holder.dead_member has no user"]
    assert public_api_problems(sources, *rest, dict(PAPER_API, **{
        "Holder.dead_member": "kept"})) == []


def test_a_paper_api_entry_that_is_no_name_fails():
    stale = dict(PAPER_API, ig_from_parts="deleted")
    assert public_api_problems(*repo_inputs(), stale) == [
        "PAPER_API entry ig_from_parts is no public name"]


def test_a_paper_api_entry_used_elsewhere_fails():
    stale = dict(PAPER_API, ig_multiply="the group law")
    assert public_api_problems(*repo_inputs(), stale) == [
        "PAPER_API entry ig_multiply is used elsewhere; drop it"]


def test_each_rule_keeps_a_name():
    sources, workloads, benchmark, pyproject = repo_inputs()
    assert "ig_multiply" in referenced_names(sources)
    assert "mw_reflection" in bench_imports(workloads)
    assert "scaled" in attribute_reads(ast.parse(workloads))
    assert "fundamental_form" in member_reads(sources)
    assert {"QuadraticHamiltonian.scaled", "KahlerStructure.dim",
            "KahlerStructure.omega"} <= set(public_members(sources))
    assert {("fock", "build_fock"), ("errors", "PathSingularityError")} <= metric_names(benchmark)
    assert script_entries(pyproject) == {("cli", "main_entry")}
