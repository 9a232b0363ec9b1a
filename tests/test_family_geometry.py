import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
ANALYSIS = ROOT / "src" / "qesolve" / "analysis.py"


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _enclosing_function(tree: ast.Module, node: ast.AST) -> str | None:
    parents = {child: parent for parent in ast.walk(tree) for child in ast.iter_child_nodes(parent)}
    while node in parents and not isinstance(node, ast.FunctionDef):
        node = parents[node]
    return getattr(node, "name", None)


def test_analysis_imports_only_the_model_and_potential_from_families():
    # the family geometry lives on the model, so analysis needs no family constant
    imported = [
        alias.name
        for node in ast.walk(_tree(ANALYSIS))
        if isinstance(node, ast.ImportFrom) and node.module == "families" and node.level == 1
        for alias in node.names
    ]
    assert sorted(imported) == ["QesModel", "potential_eval"]


def test_analysis_reads_no_family_parameters():
    # no branch on which family, sector or parameters a model has
    reads = [
        (node.lineno, node.attr)
        for node in ast.walk(_tree(ANALYSIS))
        if isinstance(node, ast.Attribute) and node.attr in ("family", "params", "sector")
    ]
    assert reads == []


def test_only_the_family_constructors_build_a_model():
    # so centre, default_domain, parity and normalizable always follow from the parameters
    callers = []
    for folder in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = _tree(path)
            for node in ast.walk(tree):
                func = node.func if isinstance(node, ast.Call) else None
                if getattr(func, "id", getattr(func, "attr", None)) == "QesModel":
                    callers.append((path.name, _enclosing_function(tree, node)))
    assert sorted(callers) == [("families.py", "make_morse"), ("families.py", "make_sextic")]


def test_only_the_sextic_constructors_and_the_cli_flags_read_the_sector():
    # the sector string becomes the offset t in make_sextic, and every other
    # reader takes the model's parity; the oracle reads it on its own, so the
    # closed form stays a derivation independent of make_sextic
    readers = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = _tree(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "sector":
                readers.add((path.name, _enclosing_function(tree, node)))
    assert readers == {
        ("families.py", "__post_init__"),
        ("families.py", "make_sextic"),
        ("families.py", "closed_form_block_action"),
        ("cli.py", "_parameters_dict"),
        ("cli.py", "_resolve_model"),
    }
