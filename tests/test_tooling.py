"""Rules the test suite keeps about itself."""

import ast
import re
from pathlib import Path


def test_every_relative_approx_bound_states_its_absolute_bound():
    # pytest.approx(x, rel=r) also passes anything within its default abs of 1e-12, so on
    # a value of 1e-3 a rel of 1e-12 acts as 1e-9: a bound must give abs (0.0 or stated)
    loose = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            keys = {k.arg for k in node.keywords}
            if name == "approx" and "rel" in keys and "abs" not in keys:
                loose.append(f"{path.name}:{node.lineno}")
    assert not loose, f"approx(..., rel=) without abs= at {loose}"


def test_readme_config_table_names_every_schema_key():
    # the first column of README's config table names each leaf key of a simulate config in
    # full, and nothing else; a row may also name a section, such as `model`
    from typresp import harness

    def leaves(schema, where=""):
        for key, (check, *_) in schema.items():
            if isinstance(check, dict):
                yield from leaves(check, f"{where}{key}.")
            else:
                yield where + key

    keys = set(leaves(harness._SCENARIO))
    sections = {k.rsplit(".", i)[0] for k in keys for i in range(1, k.count(".") + 1)}
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | value | default | required |") + 2
    named = set()
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        named.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    assert named - sections == keys


def test_readme_command_paragraphs_name_every_schema_key():
    # README's paragraph on `respond` and on `compare` backticks each key of its schema
    from typresp import harness

    paragraphs = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").split("\n\n")
    for command, schema in (("respond", harness._RESPOND), ("compare", harness._COMPARE)):
        text, = [p for p in paragraphs if p.startswith(f"`{command}` ")]
        assert set(schema) - set(re.findall(r"`([^`]+)`", text)) == set(), command


def test_every_private_module_name_is_used_in_the_package():
    # the package keeps only what a command or the benchmark reaches: a module-level def, class
    # or assignment whose name starts with one underscore is referenced elsewhere in src/
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted((Path(__file__).parents[1] / "src" / "typresp").glob("*.py"))}
    defined = {}
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined.update((n, path.name) for n in names
                           if n.startswith("_") and not n.startswith("__"))
    used = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}
    unused = sorted(f"{where}:{name}" for name, where in defined.items() if name not in used)
    assert not unused, f"private names no code in src/ references: {unused}"


def test_every_stated_block_width_is_rmt_block():
    # README and rmt's docstrings write the readout's blocks as m x <columns>: each is rmt._BLOCK
    from typresp import rmt

    tree = ast.parse(Path(rmt.__file__).read_text(encoding="utf-8"))
    docs = [ast.get_docstring(node) or "" for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    widths = {int(w) for text in [readme, *docs] for w in re.findall(r"\bm x (\d+)", text)}
    assert widths <= {rmt._BLOCK}, f"m x {sorted(widths - {rmt._BLOCK})}, not rmt._BLOCK"
