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
