import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    """The python code block under the README's "## Library" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def commented_results(code):
    """(expression, expected) for each line ``expr  # value``."""
    pairs = []
    for line in code.splitlines():
        expr, sep, value = line.partition("#")
        if sep:
            pairs.append((expr.strip(), value.strip()))
    return pairs


def test_library_example_results_hold():
    code = library_block()
    pairs = commented_results(code)
    assert len(pairs) == 6
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    for expr, value in pairs:
        assert eval(expr, namespace) == eval(value), (expr, value)
