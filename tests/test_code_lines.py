import code_lines

_FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# a comment line
class Level:
    """Class docstring."""

    energy: float = 0.0


def mean(values):
    """Function docstring,

    with a blank line inside.
    """
    total = sum(
        values,  # every line of a multi-line expression counts
        0.0,
    )
    text = """a string that is not a docstring
    spans two lines"""
    return total / math.fsum([1.0] * len(values)), text
'''


def test_counts_code_lines_of_a_fixture():
    # import, class, one field, def, the four lines of the sum, the two
    # lines of the string that is not a docstring, return
    assert code_lines.code_lines(_FIXTURE) == 11


def test_package_total_is_printed(capsys):
    assert code_lines.main() == 0
    lines = capsys.readouterr().out.splitlines()
    per_module = [int(line.split()[0]) for line in lines[:-1]]
    assert lines[-1].endswith("total") and int(lines[-1].split()[0]) == sum(per_module)
    assert any(line.endswith("hilbert.py") for line in lines)
