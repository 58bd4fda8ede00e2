import json

import pytest

from rectree.errors import DepthCapError, DomainError, naming


def refusal(exc):
    """What leaves a ``naming("F")`` block that raised ``exc``."""
    with pytest.raises(BaseException) as caught:
        with naming("F"):
            raise exc
    return caught.value


@pytest.mark.parametrize(
    "exc, kind, message",
    [
        (ValueError("bad"), ValueError, "F: bad"),
        (DomainError("point 0 = [1.5] outside [0, 1)^1"), DomainError,
         "F: point 0 = [1.5] outside [0, 1)^1"),
        (DepthCapError("too deep"), ValueError, "F: too deep"),
        (json.JSONDecodeError("Expecting value", "x", 0), ValueError,
         "F: Expecting value: line 1 column 1 (char 0)"),
        (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), ValueError,
         "F: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (KeyError("index"), ValueError, "F: KeyError 'index'"),
        (TypeError("dim must be one integer"), ValueError, "F: TypeError dim must be one integer"),
        (OverflowError("too big"), ValueError, "F: OverflowError too big"),
    ],
    ids=["value", "domain", "depth-cap", "json", "unicode", "key", "type", "overflow"],
)
def test_names_the_problem_in_one_line(exc, kind, message):
    out = refusal(exc)
    assert type(out) is kind
    assert str(out) == message
    assert out.__suppress_context__


@pytest.mark.parametrize("exc", [FileNotFoundError(2, "No such file", "x.json"),
                                 MemoryError(), RuntimeError("bug")],
                         ids=["os", "memory", "runtime"])
def test_passes_other_errors_unchanged(exc):
    assert refusal(exc) is exc
