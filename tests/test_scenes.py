import pytest

from spencerlab.errors import SceneError
from spencerlab.scenes import parse_scene_text, scene_json


GOOD = """
# a comment
[ring]
variables = x, y
weights = 2, 3

[ideal]
x^3 - y^2   # the cusp
"""


def test_parse_scene_round():
    s = parse_scene_text(GOOD)
    assert s.ring.variables == ("x", "y")
    assert s.ring.weights == (2, 3)
    assert [str(g) for g in s.ideal.generators] == ["x^3 - y^2"]
    assert scene_json(s) == {
        "variables": ["x", "y"],
        "weights": [2, 3],
        "ideal": ["x^3 - y^2"],
    }


def test_empty_ideal_section_ok():
    s = parse_scene_text("[ring]\nvariables = x\nweights = 1\n[ideal]\n")
    assert s.ideal.is_trivial


def test_missing_ring_keys():
    with pytest.raises(SceneError):
        parse_scene_text("[ring]\nvariables = x\n")


def test_unknown_section():
    with pytest.raises(SceneError):
        parse_scene_text("[nonsense]\n")


def test_unknown_ring_key_reports_name_and_line():
    text = "[ring]\nvariables = x\nweights = 1\nweigths = 5\nideal = x\n"
    with pytest.raises(SceneError) as err:
        parse_scene_text(text, name="typo.scene")
    assert str(err.value) == "typo.scene:4: unknown key 'weigths' in [ring]"
    # keys are case-insensitive, as for the repeated-key check
    s = parse_scene_text("[ring]\nVariables = x\nWEIGHTS = 1\n")
    assert s.ring.variables == ("x",) and s.ring.weights == (1,)


def test_bad_polynomial_reports_line():
    with pytest.raises(SceneError) as err:
        parse_scene_text("[ring]\nvariables = x\nweights = 1\n[ideal]\nx + qq\n")
    assert ":5:" in str(err.value)


def test_inhomogeneous_generator_rejected():
    with pytest.raises(SceneError):
        parse_scene_text(
            "[ring]\nvariables = x, y\nweights = 3, 2\n[ideal]\nx^3 + y^4\n"
        )


def test_content_before_section_rejected():
    with pytest.raises(SceneError):
        parse_scene_text("variables = x\n")
