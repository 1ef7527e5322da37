"""Scene files: a small sectioned text format for affine scenes.

::

    [ring]
    variables = x, y
    weights = 2, 3

    [ideal]
    x^3 - y^2

The [ideal] section lists one polynomial per line and may be empty or
absent (Y = X).  '#' starts a comment.  [ring] takes the keys
``variables`` and ``weights`` only.  A non-UTF-8 file, any other section,
a repeated section, and an unknown or repeated [ring] key are input
errors; settings such as the degree bound are command-line options.
"""

from __future__ import annotations

from .errors import ParseError, SceneError
from .rings import AffineScene, Ideal, WeightedRing, parse_polynomial


def parse_scene_text(text: str, name: str = "<scene>") -> AffineScene:
    section = None
    seen: set = set()
    ring_data: dict = {}
    ideal_lines: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("ring", "ideal"):
                raise SceneError(f"{name}:{lineno}: unknown section [{section}]")
            if section in seen:
                raise SceneError(f"{name}:{lineno}: repeated section [{section}]")
            seen.add(section)
            continue
        if section == "ring":
            if "=" not in line:
                raise SceneError(f"{name}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key.lower() not in ("variables", "weights"):
                raise SceneError(f"{name}:{lineno}: unknown key {key!r} in [ring]")
            if key.lower() in ring_data:
                raise SceneError(f"{name}:{lineno}: repeated key {key!r} in [ring]")
            ring_data[key.lower()] = value
        elif section == "ideal":
            ideal_lines.append((lineno, line))
        else:
            raise SceneError(f"{name}:{lineno}: content before any section")
    if "variables" not in ring_data or "weights" not in ring_data:
        raise SceneError(f"{name}: [ring] needs 'variables' and 'weights'")
    variables = tuple(v.strip() for v in ring_data["variables"].split(",") if v.strip())
    try:
        weights = tuple(int(w.strip()) for w in ring_data["weights"].split(",") if w.strip())
    except ValueError as exc:
        raise SceneError(f"{name}: weights must be integers: {exc}") from None
    try:
        ring = WeightedRing(variables, weights)
    except SceneError as exc:
        raise SceneError(f"{name}: {exc}") from None
    gens = []
    for lineno, line in ideal_lines:
        try:
            gens.append(parse_polynomial(line, ring))
        except ParseError as exc:
            raise SceneError(f"{name}:{lineno}: {exc}") from None
    try:
        return AffineScene(ring, Ideal(tuple(gens)))
    except SceneError as exc:
        raise SceneError(f"{name}: {exc}") from None


def load_scene(path: str) -> AffineScene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SceneError(f"cannot read scene file {path}: {exc}") from None
    return parse_scene_text(text, name=path)


def scene_json(scene: AffineScene) -> dict:
    return {
        "variables": list(scene.ring.variables),
        "weights": list(scene.ring.weights),
        "ideal": [str(g) for g in scene.ideal.generators],
    }
