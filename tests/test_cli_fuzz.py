"""cli.main on corrupted representation and quiver files.

Each case writes a small valid pair of representations (dimensions at most
3) and their quiver, corrupts one file, and runs one of the verbs ext,
rigid, exceptional, decompose and mutate on them in-process.  A corruption
replaces or deletes one node of the JSON tree, adds a key, or cuts or
splices the text itself.  Whatever the input, main must return 0, 1 or 2,
print exactly one JSON report with "schema": 1 and raise nothing.
"""

import contextlib
import io
import json
import os
import random
import tempfile

from hypothesis import given, settings, strategies as st

from quivlat.cli import main
from quivlat.quiver import Quiver
from quivlat.rings import RingSpec
from quivlat.verify import random_rep

QUIVERS = (Quiver(1, ()), Quiver(2, ((1, 2),)), Quiver(2, ((1, 2), (1, 2))),
           Quiver(3, ((1, 2), (2, 3))), Quiver(1, ((1, 1),)))
RINGS = ("Z", "Q", "F:2", "F:3", "Zmod:4", "Zmod:6", "Feps:2:2")
VERBS = ("ext", "rigid", "exceptional", "decompose", "mutate")
PAIR_VERBS = ("ext", "mutate")

leaves = (st.none() | st.booleans() | st.integers(-4, 4) | st.just(2 ** 70)
          | st.floats(allow_nan=True, allow_infinity=True)
          | st.sampled_from(RINGS + ("Zmod:1", "F:4", "Feps:2:0", "R", "", "1/0"))
          | st.text(max_size=4))
json_values = st.recursive(
    leaves, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=6)


def _nodes(value, path=()):
    """Every path into a JSON tree, the root's () first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _corrupt(data, draw) -> str:
    """The JSON text of data, a dict, with one corruption drawn from draw."""
    how = draw(st.sampled_from(("replace", "delete", "add", "cut", "splice")))
    if how in ("cut", "splice"):
        text = json.dumps(data)
        at = draw(st.integers(0, len(text)))
        junk = draw(st.text(max_size=3)) if how == "splice" else ""
        return text[:at] + junk + text[at + (how == "splice"):]
    path = draw(st.sampled_from(list(_nodes(data))))
    if not path:   # the root
        if how == "replace":
            return json.dumps(draw(json_values))
        how = "add"
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else data
    if how == "replace":
        parent[path[-1]] = draw(json_values)
    elif how == "delete":
        del parent[path[-1]]
    elif isinstance(node, dict):
        node[draw(st.sampled_from(("ring", "dims", "mats", "quiver", "extra")))] = (
            draw(json_values))
    elif isinstance(node, list):
        node.append(draw(json_values))
    else:
        parent[path[-1]] = [node, draw(json_values)]
    return json.dumps(data)


@given(st.data())
@settings(derandomize=True, deadline=None, max_examples=250)
def test_corrupted_files_end_in_one_json_report(data):
    draw = data.draw
    quiver = draw(st.sampled_from(QUIVERS))
    ring = RingSpec.parse(draw(st.sampled_from(RINGS)))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    dims = [draw(st.lists(st.integers(0, 3), min_size=quiver.vertex_count,
                          max_size=quiver.vertex_count)) for _ in range(2)]
    records = {"x": random_rep(ring, quiver, dims[0], rng).to_json(),
               "y": random_rep(ring, quiver, dims[1], rng).to_json(),
               "quiver": quiver.to_json()}
    texts = {name: json.dumps(value) for name, value in records.items()}
    target = draw(st.sampled_from(sorted(records)))
    texts[target] = _corrupt(records[target], draw)
    verb = draw(st.sampled_from(VERBS))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in texts.items():
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        files = (["--rep-x", paths["x"], "--rep-y", paths["y"]] if verb in PAIR_VERBS
                 else ["--rep", paths["x"]])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([verb, "--quiver", paths["quiver"], *files, "--format", "json"])
    assert code in (0, 1, 2), (verb, code)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, lines
    report = json.loads(lines[0])
    assert report["schema"] == 1 and (code == 0) == ("error" not in report), report
