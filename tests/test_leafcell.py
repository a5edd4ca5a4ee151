"""Leaf-cell scoring: efficiency ratios, grating rules, construct counting."""

import dataclasses
import random
from pathlib import Path

import pytest

from smemsynth.cli import main
from smemsynth.leafcell import (GridLayout, LayoutError, Shape,
                                check_restrictions, count_constructs,
                                fin_efficiency, load_cell,
                                power_rail_efficiency, shape_center,
                                transistor_efficiency)

FIXTURES = Path(__file__).parent.parent / "src" / "smemsynth" / "fixtures"


def fixture(name):
    return load_cell(FIXTURES / name)


def all_fixtures():
    return [fixture(p.name) for p in sorted(FIXTURES.glob("*.cell"))]


def test_table_ratios_exact():
    nand = fixture("nand2_x1.cell")
    assert transistor_efficiency(nand) == 2 / 4
    assert power_rail_efficiency(nand) == 2 / 10
    assert abs(fin_efficiency(nand) - 0.6667) < 1e-4

    uni = fixture("dffq_unidir.cell")
    assert transistor_efficiency(uni) == 13 / 25
    assert abs(fin_efficiency(uni) - 0.6667) < 1e-4

    bi = fixture("dffq_bidir.cell")
    assert transistor_efficiency(bi) == 13 / 23
    assert power_rail_efficiency(bi) == 2 / 10


def test_fixtures_pass_restrictions():
    for lay in all_fixtures():
        assert check_restrictions(lay) == [], lay.name


def test_fin_efficiency_guard():
    lay = GridLayout("x", 10, 4, active_fins=0, total_fins=0)
    with pytest.raises(LayoutError):
        fin_efficiency(lay)


def test_grating_gap_detected():
    lay = GridLayout("gap", 8, 6, layer_classes={"poly": "pure_grating_1d"},
                     layer_dirs={"poly": "V"})
    for i in (0, 1, 3, 4, 5):                      # index 2 missing
        lay.shapes.append(Shape("poly", "V", i, 0, 8))
    msgs = check_restrictions(lay)
    assert any("index 2" in m for m in msgs)


def test_grating_segment_detected():
    lay = GridLayout("seg", 8, 4, layer_classes={"poly": "pure_grating_1d"},
                     layer_dirs={"poly": "V"})
    for i in range(4):
        lay.shapes.append(Shape("poly", "V", i, 0, 8))
    lay.shapes[2] = Shape("poly", "V", 2, 1, 8)     # does not span end-to-end
    msgs = check_restrictions(lay)
    assert any("end-to-end" in m for m in msgs)
    # two abutting segments that union to the full extent are fine
    lay.shapes[2] = Shape("poly", "V", 2, 0, 3)
    lay.shapes.append(Shape("poly", "V", 2, 3, 8))
    assert check_restrictions(lay) == []


def test_structured_wrong_direction():
    lay = GridLayout("turny", 10, 10, layer_classes={"m0": "structured_1d"})
    lay.shapes += [Shape("m0", "H", 0, 0, 10), Shape("m0", "H", 9, 0, 10),
                   Shape("m0", "V", 4, 2, 6)]
    msgs = check_restrictions(lay)
    assert len(msgs) == 1 and "H-only" in msgs[0]


def test_compound_allows_both_directions():
    lay = GridLayout("grid", 10, 10, layer_classes={"m0": "compound_2d"})
    lay.shapes += [Shape("m0", "H", 0, 0, 10), Shape("m0", "V", 4, 2, 6)]
    assert check_restrictions(lay) == []
    lay.shapes.append(Shape("m0", "H", 2.5, 0, 10))    # off-grid index
    assert any("grid" in m or "integer" in m for m in check_restrictions(lay))


def test_pure_is_stricter_than_structured():
    # reclassifying any 1d layer as a pure grating can only add violations
    for lay in all_fixtures():
        for layer, cls in lay.layer_classes.items():
            if cls != "structured_1d":
                continue
            stricter = dataclasses.replace(
                lay, layer_classes={**lay.layer_classes,
                                    layer: "pure_grating_1d"})
            assert len(check_restrictions(stricter)) >= len(check_restrictions(lay))


def naive_constructs(layout, target_layer, window, relevant):
    """Reference counter in doubled-integer space; no shared code paths."""
    uniq = set()
    for t in layout.layer_shapes(target_layer):
        cx2, cy2 = (int(2 * v) for v in shape_center(t))
        xlo2, xhi2 = cx2 - window, cx2 + window
        ylo2, yhi2 = cy2 - window, cy2 + window
        desc = []
        for s in layout.shapes:
            if s.layer not in relevant:
                continue
            i2, s2, e2 = 2 * s.index, 2 * s.start, 2 * s.end
            if s.direction == "H":
                if ylo2 <= i2 <= yhi2:
                    a, b = max(s2, xlo2), min(e2, xhi2)
                    if a < b:
                        desc.append((s.layer, "H", i2 - cy2, a - cx2, b - cx2))
            else:
                if xlo2 <= i2 <= xhi2:
                    a, b = max(s2, ylo2), min(e2, yhi2)
                    if a < b:
                        desc.append((s.layer, "V", i2 - cx2, a - cy2, b - cy2))
        vis = (max(xlo2, 0) - cx2, min(xhi2, 2 * layout.width_pitches) - cx2,
               max(ylo2, 0) - cy2, min(yhi2, 2 * layout.track_count) - cy2)
        uniq.add((tuple(sorted(desc)), vis))
    return len(uniq)


def test_constructs_match_naive_oracle():
    for lay in all_fixtures():
        layers = sorted({s.layer for s in lay.shapes})
        relevant = set(layers)
        for target in layers:
            for window in (2, 3, 4, 5, 6):
                got = count_constructs(lay, target, window, relevant)
                want = naive_constructs(lay, target, window, relevant)
                assert got == want, (lay.name, target, window)


def test_uniform_grating_collapses():
    lay = fixture("uniform_grating.cell")
    # every via sees the same neighborhood at radius 1: translation invariance
    assert count_constructs(lay, "via0", 2, {"poly", "via0"}) == 1
    counts = [count_constructs(lay, "via0", w, {"poly", "via0"})
              for w in (2, 4, 6)]
    assert counts == sorted(counts)          # monotone while windows fit


def test_constructs_edges_and_guards():
    lay = fixture("nand2_x1.cell")
    assert count_constructs(lay, "absent_layer", 4, {"poly"}) == 0
    with pytest.raises(LayoutError):
        count_constructs(lay, "poly", 0, {"poly"})
    # boundary truncation: corner vias must not collapse onto interior ones
    big = count_constructs(lay, "poly", 8, {"poly", "m0"})
    small = count_constructs(lay, "poly", 2, {"poly", "m0"})
    assert big >= small


def test_load_cell_errors(tmp_path):
    p = tmp_path / "bad.cell"
    p.write_text("shape poly V 0 0 8\n")
    with pytest.raises(LayoutError):
        load_cell(p)                          # no meta line
    p2 = tmp_path / "worse.cell"
    p2.write_text("meta tracks=8 pitches=4 fins=2/4 poly=1/4 rails=1\n"
                  "shape poly V 9 0 8\n")     # index outside the cell
    with pytest.raises(LayoutError):
        load_cell(p2)


@pytest.mark.parametrize("old, new, msg", [
    ("layer m0 structured_1d H", "layer m0 structured_1d H V", "extra token 'V'"),
    ("shape poly V 0 0 10", "shape poly V 0 0 10 4", "extra token '4'"),
    ("layer m0 structured_1d H", "layer m0 structured_1d X",
     "layer m0 direction 'X' is not H or V"),
])
def test_load_cell_rejects_line(tmp_path, capsys, old, new, msg):
    """A line past its last field, or a layer direction that is neither H
    nor V, is refused at load with the file and line: leafcell exits 2."""
    lines = (FIXTURES / "dffq_unidir.cell").read_text().splitlines()
    lineno = lines.index(old) + 1
    lines[lineno - 1] = new
    path = tmp_path / "bad.cell"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LayoutError) as exc:
        load_cell(path)
    assert str(exc.value) == f"{path}:{lineno}: {msg}"
    assert main(["leafcell", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"smemsynth leafcell: {path}:{lineno}: {msg}\n"


@pytest.mark.parametrize("lineno", [2, 3001])
def test_non_utf8_cell_names_its_line(tmp_path, capsys, lineno):
    """The bad byte's own line is named, not the line where the reader's
    decode chunk began."""
    path = tmp_path / "bad.cell"
    lines = (FIXTURES / "nand2_x1.cell").read_bytes().splitlines()
    lines += [f"# filler {i}".encode() for i in range(4000 - len(lines))]
    lines[lineno - 1] += b"\xff"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(LayoutError) as exc:
        load_cell(path)
    msg = str(exc.value)
    assert msg.startswith(f"{path}:{lineno}: ") and "decode byte 0xff" in msg
    assert main(["leafcell", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"smemsynth leafcell: {msg}\n"


def test_validate_catches_bad_geometry():
    # an inverted extent, and a NaN start or end, which passes every bound test
    for start, end in ((5, 2), (float("nan"), 2), (1, float("nan"))):
        lay = GridLayout("g", 8, 4, layer_classes={"poly": "pure_grating_1d"})
        lay.shapes.append(Shape("poly", "V", 0, start, end))
        with pytest.raises(LayoutError, match="shape 0 has an empty or NaN extent"):
            lay.validate()


@pytest.mark.parametrize("extent", ["nan 12", "0 nan"])
def test_leafcell_rejects_a_nan_extent(tmp_path, capsys, extent):
    """A NaN end would make a grating line count as end to end."""
    path = tmp_path / "nan.cell"
    text = (FIXTURES / "uniform_grating.cell").read_text()
    path.write_text(text.replace("shape poly V 1 0 12", f"shape poly V 1 {extent}"))
    assert main(["leafcell", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        "smemsynth leafcell: nan: shape 1 has an empty or NaN extent\n"


_FUZZ_WORDS = ["meta", "layer", "shape", "#", "", "x", "0", "-1", "2.5", "nan",
               "inf", "1e9", "H", "V", "poly", "m0", "tracks=", "fins=3/",
               "poly=a/b", "rails=9", "pitches=0", "pure_grating_1d",
               "compound_2d", "=", "/"]


def test_load_cell_fuzz(tmp_path):
    """Seeded token and line mutations of every fixture: each file loads or
    raises LayoutError, never another exception."""
    rng = random.Random(19)
    path = tmp_path / "fuzz.cell"
    for fixture_path in sorted(FIXTURES.glob("*.cell")):
        good = fixture_path.read_text().splitlines()
        for _ in range(150):
            lines = list(good)
            for _ in range(rng.randint(1, 3)):
                j = rng.randrange(len(lines))
                toks = lines[j].split(" ")
                r = rng.random()
                if r < 0.3:
                    del toks[rng.randrange(len(toks))]
                elif r < 0.6:
                    toks[rng.randrange(len(toks))] = rng.choice(_FUZZ_WORDS)
                elif r < 0.8:
                    toks.insert(rng.randrange(len(toks) + 1), rng.choice(_FUZZ_WORDS))
                else:
                    lines.insert(rng.randrange(len(lines)), lines.pop(j))
                    continue
                lines[j] = " ".join(toks)
            path.write_text("\n".join(lines) + "\n")
            try:
                load_cell(path)
            except LayoutError:
                pass
