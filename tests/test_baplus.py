"""Macro model: dimensions, characterization, library round-trips."""

import copy
import json
import random

import pytest

from smemsynth.baplus import (BAPlusMacro, BoundsError, Library, LibraryError,
                              TechParams, default_library, generate_variant,
                              ilog2, is_pow2, load_library, save_library)
from smemsynth.cli import main
from smemsynth.explorer import ConfigError, MemoryConfig, evaluate_ppa
from smemsynth.pa import PAError, PAWindowSpec, compare_pa_ppa


def test_pow2_helpers():
    assert [n for n in range(-2, 9) if is_pow2(n)] == [1, 2, 4, 8]
    assert ilog2(1) == 0
    assert ilog2(1024) == 10


def test_32x8_characterization_frozen():
    # hand-computed from the default coefficients
    m = generate_variant(32, 8)
    assert m.name == "ba_32x8"
    assert m.height_tracks == 38          # 32 rows + 6 periphery tracks
    assert m.width_pitches == 20          # 2*8 cells + 4 periphery pitches
    assert m.t_access_ps == 120 + 2.0 * 32 + 1.0 * 8 == 192.0
    assert m.e_read_fj == pytest.approx(0.5 + 1.0 * 8 + 0.4 * 32 * 0.5)  # 14.9
    assert m.e_write_fj == pytest.approx(0.6 + 1.1 * 8 + 0.4 * 32 * 0.5)  # 15.8
    assert m.p_leak_nw == pytest.approx(0.01 * 32 * 8)                    # 2.56
    assert m.B * m.W == 256


def test_geometry_frozen():
    tech = TechParams()
    m = generate_variant(32, 8, tech)
    assert m.width_nm(tech) == 20 * 48 == 960
    assert m.height_nm(tech) == 38 * 64 == 2432
    assert m.area_um2(tech) == pytest.approx(0.960 * 2.432)


def test_same_capacity_tradeoff():
    # 512 bits both ways: the squarer array is faster and smaller, the
    # narrower one reads cheaper
    tech = TechParams()
    squat = generate_variant(32, 16, tech)
    tall = generate_variant(64, 8, tech)
    assert squat.B * squat.W == tall.B * tall.W == 512
    assert squat.t_access_ps < tall.t_access_ps
    assert squat.area_um2(tech) < tall.area_um2(tech)
    assert tall.e_read_fj < squat.e_read_fj


def test_bounds_enforced():
    with pytest.raises(BoundsError):
        generate_variant(24, 8)           # not a power of two
    with pytest.raises(BoundsError):
        generate_variant(128, 8)          # above default bound
    with pytest.raises(BoundsError):
        generate_variant(8, 4)
    # lifting the bounds admits tall/wide bank macros
    m = generate_variant(1024, 8, b_bounds=None)
    assert m.B == 1024
    assert generate_variant(8, 256, w_bounds=None).W == 256


def test_monotone_in_each_dimension():
    tech = TechParams()
    for b, w in [(8, 8), (8, 16), (16, 8), (32, 32)]:
        base = generate_variant(b, w, tech)
        taller = generate_variant(2 * b, w, tech)
        wider = generate_variant(b, 2 * w, tech)
        assert taller.t_access_ps > base.t_access_ps
        assert wider.t_access_ps > base.t_access_ps
        assert taller.area_um2(tech) > base.area_um2(tech)
        assert wider.area_um2(tech) > base.area_um2(tech)
        assert taller.p_leak_nw == pytest.approx(2 * base.p_leak_nw)


def test_default_library():
    lib = default_library(TechParams())
    assert len(lib) == 16
    assert "ba_32x8" in lib
    big = lib["ba_64x64"]
    assert big.B * big.W == 4096
    with pytest.raises(KeyError):
        lib["ba_3x3"]
    assert "ba_3x3" not in lib


def test_library_roundtrip(tmp_path):
    lib = default_library(TechParams())
    path = tmp_path / "lib.json"
    save_library(lib, path)
    again = load_library(path)
    assert again == lib
    assert again.tech == lib.tech


def test_library_schema_strict(tmp_path):
    lib = Library([generate_variant(8, 8)], TechParams())
    path = tmp_path / "lib.json"
    save_library(lib, path)
    doc = json.loads(path.read_text())
    doc["macros"][0]["vendor"] = "acme"
    path.write_text(json.dumps(doc))
    with pytest.raises(LibraryError):
        load_library(path)


def test_tech_params_validate():
    with pytest.raises(ValueError):
        TechParams(track_pitch_nm=0).validate()
    d = TechParams().to_dict()
    assert TechParams.from_dict(d) == TechParams()


def test_macro_validate_rejects_nonphysical():
    bad = BAPlusMacro("x", 8, 8, 14, 20, t_access_ps=-1, e_read_fj=1,
                      e_write_fj=1, p_leak_nw=1)
    with pytest.raises(ValueError):
        bad.validate()


def _saved_doc(tmp_path):
    path = tmp_path / "good.json"
    save_library(Library([generate_variant(8, 8), generate_variant(32, 16)],
                         TechParams()), path)
    return json.loads(path.read_text())


# each case edits the saved document; all must end in LibraryError
_BAD_LIBS = {
    "macros-not-list": lambda d: d.update(macros=5),
    "tech-not-object": lambda d: d.update(tech=[1]),
    "tech-str": lambda d: d["tech"].update(track_pitch_nm="x"),
    "tech-nan": lambda d: d["tech"].update(e_dec0_fj=float("nan")),
    "tech-inf": lambda d: d["tech"].update(ta_base_ps=float("inf")),
    "tech-nan-utilization": lambda d: d["tech"].update(utilization=float("nan")),
    "tech-bool": lambda d: d["tech"].update(d0_ps=True),
    "tech-int-field-float": lambda d: d["tech"].update(gutter_pitches=2.5),
    "macro-B-float": lambda d: d["macros"][0].update(B=8.5),
    "macro-B-bool": lambda d: d["macros"][0].update(B=True),
    "macro-W-str": lambda d: d["macros"][0].update(W="8"),
    "macro-nan": lambda d: d["macros"][1].update(e_read_fj=float("nan")),
    "macro-bool-figure": lambda d: d["macros"][1].update(p_leak_nw=True),
    "macro-pins-not-list": lambda d: d["macros"][0].update(pins=7),
    "macro-pin-offset-float": lambda d: d["macros"][0]["pins"][0].__setitem__(2, 0.5),
}


@pytest.mark.parametrize("case", sorted(_BAD_LIBS))
def test_load_library_rejects_mistyped_values(tmp_path, case):
    doc = _saved_doc(tmp_path)
    _BAD_LIBS[case](doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(LibraryError) as exc:
        load_library(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_non_utf8_library_names_its_file(tmp_path):
    path = tmp_path / "bad.json"
    save_library(default_library(TechParams()), path)
    data = path.read_bytes().replace(b"ba_8x8", b"ba_8\xffx8", 1)
    path.write_bytes(data)
    before = data[:data.index(b"\xff")]
    line, col = before.count(b"\n") + 1, len(before) - before.rfind(b"\n") - 1
    with pytest.raises(LibraryError) as exc:
        load_library(path)
    assert str(exc.value) == (f"{path}:{line}: 'utf-8' codec can't decode byte 0xff "
                              f"in position {col}: invalid start byte")


def test_int_figures_load_as_float(tmp_path):
    doc = _saved_doc(tmp_path)
    doc["macros"][0]["t_access_ps"] = 150
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc))
    m = load_library(path)["ba_8x8"]
    assert m.t_access_ps == 150.0 and isinstance(m.t_access_ps, float)


@pytest.mark.parametrize("case", ["macros-not-list", "tech-str", "macro-B-float",
                                  "macro-nan", "tech-nan"])
def test_cli_bad_library_exits_2(tmp_path, capsys, case):
    doc = _saved_doc(tmp_path)
    _BAD_LIBS[case](doc)
    lib = tmp_path / "bad.json"
    lib.write_text(json.dumps(doc))
    assert main(["explore", "--spec", "256x8", "--lib", str(lib),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"smemsynth explore: {lib}: ")


@pytest.mark.parametrize("tech", [{"track_pitch_nm": "x"}, {"utilization": float("nan")},
                                  {"rail_pitch_tracks": True}, [], {"pitch": 1}])
def test_cli_bad_tech_exits_2(tmp_path, capsys, tech):
    path = tmp_path / "tech.json"
    path.write_text(json.dumps(tech))
    for argv in (["explore", "--spec", "256x8"], ["genlib"],
                 ["synth", "--config", "ba_32x8,1,1,1,1"], ["pa", "--spec", "3,3,1,1"]):
        assert main([*argv, "--tech", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"smemsynth {argv[0]}: {path}: ")


def test_cli_huge_tech_figure_exits_2(tmp_path, capsys):
    """A finite figure that loads, then overflows where a model rounds it to
    whole nanometres, ends in exit 2 and one message, not a traceback."""
    path = tmp_path / "tech.json"
    path.write_text(json.dumps({"track_pitch_nm": 1e308}))
    for argv in (["explore", "--spec", "256x8"],
                 ["synth", "--config", "ba_32x8,1,1,1,1"], ["pa", "--spec", "3,3,1,1"]):
        assert main([*argv, "--tech", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"smemsynth {argv[0]}: ") and err.count("\n") == 1


@pytest.mark.parametrize("figure", ["e_wire_per_um_fj", "er_base_fj"])
def test_infinite_estimate_exits_2(tmp_path, capsys, figure):
    """A finite figure that loads, then makes an energy estimate infinite,
    ends in an error naming the estimate's figure: never `inf` in the
    outputs with exit 0."""
    tech = TechParams(**{figure: 1e308})
    with pytest.raises(ConfigError, match="e_op_fj is inf"):
        evaluate_ppa(MemoryConfig("ba_32x8", 1, 2, 1, 1), default_library(tech))
    with pytest.raises(PAError, match="e_op_fj is inf"):
        compare_pa_ppa(PAWindowSpec(3, 3, 1, 1), tech)
    path = tmp_path / "tech.json"
    path.write_text(json.dumps({figure: 1e308}))
    for argv in (["explore", "--spec", "256x8"],
                 ["synth", "--config", "ba_32x8,1,2,1,1"], ["pa", "--spec", "3,3,1,1"]):
        assert main([*argv, "--tech", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"smemsynth {argv[0]}: ") and err.count("\n") == 1
        assert "e_op_fj is inf" in err


_FUZZ_VALUES = [5, -1, 0, 8.5, True, None, "x", "8", [], {}, [1, 2], {"a": 1},
                float("nan"), float("inf"), 1e308, 10 ** 400, [["clk", "S"]],
                [["clk", "S", 0, 1]]]


def test_load_library_fuzz(tmp_path):
    """Seeded mutations of a saved library: each loads or raises
    LibraryError naming the file, never another exception."""
    rng = random.Random(17)
    path = tmp_path / "fuzz.json"
    for _ in range(400):
        doc = _saved_doc(tmp_path)
        for _ in range(rng.randint(1, 3)):
            # walk to a random container, then replace, drop or add a key
            node = doc
            while True:
                keys = list(node) if isinstance(node, dict) else list(range(len(node)))
                if not keys:
                    break
                key = rng.choice(keys)
                child = node[key]
                if isinstance(child, (dict, list)) and child and rng.random() < 0.6:
                    node = child
                    continue
                r = rng.random()
                if r < 0.7:
                    node[key] = copy.deepcopy(rng.choice(_FUZZ_VALUES))
                elif isinstance(node, dict) and r < 0.85:
                    del node[key]
                elif isinstance(node, dict):
                    node["vendor"] = "acme"
                break
        path.write_text(json.dumps(doc))
        try:
            load_library(path)
        except LibraryError as e:
            assert str(e).startswith(f"{path}: ")
