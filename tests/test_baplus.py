"""Macro model: dimensions, characterization, library round-trips."""

import json

import pytest

from smemsynth.baplus import (BAPlusMacro, BoundsError, Library, LibraryError,
                              TechParams, default_library, generate_variant,
                              ilog2, is_pow2, load_library, save_library)


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
    assert m.capacity_bits == 256


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
    assert squat.capacity_bits == tall.capacity_bits == 512
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
    assert lib["ba_64x64"].capacity_bits == 4096
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
