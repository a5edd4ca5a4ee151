"""Structural IR: generation, well-formedness, text round-trip, HDL emission."""

import gc
import random
import re
import tracemalloc

import pytest

from smemsynth.baplus import Library, TechParams, default_library, generate_variant
from smemsynth import netlist
from smemsynth.cli import main
from smemsynth.explorer import AddressMap, MemoryConfig, UserSpec, enumerate_configs
from smemsynth.netlist import (_EMIT_CHUNK, CELL_KINDS, Cell, NetlistError, NetlistIR,
                               check_wellformed, emit_hdl, emit_netlist,
                               generate_sram, parse_netlist)
from smemsynth.pa import PAWindowSpec, _graft, generate_pa
from smemsynth.sim import SimError


def cells_of_kind(ir, kind):
    return [c for c in ir.cells.values() if c.kind == kind]


def join_address(r, k, row, s, lR, lK, lB, lM):
    """AddressMap.split's inverse: the fields packed MSB-first."""
    return (((r << lK | k) << lB | row) << lM) | s


def small_lib():
    return Library([generate_variant(32, 8)], TechParams())


def test_single_macro_shape():
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 1, 1, 1, 1), lib)
    assert check_wellformed(ir) == []
    assert len(cells_of_kind(ir, "baplus_instance")) == 1
    assert cells_of_kind(ir, "column_mux") == []
    ports = {name: (d, ir.nets[name].width) for name, d in ir.ports.items()}
    assert ports["raddr"] == ("in", 5)
    assert ports["waddr"] == ("in", 5)
    assert ports["rdata"] == ("out", 8)
    assert ir.meta["words"] == 32 and ir.meta["bits"] == 8


def test_full_organization_shape():
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2), lib)
    assert check_wellformed(ir) == []
    assert len(cells_of_kind(ir, "baplus_instance")) == 8
    assert len(ir.cells) == 27
    assert len(ir.nets) == 42
    ports = {name: (d, ir.nets[name].width) for name, d in ir.ports.items()}
    assert ports["raddr"] == ("in", 8)      # 256 words
    assert ports["rdata"] == ("out", 8)     # C*W/M = 2*8/2
    assert len(cells_of_kind(ir, "column_mux")) == 1
    # per-column read bitlines are driven by one tri-state per k
    for c in range(2):
        net = ir.nets[f"col_bl_{c}"]
        assert len(net.drivers) == 4        # R*K tri-states share the line
        kinds = {ir.cells[cell].kind for cell, _ in net.drivers}
        assert kinds == {"tristate_driver"}


def test_address_split_join_roundtrip():
    lib = small_lib()
    cfg = MemoryConfig("ba_32x8", 2, 2, 2, 2)
    amap = cfg.address_map(lib)
    assert amap == AddressMap.of(2, 2, 32, 2) == (1, 1, 5, 1)
    rng = random.Random(5)
    for _ in range(200):
        addr = rng.randrange(256)
        r, k, row, s = amap.split(addr)
        assert join_address(r, k, row, s, *amap) == addr
        assert r < 2 and k < 2 and row < 32 and s < 2
    # MSB-first field order: bank row above macro-in-bank above row above mux
    assert amap.split(0b1_0_00000_0) == (1, 0, 0, 0)
    assert amap.split(0b0_1_00000_0) == (0, 1, 0, 0)
    assert amap.split(0b0_0_00001_0) == (0, 0, 1, 0)
    assert amap.split(0b0_0_00000_1) == (0, 0, 0, 1)


def test_many_random_configs_wellformed():
    rng = random.Random(9)
    lib = default_library(TechParams())
    seen = 0
    while seen < 20:
        spec = UserSpec(1 << rng.randint(5, 11), 1 << rng.randint(3, 6))
        cfgs = enumerate_configs(spec, lib)
        if not cfgs:
            continue
        cfg = rng.choice(cfgs)
        ir = generate_sram(cfg, lib)
        assert check_wellformed(ir) == [], cfg
        assert len(cells_of_kind(ir, "baplus_instance")) == cfg.R * cfg.C * cfg.K
        seen += 1


def test_text_roundtrip_byte_identical(tmp_path):
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2), lib)
    p1, p2 = tmp_path / "a.nl", tmp_path / "b.nl"
    emit_netlist(ir, p1)
    back = parse_netlist(p1)
    emit_netlist(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.meta == ir.meta
    assert back.name == ir.name
    assert set(back.cells) == set(ir.cells)
    assert check_wellformed(back) == []


def test_emit_deterministic(tmp_path):
    lib = small_lib()
    for name, cfg in [("a", MemoryConfig("ba_32x8", 1, 2, 2, 2)),
                      ("b", MemoryConfig("ba_32x8", 4, 1, 2, 1))]:
        ir1 = generate_sram(cfg, lib)
        ir2 = generate_sram(cfg, lib)
        f1, f2 = tmp_path / f"{name}1.nl", tmp_path / f"{name}2.nl"
        emit_netlist(ir1, f1)
        emit_netlist(ir2, f2)
        assert f1.read_bytes() == f2.read_bytes()


def test_hdl_single_macro(tmp_path):
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 1, 1, 1, 1), lib)
    path = tmp_path / "one.v"
    emit_hdl(ir, path)
    text = path.read_text()
    # exactly one macro instantiation, no generate loops, one module per level
    assert sum("ba_32x8 u_ba" in ln for ln in text.splitlines()) == 1
    assert sum(ln.strip().startswith("module ") for ln in text.splitlines()) == 3
    assert not re.search(r"\bgenerate\b", text)      # unrolled, no genvar games
    assert text.count("endmodule") == 3


def test_hdl_elaborated_instances(tmp_path):
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 1, 1, 8, 1), lib)
    path = tmp_path / "eight.v"
    emit_hdl(ir, path)
    text = path.read_text()
    insts = [ln for ln in text.splitlines() if "ba_32x8 u_ba" in ln]
    assert len(insts) == 8                 # fully unrolled, no parameter games
    emit_hdl(ir, tmp_path / "again.v")
    assert (tmp_path / "again.v").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("key, value, message", [
    ("R", None, "netlist meta lacks R"),
    ("K", 3, "netlist structure: meta K=3 is not a power of two"),
    ("M", 32, "netlist structure: meta M=32 leaves a word no bits (C*W=16)"),
    ("bits", 99, None),
])
def test_hdl_reads_the_checked_sram_geometry(tmp_path, key, value, message):
    """emit_hdl of a parsed SRAM netlist takes its factors from the check
    the 1R-1W engine makes: a missing or non-power-of-two factor is refused
    with the engine's message, and the word width is derived from the
    factors, so a wrong meta `bits` still writes the clean .v."""
    ir = generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2), small_lib())
    emit_hdl(ir, tmp_path / "clean.v")
    emit_netlist(ir, tmp_path / "m.nl")
    parsed = parse_netlist(tmp_path / "m.nl")
    if value is None:
        del parsed.meta[key]
    else:
        parsed.meta[key] = value
    if message is None:
        emit_hdl(parsed, tmp_path / "m.v")
        assert (tmp_path / "m.v").read_bytes() == (tmp_path / "clean.v").read_bytes()
    else:
        with pytest.raises(SimError) as exc:
            emit_hdl(parsed, tmp_path / "m.v")
        assert str(exc.value) == message
        assert not (tmp_path / "m.v").exists()


def verilog_ports(text):
    """{name: (direction, width)} from the `input`/`output [h:l] a, b;`
    lines of the first (top) module.  A range [h:l] spans |h - l| + 1 bits,
    as Verilog reads it; no range is one bit."""
    top = text.split("endmodule")[0]
    ports = {}
    for d, h, lo, names in re.findall(r"^  (input|output) (?:\[(-?\d+):(-?\d+)\] )?"
                                      r"([\w, ]+);$", top, re.M):
        width = abs(int(h) - int(lo)) + 1 if h else 1
        for name in names.split(", "):
            assert name not in ports, name
            ports[name] = ({"input": "in", "output": "out"}[d], width)
    return ports


def _hdl_srams():
    """(lib, cfg): default-library configs of a few shapes, small enough to
    emit quickly, and the two configs of a one-row macro."""
    lib = default_library(TechParams())
    out = [(lib, c) for words, bits in ((32, 8), (256, 16), (2048, 64), (64, 256))
           for c in enumerate_configs(UserSpec(words, bits), lib) if c.R * c.C * c.K <= 64]
    one_row = Library([generate_variant(1, 8, b_bounds=None)], TechParams())
    return out + [(one_row, MemoryConfig("ba_1x8", 1, 1, 1, M)) for M in (1, 2)]


def test_hdl_ports_match_the_netlist(tmp_path):
    """Every port of the .v's top module has the direction and width of the
    .nl's port of that name, and the two name the same ports."""
    irs = [generate_sram(cfg, lib) for lib, cfg in _hdl_srams()]
    irs += [generate_pa(PAWindowSpec(*s), mode) for mode in ("sm", "tm")
            for s in ((1, 1, 0, 0), (3, 3, 1, 0), (4, 3, 1, 2), (2, 2, 2, 2))]
    assert any(ir.meta.get("B") == 1 for ir in irs)
    for ir in irs:
        emit_hdl(ir, tmp_path / "m.v")
        want = {name: (d, ir.nets[name].width) for name, d in ir.ports.items()}
        assert verilog_ports((tmp_path / "m.v").read_text()) == want, ir.name


def _select_index(text, wire, addr):
    """The line the select `wire` of the .v picks for address `addr`: the
    value of the one `raddr[h:l]`/`waddr[h:l]` slice it is loaded from, or
    0 for a constant one-line select (or a mux slot with no mux)."""
    m = re.search(rf"^  (?:wire \[\d+:0\] {wire} = |always @\(posedge clk\) "
                  rf"{wire} <= )(.*);$", text, re.M)
    if m is None:
        assert "msel" in wire
        return 0
    if m[1] == "1'b1":
        return 0
    (h, lo), = re.findall(r"[rw]addr\[(-?\d+):(-?\d+)\]", m[1])
    h, lo = int(h), int(lo)
    assert h >= lo, m[0]
    return (addr >> lo) & ((1 << (h - lo + 1)) - 1)


def test_hdl_address_fields_match_the_oracle(tmp_path):
    """For random addresses packed by join_address, the .v's bank-row,
    macro, row and mux-slot selects of both ports pick the packed fields."""
    rng = random.Random(14)
    for lib, cfg in _hdl_srams():
        emit_hdl(generate_sram(cfg, lib), tmp_path / "m.v")
        text = (tmp_path / "m.v").read_text()
        sizes = (cfg.R, cfg.K, lib[cfg.variant].B, cfg.M)
        widths = [v.bit_length() - 1 for v in sizes]
        for _ in range(20):
            fields = [rng.randrange(v) for v in sizes]
            addr = join_address(*fields, *widths)
            for port in "rw":
                got = [_select_index(text, f"{port}_{sel}", addr)
                       for sel in ("bank", "ba", "row", "msel_q" if port == "r" else "msel")]
                assert got == fields, (cfg, port, addr)


@pytest.mark.parametrize("n_lines", [_EMIT_CHUNK - 1, _EMIT_CHUNK, _EMIT_CHUNK + 1,
                                     2 * _EMIT_CHUNK])
def test_emit_in_chunks_is_one_join(tmp_path, n_lines):
    """emit_netlist writes in chunks of _EMIT_CHUNK lines; around each
    chunk edge the bytes are those of the whole text joined at once."""
    ir = NetlistIR("chunks")
    ir.add_port("clk", "in", 1)
    n_regs = (n_lines - 2) // 2             # a cell line and a conn line each
    regs = [f"r_{i}" for i in range(n_regs + (n_lines - 2) % 2)]
    for name in regs:
        ir.add_cell(name, "output_reg")
    for name in regs[:n_regs]:
        ir.connect("clk", name, "clk")
    want = (["# smemsynth netlist chunks", "port clk in 1"]
            + [f"cell {name} output_reg" for name in regs]
            + [f"conn clk {name}.clk sink" for name in regs[:n_regs]])
    assert len(want) == n_lines
    path = tmp_path / "c.nl"
    emit_netlist(ir, path)
    assert path.read_text() == "\n".join(want) + "\n"
    emit_netlist(parse_netlist(path), tmp_path / "back.nl")
    assert (tmp_path / "back.nl").read_bytes() == path.read_bytes()


def _traced(fn, *args):
    """fn(*args), the tracemalloc peak over what was allocated before the
    call, and what the call left allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, now - before


def test_endpoints_hold_the_cells_own_names(tmp_path):
    """connect stores the cell's own name object, and the parser one string
    per distinct pin: no endpoint, driver or sink, copies a name."""
    path = tmp_path / "m.nl"
    emit_netlist(generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2), small_lib()), path)
    ir = parse_netlist(path)
    for ends in ("drivers", "sinks"):
        pairs = [e for n in ir.nets.values() for e in getattr(n, ends)]
        assert all(cell is ir.cells[cell].name for cell, _ in pairs)
        assert len({id(pin) for _, pin in pairs}) == len({pin for _, pin in pairs})


def _expanded(cfg, lib):
    ir = generate_sram(cfg, lib)
    ir.expand()
    return ir


def test_netlist_text_path_holds_the_design_once(tmp_path):
    """On a 3,000-cell SRAM (1 MB of text), generate_sram holds its slots
    once, in under a tenth of the expanded IR; emit_netlist writes that held
    IR one chunk of text at a time, not the 4 MiB of the whole text's lines;
    check_wellformed copies no names; parse_netlist folds the text back as
    it streams, under the same bound as the emit.  With one edit in its
    last slot the text reads flat, and the parsed IR has about the expanded
    one's size, not 1.66 times it, because a conn shares its cell's name
    and its pin's string, and the failed fold keeps nothing."""
    cfg = MemoryConfig("ba_8x8", 1, 8, 128, 1)
    lib = default_library()
    _expanded(cfg, lib)                     # warm the models' caches
    held, _, templated = _traced(generate_sram, cfg, lib)
    ir, _, generated = _traced(_expanded, cfg, lib)
    assert held.slots is not None and ir.slots is None
    assert templated < generated / 10, (templated, generated)
    path = tmp_path / "m.nl"
    _, emit_peak, _ = _traced(emit_netlist, held, path)
    assert emit_peak < 2 << 20, emit_peak
    _, check_peak, _ = _traced(check_wellformed, held)
    assert check_peak < 64 << 10, check_peak
    assert held.slots is not None
    del ir, held
    back, fold_peak, folded = _traced(parse_netlist, path)
    assert back.slots is not None
    assert fold_peak < 2 << 20, fold_peak
    assert folded < generated / 10, (folded, generated)
    del back
    lines = path.read_text().splitlines()
    last = max(i for i, line in enumerate(lines) if " baplus_instance " in line)
    lines[last] = lines[last].replace(" col=7 ", " col=6 ")
    path.write_text("\n".join(lines) + "\n")
    back, _, parsed = _traced(parse_netlist, path)
    assert back.slots is None
    assert len(back.cells) == 3 * 8 * 128 + 1
    assert parsed < 1.3 * generated, (parsed, generated)


def test_checker_violations():
    ir = NetlistIR("broken", meta={"design": "adhoc"})
    ir.add_port("clk", "in", 1)
    ir.add_net("n1", 1)
    ir.add_cell("u1", "decoder")
    ir.add_cell("u2", "output_reg")
    ir.connect("n1", "u1", "r_row")
    ir.connect("n1", "u2", "q")                    # two non-tristate drivers
    assert ir.nets["n1"].drivers == [("u1", "r_row"), ("u2", "q")]
    msgs = check_wellformed(ir)
    assert any("n1" in m and "driver" in m for m in msgs)

    with pytest.raises(Exception):
        ir.add_cell("u3", "flux_capacitor")        # unknown kind is rejected

    ir2 = NetlistIR("floaty", meta={"design": "adhoc"})
    ir2.add_port("din", "in", 4)
    ir2.add_cell("u1", "pa_increment")
    ir2.connect("din", "u1", "sel_oh")             # input port driven inside
    assert any("din" in m for m in check_wellformed(ir2))


def test_tristate_sharing_is_legal():
    ir = NetlistIR("bus", meta={"design": "adhoc"})
    ir.add_net("bl", 8)
    for i in range(4):
        ir.add_cell(f"t{i}", "tristate_driver")
        ir.connect("bl", f"t{i}", "out")
    ir.add_cell("sink", "output_reg")
    ir.connect("bl", "sink", "d")
    assert len(ir.nets["bl"].drivers) == 4 and ir.nets["bl"].sinks == [("sink", "d")]
    assert not any("bl" in m and "driver" in m for m in check_wellformed(ir))


def test_missing_drivers_are_violations():
    """An internal net without a driver, and an output port without one,
    are each one violation."""
    ir = NetlistIR("undriven")
    ir.add_port("q", "out", 1)
    ir.add_net("n", 1)
    ir.add_cell("r", "output_reg")
    ir.connect("n", "r", "d")
    assert check_wellformed(ir) == ["net q: undriven output port",
                                    "net n: no driver"]
    ir.connect("n", "r", "q")
    ir.connect("q", "r", "q")
    assert check_wellformed(ir) == []


def test_name_clashes_come_in_net_order():
    """Names that are both a net and a cell are reported after the net
    checks, in the order the nets were added, whatever the hash seed."""
    ir = NetlistIR("clash")
    names = [f"n_{i}" for i in random.Random(17).sample(range(20), 20)]
    for name in names:
        ir.add_net(name, 1)
    ir.add_cell("drv", "output_reg")
    for name in reversed(names):
        ir.add_cell(name, "output_reg")
    for name in names:
        ir.connect(name, "drv", "q")
        ir.connect(name, name, "d")
    assert check_wellformed(ir) == [f"name {n!r} used for both a cell and a net"
                                    for n in names]


def test_meta_survives_parse(tmp_path):
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 1, 2, 4, 2), lib)
    path = tmp_path / "m.nl"
    emit_netlist(ir, path)
    back = parse_netlist(path)
    for key in ("design", "t_cycle_ps", "p_leak_nw", "words", "bits",
                "e_wire_op_fj"):
        assert back.meta[key] == ir.meta[key]
    assert isinstance(back.meta["t_cycle_ps"], float)
    assert isinstance(back.meta["words"], int)


# -- parse_netlist error paths ------------------------------------------------

# (case id, first line to replace, its replacement, message after "path:line: ")
# The lines are those of the ba_32x8 2,2,2,2 netlist; each edit breaks one line.
_BAD_LINES = [
    ("port-missing-token", "port clk in 1", "port clk in",
     "list index out of range"),
    ("cell-missing-token", "cell sel_reg ", "cell sel_reg",
     "list index out of range"),
    ("net-missing-token", "net r_row 32", "net r_row",
     "list index out of range"),
    ("conn-missing-token", "conn raddr dec.raddr sink", "conn raddr dec.raddr",
     "list index out of range"),
    ("net-width-not-int", "net r_row 32", "net r_row wide",
     "invalid literal for int() with base 10: 'wide'"),
    ("port-width-not-int", "port wdata in 8", "port wdata in 8.0",
     "invalid literal for int() with base 10: '8.0'"),
    ("net-width-0", "net r_row 32", "net r_row 0",
     "net r_row: width must be >= 1"),
    ("port-width-0", "port re in 1", "port re in 0",
     "net re: width must be >= 1"),
    ("port-bad-direction", "port rdata out 8", "port rdata inout 8",
     "port rdata: bad direction inout"),
    ("bad-port-name", "port re in 1", "port 2re in 1", "bad net name '2re'"),
    ("bad-net-name", "net r_row 32", "net r_row/ 32", "bad net name 'r_row/'"),
    ("bad-cell-name", "cell sel_reg ", "cell sel-reg output_reg",
     "bad cell name 'sel-reg'"),
    ("unknown-kind", "cell sel_reg ", "cell sel_reg flipflop",
     "cell sel_reg: unknown kind 'flipflop'"),
    # kinds no generator emits are not kinds
    *((f"dropped-kind-{k}", "cell sel_reg ", f"cell sel_reg {k}",
       f"cell sel_reg: unknown kind '{k}'") for k in ("and", "or", "inv")),
    ("duplicate-cell", "cell bank_0_0/tri_0 ",
     "cell bank_0_0/wlg_0 tristate_driver", "duplicate cell 'bank_0_0/wlg_0'"),
    ("duplicate-net", "net w_ba 2", "net r_ba 2", "duplicate net 'r_ba'"),
    ("net-shadows-port", "net r_row 32", "net raddr 32",
     "duplicate net 'raddr'"),
    ("conn-unknown-net", "conn raddr dec.raddr sink",
     "conn r_addr dec.raddr sink", "unknown net 'r_addr'"),
    ("conn-unknown-cell", "conn raddr dec.raddr sink",
     "conn raddr decoder.raddr sink", "unknown cell 'decoder'"),
    ("conn-no-pin", "conn raddr dec.raddr sink", "conn raddr dec sink",
     "unknown cell ''"),
    ("conn-bad-role", "conn raddr dec.raddr sink", "conn raddr dec.raddr source",
     "dec.raddr of a decoder takes role 'sink', not 'source'"),
    # a conn's role must be the direction the cell's kind gives the pin
    ("conn-wrong-role", "conn raddr dec.raddr sink", "conn raddr dec.raddr drive",
     "dec.raddr of a decoder takes role 'sink', not 'drive'"),
    ("conn-output-as-sink", "conn r_row dec.r_row drive", "conn r_row dec.r_row sink",
     "dec.r_row of a decoder takes role 'drive', not 'sink'"),
    ("unknown-directive", "net r_row 32", "wire r_row 32",
     "unknown directive 'wire'"),
    # a conn ahead of the net it names: nets are declared before use
    ("conn-before-net", "cell sel_reg ", "conn r_msel_q sel_reg.q drive",
     "unknown net 'r_msel_q'"),
    # ... and ahead of the cell it names
    ("conn-before-cell", "port we in 1", "conn clk sel_reg.clk sink",
     "unknown cell 'sel_reg'"),
    # two faults on one line: the one checked first is reported
    ("unknown-net-no-role", "conn raddr dec.raddr sink", "conn r_addr dec.raddr",
     "list index out of range"),
    ("bad-cell-name-unknown-kind", "cell sel_reg ", "cell sel-reg flipflop",
     "bad cell name 'sel-reg'"),
    ("unknown-cell-wrong-role", "conn raddr dec.raddr sink",
     "conn raddr decoder.raddr drive", "unknown cell 'decoder'"),
    # a line ends at its last field, and every param is key=value
    ("port-extra-token", "port we in 1", "port we in 1 9", "extra token '9'"),
    ("net-extra-token", "net r_row 32", "net r_row 32 junk", "extra token 'junk'"),
    ("conn-extra-token", "conn re dec.re sink", "conn re dec.re sink extra tokens",
     "extra token 'extra'"),
    ("cell-bare-param", "cell sel_reg ",
     "cell sel_reg output_reg role=mux_sel_pipeline stray",
     "param 'stray' is not key=value"),
    # a repeated param would keep its last value, a bare meta token ''
    ("cell-repeated-param", "cell sel_reg ",
     "cell sel_reg output_reg role=mux_sel_pipeline e=1 role=x",
     "param 'role' given twice"),
    ("cell-same-param-twice", "cell sel_reg ",
     "cell sel_reg output_reg role=mux_sel_pipeline role=mux_sel_pipeline",
     "param 'role' given twice"),
    ("meta-bare-token", "# meta ",
     "# meta design=sram_1r1w variant=ba_32x8 R=2 C=2 K=2 M=2 B=32 W=8 words "
     "bits=8 t_cycle_ps=393.0 p_leak_nw=70.48 e_wire_op_fj=2.4192",
     "meta 'words' is not key=value"),
]


def _emit_lines(tmp_path):
    ir = generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2), small_lib())
    path = tmp_path / "good.nl"
    emit_netlist(ir, path)
    return path.read_text().splitlines()


def _write_bad(tmp_path, old, new):
    """The good netlist with its first line starting `old` replaced by `new`;
    returns (path, 1-based line number of the edit)."""
    lines = _emit_lines(tmp_path)
    i = next(i for i, ln in enumerate(lines) if ln.startswith(old))
    lines[i] = new
    path = tmp_path / "bad.nl"
    path.write_text("\n".join(lines) + "\n")
    return path, i + 1


@pytest.mark.parametrize("old,new,msg", [c[1:] for c in _BAD_LINES],
                         ids=[c[0] for c in _BAD_LINES])
def test_parse_netlist_rejects_line(tmp_path, old, new, msg):
    path, lineno = _write_bad(tmp_path, old, new)
    with pytest.raises(NetlistError) as exc:
        parse_netlist(path)
    assert str(exc.value) == f"{path}:{lineno}: {msg}"


@pytest.mark.parametrize("old,new", [c[1:3] for c in _BAD_LINES],
                         ids=[c[0] for c in _BAD_LINES])
def test_sim_rejects_bad_netlist(tmp_path, capsys, old, new):
    path, lineno = _write_bad(tmp_path, old, new)
    trace = tmp_path / "ops.tr"
    trace.write_text("W 0 1\nR 0\n")
    assert main(["sim", str(path), str(trace), "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"smemsynth sim: {path}:{lineno}: ")


# the same mistakes made through the API, for every case a NetlistIR method
# raises: a parsed line is built by that method, so both say the same thing
_API_MISTAKES = {
    "net-width-0": lambda ir: ir.add_net("r_row", 0),
    "port-width-0": lambda ir: ir.add_port("re", "in", 0),
    "port-bad-direction": lambda ir: ir.add_port("rdata", "inout", 8),
    "bad-port-name": lambda ir: ir.add_port("2re", "in", 1),
    "bad-net-name": lambda ir: ir.add_net("r_row/", 32),
    "bad-cell-name": lambda ir: ir.add_cell("sel-reg", "output_reg"),
    "unknown-kind": lambda ir: ir.add_cell("sel_reg", "flipflop"),
    **{f"dropped-kind-{k}": (lambda ir, k=k: ir.add_cell("sel_reg", k))
       for k in ("and", "or", "inv")},
    "duplicate-cell": lambda ir: ir.add_cell("bank_0_0/wlg_0", "tristate_driver"),
    "duplicate-net": lambda ir: ir.add_net("r_ba", 2),
    "net-shadows-port": lambda ir: ir.add_net("raddr", 32),
    "conn-unknown-net": lambda ir: ir.connect("r_addr", "dec", "raddr"),
    "conn-unknown-cell": lambda ir: ir.connect("raddr", "decoder", "raddr"),
    "conn-no-pin": lambda ir: ir.connect("raddr", "", "dec"),
    "conn-before-net": lambda ir: ir.connect("r_msel_q", "sel_reg", "q"),
    "conn-before-cell": lambda ir: ir.connect("clk", "sel_reg", "clk"),
    "bad-cell-name-unknown-kind": lambda ir: ir.add_cell("sel-reg", "flipflop"),
    # connect takes no role: its fault is the cell alone
    "unknown-cell-wrong-role": lambda ir: ir.connect("raddr", "decoder", "raddr"),
}

# the rest, a missing or non-integer token, a role or a directive, can only
# be written in the text
_PARSER_ONLY = {"port-missing-token", "cell-missing-token", "net-missing-token",
                "conn-missing-token", "net-width-not-int", "port-width-not-int",
                "conn-bad-role", "conn-wrong-role", "conn-output-as-sink",
                "unknown-directive", "unknown-net-no-role", "port-extra-token",
                "net-extra-token", "conn-extra-token", "cell-bare-param",
                "cell-repeated-param", "cell-same-param-twice", "meta-bare-token"}


def test_every_bad_line_is_an_api_mistake_or_text_only():
    assert sorted(c[0] for c in _BAD_LINES) == sorted(set(_API_MISTAKES) | _PARSER_ONLY)
    assert not set(_API_MISTAKES) & _PARSER_ONLY


@pytest.mark.parametrize("case", sorted(_API_MISTAKES))
def test_parser_and_api_agree_on_messages(tmp_path, case):
    """The mistake, made through the API on the IR the parser holds when it
    reaches the broken line, raises that line's message."""
    _, old, new, msg = next(c for c in _BAD_LINES if c[0] == case)
    path, lineno = _write_bad(tmp_path, old, new)
    head = tmp_path / "head.nl"
    head.write_text("".join(f"{ln}\n" for ln in path.read_text().splitlines()[:lineno - 1]))
    with pytest.raises(NetlistError) as exc:
        _API_MISTAKES[case](parse_netlist(head))
    assert str(exc.value) == msg


def test_parse_netlist_skips_comments_and_blanks(tmp_path):
    lines = _emit_lines(tmp_path)
    lines[3:3] = ["", "   ", "# a note", "  # indented note"]
    path = tmp_path / "c.nl"
    path.write_text("\n".join(lines) + "\n")
    again = tmp_path / "again.nl"
    emit_netlist(parse_netlist(path), again)
    assert again.read_text().splitlines() == _emit_lines(tmp_path)


_FUZZ_WORDS = ["conn", "cell", "net", "port", "#", "", "x", "0", "-1", "1_0",
               "0x4", "in", "out", "drive", "sink", "decoder", "a//b", "dec.x",
               ".", "k=", "=v", "name=1", "kind=inv", "r_row", "clk", "dec"]


def test_parse_netlist_fuzz(tmp_path):
    """Seeded token and line mutations: each file parses or raises
    NetlistError, never another exception."""
    rng = random.Random(11)
    good = _emit_lines(tmp_path)
    path = tmp_path / "fuzz.nl"
    for _ in range(300):
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
            parse_netlist(path)
        except NetlistError as e:
            assert str(e).startswith(f"{path}:")


def test_param_keys_are_free(tmp_path):
    """`name` and `kind` are ordinary param keys in the text grammar, in
    add_cell and in a graft: all three build the same cell."""
    path, _ = _write_bad(tmp_path, "cell sel_reg ",
                         "cell sel_reg output_reg name=q kind=1")
    parsed = parse_netlist(path).cells["sel_reg"]
    assert (parsed.kind, parsed.params) == ("output_reg", {"name": "q", "kind": 1})
    sub = NetlistIR("sub")
    built = sub.add_cell("sel_reg", "output_reg", name="q", kind=1)
    assert built == parsed
    top = NetlistIR("top")
    _graft(top, sub, "u", {})
    assert top.cells["u/sel_reg"] == Cell("u/sel_reg", parsed.kind, parsed.params)


def _poison_line(path, lineno):
    """Put the byte 0xff, never UTF-8, just after the first `=` or space of
    line `lineno`: in the meta line, inside the string param `design=`."""
    lines = path.read_bytes().split(b"\n")
    ln = lines[lineno - 1]
    cut = (ln.find(b"=") + 1) or (ln.find(b" ") + 1)
    lines[lineno - 1] = ln[:cut] + b"\xff" + ln[cut:]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("lineno", [2, 3001])
def test_non_utf8_netlist_names_its_line(tmp_path, capsys, lineno):
    ir = generate_sram(MemoryConfig("ba_32x8", 4, 4, 8, 2), small_lib())
    path = tmp_path / "bad.nl"
    emit_netlist(ir, path)          # 3374 lines
    _poison_line(path, lineno)
    with pytest.raises(NetlistError) as exc:
        parse_netlist(path)
    msg = str(exc.value)
    assert msg.startswith(f"{path}:{lineno}: ") and "decode byte 0xff" in msg
    trace = tmp_path / "ops.tr"
    trace.write_text("W 0 1\nR 0\n")
    assert main(["sim", str(path), str(trace), "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"smemsynth sim: {msg}\n"


def test_cell_kinds_are_the_emitted_kinds():
    """CELL_KINDS holds each kind some generator emits, and no other."""
    lib = default_library(TechParams())
    emitted = set()
    for words, bits in [(256, 8), (1024, 16), (4096, 32)]:
        cfgs = enumerate_configs(UserSpec(words, bits), lib)
        for cfg in cfgs[::len(cfgs) // 12 or 1]:
            emitted |= {c.kind for c in generate_sram(cfg, lib).cells.values()}
    for spec in [PAWindowSpec(3, 3, 0, 0), PAWindowSpec(4, 3, 1, 1)]:
        for mode in ("sm", "tm"):
            emitted |= {c.kind for c in generate_pa(spec, mode).cells.values()}
    assert emitted == set(CELL_KINDS)


# -- structural round trip ------------------------------------------------------

def _typed(d):
    return {k: (type(v), v) for k, v in d.items()}


def _structure(ir):
    return {
        "name": ir.name,
        "meta": _typed(ir.meta),
        "ports": list(ir.ports.items()),
        "cells": {n: (c.kind, _typed(c.params)) for n, c in ir.cells.items()},
        "nets": {n: (net.width, list(net.drivers), list(net.sinks))
                 for n, net in ir.nets.items()},
    }


_ROUNDTRIP_SRAM = [("ba_32x8", 1, 1, 1, 1), ("ba_32x8", 2, 2, 2, 2),
                   ("ba_32x8", 4, 1, 2, 1), ("ba_32x8", 1, 2, 4, 2)]


@pytest.mark.parametrize("design", [*map(",".join, (map(str, c) for c in _ROUNDTRIP_SRAM)),
                                    "pa_sm", "pa_tm"])
def test_parse_inverts_emit(tmp_path, design):
    if design.startswith("pa_"):
        ir = generate_pa(PAWindowSpec(5, 4, 2, 1), design[3:])
    else:
        variant, *factors = design.split(",")
        ir = generate_sram(MemoryConfig(variant, *map(int, factors)), small_lib())
    path = tmp_path / "rt.nl"
    emit_netlist(ir, path)
    back = parse_netlist(path)
    assert _structure(back) == _structure(ir)
    assert check_wellformed(back) == []


def test_port_is_its_net_plus_a_direction():
    ir = NetlistIR("p")
    ir.add_port("clk", "in", 1)
    ir.add_port("q", "out", 4)
    with pytest.raises(NetlistError, match="duplicate net 'clk'"):
        ir.add_port("clk", "out", 2)            # leaves the first clk alone
    with pytest.raises(NetlistError, match="bad direction"):
        ir.add_port("d", "inout", 1)            # checked before the net is added
    assert ir.ports == {"clk": "in", "q": "out"}
    assert list(ir.nets) == ["clk", "q"] and ir.nets["q"].width == 4


@pytest.mark.parametrize("name", ["a\n", "a/b\n"])
def test_names_hold_no_newline(tmp_path, name):
    """A net or cell name is matched whole: one with a newline, even a
    trailing one, is refused, so emit_netlist never writes a line that
    parse_netlist cannot read back."""
    ir = NetlistIR("n")
    with pytest.raises(NetlistError) as exc:
        ir.add_net(name, 1)
    assert str(exc.value) == f"bad net name {name!r}"
    with pytest.raises(NetlistError) as exc:
        ir.add_cell(name, "output_reg")
    assert str(exc.value) == f"bad cell name {name!r}"
    assert ir.nets == {} and ir.cells == {}


# -- slot wiring ------------------------------------------------------------------

def _slot_wiring_faults(ir):
    """Follow each tristate's nets: its `en` must be the `rwl` of exactly one
    wordline gate, that net must feed exactly one macro's `rwl`, the same
    gate must drive that macro's `wwl`, and the macro's `qout` must be the
    tristate's `in`.  Every macro must sit behind exactly one tristate."""
    net_of = {}  # (cell, pin) -> the net on that pin
    for net in ir.nets.values():
        for ep in net.drivers + net.sinks:
            net_of[ep] = net
    faults, seen = [], []
    for tri in cells_of_kind(ir, "tristate_driver"):
        en = net_of[tri.name, "en"]
        gates = [c for c, pin in en.drivers
                 if ir.cells[c].kind == "wordline_gate" and pin == "rwl"]
        if len(gates) != 1 or len(en.drivers) != 1:
            faults.append(f"{tri.name}: en {en.name} driven by {en.drivers}")
            continue
        macros = [c for c, pin in en.sinks
                  if ir.cells[c].kind == "baplus_instance" and pin == "rwl"]
        if len(macros) != 1:
            faults.append(f"{tri.name}: en {en.name} feeds macros {macros}")
            continue
        macro = macros[0]
        seen.append(macro)
        if net_of[macro, "wwl"].drivers != [(gates[0], "wwl")]:
            faults.append(f"{tri.name}: {macro}.wwl not driven by {gates[0]}")
        if net_of[macro, "qout"] is not net_of[tri.name, "in"]:
            faults.append(f"{tri.name}: in is not {macro}.qout")
    macros = sorted(c.name for c in cells_of_kind(ir, "baplus_instance"))
    if sorted(seen) != macros:
        faults.append(f"tristates reach macros {sorted(seen)}, not {macros}")
    return faults


@pytest.mark.parametrize("design", [
    "ba_32x8,2,2,4,1", "ba_32x8,4,1,2,2", "ba_32x8,1,2,2,4", "ba_32x8,2,2,2,2",
    "sm,wrap", "sm,clamp", "tm,wrap", "tm,clamp"])
def test_every_tristate_follows_its_slot(design):
    """Each read tristate is enabled by the read wordline of the gate in
    front of the macro whose q it drives, in SRAMs with R, K or M > 1 and
    in both window memories."""
    head, *rest = design.split(",")
    if head in ("sm", "tm"):
        ir = generate_pa(PAWindowSpec(4, 3, 1, 1, boundary=rest[0]), head)
    else:
        ir = generate_sram(MemoryConfig(head, *map(int, rest)), small_lib())
    assert cells_of_kind(ir, "tristate_driver")
    assert _slot_wiring_faults(ir) == []


# -- required pins ----------------------------------------------------------------

def _sram_selects(meta):
    """The one-hot selects an SRAM decoder drives into every wordline gate."""
    fields = ["row"] + ["bank"] * (meta.get("R", 1) > 1) + ["ba"] * (meta.get("K", 1) > 1)
    return {f"{rw}_{f}" for rw in "rw" for f in fields}


def needs(ir, cell):
    """The pins `cell` must connect, read from the params the generators
    stamp, and from the meta's R, K and M for an SRAM's select sets."""
    p, meta = cell.params, ir.meta
    if cell.kind == "baplus_instance":
        return {"clk", "rwl", "wwl", "din", "qout"} | ({"wsel"} if meta.get("M", 1) > 1 else set())
    if cell.kind == "tristate_driver":
        return {"clk", "in", "en", "out"}
    if cell.kind == "column_mux":
        return {f"in_{c}" for c in range(p["C"])} | {"sel", "out"}
    if cell.kind == "output_reg":
        ins = {"mux_sel_pipeline": {"clk", "d"},
               "rotation_pipeline": {"clk", "x", "y", "en"}}[p["role"]]
        return ins | {"q"}
    if cell.kind == "pa_align":
        return ({f"lane_{x}_{y}" for x in range(1 << p["a"]) for y in range(1 << p["b"])}
                | ({"rot"} if p["a"] + p["b"] else set()) | {"out"})
    if cell.kind == "pa_increment":
        if p.get("mode") == "translate":
            return {"x", "y", "wx", "wy", "we", "taddr", "twaddr", "twe"}
        return {"base_oh", p["axis"], "sel_oh"}
    if cell.kind == "decoder":
        if "axis" in p:
            a = p["axis"]
            return {a, f"w{a}", "re", "we", "base_oh", "wbase_oh"}
        msel = {"r_msel", "w_msel"} if p["mux_bits"] else set()
        return {"raddr", "waddr", "re", "we"} | _sram_selects(meta) | msel
    assert cell.kind == "wordline_gate", cell.kind
    if p.get("mode") == "divided":
        return {"rsel", "csel", "re", "we", "wx", "wy", "wxbase_oh", "wybase_oh",
                "rwl", "wwl"}
    return {"re", "we", "rwl", "wwl"} | _sram_selects(meta)


def _pin_faults(ir):
    """Each cell must connect each pin it needs exactly once, and no other."""
    got = {}   # cell -> {pin: connections}
    for net in ir.nets.values():
        for cell, pin in net.drivers + net.sinks:
            pins = got.setdefault(cell, {})
            pins[pin] = pins.get(pin, 0) + 1
    faults = []
    for cell in ir.cells.values():
        want, have = needs(ir, cell), got.get(cell.name, {})
        for pin in sorted(want | set(have)):
            if pin not in want:
                faults.append(f"{cell.name}.{pin}: not a pin of this {cell.kind}")
            elif have.get(pin) != 1:
                faults.append(f"{cell.name}.{pin}: connected {have.get(pin, 0)} times")
    return faults


def test_generated_netlists_connect_every_pin():
    lib = default_library(TechParams())
    irs = []
    for words, bits in [(256, 8), (1024, 16), (4096, 32)]:
        cfgs = enumerate_configs(UserSpec(words, bits), lib)
        irs += [generate_sram(cfg, lib) for cfg in cfgs[::len(cfgs) // 12 or 1]]
    for m, n, a, b in [(3, 3, 0, 0), (4, 3, 1, 1), (4, 4, 2, 0), (3, 5, 0, 2)]:
        for boundary in ("wrap", "clamp"):
            irs += [generate_pa(PAWindowSpec(m, n, a, b, boundary=boundary), mode)
                    for mode in ("sm", "tm")]
    for ir in irs:
        assert _pin_faults(ir) == [], ir.name


# (design, net, cell, pin): connections whose loss leaves every net with a
# driver and a sink, so check_wellformed passes without them
_DROPS = [
    ("sram", "clk", "bank_0_0/ba_0", "clk"),
    ("sram", "clk", "bank_1_1/tri_1", "clk"),
    ("sram", "clk", "sel_reg", "clk"),
    ("sm", "clk", "rot_reg", "clk"),
    ("sm", "x", "rot_reg", "x"),
    ("sm", "y", "rot_reg", "y"),
    ("sm", "re", "rot_reg", "en"),
    ("sm", "x", "xdec", "x"),
    ("sm", "wy", "ydec", "wy"),
    ("sm", "re", "xdec", "re"),
    ("sm", "we", "ydec", "we"),
    ("sm", "x", "bank_1_0/incx", "x"),
]


@pytest.mark.parametrize("design, net, cell, pin", _DROPS,
                         ids=[f"{d[0]}-{d[2]}.{d[3]}" for d in _DROPS])
def test_dropped_connection_names_its_pin(design, net, cell, pin):
    if design == "sram":
        ir = generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2), small_lib())
    else:
        ir = generate_pa(PAWindowSpec(4, 3, 1, 1), design)
    ir.nets[net].sinks.remove((cell, pin))
    assert check_wellformed(ir) == []
    assert _pin_faults(ir) == [f"{cell}.{pin}: connected 0 times"]


# -- slots held once --------------------------------------------------------------

# every shape of test_parse_inverts_emit and of the golden manifest's SRAM
# cases (one slot; R > 1 with K = 1; M > 1 across 8 columns), and 1,024 slots
_FOLDED = sorted({*map(",".join, (map(str, c) for c in _ROUNDTRIP_SRAM)),
                  "ba_32x8,2,2,2,2", "ba_8x8,1,8,64,1", "ba_32x8,1,1,1,1",
                  "ba_32x8,4,1,1,1", "ba_64x64,1,8,4,8", "ba_8x8,1,8,128,1"})


def _generated(config):
    """generate_sram of `config`, "variant,R,C,K,M"."""
    variant, *factors = config.split(",")
    lib = small_lib() if variant == "ba_32x8" else default_library()
    return generate_sram(MemoryConfig(variant, *map(int, factors)), lib)


def _synth_text(tmp_path, config):
    """The .nl of `config` as synth writes it, from its held slots."""
    path = tmp_path / "m.nl"
    emit_netlist(_generated(config), path)
    return path


def _head(ir):
    """The head's cells and nets, in order, with their params and ends."""
    cells, nets = ir.head()
    return ([(c.name, c.kind, [(k, type(v), v) for k, v in c.params.items()])
             for c in cells.values()],
            [(n.name, n.width, n.drivers, n.sinks) for n in nets.values()])


@pytest.mark.parametrize("config", _FOLDED)
def test_parse_folds_what_synth_writes(tmp_path, config):
    """parse_netlist reads a synth-written SRAM back held, as the IR that
    generate_sram holds: the same bindings, slot text and head, compared
    without expanding either.  It expands into the IR the flat reader makes
    of the same text, which it writes back byte for byte."""
    path = _synth_text(tmp_path, config)
    held, generated = parse_netlist(path), _generated(config)
    assert held.slots is not None
    assert held.slots.bindings == generated.slots.bindings
    assert held.slots.text == generated.slots.text
    assert _head(held) == _head(generated)
    assert held.slots is not None and generated.slots is not None
    emit_netlist(held, tmp_path / "back.nl")
    assert (tmp_path / "back.nl").read_bytes() == path.read_bytes()
    assert check_wellformed(held) == []
    assert held.slots is not None
    assert _structure(held) == _structure(netlist._parse_flat(path))


def _edit_last_cell(lines):
    i = max(i for i, line in enumerate(lines) if line.startswith("cell "))
    lines[i] = lines[i].replace("registered_enable=1", "registered_enable=2")


def _swap_slot_conns(lines):
    """Swap the macro's and the tristate's sinks on the last slot's rwl."""
    i = max(i for i, line in enumerate(lines) if line.endswith("tri_1.en sink"))
    assert lines[i - 1].endswith("ba_1.rwl sink")
    lines[i - 1], lines[i] = lines[i], lines[i - 1]


def _repeat_last_line(lines):
    lines.append(lines[-1])


def _drop_a_select(lines):
    """Drop the r_bank net, which every wordline gate takes, and its conns."""
    lines[:] = [line for line in lines if " r_bank " not in line]


def _drive_after_the_slots(lines):
    """A second driver of col_bl_0, after the slots' tristates drive it."""
    lines.insert(lines.index("conn col_bl_0 mux.in_0 sink") + 1,
                 "conn col_bl_0 dec.r_bank drive")


def _drop_the_slots(lines):
    """Every line from the first slot's on: the head alone is left."""
    del lines[next(i for i, line in enumerate(lines) if "/" in line):]


def _respell_the_meta(lines):
    lines[1] = lines[1].replace(" R=2 ", " R=02 ")


def _space_the_title(lines):
    lines[0] = lines[0].replace("netlist ", "netlist  ")


def _end_lines_in_crlf(lines):
    lines[:] = [line + "\r" for line in lines]


@pytest.mark.parametrize("edit", [_edit_last_cell, list.pop, _swap_slot_conns,
                                  _repeat_last_line, _drop_a_select, _drive_after_the_slots,
                                  _drop_the_slots, _respell_the_meta, _space_the_title,
                                  _end_lines_in_crlf],
                         ids=["last-cell-param", "last-line-dropped", "slot-conns-swapped",
                              "last-line-repeated", "select-net-dropped",
                              "head-driver-after-slots", "slots-dropped", "meta-respelled",
                              "title-spaced", "crlf-line-ends"])
def test_parse_reads_an_edited_text_flat(tmp_path, edit):
    """A text that differs from synth's in its last slot's cell line, its
    last line, the order of two slot conns, a line past its end, a head
    net its slots take, where a head conn stands, its comment lines or its
    line ends, or that stops after its head is read flat, into the IR the
    flat reader makes of it: the fold is checked, not inferred.  The head
    alone is a one-slot memory's, whose file is large enough for the fold
    to read it to its end."""
    path = _synth_text(tmp_path, "ba_32x8,1,1,1,1" if edit is _drop_the_slots
                       else "ba_32x8,2,2,2,2")
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    back = parse_netlist(path)
    assert back.slots is None
    assert _structure(back) == _structure(netlist._parse_flat(path))


def test_a_dropped_enable_reads_flat_and_simulates_as_before(tmp_path, capsys):
    """A .nl without its first slot's tristate enable (ROADMAP item 1's
    miswire) is read flat, and sim writes the result.txt it writes for the
    unedited netlist: the engine does not follow the wires."""
    path = _synth_text(tmp_path, "ba_32x8,2,2,2,2")
    trace = tmp_path / "ops.tr"
    trace.write_text("W 0 5\nR 0\nW 17 a\nR 17\nR 3\n")
    assert main(["sim", str(path), str(trace), "--out", str(tmp_path)]) == 0
    want = (tmp_path / "result.txt").read_bytes()
    text = path.read_text()
    dropped = "conn bank_0_0/rwl_0 bank_0_0/tri_0.en sink\n"
    assert text.count(dropped) == 1
    path.write_text(text.replace(dropped, ""))
    assert parse_netlist(path).slots is None
    capsys.readouterr()
    assert main(["sim", str(path), str(trace), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "result.txt").read_bytes() == want

def _held_and_flat(config):
    """generate_sram of `config` twice: as generated, with its slots held,
    and expanded."""
    held, flat = _generated(config), _generated(config)
    flat.expand()
    assert held.slots is not None and flat.slots is None
    return held, flat


def _same_through_text(tmp_path, held, flat):
    """The held IR and its flat twin write the same bytes, count the same
    cells, nets and conns, check the same, and parse to the same IR."""
    emit_netlist(held, tmp_path / "held.nl")
    emit_netlist(flat, tmp_path / "flat.nl")
    text = (tmp_path / "held.nl").read_text()
    assert text == (tmp_path / "flat.nl").read_text()
    heads = [line.split()[0] for line in text.splitlines()]
    assert held.cell_count() == heads.count("cell") == len(flat.cells)
    assert heads.count("port") + heads.count("net") == len(flat.nets)
    assert heads.count("conn") == sum(len(n.drivers) + len(n.sinks)
                                      for n in flat.nets.values())
    assert check_wellformed(held) == check_wellformed(flat)
    back = parse_netlist(tmp_path / "held.nl")
    assert _structure(back) == _structure(flat)
    emit_netlist(back, tmp_path / "back.nl")
    assert (tmp_path / "back.nl").read_text() == text


@pytest.mark.parametrize("config", [
    "ba_32x8,1,1,1,1", "ba_32x8,4,1,1,1", "ba_32x8,1,1,4,1", "ba_32x8,2,2,2,1",
    "ba_32x8,1,2,1,2", "ba_32x8,2,2,2,2", "ba_32x8,4,1,2,8", "ba_64x64,1,8,4,8",
    "ba_8x8,1,8,128,1"])
def test_held_slots_match_their_expansion(tmp_path, config):
    """Over M = 1 and M > 1, and R and K both 1 and greater than 1, a held
    IR is its expanded twin for every reader; only the first read of
    `cells` or `nets` expands it."""
    held, flat = _held_and_flat(config)
    _same_through_text(tmp_path, held, flat)
    assert held.slots is not None
    assert _structure(held) == _structure(flat)
    assert held.slots is None


def _dropping(add_slot, part, pin):
    """add_slot without the connection of its `part` cell's `pin`."""
    def faulty(ir, scope, suffix, *args, **kwargs):
        connect, skip = ir.connect, (f"{scope}/{part}{suffix}", pin)
        ir.connect = lambda net, *end: "sink" if end == skip else connect(net, *end)
        try:
            return add_slot(ir, scope, suffix, *args, **kwargs)
        finally:
            del ir.connect
    return faulty


@pytest.mark.parametrize("part, kind, pin, violations", [
    ("tri", "tristate_driver", "en", 0), ("ba", "baplus_instance", "clk", 0),
    ("tri", "tristate_driver", "in", 8)])
def test_a_slot_fault_reaches_both_forms(tmp_path, monkeypatch, part, kind, pin,
                                         violations):
    """A connection dropped in add_slot is dropped from the held slots and
    from their expansion alike: the same text, the same violations (none
    for an enable or a clock, one per slot for a q without its sink) and
    the same missing pin in every slot."""
    monkeypatch.setattr(netlist, "add_slot", _dropping(netlist.add_slot, part, pin))
    held, flat = _held_and_flat("ba_32x8,2,2,2,2")
    assert len(check_wellformed(flat)) == violations
    _same_through_text(tmp_path, held, flat)
    faults = _pin_faults(flat)
    assert faults == [f"{c.name}.{pin}: connected 0 times"
                      for c in cells_of_kind(flat, kind)]
    assert _pin_faults(parse_netlist(tmp_path / "held.nl")) == faults
    assert _pin_faults(held) == faults


@pytest.mark.parametrize("cell, net, direct, held", [
    ("{s}/g{x}", "{s}/n{x}", False, True),
    ("{s}_g{x}", "{s}/n{x}", False, False),      # a cell outside its scope
    ("{s}/n{x}", "{s}/n_{x}", False, False),     # a cell's part starts a net's
    ("{s}/g{x}", "{s}/n{x}", True, False)])      # a slot drives its out net twice
def test_slots_held_only_when_stamped_alike(tmp_path, cell, net, direct, held):
    """hold_slots holds the slots only when each slot's text is the recorded
    slot's with its scope, suffix and out put in; otherwise it adds them
    flat.  Either way the IR is the one adding each slot makes."""
    def body(ir, scope, suffix, out):
        g, n = cell.format(s=scope, x=suffix), net.format(s=scope, x=suffix)
        ir.add_cell(g, "tristate_driver")
        ir.add_net(n, 1)
        ir.connect(n, g, "in")
        ir.connect("clk", g, "clk")
        ir.connect(out, g, "out")
        if direct:
            ir.connect("o", g, "en")
            ir.connect("o", g, "out")
    irs = [NetlistIR("t"), NetlistIR("t")]
    for ir in irs:
        ir.add_port("clk", "in", 1)
        ir.add_port("o", "out", 1)
    # with "{s}/n{x}" cells, the first slot's net is the second slot's cell
    bindings = [("b", "1", "o"), ("b", "_1", "o"), ("c", "_1", "o")]
    irs[0].hold_slots(body, bindings)
    for b in bindings:
        body(irs[1], *b)
    assert (irs[0].slots is not None) == held
    for i, ir in enumerate(irs):
        emit_netlist(ir, tmp_path / f"{i}.nl")
    assert (tmp_path / "0.nl").read_text() == (tmp_path / "1.nl").read_text()
    assert check_wellformed(irs[0]) == check_wellformed(irs[1])
    assert _structure(irs[0]) == _structure(irs[1])


@pytest.mark.parametrize("shared, outs", [(False, ["o", "o"]), (True, ["o", "p"])])
def test_held_check_counts_a_driver_per_slot(shared, outs):
    """A column mux that each slot puts on one net, through the slots' out
    net or directly, is a fault with two slots and not with one; the held
    check sees it as the flat one does."""
    def body(ir, scope, suffix, out):
        g = f"{scope}/g{suffix}"
        ir.add_cell(g, "column_mux")
        ir.connect("clk", g, "sel")
        ir.connect(out, g, "out")
        if shared:
            ir.connect("w", g, "out")
    for n_slots in (1, 2):
        bindings = [(f"b{i}", "_0", out) for i, out in enumerate(outs[:n_slots])]
        irs = [NetlistIR("t"), NetlistIR("t")]
        for ir in irs:
            ir.add_port("clk", "in", 1)
            for out in sorted(set(outs[:n_slots])):
                ir.add_port(out, "out", 1)
            if shared:
                ir.add_net("w", 1)
                ir.add_cell("h", "output_reg")
                ir.connect("w", "h", "d")
        irs[0].hold_slots(body, bindings)
        for b in bindings:
            body(irs[1], *b)
        assert irs[0].slots is not None
        faults = check_wellformed(irs[1])
        assert check_wellformed(irs[0]) == faults
        assert faults == [f"net {'w' if shared else 'o'}: multiple drivers include "
                          f"non-tristate b{i}/g_0" for i in range(n_slots) if n_slots > 1]


def test_held_check_sees_a_head_net_named_as_a_slot_cell():
    def body(ir, scope, suffix, out):
        g = f"{scope}/g{suffix}"
        ir.add_cell(g, "tristate_driver")
        ir.connect("clk", g, "clk")
        ir.connect(out, g, "out")
    irs = [NetlistIR("t"), NetlistIR("t")]
    for ir in irs:
        ir.add_port("clk", "in", 1)
        ir.add_port("o", "out", 1)
        ir.add_net("b/g_0", 1)
        ir.add_cell("h", "output_reg")
        ir.add_cell("k", "output_reg")
        ir.connect("b/g_0", "h", "q")
        ir.connect("b/g_0", "k", "d")
    irs[0].hold_slots(body, [("b", "_0", "o")])
    body(irs[1], "b", "_0", "o")
    assert irs[0].slots is not None
    assert check_wellformed(irs[0]) == check_wellformed(irs[1]) \
        == ["name 'b/g_0' used for both a cell and a net"]
