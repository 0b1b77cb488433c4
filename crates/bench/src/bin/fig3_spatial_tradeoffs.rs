//! Regenerates Fig. 3 / Section III-A: the systolic-vs-vector spatial-array
//! comparison at 256 PEs, plus the intermediate design points the paper
//! alludes to ("any other design points in between these two extremes").
//!
//! Paper claims to hold: the fully-pipelined (TPU-like) design achieves
//! ≈2.7× the fmax of the fully-combinational (NVDLA-like) design, at ≈1.8×
//! the area and ≈3.0× the power.
//!
//! `--json <path>` writes the same rows as a machine-readable document
//! (the exact document the golden regression test checks in).

use gemmini_bench::cli::JSON_DOC;
use gemmini_bench::figures::{fig3_json, fig3_rows};
use gemmini_bench::{section, write_json_doc, Cli};

fn main() {
    let cli = Cli::parse(&[JSON_DOC]);
    let rows = fig3_rows();

    section("Fig. 3: 256-PE spatial-array design space (16x16 total PEs)");
    println!(
        "{:<28} {:>10} {:>10} {:>12} {:>12}",
        "Design point", "fmax(GHz)", "area(kum2)", "power(mW)@1G", "chain depth"
    );
    for r in &rows {
        println!(
            "{:<28} {:>10.2} {:>10.1} {:>12.2} {:>12}",
            r.name, r.fmax_ghz, r.area_kum2, r.power_mw, r.chain_depth
        );
    }

    let pipe = rows.first().expect("tile=1 present");
    let comb = rows.last().expect("tile=16 present");
    section("Headline ratios (paper: 2.7x fmax, 1.8x area, 3.0x power)");
    println!(
        "fmax ratio  (pipelined / combinational): {:.2}x",
        pipe.fmax_ghz / comb.fmax_ghz
    );
    println!(
        "area ratio  (pipelined / combinational): {:.2}x",
        pipe.area_kum2 / comb.area_kum2
    );
    println!(
        "power ratio (pipelined / combinational): {:.2}x",
        pipe.power_mw / comb.power_mw
    );

    section("Throughput-per-area at each design's own fmax");
    for r in &rows {
        let peak_gmacs = 256.0 * r.fmax_ghz; // GMAC/s at fmax
        println!(
            "tile {:>2}: {:.0} GMAC/s peak, {:.2} GMAC/s per kum2",
            r.tile,
            peak_gmacs,
            peak_gmacs / r.area_kum2
        );
    }

    if let Some(path) = &cli.json {
        write_json_doc(path, &fig3_json());
        eprintln!("fig3: wrote {}", path.display());
    }
}
