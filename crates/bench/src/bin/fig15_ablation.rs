//! Fig. 15: the D/H/P ablation — transfer throughput (a) and energy (b)
//! for Base, Base+D, Base+D+H and Base+D+H+P over a size sweep, both
//! directions.
//!
//! Paper shape: "Base+D" *degrades* throughput in most cases (a vanilla
//! DMA engine loses to the OoO cores' deep AVX pipelining); "+H" alone
//! barely helps end-to-end (the PIM side still bottlenecks); "+P"
//! unlocks it (avg 4.1x, max 6.9x). Energy: Base+D and Base+D+H cost
//! *more* than Base; the full design wins because static energy
//! integrates over a much shorter transfer.
//!
//! Writes every cell's throughput and energy to `--out` (default
//! `BENCH_fig15.json`); `--smoke` runs the 1 MB column only.

use pim_bench::json::{write_json, Json};
use pim_bench::{cfg, flag_val, geomean, row, HarnessArgs};
use pim_mmu::XferKind;
use pim_sim::{run_batch, BatchPoint, DesignPoint, TransferResult, TransferSpec};

fn main() {
    let args = HarnessArgs::parse();
    let sizes_mb: &[u64] = if args.smoke {
        &[1]
    } else if args.full {
        &[1, 4, 16, 64, 256]
    } else {
        &[1, 4, 16]
    };
    let mut directions = Vec::new();
    for kind in [XferKind::DramToPim, XferKind::PimToDram] {
        println!("\n=== {kind:?} ===");
        // All (size, design) runs are independent: one batch per
        // direction, fanned out over the host cores.
        let points: Vec<BatchPoint> = sizes_mb
            .iter()
            .flat_map(|&mb| {
                DesignPoint::all().into_iter().map(move |d| {
                    let spec = TransferSpec {
                        max_ns: 1e11,
                        ..TransferSpec::simple(kind, mb << 20)
                    };
                    BatchPoint::transfer(format!("{}MB/{}", mb, d.label()), cfg(d), spec)
                })
            })
            .collect();
        let flat = run_batch(&points, args.threads());
        let results: Vec<&[TransferResult]> = flat.chunks(DesignPoint::all().len()).collect();

        println!("(a) data-transfer throughput, normalized to Base");
        print!("{:<24}", "size");
        for mb in sizes_mb {
            print!(" {:>9}", format!("{mb}MB"));
        }
        println!();
        let mut full_speedups = Vec::new();
        for (di, d) in DesignPoint::all().iter().enumerate() {
            let vals: Vec<f64> = results
                .iter()
                .map(|per_size| per_size[di].speedup_over(&per_size[0]))
                .collect();
            if *d == DesignPoint::BaseDHP {
                full_speedups.extend(vals.clone());
            }
            row(d.label(), &vals);
        }
        println!(
            "-> PIM-MMU speedup: geomean {:.2}x, max {:.2}x (paper: avg 4.1x, max 6.9x overall)",
            geomean(&full_speedups),
            full_speedups.iter().cloned().fold(0.0, f64::max)
        );

        println!("(b) energy, normalized to Base (total; static-dominated)");
        let mut effs = Vec::new();
        for (di, d) in DesignPoint::all().iter().enumerate() {
            let vals: Vec<f64> = results
                .iter()
                .map(|per_size| per_size[di].energy.total_mj() / per_size[0].energy.total_mj())
                .collect();
            if *d == DesignPoint::BaseDHP {
                effs.extend(vals.iter().map(|e| 1.0 / e));
            }
            row(d.label(), &vals);
        }
        println!(
            "-> PIM-MMU energy-efficiency gain: geomean {:.2}x (paper: 3.3x D2P / 4.9x P2D)",
            geomean(&effs)
        );
        let cells = sizes_mb.iter().zip(&results).flat_map(|(&mb, per_size)| {
            per_size.iter().map(move |r| {
                Json::obj([
                    ("size_mb", Json::int(mb)),
                    ("design", Json::str(r.design.clone())),
                    ("gbps", Json::num(r.throughput_gbps())),
                    ("speedup_vs_base", Json::num(r.speedup_over(&per_size[0]))),
                    ("energy_mj", Json::num(r.energy.total_mj())),
                ])
            })
        });
        directions.push(Json::obj([
            ("kind", Json::str(format!("{kind:?}"))),
            ("geomean_speedup", Json::num(geomean(&full_speedups))),
            ("geomean_energy_gain", Json::num(geomean(&effs))),
            ("cells", Json::Arr(cells.collect())),
        ]));

        // Detailed breakdown at the largest size for the full design.
        let last = results.last().expect("nonempty");
        println!(
            "(b) breakdown at {} MB, {}:\n{}",
            sizes_mb.last().expect("nonempty"),
            DesignPoint::BaseDHP.label(),
            last[3].energy
        );
    }
    let doc = Json::obj([
        ("bench", Json::str("fig15_ablation")),
        (
            "sizes_mb",
            Json::Arr(sizes_mb.iter().map(|&mb| Json::int(mb)).collect()),
        ),
        ("paper_avg_speedup", Json::num(4.1)),
        ("directions", Json::Arr(directions)),
    ]);
    let out = flag_val("--out").unwrap_or_else(|| "BENCH_fig15.json".to_string());
    write_json(&out, &doc).expect("write results file");
    println!("wrote {out}");
}
