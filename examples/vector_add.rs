//! End-to-end PIM offload of PrIM's vector addition (VA).
//!
//! ```sh
//! cargo run --release --example vector_add
//! ```
//!
//! Demonstrates the full stack working together:
//! 1. *functional* path — real bytes move through the UPMEM-style
//!    runtime (`DpuSet::push_xfer`, with the Fig. 3 transpose) into
//!    per-DPU MRAM, the per-DPU kernels run, and the pulled-back result
//!    is verified element by element;
//! 2. *timing* path — the same footprint is simulated on the Table-I
//!    machine under the baseline and PIM-MMU designs to produce the
//!    end-to-end time split of Fig. 16.

use pim_device::{DpuSet, PimDevice, PimTopology, XferDirection};
use pim_mmu::XferKind;
use pim_sim::{run_transfer, DesignPoint, SystemConfig, TransferSpec};
use pim_workloads::PRIM_SUITE;

fn main() {
    // ---- functional offload on 64 DPUs -----------------------------
    let n_dpus = 64u32;
    let per_dpu = 4096usize; // u32 elements per DPU
    let mut device = PimDevice::new(PimTopology {
        channels: 1,
        ranks: 1,
        chips_per_rank: 8,
        dpus_per_chip: 8,
        mram_bytes: 8 << 20,
    });

    let a: Vec<u32> = (0..n_dpus as usize * per_dpu).map(|i| i as u32).collect();
    let b: Vec<u32> = (0..n_dpus as usize * per_dpu)
        .map(|i| (2 * i) as u32)
        .collect();

    // DPU_FOREACH { dpu_prepare_xfer(a) } ; dpu_push_xfer(TO_DPU) ...
    let mut set = DpuSet::all(&mut device);
    for d in 0..n_dpus {
        let lo = d as usize * per_dpu;
        let bytes: Vec<u8> = a[lo..lo + per_dpu]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        set.prepare_xfer(d, bytes);
    }
    set.push_xfer(XferDirection::ToDpu, 0).expect("push a");
    for d in 0..n_dpus {
        let lo = d as usize * per_dpu;
        let bytes: Vec<u8> = b[lo..lo + per_dpu]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        set.prepare_xfer(d, bytes);
    }
    set.push_xfer(XferDirection::ToDpu, (per_dpu * 4) as u64)
        .expect("push b");

    // "Launch" the kernels: each DPU adds its slices inside MRAM.
    for d in 0..n_dpus {
        let av = set.device().mram(d).read_vec(0, per_dpu * 4);
        let bv = set
            .device()
            .mram(d)
            .read_vec(per_dpu as u64 * 4, per_dpu * 4);
        let au: Vec<u32> = av
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let bu: Vec<u32> = bv
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let cu: Vec<u32> = au
            .iter()
            .zip(&bu)
            .map(|(x, y)| x.wrapping_add(*y))
            .collect();
        let cb: Vec<u8> = cu.iter().flat_map(|v| v.to_le_bytes()).collect();
        let off = (2 * per_dpu * 4) as u64;
        // This write stands in for the DPU program's MRAM store.
        set.device_mut().mram_mut(d).write(off, &cb);
    }

    // Pull results back and verify.
    for d in 0..n_dpus {
        set.prepare_xfer(d, vec![0u8; per_dpu * 4]);
    }
    let pulled = set
        .push_xfer(XferDirection::FromDpu, (2 * per_dpu * 4) as u64)
        .expect("pull c");
    let mut ok = 0usize;
    for (d, bytes) in pulled {
        let lo = d as usize * per_dpu;
        for (i, c) in bytes.chunks_exact(4).enumerate() {
            let got = u32::from_le_bytes(c.try_into().unwrap());
            assert_eq!(got, a[lo + i].wrapping_add(b[lo + i]), "dpu {d} elem {i}");
            ok += 1;
        }
    }
    println!("functional VA: {ok} elements verified across {n_dpus} DPUs");

    // ---- timing on the Table-I machine ------------------------------
    let p = PRIM_SUITE
        .iter()
        .find(|w| w.name == "VA")
        .expect("VA is in the suite");
    println!(
        "\npaper-scale VA footprint: {} MiB in, {} MiB out, kernel {:.1} ms on 512 DPUs",
        p.in_bytes >> 20,
        p.out_bytes >> 20,
        p.kernel_ms(512)
    );
    for design in [DesignPoint::Baseline, DesignPoint::BaseDHP] {
        let cfg = SystemConfig::table1(design);
        // Simulate a 16 MiB slice of each phase and scale (bandwidth-bound).
        let slice = 16u64 << 20;
        let tin = run_transfer(&cfg, &TransferSpec::simple(XferKind::DramToPim, slice));
        let tout = run_transfer(&cfg, &TransferSpec::simple(XferKind::PimToDram, slice));
        let in_ms = tin.elapsed_ns * 1e-6 * p.in_bytes as f64 / slice as f64;
        let out_ms = tout.elapsed_ns * 1e-6 * p.out_bytes as f64 / slice as f64;
        let total = in_ms + p.kernel_ms(512) + out_ms;
        println!(
            "  {:<12} in {in_ms:7.1} ms | kernel {:6.1} ms | out {out_ms:7.1} ms | total {total:7.1} ms",
            cfg.design.label(),
            p.kernel_ms(512),
        );
    }
}
