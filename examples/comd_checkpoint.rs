//! CoMD checkpoint campaign: the paper's §IV-H workload in miniature.
//!
//! Runs a CoMD-like application (compute phases + periodic N-N dumps)
//! functionally over the full stack, then evaluates the same workload at
//! paper scale (448 processes) with the timing models, printing the
//! efficiency numbers of Figure 9.
//!
//! Run with: `cargo run --release --example comd_checkpoint`

use baselines::model::StorageModel;
use baselines::{GlusterFsModel, OrangeFsModel, Scenario};
use nvmecr::RuntimeConfig;
use workloads::driver::run_functional_checkpoints;
use workloads::{CoMD, NvmeCrModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Functional pass: real bytes, 56 ranks, 3 checkpoints, 2 rank crashes.
    println!("functional CoMD campaign (56 ranks, 3 checkpoints, 1 MiB/rank):");
    let report = run_functional_checkpoints(56, 3, 1 << 20, &[3, 42], &RuntimeConfig::default())?;
    println!(
        "  verified {} MiB across {} ranks; {} ranks crash-recovered ({} records replayed)",
        report.bytes_verified >> 20,
        report.procs,
        report.recovered_ranks,
        report.replayed_records
    );
    println!(
        "  metadata: {} KiB on device, {} KiB DRAM across the job",
        report.metadata_bytes >> 10,
        report.dram_bytes >> 10
    );

    // Model pass: paper-scale weak scaling (Figure 9c/9d).
    let comd = CoMD::weak_scaling();
    println!(
        "\nCoMD weak-scaling model: {} atoms/rank, {} MiB/ckpt/rank, {:.1}s compute/interval",
        comd.atoms_per_rank,
        comd.checkpoint_bytes() >> 20,
        comd.compute_interval().as_secs()
    );
    println!(
        "\n{:>8} {:>12} {:>12} {:>12}",
        "procs", "NVMe-CR", "GlusterFS", "OrangeFS"
    );
    let systems: Vec<Box<dyn StorageModel>> = vec![
        Box::new(NvmeCrModel::full()),
        Box::new(GlusterFsModel::new()),
        Box::new(OrangeFsModel::new()),
    ];
    for procs in [56u32, 112, 224, 448] {
        let s = Scenario::weak_scaling(procs);
        let effs: Vec<f64> = systems
            .iter()
            .map(|m| m.checkpoint_efficiency(&s))
            .collect();
        println!(
            "{:>8} {:>12.3} {:>12.3} {:>12.3}",
            procs, effs[0], effs[1], effs[2]
        );
    }
    println!("(checkpoint efficiency; paper: NVMe-CR reaches 0.96 at 448 procs)");
    Ok(())
}
