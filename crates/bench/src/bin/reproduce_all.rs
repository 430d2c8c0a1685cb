//! Runs every figure and table harness; the output is the data source for
//! EXPERIMENTS.md.
use nvmecr_bench::figures as f;

fn main() {
    println!("NVMe-CR reproduction report");
    println!("===========================\n");
    println!("{}", f::fig1());
    println!("{}", f::fig7a());
    println!("{}", f::fig7b());
    println!("{}", f::fig7c());
    println!("{}", f::fig7d());
    println!("{}", f::fig8a());
    println!("{}", f::fig8b());
    let (a, b) = f::fig9(true);
    println!("{a}\n{b}");
    let (c, d) = f::fig9(false);
    println!("{c}\n{d}");
    println!("{}", f::table1(true));
    println!("{}", f::table2());
    println!("{}", f::ablation_buffering());
    println!("{}", f::ablation_placement());
    println!("{}", f::ablation_queues());
    println!("{}", f::fig_apps());
    println!("{}", f::fig_fabric_sensitivity());
    println!("{}", f::fig_machine_efficiency());
}
