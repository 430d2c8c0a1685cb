//! Runs the design-choice ablations DESIGN.md §5 calls out (beyond the
//! paper's own figures): buffering vs direct writes, placement policies,
//! and shared vs per-core submission queues.
use nvmecr_bench::figures as f;

fn main() {
    println!("{}", f::ablation_buffering());
    println!("{}", f::ablation_placement());
    println!("{}", f::ablation_queues());
}
