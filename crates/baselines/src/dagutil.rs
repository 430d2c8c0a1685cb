//! DAG construction shared by all storage models.
//!
//! Turns a [`Scenario`] + [`DataPlaneSpec`] into `simkit` DAGs for the
//! three measurement kinds the evaluation uses: bulk checkpoint writes,
//! bulk recovery reads, and file-create storms.

use fabric::FabricFacility;
use simkit::{Dag, Rate, SimTime, Stage};
use ssd::{IoKind, SsdConfig, SsdFacility};

use crate::jumphash::{jump_consistent_hash, str_key};
use crate::scenario::Scenario;
use crate::spec::{DataPlaneSpec, PlacementPolicy};

/// Per-process bytes landing on each server under the spec's placement.
pub fn distribute(s: &Scenario, spec: &DataPlaneSpec) -> Vec<Vec<u64>> {
    let n = s.servers as usize;
    let mut out = vec![vec![0u64; n]; s.procs as usize];
    for p in 0..s.procs {
        let row = &mut out[p as usize];
        match spec.placement {
            PlacementPolicy::RoundRobin => row[(p as usize) % n] += s.bytes_per_proc,
            PlacementPolicy::SingleServer => row[0] += s.bytes_per_proc,
            PlacementPolicy::JumpHash => {
                let key = str_key(&s.file_name(p)).wrapping_add(s.seed);
                row[jump_consistent_hash(key, s.servers) as usize] += s.bytes_per_proc;
            }
            PlacementPolicy::Striped { stripe } => {
                let stripes = s.bytes_per_proc.div_ceil(stripe);
                let base = stripes / u64::from(s.servers);
                let rem = (stripes % u64::from(s.servers)) as usize;
                let start = jump_consistent_hash(str_key(&s.file_name(p)), s.servers) as usize;
                for (i, slot) in row.iter_mut().enumerate() {
                    let extra = ((i + n - start) % n < rem) as u64;
                    *slot += (base + extra) * stripe;
                }
            }
        }
    }
    out
}

/// Aggregate bytes per server (the Figure 7b load distribution).
pub fn server_loads(s: &Scenario, spec: &DataPlaneSpec) -> Vec<f64> {
    let per_proc = distribute(s, spec);
    let mut loads = vec![0f64; s.servers as usize];
    for row in per_proc {
        for (srv, b) in row.into_iter().enumerate() {
            loads[srv] += b as f64;
        }
    }
    loads
}

fn scaled_ssd(s: &Scenario, spec: &DataPlaneSpec) -> SsdConfig {
    SsdConfig {
        channel_write_bw: s.ssd.channel_write_bw.scale(spec.layer_efficiency),
        channel_read_bw: s.ssd.channel_read_bw.scale(spec.layer_efficiency),
        ..s.ssd.clone()
    }
}

struct Facilities {
    ssds: Vec<SsdFacility>,
    links: Vec<simkit::PipeId>,
    global_ns: Option<simkit::ResId>,
    meta: Option<simkit::ResId>,
    fabric: FabricFacility,
}

fn install(dag: &mut Dag, s: &Scenario, spec: &DataPlaneSpec) -> Facilities {
    let cfg = scaled_ssd(s, spec);
    let fabric = FabricFacility::new(s.net.clone());
    let mut ssds = Vec::with_capacity(s.servers as usize);
    let mut links = Vec::with_capacity(s.servers as usize);
    for _ in 0..s.servers {
        ssds.push(SsdFacility::install(dag, &cfg));
        links.push(fabric.install_link(dag));
    }
    Facilities {
        ssds,
        links,
        global_ns: spec.create_serialized.map(|_| dag.resource()),
        meta: spec.meta_op_at(s.procs).map(|_| dag.resource()),
        fabric,
    }
}

/// One checkpoint's makespan: every process creates its file (global
/// namespace and/or metadata server costs apply), then streams its bytes
/// to its server(s).
pub fn checkpoint_makespan(s: &Scenario, spec: &DataPlaneSpec) -> SimTime {
    transfer_makespan(s, spec, IoKind::Write, true)
}

/// One recovery's makespan: every process opens and reads its file back.
pub fn recovery_makespan(s: &Scenario, spec: &DataPlaneSpec) -> SimTime {
    transfer_makespan(s, spec, IoKind::Read, false)
}

/// Chunk granularity for pipelining fabric and device phases. Real
/// transfers overlap the network and the SSD; modelling a file as one
/// monolithic transfer would serialize the two phases (store-and-forward),
/// so each (process, server) stream is split into up to this many chunks
/// wired as a two-stage pipeline.
const PIPELINE_CHUNKS: u64 = 16;

fn transfer_makespan(s: &Scenario, spec: &DataPlaneSpec, kind: IoKind, creating: bool) -> SimTime {
    let mut dag = Dag::new();
    let f = install(&mut dag, s, spec);
    let per_proc = distribute(s, spec);
    let per_io = spec.path.per_io(&s.kernel).total();
    let meta_op = f.meta.and_then(|_| spec.meta_op_at(s.procs));
    let meta_gates =
        (creating && spec.meta_chunks_on_write) || (!creating && spec.meta_chunks_on_read);
    for row in per_proc.iter() {
        // Metadata prologue: create (or open) the process's file.
        let mut meta_stages: Vec<Stage> = Vec::new();
        if creating {
            if let (Some(res), Some(hold)) = (f.global_ns, spec.create_serialized) {
                meta_stages.push(Stage::Seize { res, hold });
            }
        }
        if !creating || spec.meta_on_create {
            if let (Some(res), Some(hold)) = (f.meta, meta_op) {
                meta_stages.push(Stage::Seize { res, hold });
            }
        }
        if !creating && spec.recovery_prologue > SimTime::ZERO {
            meta_stages.push(Stage::Delay(spec.recovery_prologue));
        }
        meta_stages.push(Stage::Delay(spec.create_client));
        // Host CPU: per-app-write path cost + per-block allocator cost.
        let total_bytes: u64 = row.iter().sum();
        let n_app_writes = total_bytes.div_ceil(s.app_write_size);
        let n_blocks = total_bytes.div_ceil(spec.request_size);
        let host = per_io * n_app_writes as f64 + spec.alloc_per_block * n_blocks as f64;
        meta_stages.push(Stage::Delay(host));
        let prologue = dag.token(&[], meta_stages);
        // Data streams to each server holding part of the file, each a
        // fabric→device two-stage chunk pipeline.
        for (srv, &bytes) in row.iter().enumerate() {
            if bytes == 0 {
                continue;
            }
            let meta_bytes = if creating {
                spec.write_meta_bytes * bytes.div_ceil(s.app_write_size)
            } else {
                0
            };
            let payload = (bytes + meta_bytes) * u64::from(spec.replication);
            let n_chunks = PIPELINE_CHUNKS
                .min(payload.div_ceil(s.app_write_size))
                .max(1);
            let chunk = payload / n_chunks;
            let last_chunk = payload - chunk * (n_chunks - 1);
            let mut prev_fabric = prologue;
            let mut prev_ssd: Option<simkit::TokenId> = None;
            for c in 0..n_chunks {
                let bytes_c = if c == n_chunks - 1 { last_chunk } else { chunk };
                let fab = dag.token(
                    &[prev_fabric],
                    f.fabric
                        .bulk_stages(f.links[srv], bytes_c, s.app_write_size, 4),
                );
                prev_fabric = fab;
                let mut stages = Vec::new();
                if meta_gates {
                    if let (Some(res), Some(hold)) = (f.meta, meta_op) {
                        stages.push(Stage::Seize {
                            res,
                            hold: hold * bytes_c.div_ceil(s.app_write_size) as f64,
                        });
                    }
                }
                stages.extend(f.ssds[srv].bulk_stages(kind, bytes_c, spec.request_size, s.qd));
                let deps: Vec<simkit::TokenId> = std::iter::once(fab).chain(prev_ssd).collect();
                prev_ssd = Some(dag.token(&deps, stages));
            }
        }
    }
    dag.run().expect("transfer DAG cannot deadlock").makespan()
}

/// Create-storm throughput (Figure 8b): every process creates
/// `creates_per_proc` empty files back-to-back; returns aggregate
/// creates per second.
pub fn create_rate(s: &Scenario, spec: &DataPlaneSpec, creates_per_proc: u32) -> f64 {
    assert!(creates_per_proc > 0);
    let mut dag = Dag::new();
    let f = install(&mut dag, s, spec);
    let per_io = spec.path.per_io(&s.kernel).total();
    let meta_op = f.meta.and_then(|_| spec.meta_op_at(s.procs));
    for p in 0..s.procs {
        let srv = match spec.placement {
            PlacementPolicy::SingleServer => 0usize,
            PlacementPolicy::JumpHash => {
                jump_consistent_hash(str_key(&s.file_name(p)), s.servers) as usize
            }
            _ => (p as usize) % s.servers as usize,
        };
        let mut prev: Option<simkit::TokenId> = None;
        for _ in 0..creates_per_proc {
            let mut stages: Vec<Stage> = Vec::new();
            if let (Some(res), Some(hold)) = (f.global_ns, spec.create_serialized) {
                stages.push(Stage::Seize { res, hold });
            }
            if spec.meta_on_create {
                if let (Some(res), Some(hold)) = (f.meta, meta_op) {
                    stages.push(Stage::Seize { res, hold });
                }
            }
            stages.push(Stage::Delay(spec.create_client + per_io));
            // The durable metadata append: a small device write (the
            // paper's calibrated create append for NVMe-CR; journal for the
            // others).
            stages.extend(
                f.fabric
                    .message_stages(f.links[srv], spec.create_device_bytes, 4),
            );
            stages.extend(f.ssds[srv].request_stages(IoKind::Write, spec.create_device_bytes));
            let deps: Vec<simkit::TokenId> = prev.into_iter().collect();
            prev = Some(dag.token(&deps, stages));
        }
    }
    let makespan = dag.run().expect("create DAG cannot deadlock").makespan();
    f64::from(s.procs) * f64::from(creates_per_proc) / makespan.as_secs()
}

/// Convenience: efficiency of a checkpoint under this spec.
pub fn checkpoint_efficiency(s: &Scenario, spec: &DataPlaneSpec) -> f64 {
    let t = checkpoint_makespan(s, spec);
    nvmecr_efficiency(s.total_bytes(), t, s.hw_peak_write())
}

/// Convenience: efficiency of a recovery under this spec.
pub fn recovery_efficiency(s: &Scenario, spec: &DataPlaneSpec) -> f64 {
    let t = recovery_makespan(s, spec);
    nvmecr_efficiency(s.total_bytes(), t, s.hw_peak_read())
}

fn nvmecr_efficiency(bytes: u64, t: SimTime, peak: Rate) -> f64 {
    if t == SimTime::ZERO {
        return 1.0;
    }
    (bytes as f64 / t.as_secs() / peak.as_bytes_per_sec()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::stats::coefficient_of_variation;

    #[test]
    fn round_robin_distribution_is_exact() {
        let s = Scenario::weak_scaling(64);
        let spec = DataPlaneSpec::base("rr");
        let loads = server_loads(&s, &spec);
        assert_eq!(coefficient_of_variation(&loads), 0.0);
    }

    #[test]
    fn jump_hash_is_imbalanced_at_low_concurrency() {
        let s = Scenario::weak_scaling(28);
        let spec = DataPlaneSpec {
            placement: PlacementPolicy::JumpHash,
            ..DataPlaneSpec::base("jh")
        };
        let cov = coefficient_of_variation(&server_loads(&s, &spec));
        assert!(
            cov > 0.15,
            "jump hash at 28 files should be imbalanced, cov={cov}"
        );
    }

    #[test]
    fn striping_is_nearly_balanced() {
        let s = Scenario::weak_scaling(28);
        let spec = DataPlaneSpec {
            placement: PlacementPolicy::Striped { stripe: 64 << 10 },
            ..DataPlaneSpec::base("st")
        };
        let cov = coefficient_of_variation(&server_loads(&s, &spec));
        assert!(cov < 0.01, "striping should balance, cov={cov}");
    }

    #[test]
    fn neutral_spec_approaches_hardware_peak() {
        let s = Scenario::weak_scaling(112);
        let spec = DataPlaneSpec::base("ideal");
        let eff = checkpoint_efficiency(&s, &spec);
        assert!(eff > 0.85, "neutral spec efficiency {eff}");
    }

    #[test]
    fn layer_efficiency_caps_throughput() {
        let s = Scenario::weak_scaling(112);
        let spec = DataPlaneSpec {
            layer_efficiency: 0.5,
            ..DataPlaneSpec::base("capped")
        };
        let eff = checkpoint_efficiency(&s, &spec);
        assert!(eff < 0.55 && eff > 0.35, "eff {eff}");
    }

    #[test]
    fn serialized_creates_hurt_at_scale() {
        let base = DataPlaneSpec::base("x");
        let locked = DataPlaneSpec {
            create_serialized: Some(SimTime::millis(10.0)),
            ..DataPlaneSpec::base("locked")
        };
        let small = Scenario::strong_scaling(56);
        let big = Scenario::strong_scaling(448);
        let penalty_small = checkpoint_makespan(&small, &locked).as_secs()
            / checkpoint_makespan(&small, &base).as_secs();
        let penalty_big = checkpoint_makespan(&big, &locked).as_secs()
            / checkpoint_makespan(&big, &base).as_secs();
        assert!(
            penalty_big > penalty_small * 1.5,
            "serialization must bite harder at 448 procs: {penalty_small} vs {penalty_big}"
        );
    }

    #[test]
    fn create_rate_scales_without_serialization_but_not_with() {
        let free = DataPlaneSpec::base("free");
        let locked = DataPlaneSpec {
            create_serialized: Some(SimTime::micros(50.0)),
            ..DataPlaneSpec::base("locked")
        };
        let r_free_small = create_rate(&Scenario::weak_scaling(28), &free, 10);
        let r_free_big = create_rate(&Scenario::weak_scaling(448), &free, 10);
        let r_locked_small = create_rate(&Scenario::weak_scaling(28), &locked, 10);
        let r_locked_big = create_rate(&Scenario::weak_scaling(448), &locked, 10);
        assert!(
            r_free_big > r_free_small * 4.0,
            "{r_free_small} -> {r_free_big}"
        );
        // Serialized: flat (within 30%).
        assert!(
            (r_locked_big / r_locked_small) < 1.5,
            "{r_locked_small} -> {r_locked_big}"
        );
    }

    #[test]
    fn recovery_reads_use_read_bandwidth() {
        let s = Scenario::weak_scaling(112);
        let spec = DataPlaneSpec::base("r");
        let eff = recovery_efficiency(&s, &spec);
        assert!(eff > 0.85, "recovery efficiency {eff}");
    }

    #[test]
    fn replication_doubles_the_device_work() {
        let s = Scenario::weak_scaling(112);
        let spec1 = DataPlaneSpec::base("r1");
        let spec2 = DataPlaneSpec {
            replication: 2,
            ..DataPlaneSpec::base("r2")
        };
        let t1 = checkpoint_makespan(&s, &spec1);
        let t2 = checkpoint_makespan(&s, &spec2);
        let ratio = t2.as_secs() / t1.as_secs();
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }
}

#[cfg(test)]
mod calibration_dump {
    use super::*;
    use crate::model::StorageModel;

    #[test]
    #[ignore]
    fn dump() {
        let neutral = DataPlaneSpec::base("neutral");
        for procs in [28u32, 112, 224, 448] {
            let s = Scenario::weak_scaling(procs);
            let t = checkpoint_makespan(&s, &neutral);
            let e = checkpoint_efficiency(&s, &neutral);
            let er = recovery_efficiency(&s, &neutral);
            println!("neutral procs={procs} t={t} eff={e:.3} rec_eff={er:.3}");
        }
        let sn = Scenario::single_node(512 << 20);
        for (name, m) in [
            (
                "spdk",
                Box::new(crate::SpdkRawModel::new()) as Box<dyn StorageModel>,
            ),
            ("ext4", Box::new(crate::Ext4Model::new())),
            ("xfs", Box::new(crate::XfsModel::new())),
            ("crail", Box::new(crate::CrailModel::new())),
        ] {
            println!("{name} single-node t={}", m.checkpoint_makespan(&sn));
        }
        for (name, m) in [
            (
                "orangefs",
                Box::new(crate::OrangeFsModel::new()) as Box<dyn StorageModel>,
            ),
            ("glusterfs", Box::new(crate::GlusterFsModel::new())),
        ] {
            for procs in [28u32, 112, 224, 448] {
                let s = Scenario::weak_scaling(procs);
                println!(
                    "{name} procs={procs} ckpt_eff={:.3} rec_eff={:.3} cov={:.3}",
                    m.checkpoint_efficiency(&s),
                    m.recovery_efficiency(&s),
                    m.load_cov(&s)
                );
            }
        }
    }
}
