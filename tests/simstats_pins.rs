//! Pinned simulator statistics. Each job below runs to completion and its
//! whole `SimStats::to_json` is reduced to one FNV-1a digest, so a change
//! to any counter (cycles, stalls by reason, acquires, step calls, skipped
//! cycles, the checksum) on any job moves a pin. The basket covers the 16
//! Table I apps under all five techniques on one sampled GTX480 SM, every
//! scheduling policy on a few apps, and short whole-device runs. A change
//! that claims to leave the simulator's behaviour alone must leave every
//! value here unchanged; a change that means to move them must say why.
//!
//! A second pin covers what a run reports about its technique rather than
//! what it simulated: the theoretical occupancy, the storage overhead and
//! the register plan, over the same basket and 500 generated fuzz kernels.

use std::sync::OnceLock;

use regmutex::{RunReport, Session, Technique};
use regmutex_durable::{fnv1a, Fnv1a};
use regmutex_fuzz::oracle::config_for;
use regmutex_sim::{GpuConfig, LaunchConfig, SchedulerPolicy};
use regmutex_workloads::{suite, Workload};

const TECHNIQUES: [Technique; 5] = [
    Technique::Baseline,
    Technique::RegMutex,
    Technique::RegMutexPaired,
    Technique::Rfv,
    Technique::Owf,
];

/// One pinned job: a name, a workload, the GPU, the grid and a technique.
struct Probe {
    name: String,
    workload: Workload,
    cfg: GpuConfig,
    launch: LaunchConfig,
    technique: Technique,
}

fn app(name: &str) -> Workload {
    suite::all()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no workload {name}"))
}

/// The probe basket, in pin order.
fn basket() -> Vec<Probe> {
    let mut out = Vec::new();
    // Every Table I app under every technique, sampled, as the figures run.
    for w in suite::all() {
        for technique in TECHNIQUES {
            out.push(Probe {
                name: format!("{}/{technique}", w.name),
                cfg: GpuConfig::gtx480(),
                launch: w.launch(),
                workload: w.clone(),
                technique,
            });
        }
    }
    // Every scheduling policy. BFS has the suite's only divergent branch
    // and SPMV has barriers; RegMutex makes warps hold extended sets,
    // which owner-warp-first orders by.
    for name in ["BFS", "SPMV"] {
        for (tag, policy) in [
            ("gto", SchedulerPolicy::Gto),
            ("lrr", SchedulerPolicy::Lrr),
            ("owf", SchedulerPolicy::OwnerWarpFirst),
        ] {
            for technique in [Technique::Baseline, Technique::RegMutex] {
                let w = app(name);
                out.push(Probe {
                    name: format!("{name}/{technique}/{tag}"),
                    cfg: GpuConfig {
                        policy,
                        ..GpuConfig::gtx480()
                    },
                    launch: w.launch(),
                    workload: w,
                    technique,
                });
            }
        }
    }
    // Whole device: every SM simulated, on a grid of two CTAs per SM.
    for (name, technique) in [
        ("BFS", Technique::Baseline),
        ("BFS", Technique::RegMutex),
        ("SPMV", Technique::Owf),
    ] {
        let w = app(name);
        let mut cfg = w.table_config();
        cfg.simulated_sms = cfg.num_sms;
        out.push(Probe {
            name: format!("{name}/{technique}/device"),
            launch: LaunchConfig::new(w.grid_ctas.min(2 * cfg.num_sms)),
            cfg,
            workload: w,
            technique,
        });
    }
    out
}

/// FNV-1a of each basket job's `SimStats::to_json`, in basket order.
const PINS: &[(&str, u64)] = &[
    ("BFS/baseline", 0xd8b12bbef8b6d818),
    ("BFS/regmutex", 0x22aab781f9cc4c72),
    ("BFS/regmutex-paired", 0x126423cc0ef6acb3),
    ("BFS/rfv", 0x4971178ec4d6ae39),
    ("BFS/owf", 0xf6b8b569f24f4755),
    ("CUTCP/baseline", 0xd8886bc8da5c1a84),
    ("CUTCP/regmutex", 0x872dfbda42b1c746),
    ("CUTCP/regmutex-paired", 0xb1efdb8518f80c73),
    ("CUTCP/rfv", 0x87240533908b0c72),
    ("CUTCP/owf", 0x532973cc8cb755a7),
    ("DWT2D/baseline", 0x27f371fb3c396191),
    ("DWT2D/regmutex", 0x3b2abcf1e05eb1f2),
    ("DWT2D/regmutex-paired", 0xb06e43c087051e0c),
    ("DWT2D/rfv", 0x66632cf3d19f8194),
    ("DWT2D/owf", 0x832ff75c28018fd1),
    ("HotSpot3D/baseline", 0xae4e7348bfa086c9),
    ("HotSpot3D/regmutex", 0xb782d395d9d00ced),
    ("HotSpot3D/regmutex-paired", 0xf8ebda75ec0c12c4),
    ("HotSpot3D/rfv", 0x9debe65e0d9a19ff),
    ("HotSpot3D/owf", 0xae4e7348bfa086c9),
    ("MRI-Q/baseline", 0x7cfd7b2319fe9a90),
    ("MRI-Q/regmutex", 0xa7d80c1168c9035d),
    ("MRI-Q/regmutex-paired", 0x13e43674aa2cf7fa),
    ("MRI-Q/rfv", 0xda200bc803841bc4),
    ("MRI-Q/owf", 0xde0e31f0a3fc6495),
    ("ParticleFilter/baseline", 0xf013d87b7e63f8d7),
    ("ParticleFilter/regmutex", 0x0fe17bd74b82d1f9),
    ("ParticleFilter/regmutex-paired", 0xa5f90a36504b2565),
    ("ParticleFilter/rfv", 0x055bbf05fedeb000),
    ("ParticleFilter/owf", 0xb6675323b06921ed),
    ("RadixSort/baseline", 0xd2744938cd6ca67b),
    ("RadixSort/regmutex", 0x4c55056a082a8e67),
    ("RadixSort/regmutex-paired", 0x34791a9381e6ffca),
    ("RadixSort/rfv", 0xe861e77bae2aa81b),
    ("RadixSort/owf", 0xd2744938cd6ca67b),
    ("SAD/baseline", 0x4f68cd5842f474ab),
    ("SAD/regmutex", 0x72c2abee7888a096),
    ("SAD/regmutex-paired", 0x777f65dad374cc31),
    ("SAD/rfv", 0x037426072b01b16b),
    ("SAD/owf", 0x1aa7ba780287c3c5),
    ("Gaussian/baseline", 0xa5aa976644aa5408),
    ("Gaussian/regmutex", 0xa5aa976644aa5408),
    ("Gaussian/regmutex-paired", 0xa5aa976644aa5408),
    ("Gaussian/rfv", 0xa5aa976644aa5408),
    ("Gaussian/owf", 0x288cfa0671c43e1b),
    ("HeartWall/baseline", 0x79fe43de6b15f37a),
    ("HeartWall/regmutex", 0x79fe43de6b15f37a),
    ("HeartWall/regmutex-paired", 0x79fe43de6b15f37a),
    ("HeartWall/rfv", 0x79fe43de6b15f37a),
    ("HeartWall/owf", 0x251db6fbae0cd889),
    ("LavaMD/baseline", 0x7fdb119b001e42c1),
    ("LavaMD/regmutex", 0x7fdb119b001e42c1),
    ("LavaMD/regmutex-paired", 0x7fdb119b001e42c1),
    ("LavaMD/rfv", 0x7fdb119b001e42c1),
    ("LavaMD/owf", 0x41f6cc1223192618),
    ("MergeSort/baseline", 0x501873e1199b7c58),
    ("MergeSort/regmutex", 0x501873e1199b7c58),
    ("MergeSort/regmutex-paired", 0x501873e1199b7c58),
    ("MergeSort/rfv", 0x501873e1199b7c58),
    ("MergeSort/owf", 0x501873e1199b7c58),
    ("MonteCarlo/baseline", 0xf74f5ff97e0252fe),
    ("MonteCarlo/regmutex", 0xf74f5ff97e0252fe),
    ("MonteCarlo/regmutex-paired", 0xf74f5ff97e0252fe),
    ("MonteCarlo/rfv", 0xf74f5ff97e0252fe),
    ("MonteCarlo/owf", 0xf74f5ff97e0252fe),
    ("SPMV/baseline", 0xb2644c37e567a9b2),
    ("SPMV/regmutex", 0xb2644c37e567a9b2),
    ("SPMV/regmutex-paired", 0xb2644c37e567a9b2),
    ("SPMV/rfv", 0xb2644c37e567a9b2),
    ("SPMV/owf", 0xb2644c37e567a9b2),
    ("SRAD/baseline", 0x9c3c278701113bdf),
    ("SRAD/regmutex", 0x9c3c278701113bdf),
    ("SRAD/regmutex-paired", 0x9c3c278701113bdf),
    ("SRAD/rfv", 0x9c3c278701113bdf),
    ("SRAD/owf", 0xff5f3cf89434acb1),
    ("TPACF/baseline", 0xb15328f78c51b901),
    ("TPACF/regmutex", 0xb15328f78c51b901),
    ("TPACF/regmutex-paired", 0xb15328f78c51b901),
    ("TPACF/rfv", 0xb15328f78c51b901),
    ("TPACF/owf", 0x27bc2ff24f479f46),
    ("BFS/baseline/gto", 0xd8b12bbef8b6d818),
    ("BFS/regmutex/gto", 0x22aab781f9cc4c72),
    ("BFS/baseline/lrr", 0xab37c3003b3802da),
    ("BFS/regmutex/lrr", 0x096602d3491dbe78),
    ("BFS/baseline/owf", 0xd8b12bbef8b6d818),
    ("BFS/regmutex/owf", 0xf339ba6907da8311),
    ("SPMV/baseline/gto", 0xb2644c37e567a9b2),
    ("SPMV/regmutex/gto", 0xb2644c37e567a9b2),
    ("SPMV/baseline/lrr", 0x47c185a55f062556),
    ("SPMV/regmutex/lrr", 0x47c185a55f062556),
    ("SPMV/baseline/owf", 0xb2644c37e567a9b2),
    ("SPMV/regmutex/owf", 0xb2644c37e567a9b2),
    ("BFS/baseline/device", 0x7cd38867adc66d40),
    ("BFS/regmutex/device", 0x25367fcd1c267f08),
    ("SPMV/owf/device", 0x268d22c5bb8cecaa),
];

/// Every basket job's report, in basket order, simulated once for both
/// tests.
fn basket_reports() -> &'static [(String, RunReport)] {
    static REPORTS: OnceLock<Vec<(String, RunReport)>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        basket()
            .into_iter()
            .map(|p| {
                let report = Session::new(p.cfg)
                    .run(&p.workload.kernel, p.launch, p.technique)
                    .unwrap_or_else(|e| panic!("{}: {e}", p.name));
                (p.name, report)
            })
            .collect()
    })
}

#[test]
fn simstats_are_pinned() {
    let got: Vec<(String, u64)> = basket_reports()
        .iter()
        .map(|(name, report)| (name.clone(), fnv1a(report.stats.to_json().as_bytes())))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, digest)| format!("    (\"{name}\", {digest:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = PINS.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(
        got, want,
        "SimStats moved; the digests this build computes:\n{table}"
    );
}

/// Folds one run's technique facts into `h`.
fn write_facts(h: &mut Fnv1a, label: &str, report: &RunReport) {
    h.write_field(label.as_bytes());
    h.write_field(&report.theoretical_occupancy_warps.to_le_bytes());
    h.write_field(&report.storage_overhead_bits.to_le_bytes());
    h.write_field(format!("{:?}", report.plan).as_bytes());
}

/// `(label, theoretical_occupancy_warps, storage_overhead_bits, plan)` of
/// every basket job and of fuzz kernels `generate(0..500)` under all five
/// techniques, reduced to one digest: the occupancy and storage each
/// technique reports stay what they were.
#[test]
fn technique_facts_are_pinned() {
    let mut h = Fnv1a::new();
    for (name, report) in basket_reports() {
        write_facts(&mut h, name, report);
    }
    for seed in 0..500 {
        let g = regmutex_fuzz::generate(seed);
        let session = Session::new(config_for(&g));
        let compiled = session
            .compile(&g.kernel)
            .expect("generated kernels are valid");
        for technique in TECHNIQUES {
            let label = format!("fuzz{seed}/{technique}");
            let report = session
                .run_compiled(&compiled, LaunchConfig::new(g.grid_ctas), technique)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            write_facts(&mut h, &label, &report);
        }
    }
    let digest = h.finish();
    assert_eq!(
        digest, 0xe097_a69d_8411_5941,
        "technique facts moved: {digest:#018x}"
    );
}
