//! Integration: the paper's quantitative claims that must hold exactly.

use regmutex_repro::prelude::*;

use regmutex::storage;
use regmutex_compiler::es_select;
use regmutex_sim::{GpuConfig, KernelResources};

/// Table I, verbatim: (name, regs, |Bs|).
const TABLE1: [(&str, u16, u16); 16] = [
    ("BFS", 21, 18),
    ("CUTCP", 25, 20),
    ("DWT2D", 44, 38),
    ("HotSpot3D", 32, 24),
    ("MRI-Q", 21, 18),
    ("ParticleFilter", 32, 20),
    ("RadixSort", 33, 30),
    ("SAD", 30, 20),
    ("Gaussian", 12, 8),
    ("HeartWall", 28, 20),
    ("LavaMD", 37, 28),
    ("MergeSort", 15, 12),
    ("MonteCarlo", 13, 16 - 4),
    ("SPMV", 16, 12),
    ("SRAD", 18, 12),
    ("TPACF", 28, 20),
];

#[test]
fn table1_base_set_sizes_reproduce() {
    for (name, regs, bs) in TABLE1 {
        let w = suite::by_name(name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(w.table_regs, regs, "{name}: register count");
        assert_eq!(w.table_bs, bs, "{name}: table |Bs|");
        let session = Session::new(w.table_config());
        let compiled = session.compile(&w.kernel).expect("compile");
        let plan = compiled
            .plan
            .unwrap_or_else(|| panic!("{name}: no plan: {:?}", compiled.diagnostics.rejected));
        assert_eq!(plan.bs, bs, "{name}: computed |Bs|");
    }
}

#[test]
fn section_iii_a2_worked_example() {
    // Kernel asks 24 regs; registers the only limit; candidates {2,4,6,8};
    // Es ∈ {4,6,8} reach full occupancy with 16/26/32 SRP sections; the
    // heuristic picks |Es| = 6.
    let cfg = GpuConfig::gtx480();
    let res = KernelResources::new(24, 0, 256);
    let sel = es_select::select(&cfg, res, 0);
    let es_values: Vec<u16> = sel.ranked.iter().map(|c| c.es).collect();
    for e in [2, 4, 6, 8] {
        assert!(es_values.contains(&e), "candidate {e} missing");
    }
    let by_es = |e: u16| sel.ranked.iter().find(|c| c.es == e).unwrap();
    assert_eq!(by_es(4).srp_sections, 16);
    assert_eq!(by_es(6).srp_sections, 26);
    assert_eq!(by_es(8).srp_sections, 32);
    assert_eq!(sel.chosen().unwrap().es, 6);
}

#[test]
fn section_iii_b1_storage_accounting() {
    let cfg = GpuConfig::gtx480();
    // "Total number of bits introduced into the baseline by RegMutex is 384."
    assert_eq!(storage::regmutex_bits(&cfg), 384);
    // "RFV ... requires 30,240 bits for the renaming table and 1024 bits
    // for register availability."
    assert_eq!(storage::rfv_bits(&cfg), 30_240 + 1_024);
    // "RegMutex reduces the additional structure storage cost by more than
    // 81x."
    assert!(storage::rfv_bits(&cfg) / storage::regmutex_bits(&cfg) >= 81);
}

#[test]
fn fermi_machine_model_matches_section_iv() {
    let cfg = GpuConfig::gtx480();
    assert_eq!(cfg.num_sms, 15, "15 SMs");
    assert_eq!(
        cfg.regs_per_sm * 4,
        128 * 1024,
        "128 KB register file per SM"
    );
    assert_eq!(cfg.num_schedulers, 2, "2 warp schedulers per SM");
    assert_eq!(cfg.max_warps_per_sm, 48, "Nw = 48");
    let half = GpuConfig::gtx480_half_rf();
    assert_eq!(
        half.regs_per_sm * 4,
        64 * 1024,
        "64 KB for the shrink study"
    );
}

#[test]
fn rounding_matches_table1_parentheses() {
    let cfg = GpuConfig::gtx480();
    let expect = [
        (21u16, 24u32),
        (25, 28),
        (44, 44),
        (32, 32),
        (33, 36),
        (30, 32),
        (12, 12),
        (28, 28),
        (37, 40),
        (15, 16),
        (13, 16),
        (16, 16),
        (18, 20),
    ];
    for (raw, rounded) in expect {
        assert_eq!(cfg.round_regs(raw), rounded, "round({raw})");
    }
}

#[test]
fn fig1_sample_utilization_is_fractional_and_fluctuating() {
    // "For the majority of the program execution only subsets of the
    // requested registers are alive."
    for name in [
        "CUTCP",
        "DWT2D",
        "HeartWall",
        "HotSpot3D",
        "ParticleFilter",
        "SAD",
    ] {
        let w = suite::by_name(name).expect("known app");
        let trace = regmutex_compiler::live_trace(&w.kernel, 20_000);
        assert!(!trace.truncated, "{name}: trace truncated");
        let mean = trace.mean_utilization();
        assert!(
            (20.0..80.0).contains(&mean),
            "{name}: mean utilization {mean:.0}% not fractional"
        );
        let p = trace.percentages();
        let peak = p.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            peak > 95.0,
            "{name}: the allocation is justified at the peak"
        );
    }
}

/// The figures simulate one sampled SM with its share of the grid. This
/// prints, per app, how far that sample's cycle counts sit from a run of
/// the whole device on the app's Table I architecture (the table in
/// EXPERIMENTS.md's "Sampled SM vs whole device"). Run with:
///
/// ```text
/// cargo test --release --test table1_and_paper_claims \
///   sampled_vs_whole_device -- --ignored --nocapture
/// ```
#[test]
#[ignore = "prints an EXPERIMENTS.md table; ~5 s in release"]
fn sampled_vs_whole_device_cycles() {
    let cycles = |w: &Workload, t: Technique, whole_device: bool| {
        let mut cfg = w.table_config();
        if whole_device {
            cfg.simulated_sms = cfg.num_sms;
        }
        let rep = Session::new(cfg)
            .run(&w.kernel, w.launch(), t)
            .unwrap_or_else(|e| panic!("{}/{t}: {e}", w.name));
        rep.stats.cycles
    };
    let pct = |from: u64, to: u64| 100.0 * (to as f64 - from as f64) / from as f64;
    println!(
        "| app | baseline, sampled | baseline, device | sampled vs device \
         | RegMutex, sampled | RegMutex, device | sampled vs device \
         | cycle reduction, sampled | cycle reduction, device |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let (mut sampled_sum, mut device_sum, mut n) = (0.0, 0.0, 0.0);
    for w in suite::all() {
        let [bs, bd, rs, rd] = [
            (Technique::Baseline, false),
            (Technique::Baseline, true),
            (Technique::RegMutex, false),
            (Technique::RegMutex, true),
        ]
        .map(|(t, whole)| cycles(&w, t, whole));
        let (red_s, red_d) = (-pct(bs, rs), -pct(bd, rd));
        if suite::occupancy_limited().iter().any(|o| o.name == w.name) {
            sampled_sum += red_s;
            device_sum += red_d;
            n += 1.0;
        }
        println!(
            "| {} | {bs} | {bd} | {:+.1}% | {rs} | {rd} | {:+.1}% | {red_s:.1}% | {red_d:.1}% |",
            w.name,
            pct(bd, bs),
            pct(rd, rs),
        );
    }
    println!(
        "\nFig 7 average reduction (8 occupancy-limited apps): sampled {:.2}%, whole device {:.2}%",
        sampled_sum / n,
        device_sum / n
    );
}
