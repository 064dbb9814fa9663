//! Registry over the 16 Table I applications.

use crate::apps;
use crate::{Group, Workload};

/// Builds one application's workload.
type Build = fn() -> Workload;

/// The 16 applications in Table I order, by name, each with the
/// constructor that builds it.
const APPS: [(&str, Build); 16] = [
    ("BFS", apps::bfs::workload),
    ("CUTCP", apps::cutcp::workload),
    ("DWT2D", apps::dwt2d::workload),
    ("HotSpot3D", apps::hotspot3d::workload),
    ("MRI-Q", apps::mriq::workload),
    ("ParticleFilter", apps::particlefilter::workload),
    ("RadixSort", apps::radixsort::workload),
    ("SAD", apps::sad::workload),
    ("Gaussian", apps::gaussian::workload),
    ("HeartWall", apps::heartwall::workload),
    ("LavaMD", apps::lavamd::workload),
    ("MergeSort", apps::mergesort::workload),
    ("MonteCarlo", apps::montecarlo::workload),
    ("SPMV", apps::spmv::workload),
    ("SRAD", apps::srad::workload),
    ("TPACF", apps::tpacf::workload),
];

/// All 16 applications in Table I order.
pub fn all() -> Vec<Workload> {
    APPS.iter().map(|(_, build)| build()).collect()
}

/// The 8 occupancy-limited applications of Fig 7 (evaluated on the GTX480
/// baseline).
pub fn occupancy_limited() -> Vec<Workload> {
    all()
        .into_iter()
        .filter(|w| w.group == Group::OccupancyLimited)
        .collect()
}

/// The 8 register-insensitive applications of Fig 8 (evaluated on the
/// half-register-file architecture).
pub fn rf_insensitive() -> Vec<Workload> {
    all()
        .into_iter()
        .filter(|w| w.group == Group::RfInsensitive)
        .collect()
}

/// Look an application up by (case-insensitive) name, building only
/// that one.
pub fn by_name(name: &str) -> Option<Workload> {
    APPS.iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, build)| build())
}

/// The 16 application names in Table I order, without constructing any
/// of them.
pub fn names() -> &'static [&'static str] {
    static NAMES: std::sync::OnceLock<Vec<&'static str>> = std::sync::OnceLock::new();
    NAMES.get_or_init(|| APPS.iter().map(|(name, _)| *name).collect())
}

/// Whether a (case-insensitive) name is one of the 16 applications,
/// without constructing any of them.
pub fn is_app(name: &str) -> bool {
    names().iter().any(|n| n.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_apps_eight_per_group() {
        assert_eq!(all().len(), 16);
        assert_eq!(occupancy_limited().len(), 8);
        assert_eq!(rf_insensitive().len(), 8);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = all().iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn table_names_match_the_built_workloads() {
        let built: Vec<&str> = all().iter().map(|w| w.name).collect();
        assert_eq!(names(), built.as_slice());
        for name in names() {
            assert_eq!(by_name(&name.to_lowercase()).unwrap().name, *name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("bfs").is_some());
        assert!(by_name("DWT2D").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn fig7_group_matches_paper_list() {
        let names: Vec<&str> = occupancy_limited().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec![
                "BFS",
                "CUTCP",
                "DWT2D",
                "HotSpot3D",
                "MRI-Q",
                "ParticleFilter",
                "RadixSort",
                "SAD"
            ]
        );
    }

    #[test]
    fn fig8_group_matches_paper_list() {
        let names: Vec<&str> = rf_insensitive().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec![
                "Gaussian",
                "HeartWall",
                "LavaMD",
                "MergeSort",
                "MonteCarlo",
                "SPMV",
                "SRAD",
                "TPACF"
            ]
        );
    }

    #[test]
    fn every_app_trace_has_the_fig1_shape() {
        // Each application's dynamic trace must justify its allocation
        // (peak near 100%) while leaving it mostly idle (fractional mean).
        for w in all() {
            let t = regmutex_compiler::live_trace(&w.kernel, 50_000);
            assert!(!t.truncated, "{}: runaway trace", w.name);
            let p = t.percentages();
            let peak = p.iter().cloned().fold(0.0f64, f64::max);
            assert!(peak > 90.0, "{}: peak only {peak:.0}%", w.name);
            let mean = t.mean_utilization();
            assert!(
                (15.0..85.0).contains(&mean),
                "{}: mean {mean:.0}% is not fractional",
                w.name
            );
        }
    }

    #[test]
    fn every_app_touches_memory() {
        use regmutex_isa::{Op, Space};
        for w in all() {
            let loads = w
                .kernel
                .count_ops(|o| matches!(o, Op::Ld(Space::Global) | Op::Ld(Space::Shared)));
            assert!(loads > 0, "{}: no memory accesses", w.name);
            let stores = w.kernel.count_ops(|o| matches!(o, Op::St(_)));
            assert!(stores > 0, "{}: no observable stores", w.name);
        }
    }

    #[test]
    fn barrier_apps_are_the_expected_ones() {
        use regmutex_isa::Op;
        let with_barriers: Vec<&str> = all()
            .iter()
            .filter(|w| w.kernel.count_ops(|o| matches!(o, Op::Bar)) > 0)
            .map(|w| w.name)
            .collect();
        assert_eq!(
            with_barriers,
            vec!["HotSpot3D", "RadixSort", "MergeSort", "MonteCarlo", "SPMV"]
        );
    }

    #[test]
    fn every_kernel_is_valid_and_matches_table_register_count() {
        for w in all() {
            assert!(w.kernel.validate().is_ok(), "{} invalid", w.name);
            assert_eq!(w.kernel.regs_per_thread, w.table_regs, "{}", w.name);
            assert!(w.grid_ctas > 0);
        }
    }
}
