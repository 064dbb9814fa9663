//! Hardware storage-overhead accounting (§III-B1 and §IV-C): the one
//! place each technique's added storage is stated. A run reports the
//! figure for the manager it built; the baseline adds nothing.

use regmutex_sim::GpuConfig;

use crate::hw::bitmask::ceil_log2;
use crate::Technique;

/// RegMutex: warp-status bitmask + SRP bitmask + LUT
/// (`Nw + Nw + Nw·⌈log₂ Nw⌉` = 384 at `Nw = 48`).
pub fn regmutex_bits(cfg: &GpuConfig) -> u64 {
    let nw = u64::from(cfg.max_warps_per_sm);
    nw + nw + nw * u64::from(ceil_log2(cfg.max_warps_per_sm))
}

/// Paired-warps RegMutex: `Nw/2` pair bits (§III-C).
pub fn paired_bits(cfg: &GpuConfig) -> u64 {
    u64::from(cfg.max_warps_per_sm / 2)
}

/// RFV: renaming table (`Nw × 63 × ⌈log₂ rows⌉`, sized for Fermi's 63
/// architected registers) + availability mask (`rows`); 30,240 + 1,024 =
/// 31,264 on the Fermi baseline.
pub fn rfv_bits(cfg: &GpuConfig) -> u64 {
    let rows = cfg.reg_rows_per_sm();
    u64::from(cfg.max_warps_per_sm) * 63 * u64::from(ceil_log2(rows)) + u64::from(rows)
}

/// OWF: one lock bit per warp pair.
pub fn owf_bits(cfg: &GpuConfig) -> u64 {
    u64::from(cfg.max_warps_per_sm / 2)
}

/// The full comparison table: each technique that adds storage, with its
/// bits per SM.
pub fn comparison(cfg: &GpuConfig) -> [(Technique, u64); 4] {
    [
        (Technique::RegMutex, regmutex_bits(cfg)),
        (Technique::RegMutexPaired, paired_bits(cfg)),
        (Technique::Rfv, rfv_bits(cfg)),
        (Technique::Owf, owf_bits(cfg)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_on_fermi() {
        let cfg = GpuConfig::gtx480();
        assert_eq!(regmutex_bits(&cfg), 384);
        assert_eq!(rfv_bits(&cfg), 31_264);
        assert_eq!(paired_bits(&cfg), 24);
        assert_eq!(owf_bits(&cfg), 24);
        // ">81x" reduction claim.
        assert!(rfv_bits(&cfg) / regmutex_bits(&cfg) >= 81);
    }

    #[test]
    fn half_rf_shrinks_rfv_only_logarithmically() {
        let half = GpuConfig::gtx480_half_rf();
        assert_eq!(regmutex_bits(&half), 384);
        assert_eq!(rfv_bits(&half), 48 * 63 * 9 + 512);
    }

    #[test]
    fn comparison_table_has_all_rows() {
        let rows = comparison(&GpuConfig::gtx480());
        assert!(rows.contains(&(Technique::RegMutex, 384)));
    }
}
