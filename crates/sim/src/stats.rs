//! Simulation statistics.

use crate::warp::StallReason;

/// Counters collected by one SM (and merged across SMs by the GPU loop).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total cycles until the last CTA retired (max across SMs when merged).
    pub cycles: u64,
    /// Dynamic instructions issued.
    pub instructions: u64,
    /// CTAs executed.
    pub ctas: u64,
    /// Warps launched.
    pub warps: u64,
    /// `acq.es` issue attempts (every retry counts, matching the paper's
    /// "all acquire instructions executed" denominator in Fig 11b/13).
    pub acquire_attempts: u64,
    /// Successful acquires.
    pub acquire_successes: u64,
    /// `rel.es` executed.
    pub releases: u64,
    /// Scheduler-cycle stall attribution: for every scheduler-cycle in which
    /// no warp issued, the blocking reason of the best-ranked candidate.
    /// Indexed as [`StallReason::ALL`] (see [`StallReason::index`]).
    pub stall_cycles: [u64; StallReason::ALL.len()],
    /// Scheduler-cycles with no resident candidate at all.
    pub empty_scheduler_cycles: u64,
    /// Sum over cycles of resident (non-done) warps, for achieved occupancy.
    pub resident_warp_cycles: u64,
    /// Functional checksum of all stores (order-independent).
    pub checksum: u64,
    /// RFV emergency spills performed (0 for other techniques).
    pub spills: u64,
    /// Global-memory requests issued.
    pub mem_requests: u64,
    /// Register-file reads (source operands of issued instructions,
    /// warp-granular rows).
    pub reg_reads: u64,
    /// Register-file writes (destination operands, warp-granular rows).
    pub reg_writes: u64,
    /// Simulated cycles the event-driven loop fast-forwarded instead of
    /// ticking (0 with `--no-cycle-skip`). Each SM skips on its own clock;
    /// merged, this is the most cycles any one SM fast-forwarded, so it
    /// stays within `cycles`.
    pub skipped_cycles: u64,
    /// `Sm::step` invocations that did real work (idle early-outs excluded),
    /// counted for every SM: an SM that a whole-device run does not step,
    /// because it steps identically to one that is (DESIGN.md §7), is
    /// credited with that SM's steps. So this is the work of stepping every
    /// SM, not the steps taken. With skipping on,
    /// `step_calls + skipped_cycles ≈ cycles` on a single-SM device.
    pub step_calls: u64,
}

impl SimStats {
    /// Record one stalled scheduler-cycle.
    pub fn note_stall(&mut self, reason: StallReason) {
        self.stall_cycles[reason.index()] += 1;
    }

    /// Fraction of acquire attempts that succeeded (1.0 when none executed).
    pub fn acquire_success_rate(&self) -> f64 {
        if self.acquire_attempts == 0 {
            1.0
        } else {
            self.acquire_successes as f64 / self.acquire_attempts as f64
        }
    }

    /// Average resident warps per cycle.
    pub fn achieved_occupancy_warps(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.resident_warp_cycles as f64 / self.cycles as f64
        }
    }

    /// Issued instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Everything but the loop's accounting of itself (`skipped_cycles` and
    /// `step_calls`, zeroed): what the kernel did, not how the simulation
    /// was driven (cycle skipping, fault-injector gating).
    #[must_use]
    pub fn architectural(&self) -> SimStats {
        SimStats {
            skipped_cycles: 0,
            step_calls: 0,
            ..self.clone()
        }
    }

    /// Stall attribution in the canonical [`StallReason::ALL`] order,
    /// zero-count reasons omitted — the view serializers and metric
    /// exporters iterate.
    pub fn sorted_stall_cycles(&self) -> Vec<(StallReason, u64)> {
        StallReason::ALL
            .into_iter()
            .zip(self.stall_cycles)
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Serialize to a single-line JSON object with a stable field and
    /// stall-reason order, so equal stats always produce byte-equal JSON.
    ///
    /// The checksum is emitted as a `"0x…"` hex *string*: a u64 does not
    /// survive the f64 number model of generic JSON tooling, and the CLI
    /// already prints checksums in hex.
    pub fn to_json(&self) -> String {
        let mut stalls = String::from("{");
        for (i, (r, n)) in self.sorted_stall_cycles().into_iter().enumerate() {
            if i > 0 {
                stalls.push(',');
            }
            stalls.push_str(&format!("\"{}\":{n}", r.as_str()));
        }
        stalls.push('}');
        format!(
            concat!(
                "{{\"cycles\":{},\"instructions\":{},\"ctas\":{},\"warps\":{},",
                "\"acquire_attempts\":{},\"acquire_successes\":{},\"releases\":{},",
                "\"stall_cycles\":{},\"empty_scheduler_cycles\":{},",
                "\"resident_warp_cycles\":{},\"checksum\":\"{:#018x}\",\"spills\":{},",
                "\"mem_requests\":{},\"reg_reads\":{},\"reg_writes\":{},",
                "\"skipped_cycles\":{},\"step_calls\":{}}}"
            ),
            self.cycles,
            self.instructions,
            self.ctas,
            self.warps,
            self.acquire_attempts,
            self.acquire_successes,
            self.releases,
            stalls,
            self.empty_scheduler_cycles,
            self.resident_warp_cycles,
            self.checksum,
            self.spills,
            self.mem_requests,
            self.reg_reads,
            self.reg_writes,
            self.skipped_cycles,
            self.step_calls,
        )
    }

    /// Merge another SM's counters into this one (cycles take the max,
    /// checksums combine order-independently, counts add).
    pub fn merge(&mut self, other: &SimStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.instructions += other.instructions;
        self.ctas += other.ctas;
        self.warps += other.warps;
        self.acquire_attempts += other.acquire_attempts;
        self.acquire_successes += other.acquire_successes;
        self.releases += other.releases;
        for (mine, theirs) in self.stall_cycles.iter_mut().zip(other.stall_cycles) {
            *mine += theirs;
        }
        self.empty_scheduler_cycles += other.empty_scheduler_cycles;
        self.resident_warp_cycles += other.resident_warp_cycles;
        self.checksum = crate::value::combine_checksums(self.checksum, other.checksum);
        self.spills += other.spills;
        self.mem_requests += other.mem_requests;
        self.reg_reads += other.reg_reads;
        self.reg_writes += other.reg_writes;
        // Each SM fast-forwards over its own intervals; the merged count is
        // the most any one SM skipped (a sum could exceed `cycles`).
        self.skipped_cycles = self.skipped_cycles.max(other.skipped_cycles);
        self.step_calls += other.step_calls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_rate_defaults_to_one() {
        let s = SimStats::default();
        assert_eq!(s.acquire_success_rate(), 1.0);
    }

    #[test]
    fn acquire_rate_counts() {
        let s = SimStats {
            acquire_attempts: 10,
            acquire_successes: 7,
            ..Default::default()
        };
        assert!((s.acquire_success_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn ipc_and_occupancy() {
        let s = SimStats {
            cycles: 100,
            instructions: 250,
            resident_warp_cycles: 1600,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.achieved_occupancy_warps() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn merge_takes_max_cycles_and_sums_counts() {
        let mut a = SimStats {
            cycles: 100,
            instructions: 10,
            ..Default::default()
        };
        a.note_stall(StallReason::Scoreboard);
        let mut b = SimStats {
            cycles: 80,
            instructions: 5,
            ..Default::default()
        };
        b.note_stall(StallReason::Scoreboard);
        b.note_stall(StallReason::Acquire);
        a.merge(&b);
        assert_eq!(a.cycles, 100);
        assert_eq!(a.instructions, 15);
        assert_eq!(a.stall_cycles[StallReason::Scoreboard.index()], 2);
        assert_eq!(a.stall_cycles[StallReason::Acquire.index()], 1);
    }

    #[test]
    fn zero_cycles_edge_cases() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.achieved_occupancy_warps(), 0.0);
    }

    /// A fully-populated sample with every counter distinct, so field
    /// mix-ups in merge/serialization cannot cancel out.
    fn sample(salt: u64) -> SimStats {
        let mut s = SimStats {
            cycles: 100 + salt,
            instructions: 200 + salt,
            ctas: 3 + salt,
            warps: 12 + salt,
            acquire_attempts: 40 + salt,
            acquire_successes: 30 + salt,
            releases: 29 + salt,
            empty_scheduler_cycles: 5 + salt,
            resident_warp_cycles: 1600 + salt,
            checksum: 0xDEAD_BEEF ^ salt,
            spills: 2 + salt,
            mem_requests: 77 + salt,
            reg_reads: 500 + salt,
            reg_writes: 250 + salt,
            skipped_cycles: 60 + salt,
            step_calls: 40 + salt,
            ..Default::default()
        };
        for (i, n) in s.stall_cycles.iter_mut().enumerate() {
            *n = 10 + salt + i as u64;
        }
        s
    }

    #[test]
    fn merge_preserves_every_stall_reason_total() {
        let mut a = sample(0);
        let b = sample(100);
        let expected: Vec<(StallReason, u64)> = StallReason::ALL
            .into_iter()
            .map(|r| (r, a.stall_cycles[r.index()] + b.stall_cycles[r.index()]))
            .collect();
        a.merge(&b);
        assert_eq!(a.sorted_stall_cycles(), expected);
        // A reason present on only one side survives untouched.
        let mut c = SimStats::default();
        c.note_stall(StallReason::RegAlloc);
        let mut d = SimStats::default();
        d.note_stall(StallReason::Barrier);
        c.merge(&d);
        assert_eq!(
            c.sorted_stall_cycles(),
            vec![(StallReason::Barrier, 1), (StallReason::RegAlloc, 1)]
        );
    }

    #[test]
    fn merge_is_max_of_cycles_not_sum() {
        let mut a = sample(0);
        let b = sample(100); // larger cycles
        let (ca, cb) = (a.cycles, b.cycles);
        a.merge(&b);
        assert_eq!(a.cycles, ca.max(cb));
        // Symmetric: merging the smaller into the larger keeps the max.
        let mut big = sample(100);
        big.merge(&sample(0));
        assert_eq!(big.cycles, cb);
    }

    #[test]
    fn merge_combines_checksums_order_independently() {
        // As in the GPU loop: per-SM stats fold into a zero-initialized
        // accumulator, and the SM visit order must not matter.
        let (a0, b0, c0) = (sample(1), sample(2), sample(3));
        let mut abc = SimStats::default();
        abc.merge(&a0);
        abc.merge(&b0);
        abc.merge(&c0);
        let mut cba = SimStats::default();
        cba.merge(&c0);
        cba.merge(&b0);
        cba.merge(&a0);
        assert_eq!(
            abc.checksum, cba.checksum,
            "SM merge order must not change the kernel checksum"
        );
        assert_eq!(abc.instructions, cba.instructions);
    }

    #[test]
    fn merge_sums_all_additive_counters() {
        let mut a = sample(0);
        let b = sample(100);
        let want = |x: u64, y: u64| x + y;
        let expected = vec![
            want(a.instructions, b.instructions),
            want(a.ctas, b.ctas),
            want(a.warps, b.warps),
            want(a.acquire_attempts, b.acquire_attempts),
            want(a.acquire_successes, b.acquire_successes),
            want(a.releases, b.releases),
            want(a.empty_scheduler_cycles, b.empty_scheduler_cycles),
            want(a.resident_warp_cycles, b.resident_warp_cycles),
            want(a.spills, b.spills),
            want(a.mem_requests, b.mem_requests),
            want(a.reg_reads, b.reg_reads),
            want(a.reg_writes, b.reg_writes),
            want(a.step_calls, b.step_calls),
        ];
        a.merge(&b);
        assert_eq!(
            vec![
                a.instructions,
                a.ctas,
                a.warps,
                a.acquire_attempts,
                a.acquire_successes,
                a.releases,
                a.empty_scheduler_cycles,
                a.resident_warp_cycles,
                a.spills,
                a.mem_requests,
                a.reg_reads,
                a.reg_writes,
                a.step_calls,
            ],
            expected
        );
    }

    #[test]
    fn merge_is_max_of_skipped_cycles_not_sum() {
        // Like `cycles`, a count of simulated time: the merged value is the
        // most cycles any one SM fast-forwarded, never more than `cycles`.
        let mut a = sample(0);
        let b = sample(100);
        let (sa, sb) = (a.skipped_cycles, b.skipped_cycles);
        a.merge(&b);
        assert_eq!(a.skipped_cycles, sa.max(sb));
    }

    #[test]
    fn sorted_stalls_are_canonical_and_skip_zeros() {
        let mut s = SimStats::default();
        s.stall_cycles[StallReason::RegAlloc.index()] = 4;
        s.stall_cycles[StallReason::Scoreboard.index()] = 9;
        assert_eq!(
            s.sorted_stall_cycles(),
            vec![(StallReason::Scoreboard, 9), (StallReason::RegAlloc, 4)]
        );
    }

    #[test]
    fn json_is_deterministic_and_hex_checksummed() {
        let s = sample(0);
        let j1 = s.to_json();
        let j2 = s.clone().to_json();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"cycles\":100"), "{j1}");
        assert!(
            j1.contains("\"skipped_cycles\":60,\"step_calls\":40}"),
            "{j1}"
        );
        assert!(j1.contains("\"checksum\":\"0x00000000deadbeef\""), "{j1}");
        assert!(j1.contains("\"stall_cycles\":{\"scoreboard\":10"), "{j1}");
        // Canonical reason order.
        let sb = j1.find("scoreboard").unwrap();
        let ba = j1.find("barrier").unwrap();
        let aq = j1.find("\"acquire\"").unwrap();
        assert!(sb < ba && ba < aq, "{j1}");
    }

    #[test]
    fn stall_reason_names_round_trip() {
        for (i, r) in StallReason::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(r.as_str().parse::<StallReason>(), Ok(r));
            assert_eq!(format!("{r}"), r.as_str());
        }
        assert!("nope".parse::<StallReason>().is_err());
    }
}
