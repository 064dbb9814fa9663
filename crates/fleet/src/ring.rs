//! Consistent-hash routing of job fingerprints onto workers.
//!
//! Each worker owns `vnodes` pseudo-random points on a 64-bit ring; a job
//! lands on the worker owning the first point at or after its FNV-1a
//! content fingerprint. Properties the coordinator leans on:
//!
//! * **Cache affinity.** The fingerprint is the same key the worker's LRU
//!   result cache uses, so the ring shards the cache cleanly: re-running a
//!   sweep against the same fleet hits warm caches, and adding a worker
//!   only remaps ~1/N of the keyspace.
//! * **Deterministic failover order.** [`Ring::route`] returns *all*
//!   workers in ring order from the job's position — attempt k of a job
//!   goes to the k-th distinct successor, so the retry path is a pure
//!   function of the fingerprint and fleet size.

use regmutex_durable::fnv1a;

/// A consistent-hash ring over worker indices `0..n`.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, worker)` pairs sorted by point.
    points: Vec<(u64, usize)>,
    workers: usize,
}

impl Ring {
    /// Place `workers` workers on the ring with `vnodes` points each.
    /// Panics if either is zero — a fleet needs at least one worker.
    pub fn new(workers: usize, vnodes: usize) -> Ring {
        assert!(workers > 0, "ring needs at least one worker");
        assert!(vnodes > 0, "ring needs at least one vnode per worker");
        let mut points = Vec::with_capacity(workers * vnodes);
        for w in 0..workers {
            for v in 0..vnodes {
                let mut key = [0u8; 16];
                key[..8].copy_from_slice(&(w as u64).to_le_bytes());
                key[8..].copy_from_slice(&(v as u64).to_le_bytes());
                points.push((fnv1a(&key), w));
            }
        }
        points.sort_unstable();
        Ring { points, workers }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Every worker, in ring order starting at `key`'s successor point.
    /// The first entry is the job's primary; the rest are its failover
    /// sequence. Always returns all `workers` distinct indices.
    pub fn route(&self, key: u64) -> Vec<usize> {
        let start = self.points.partition_point(|&(p, _)| p < key);
        let mut order = Vec::with_capacity(self.workers);
        let mut seen = vec![false; self.workers];
        for i in 0..self.points.len() {
            let (_, w) = self.points[(start + i) % self.points.len()];
            if !seen[w] {
                seen[w] = true;
                order.push(w);
                if order.len() == self.workers {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_returns_every_worker_exactly_once() {
        let ring = Ring::new(3, 16);
        for key in [0u64, 1, u64::MAX, 0xdead_beef, 0x1234_5678_9abc_def0] {
            let order = ring.route(key);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "key {key:#x} order {order:?}");
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let a = Ring::new(4, 32);
        let b = Ring::new(4, 32);
        for key in 0..64u64 {
            assert_eq!(
                a.route(key.wrapping_mul(0x9e37)),
                b.route(key.wrapping_mul(0x9e37))
            );
        }
    }

    #[test]
    fn load_spreads_across_workers() {
        let ring = Ring::new(3, 32);
        let mut counts = [0usize; 3];
        for i in 0..3000u64 {
            counts[ring.route(fnv1a(&i.to_le_bytes()))[0]] += 1;
        }
        // No worker should own the whole keyspace or none of it; with 32
        // vnodes the split is coarse but never degenerate.
        for (w, &c) in counts.iter().enumerate() {
            assert!(c > 300, "worker {w} got only {c}/3000 keys");
            assert!(c < 2000, "worker {w} got {c}/3000 keys");
        }
    }

    #[test]
    fn single_worker_ring_routes_everything_to_it() {
        let ring = Ring::new(1, 8);
        assert_eq!(ring.route(42), vec![0]);
    }
}
