//! Crash-survivable campaign state: a checksummed append-only journal,
//! the one campaign layer on top of it, and a content-addressed on-disk
//! result store.
//!
//! Every long-running surface in the workspace — sweeps, the chaos
//! matrix, fleet coordination, the mass fuzzer — journals through this
//! crate, so a SIGKILL at hour three loses at most a few units of work
//! (see DESIGN.md §10):
//!
//! - [`Campaign`]: the campaign journal all four share. A campaign
//!   supplies only a [`Record`] vocabulary (its meta-line identity,
//!   `encode`/`decode`, an optional completion key); [`Campaign`] owns
//!   create and resume, the identity check and its refusal, keep-first
//!   dedup, ordered replay of keyless records, recovery diagnostics and
//!   locked appends. A durable run ends as a [`Run`]: complete, or
//!   checkpointed for a later resume.
//! - [`Journal`]: an append-only record log. Each record is
//!   length-prefixed and carries an FNV-1a checksum over its length and
//!   payload, so a reopening reader can tell a torn tail (truncate and
//!   continue) from mid-file corruption (quarantine the record, resync
//!   on the next marker) from a file that is not a journal at all
//!   (diagnosed refusal). Appends batch their fsyncs.
//! - [`ResultStore`]: one append-only log of results in the same record
//!   framing, each record carrying the 64-bit job fingerprint it is
//!   stored under, with an in-memory fingerprint index rebuilt on open.
//!   Appends are group-committed: one fsync per [`ResultStore::sync`],
//!   which the runner calls once per batch. Content addressing makes the
//!   store safely shareable across campaigns: a key either maps to the
//!   one result it fingerprints or to nothing.
//!
//! The journal and the store degrade rather than abort: any write-side I/O error (ENOSPC,
//! EIO, a yanked disk) flips the instance to in-memory-only operation
//! with a one-time stderr warning and bumps a process-wide counter
//! ([`degradation_count`]) that the server exposes as
//! `regmutex_durable_degradations_total`. The campaign keeps running;
//! it just stops being resumable past that point.
//!
//! The crate is std-only and dependency-free: journal payloads are UTF-8
//! text whose vocabulary each campaign's [`Record`] type defines.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub mod campaign;
pub mod journal;
mod record;
pub mod store;

pub use campaign::{Campaign, Record, Run};
pub use journal::{Journal, Replay};
pub use store::ResultStore;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming 64-bit FNV-1a: tiny, dependency-free, and stable across runs
/// and builds (unlike `DefaultHasher`, whose algorithm is explicitly
/// unspecified). The workspace's one hash: job fingerprints, fleet ring
/// placement and the on-disk record checksums all use it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Fold `bytes` in, one FNV-1a step per byte.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold `bytes` in, then their length as one more step, so that
    /// consecutive fields cannot alias (`"ab"` + `"c"` vs `"a"` + `"bc"`).
    pub fn write_field(&mut self, bytes: &[u8]) {
        self.write(bytes);
        self.0 = (self.0 ^ bytes.len() as u64).wrapping_mul(FNV_PRIME);
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Process-wide count of write-side degradations (journal or store
/// dropping to in-memory-only after an I/O error).
static DEGRADATIONS: AtomicU64 = AtomicU64::new(0);

/// How many journal/store writers in this process have degraded to
/// in-memory-only operation after an I/O error.
pub fn degradation_count() -> u64 {
    DEGRADATIONS.load(Ordering::Relaxed)
}

/// Record a write-side failure: bump the process counter and warn once
/// per instance (`warned` belongs to the failing journal/store).
fn note_degradation(context: &str, err: &io::Error, warned: &AtomicBool) {
    DEGRADATIONS.fetch_add(1, Ordering::Relaxed);
    if !warned.swap(true, Ordering::Relaxed) {
        eprintln!(
            "warning: {context}: {err}; campaign continues in-memory only \
             (progress past this point will not be resumable)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Well-known FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_writes_concatenate_and_fields_do_not_alias() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));

        let field_hash = |fields: &[&[u8]]| {
            let mut h = Fnv1a::new();
            for f in fields {
                h.write_field(f);
            }
            h.finish()
        };
        assert_ne!(field_hash(&[b"ab", b"c"]), field_hash(&[b"a", b"bc"]));
    }
}
