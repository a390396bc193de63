//! Runtime ordering auditor: a rolling hash of the event trace.
//!
//! The static pass (`dv-lint`) keeps order-dependent constructs out of the
//! code; this module is the *runtime* half of the determinism contract. The
//! kernel feeds every event it commits — `(virtual time, event kind,
//! process/sequence identity)` — through an FNV-1a hash. Two runs of the
//! same workload must produce the same [`OrderAudit::hash`] bit-for-bit:
//! any divergence means scheduling leaked host-side nondeterminism (hash
//! iteration order, thread timing, wall-clock) into the event stream.
//!
//! The hash is cheap (a handful of arithmetic ops per event), so it is
//! always on; [`Sim::run_hashed`](crate::Sim::run_hashed) exposes it and
//! the root `tests/determinism.rs` asserts equality across repeated runs
//! and across host thread counts.

use dv_core::fnv::{fnv1a, FNV_OFFSET};
use dv_core::time::Time;

/// Tag for a process-resume event record.
const TAG_RESUME: u64 = 1;
/// Tag for a kernel-closure (call) event record.
const TAG_CALL: u64 = 2;

/// Rolling FNV-1a hash over the committed event trace.
#[derive(Debug, Clone)]
pub struct OrderAudit {
    hash: u64,
    events: u64,
}

impl Default for OrderAudit {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderAudit {
    /// Fresh auditor (hash of the empty trace).
    pub fn new() -> Self {
        Self { hash: FNV_OFFSET, events: 0 }
    }

    #[inline]
    fn absorb_u64(&mut self, v: u64) {
        self.hash = fnv1a(self.hash, &v.to_le_bytes());
    }

    /// Absorb a committed resume: the scheduler is about to run process
    /// `pid` at `time` (generation disambiguates re-parks at equal times).
    #[inline]
    pub fn record_resume(&mut self, time: Time, pid: usize, generation: u64) {
        self.absorb_u64(TAG_RESUME);
        self.absorb_u64(time);
        self.absorb_u64(pid as u64);
        self.absorb_u64(generation);
        self.events += 1;
    }

    /// Absorb a committed kernel closure: event `seq` fires at `time`.
    #[inline]
    pub fn record_call(&mut self, time: Time, seq: u64) {
        self.absorb_u64(TAG_CALL);
        self.absorb_u64(time);
        self.absorb_u64(seq);
        self.events += 1;
    }

    /// The trace hash so far.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Number of events absorbed so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_audits_agree() {
        assert_eq!(OrderAudit::new().hash(), OrderAudit::new().hash());
        assert_eq!(OrderAudit::new().events(), 0);
    }

    #[test]
    fn identical_traces_hash_identically() {
        let mut a = OrderAudit::new();
        let mut b = OrderAudit::new();
        for t in 0..100u64 {
            a.record_resume(t * 10, (t % 7) as usize, t);
            b.record_resume(t * 10, (t % 7) as usize, t);
            a.record_call(t * 10 + 5, t);
            b.record_call(t * 10 + 5, t);
        }
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.events(), 200);
    }

    #[test]
    fn any_field_change_changes_the_hash() {
        let base = {
            let mut h = OrderAudit::new();
            h.record_resume(10, 3, 7);
            h.hash()
        };
        for (t, p, g) in [(11, 3, 7), (10, 4, 7), (10, 3, 8)] {
            let mut h = OrderAudit::new();
            h.record_resume(t, p, g);
            assert_ne!(h.hash(), base, "({t},{p},{g}) must perturb the hash");
        }
        let mut call = OrderAudit::new();
        call.record_call(10, 3);
        assert_ne!(call.hash(), base, "kind tag must perturb the hash");
    }

    #[test]
    fn event_order_matters() {
        let mut ab = OrderAudit::new();
        ab.record_resume(10, 0, 0);
        ab.record_resume(10, 1, 0);
        let mut ba = OrderAudit::new();
        ba.record_resume(10, 1, 0);
        ba.record_resume(10, 0, 0);
        assert_ne!(ab.hash(), ba.hash());
    }
}
