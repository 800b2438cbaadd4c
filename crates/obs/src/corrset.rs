//! Correlation-id delivery ledger: the exactly-once bookkeeping behind
//! the chaos harness's delivery invariant.
//!
//! Every message is stamped with a [`CorrId`] on submission, and the
//! span reconstructor recovers its journey from the trace. This module
//! reduces those journeys to set arithmetic: the set of ids submitted,
//! the set delivered, the set that died non-deliverable. "No loss" is
//! `submitted ⊆ delivered ∪ failed` at quiescence; "no duplication" is
//! that no id is delivered twice without an intervening forward (a
//! held-then-forwarded message is legitimately enqueued once per hop of
//! its §4 forwarding chain, so a plain delivery count would over-flag).

use std::collections::{BTreeMap, BTreeSet};

use demos_types::CorrId;

/// One observed step of a message's life, as the ledger cares about it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryEvent {
    /// Stamped and entered the delivery system.
    Submitted,
    /// Reached a process queue or the kernel.
    Delivered,
    /// Resubmitted along a forwarding address (§4); the next delivery is
    /// a re-delivery of the same message, not a duplicate.
    Forwarded,
    /// Dropped as non-deliverable.
    Failed,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct CorrState {
    submitted: bool,
    deliveries: u32,
    deliveries_since_forward: u32,
    failed: bool,
}

/// Per-[`CorrId`] delivery accounting. Feed it every traced event (in
/// trace order) via [`DeliveryLedger::record`], then ask for violations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeliveryLedger {
    per: BTreeMap<CorrId, CorrState>,
    duplicates: BTreeSet<CorrId>,
}

impl DeliveryLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event of `corr`'s journey. Events must arrive in trace
    /// (= virtual time) order for duplicate detection to be meaningful.
    pub fn record(&mut self, corr: CorrId, ev: DeliveryEvent) {
        let st = self.per.entry(corr).or_default();
        match ev {
            DeliveryEvent::Submitted => st.submitted = true,
            DeliveryEvent::Delivered => {
                st.deliveries += 1;
                st.deliveries_since_forward += 1;
                if st.deliveries_since_forward > 1 {
                    self.duplicates.insert(corr);
                }
            }
            DeliveryEvent::Forwarded => st.deliveries_since_forward = 0,
            DeliveryEvent::Failed => st.failed = true,
        }
    }

    /// Ids submitted but neither delivered nor failed — lost messages, if
    /// the cluster is quiescent.
    pub fn undelivered(&self) -> Vec<CorrId> {
        self.per
            .iter()
            .filter(|(_, s)| s.submitted && s.deliveries == 0 && !s.failed)
            .map(|(c, _)| *c)
            .collect()
    }

    /// Ids delivered more than once without an intervening forward.
    pub fn duplicates(&self) -> Vec<CorrId> {
        self.duplicates.iter().copied().collect()
    }

    /// Ids that ended non-deliverable.
    pub fn failed(&self) -> Vec<CorrId> {
        self.per
            .iter()
            .filter(|(_, s)| s.failed)
            .map(|(c, _)| *c)
            .collect()
    }

    /// The set of submitted ids.
    pub fn submitted_set(&self) -> BTreeSet<CorrId> {
        self.per
            .iter()
            .filter(|(_, s)| s.submitted)
            .map(|(c, _)| *c)
            .collect()
    }

    /// The set of delivered ids.
    pub fn delivered_set(&self) -> BTreeSet<CorrId> {
        self.per
            .iter()
            .filter(|(_, s)| s.deliveries > 0)
            .map(|(c, _)| *c)
            .collect()
    }

    /// Number of ids the ledger has seen any event for.
    pub fn len(&self) -> usize {
        self.per.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.per.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demos_types::MachineId;

    fn c(n: u64) -> CorrId {
        CorrId::new(MachineId(0), n)
    }

    #[test]
    fn clean_journey_has_no_violations() {
        let mut l = DeliveryLedger::new();
        l.record(c(1), DeliveryEvent::Submitted);
        l.record(c(1), DeliveryEvent::Delivered);
        assert!(l.undelivered().is_empty());
        assert!(l.duplicates().is_empty());
        assert_eq!(l.delivered_set().len(), 1);
    }

    #[test]
    fn lost_message_is_undelivered() {
        let mut l = DeliveryLedger::new();
        l.record(c(1), DeliveryEvent::Submitted);
        l.record(c(2), DeliveryEvent::Submitted);
        l.record(c(2), DeliveryEvent::Delivered);
        assert_eq!(l.undelivered(), vec![c(1)]);
    }

    #[test]
    fn forwarded_redelivery_is_not_a_duplicate() {
        let mut l = DeliveryLedger::new();
        l.record(c(1), DeliveryEvent::Submitted);
        // Enqueued on the frozen process, forwarded after the move,
        // enqueued again at the destination (§3.1 step 6).
        l.record(c(1), DeliveryEvent::Delivered);
        l.record(c(1), DeliveryEvent::Forwarded);
        l.record(c(1), DeliveryEvent::Delivered);
        assert!(l.duplicates().is_empty());
        // A second delivery with no forward in between IS a duplicate.
        l.record(c(1), DeliveryEvent::Delivered);
        assert_eq!(l.duplicates(), vec![c(1)]);
    }

    #[test]
    fn failed_message_is_accounted_not_lost() {
        let mut l = DeliveryLedger::new();
        l.record(c(1), DeliveryEvent::Submitted);
        l.record(c(1), DeliveryEvent::Failed);
        assert!(l.undelivered().is_empty());
        assert_eq!(l.failed(), vec![c(1)]);
        assert_eq!(l.len(), 1);
        assert!(!l.is_empty());
    }
}
