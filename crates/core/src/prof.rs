//! The phase ledger: where the model's own host time goes.
//!
//! The simulator models *simulated* time; this module accounts for the
//! simulator itself. Host time is split into a fixed set of [`Phase`]s,
//! and a [`PhaseLedger`] keeps one `(count, ns)` pair per phase. Every
//! [`crate::EngineScratch`] carries one, so the engines time their phases
//! into the caller's buffers: a search worker, which already owns its
//! scratch, owns its ledger too — no lock, no global, always on.
//!
//! A phase boundary costs one clock read: [`PhaseLedger::record`] returns
//! the instant it read, which starts the next phase.
//!
//! ```
//! use std::time::Instant;
//! use madmax_core::prof::{Phase, PhaseLedger};
//!
//! let mut ledger = PhaseLedger::default();
//! let t = Instant::now();
//! // ... assemble the trace ...
//! let t = ledger.record(Phase::Assemble, t);
//! // ... schedule it ...
//! ledger.record(Phase::Schedule, t);
//! assert_eq!(ledger[Phase::Assemble].count, 1);
//! assert_eq!(ledger[Phase::Report].count, 0);
//! ```
//!
//! `madmax_dse::Explorer` folds its workers' ledgers, and the phases it
//! times on the calling thread, into `SearchTelemetry::phases`, which
//! `madmax search --telemetry` writes as an object keyed by
//! [`Phase::name`].

use std::ops::Index;
use std::time::Instant;

use serde::{Deserialize, Serialize, Value};

/// A phase of the model's own host time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Pricing cost tables (up front in a search, or single-use).
    Price,
    /// Expanding priced costs into a trace.
    Assemble,
    /// Scheduling a trace onto its streams.
    Schedule,
    /// Building the iteration report from a schedule.
    Report,
    /// The closed-form steady-state decode (prefix assembly included).
    Steady,
    /// A load candidate's continuous-batching event simulations.
    LoadEvents,
    /// A goodput candidate's evaluation.
    Goodput,
    /// Re-running and verifying a search winner.
    Verify,
}

impl Phase {
    /// Every phase, in ledger order.
    pub const ALL: [Phase; 8] = [
        Phase::Price,
        Phase::Assemble,
        Phase::Schedule,
        Phase::Report,
        Phase::Steady,
        Phase::LoadEvents,
        Phase::Goodput,
        Phase::Verify,
    ];

    /// The phase's key in serialized telemetry.
    pub const fn name(&self) -> &str {
        match self {
            Phase::Price => "price",
            Phase::Assemble => "assemble",
            Phase::Schedule => "schedule",
            Phase::Report => "report",
            Phase::Steady => "steady",
            Phase::LoadEvents => "load_events",
            Phase::Goodput => "goodput",
            Phase::Verify => "verify",
        }
    }
}

/// How often a phase ran and how long it took in total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTime {
    /// Times the phase ran.
    pub count: u64,
    /// Total host time, in nanoseconds.
    pub ns: u64,
}

/// One [`PhaseTime`] per [`Phase`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseLedger([PhaseTime; Phase::ALL.len()]);

impl PhaseLedger {
    /// Records one run of `phase` that started at `since` and returns the
    /// instant it ended (the start of whatever comes next).
    pub fn record(&mut self, phase: Phase, since: Instant) -> Instant {
        let now = Instant::now();
        let entry = &mut self.0[phase as usize];
        entry.count += 1;
        entry.ns += u64::try_from((now - since).as_nanos()).unwrap_or(u64::MAX);
        now
    }

    /// Adds another ledger's counts and times into this one.
    pub fn absorb(&mut self, other: &PhaseLedger) {
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            mine.count += theirs.count;
            mine.ns += theirs.ns;
        }
    }

    /// Every phase with its entry, in [`Phase::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, PhaseTime)> + '_ {
        Phase::ALL.into_iter().zip(self.0.iter().copied())
    }
}

impl Index<Phase> for PhaseLedger {
    type Output = PhaseTime;

    fn index(&self, phase: Phase) -> &PhaseTime {
        &self.0[phase as usize]
    }
}

impl Serialize for PhaseLedger {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(phase, time)| (phase.name().to_owned(), time.to_value()))
                .collect(),
        )
    }
}

impl Deserialize for PhaseLedger {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::msg("expected a phase object"))?;
        let mut ledger = PhaseLedger::default();
        for (phase, entry) in Phase::ALL.into_iter().zip(&mut ledger.0) {
            *entry = PhaseTime::from_value(serde::field(m, phase.name())?)?;
        }
        Ok(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_times_and_round_trips() {
        let mut a = PhaseLedger::default();
        let t = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let t = a.record(Phase::Assemble, t);
        a.record(Phase::Schedule, t);
        assert_eq!(a[Phase::Assemble].count, 1);
        assert!(a[Phase::Assemble].ns >= 1_000_000);
        assert_eq!(a[Phase::Price], PhaseTime::default());

        let mut b = a.clone();
        b.absorb(&a);
        assert_eq!(b[Phase::Schedule].count, 2);
        assert_eq!(b[Phase::Assemble].ns, 2 * a[Phase::Assemble].ns);

        let js = serde_json::to_string(&b).unwrap();
        assert!(js.contains("\"load_events\""), "{js}");
        let back: PhaseLedger = serde_json::from_str(&js).unwrap();
        assert_eq!(back, b);
    }
}
