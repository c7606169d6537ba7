//! The output check: every call's result, reduced to a fingerprint, must
//! equal the first result of the same call in the run, the committed
//! fingerprint where one applies, and (for event-mode load runs) a
//! per-token reference run. Simulated results are outputs held fixed, not
//! metrics: a speed-up must leave them identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use madmax_engine::EngineError;

use crate::workloads::Outcome;

/// The fingerprints committed with the benchmark, for [`crate::workloads::DEFAULT_SEED`].
pub const COMMITTED: &str = include_str!("../fingerprints.txt");

/// FNV-1a, 64-bit: a stable digest of a `Debug` rendering.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The fingerprint of one call's result: winner plan, its iteration time
/// or tokens/s bits, outcome counts, and digests of every load report and
/// goodput point.
pub fn fingerprint(result: &Result<Outcome, EngineError>) -> String {
    let mut f = String::new();
    match result {
        Err(e) => write!(f, "error: {e}"),
        Ok(Outcome::Search(o)) => {
            let tokens = o.best.serve_tokens_per_sec().map_or(0, f64::to_bits);
            write!(
                f,
                "winner={} @ {} iter=0x{:016x} tok/s=0x{tokens:016x} evaluated={} oom={} unmappable={} invalid={}",
                o.best_plan.summary(),
                o.best_workload,
                o.best.iteration_time.as_secs().to_bits(),
                o.evaluated,
                o.oom,
                o.unmappable,
                o.invalid,
            )
            .and_then(|()| match &o.verify {
                Some(v) => write!(f, " verify={}/{}", v.error_count(), v.warning_count()),
                None => Ok(()),
            })
        }
        Ok(Outcome::Load(o)) => {
            let ok = o.candidates.iter().filter(|c| c.error.is_none()).count();
            let reports: Vec<_> = o
                .candidates
                .iter()
                .map(|c| (&c.points, c.best_point, c.error.as_ref().map(ToString::to_string)))
                .collect();
            write!(
                f,
                "winner={} tok/s=0x{:016x} candidates={} ok={ok} evaluated={} reports=fnv:{:016x}",
                o.best().plan.summary(),
                o.best_tokens_per_sec().to_bits(),
                o.candidates.len(),
                o.evaluated,
                fnv(&format!("{reports:?}")),
            )
        }
        Ok(Outcome::Goodput(o)) => {
            let points: Vec<_> = o
                .candidates
                .iter()
                .map(|c| (&c.points, c.best_point, c.error.as_ref().map(ToString::to_string)))
                .collect();
            write!(
                f,
                "winner={} fault_free_winner={} eff=0x{:016x} candidates={} evaluated={} goodput=fnv:{:016x}",
                o.best().plan.summary(),
                o.fault_free().plan.summary(),
                o.best_effective_throughput().to_bits(),
                o.candidates.len(),
                o.evaluated,
                fnv(&format!("{points:?}")),
            )
        }
        Ok(Outcome::Faulty { events, outcome }) => {
            let r = &outcome.report;
            write!(
                f,
                "events={} completed={} failed={} retries={} report=fnv:{:016x}",
                events.len(),
                r.completed,
                r.failed,
                r.retries,
                fnv(&format!("{r:?}")),
            )
        }
    }
    .expect("writing to a String cannot fail");
    f
}

/// Parses committed fingerprints: `key<TAB>fingerprint` lines, `#`
/// comments.
pub fn parse_committed(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('\t'))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect()
}

#[derive(Debug, Default)]
struct Label {
    first: String,
    calls: u64,
    diverged: u64,
    /// Why the first result itself is wrong, if it is.
    first_bad: Option<String>,
}

/// Tallies calls and failures.
#[derive(Debug, Default)]
pub struct Checker {
    committed: BTreeMap<String, String>,
    labels: BTreeMap<String, Label>,
    messages: Vec<String>,
}

impl Checker {
    /// A checker holding pinned results to `committed` fingerprints
    /// (keyed `workload/label`).
    pub fn new(committed: BTreeMap<String, String>) -> Self {
        Self {
            committed,
            ..Self::default()
        }
    }

    /// Records one call of `key` whose result has fingerprint `fp` (`ok`
    /// false when the call returned an error). A `pinned` result must also
    /// equal its committed fingerprint.
    pub fn record(&mut self, key: &str, fp: String, ok: bool, pinned: bool) {
        let committed = pinned.then(|| self.committed.get(key).cloned());
        let label = self.labels.entry(key.to_owned()).or_default();
        label.calls += 1;
        if label.calls == 1 {
            label.first_bad = match committed {
                _ if !ok => Some(format!("returned {fp}")),
                Some(None) => Some("no committed fingerprint".to_owned()),
                Some(Some(want)) if want != fp => {
                    Some(format!("fingerprint {fp}\n    committed {want}"))
                }
                _ => None,
            };
            label.first = fp;
        } else if fp != label.first {
            label.diverged += 1;
            if label.diverged == 1 {
                self.messages.push(format!(
                    "{key}: call {} gave {fp}\n    first call gave {}",
                    label.calls, label.first
                ));
            }
        }
    }

    /// Marks `key`'s first result wrong (a failed reference comparison):
    /// every call of `key` that matched it fails too.
    pub fn fail_first(&mut self, key: &str, why: String) {
        let label = self.labels.entry(key.to_owned()).or_default();
        if label.first_bad.is_none() {
            label.first_bad = Some(why);
        }
    }

    /// The first fingerprint recorded per key.
    pub fn firsts(&self) -> impl Iterator<Item = (&str, &str)> {
        self.labels
            .iter()
            .map(|(k, l)| (k.as_str(), l.first.as_str()))
    }

    /// Calls recorded.
    pub fn attempted(&self) -> u64 {
        self.labels.values().map(|l| l.calls).sum()
    }

    /// Calls that returned an error or failed a check.
    pub fn failed(&self) -> u64 {
        self.labels
            .values()
            .map(|l| {
                if l.first_bad.is_some() {
                    l.calls
                } else {
                    l.diverged
                }
            })
            .sum()
    }

    /// One line per failure cause.
    pub fn messages(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .labels
            .iter()
            .filter_map(|(k, l)| l.first_bad.as_ref().map(|why| format!("{k}: {why}")))
            .collect();
        out.extend(self.messages.iter().cloned());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergent_and_mismatched_calls_fail() {
        let committed = parse_committed("# comment\nw/a\tA\nw/b\tB\n");
        let mut c = Checker::new(committed);
        c.record("w/a", "A".into(), true, true);
        c.record("w/a", "A".into(), true, true);
        c.record("w/a", "A2".into(), true, true);
        assert_eq!((c.attempted(), c.failed()), (3, 1));
        // A perturbed committed fingerprint fails every call of its key.
        c.record("w/b", "B-perturbed".into(), true, true);
        c.record("w/b", "B-perturbed".into(), true, true);
        assert_eq!((c.attempted(), c.failed()), (5, 3));
        // Unpinned results answer only to the run's first result.
        c.record("w/c", "C".into(), true, false);
        assert_eq!((c.attempted(), c.failed()), (6, 3));
        // A failed reference comparison fails every matching call.
        let mut c = Checker::new(BTreeMap::new());
        c.record("w/a", "A".into(), true, false);
        c.record("w/a", "A".into(), true, false);
        assert_eq!(c.failed(), 0);
        c.fail_first("w/a", "per-token mismatch".into());
        assert_eq!(c.failed(), 2);
        assert_eq!(c.messages().len(), 1);
    }

    #[test]
    fn errors_and_unknown_keys_fail() {
        let mut c = Checker::new(BTreeMap::new());
        c.record("w/x", "x".into(), true, true);
        assert_eq!(c.failed(), 1);
        let mut c = Checker::new(BTreeMap::new());
        c.record("w/x", "error: boom".into(), false, false);
        assert_eq!(c.failed(), 1);
    }
}
