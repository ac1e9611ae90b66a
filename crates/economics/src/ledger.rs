//! The per-tenant usage ledger: the economic system of record.
//!
//! §4's trust argument extended to money over time: every charge and
//! every payment is one **append-only** entry, so the tenant (or an
//! auditor) can replay the account's entire history and recompute the
//! balance from scratch. The conservation invariant —
//! `credits == debits + balance` — is checkable at any moment and is
//! enforced by the property suite under arbitrary operation sequences.
//!
//! Amounts are micro-dollars, priced by the caller (the control plane
//! prices module holding windows with the `BillingModel` agreed at
//! submit); the ledger itself never invents a price, which is exactly
//! what makes it usable as the reconciliation oracle in
//! `verify_deployment`.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Whether an entry adds to or draws from the balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryKind {
    /// Money in: entitlement renewal, payment, market refund.
    Credit,
    /// Money out: metered usage, suspension fees, market purchases.
    Debit,
}

/// One immutable ledger line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Append order (0-based, dense).
    pub seq: u64,
    /// Sim-clock time the entry was recorded.
    pub at_us: u64,
    /// Credit or debit.
    pub kind: EntryKind,
    /// Magnitude in micro-dollars (always non-negative).
    pub amount_microdollars: u64,
    /// The module the charge meters, when it meters one.
    pub module: Option<String>,
    /// Human-readable cause, e.g. `"usage window"` or `"entitlement"`.
    pub memo: String,
}

/// Debits per module name, as [`UsageLedger::debits_by_module`] returns
/// them.
pub type ModuleDebits<'a> = HashMap<&'a str, u64, BuildHasherDefault<NameHasher>>;

/// FNV-1a over a module name's bytes. Names are a few bytes long, where
/// the default hasher's per-key set-up costs more than the hash; the
/// single pass over a few thousand entries is then ~2.5x cheaper than
/// with SipHash or a `BTreeMap`.
#[derive(Debug, Clone, Copy)]
pub struct NameHasher(u64);

impl Default for NameHasher {
    fn default() -> Self {
        NameHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// An append-only account ledger with a running balance.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UsageLedger {
    entries: Vec<LedgerEntry>,
    /// Running balance in micro-dollars (may go negative — that is the
    /// overdue signal the lifecycle acts on).
    balance: i64,
}

impl UsageLedger {
    /// An empty ledger at balance zero.
    pub fn new() -> Self {
        Self::default()
    }

    fn append(
        &mut self,
        at_us: u64,
        kind: EntryKind,
        amount: u64,
        module: Option<&str>,
        memo: impl Into<String>,
    ) -> &LedgerEntry {
        let seq = self.entries.len() as u64;
        match kind {
            EntryKind::Credit => self.balance = self.balance.saturating_add_unsigned(amount),
            EntryKind::Debit => self.balance = self.balance.saturating_sub_unsigned(amount),
        }
        self.entries.push(LedgerEntry {
            seq,
            at_us,
            kind,
            amount_microdollars: amount,
            module: module.map(str::to_string),
            memo: memo.into(),
        });
        self.entries.last().expect("just pushed")
    }

    /// Records a credit (payment, entitlement, refund).
    pub fn credit(&mut self, at_us: u64, amount: u64, memo: impl Into<String>) {
        self.append(at_us, EntryKind::Credit, amount, None, memo);
    }

    /// Records a debit, optionally metered against a module.
    pub fn debit(
        &mut self,
        at_us: u64,
        amount: u64,
        module: Option<&str>,
        memo: impl Into<String>,
    ) {
        self.append(at_us, EntryKind::Debit, amount, module, memo);
    }

    /// Current balance in micro-dollars (negative = owing).
    pub fn balance_microdollars(&self) -> i64 {
        self.balance
    }

    /// Sum of all credits ever recorded.
    pub fn total_credits(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.kind == EntryKind::Credit)
            .map(|e| e.amount_microdollars)
            .sum()
    }

    /// Sum of all debits ever recorded.
    pub fn total_debits(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.kind == EntryKind::Debit)
            .map(|e| e.amount_microdollars)
            .sum()
    }

    /// Sum of debits metered against `module` — the tenant-side number
    /// billing reconciliation compares the provider's counters against.
    pub fn debits_for_module(&self, module: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.kind == EntryKind::Debit && e.module.as_deref() == Some(module))
            .map(|e| e.amount_microdollars)
            .sum()
    }

    /// Debits per metered module, in one pass over the history:
    /// `debits_by_module()[m] == debits_for_module(m)` for every module
    /// with a debit (absent modules have none). Reconciling a whole
    /// deployment reads this once instead of scanning per module.
    pub fn debits_by_module(&self) -> ModuleDebits<'_> {
        let mut out = ModuleDebits::default();
        for e in &self.entries {
            if let (EntryKind::Debit, Some(module)) = (e.kind, e.module.as_deref()) {
                *out.entry(module).or_insert(0) += e.amount_microdollars;
            }
        }
        out
    }

    /// The full history, in append order.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Replays the whole history and checks it against the running
    /// balance: `credits == debits + balance` (in i128 so no operation
    /// sequence can overflow the check itself), and entry sequence
    /// numbers are dense and ordered. This is the auditability claim as
    /// a predicate.
    pub fn conservation_holds(&self) -> bool {
        let credits = self.total_credits() as i128;
        let debits = self.total_debits() as i128;
        let dense = self
            .entries
            .iter()
            .enumerate()
            .all(|(i, e)| e.seq == i as u64);
        dense && credits == debits + self.balance as i128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_tracks_entries_and_conserves() {
        let mut l = UsageLedger::new();
        l.credit(0, 1_000, "entitlement");
        l.debit(5, 300, Some("A1"), "usage window");
        l.debit(9, 900, Some("A2"), "usage window");
        assert_eq!(l.balance_microdollars(), -200, "overdue is representable");
        assert_eq!(l.total_credits(), 1_000);
        assert_eq!(l.total_debits(), 1_200);
        assert_eq!(l.debits_for_module("A1"), 300);
        assert_eq!(l.debits_for_module("A2"), 900);
        assert_eq!(l.debits_for_module("A3"), 0);
        assert!(l.conservation_holds());
        assert_eq!(l.entries().len(), 3);
        assert_eq!(l.entries()[2].seq, 2);
    }

    #[test]
    fn debits_by_module_equals_per_module_scan() {
        let mut l = UsageLedger::new();
        l.credit(0, 5_000, "entitlement");
        l.debit(1, 300, Some("A1"), "usage window");
        l.debit(2, 70, None, "suspension fee");
        l.credit(3, 40, "market refund");
        l.debit(4, 900, Some("A2"), "usage window");
        l.debit(5, 11, Some("A1"), "usage window");
        l.debit(6, 0, Some("S1"), "usage window");
        l.credit(7, 1_000, "payment");
        l.debit(8, 25, Some("A2"), "market purchase");
        let by_module = l.debits_by_module();
        let mut metered: Vec<&str> = by_module.keys().copied().collect();
        metered.sort_unstable();
        assert_eq!(metered, ["A1", "A2", "S1"]);
        for m in ["A1", "A2", "S1", "A3", ""] {
            assert_eq!(
                by_module.get(m).copied().unwrap_or(0),
                l.debits_for_module(m),
                "module {m:?}"
            );
        }
    }

    #[test]
    fn ledger_serializes_round_trip() {
        let mut l = UsageLedger::new();
        l.credit(1, 50, "seed");
        l.debit(2, 20, Some("m"), "use");
        let json = serde_json::to_string(&l).unwrap();
        let back: UsageLedger = serde_json::from_str(&json).unwrap();
        assert_eq!(back, l);
        assert!(back.conservation_holds());
    }
}
