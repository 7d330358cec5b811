//! Contracts and settlement (§2, §3).
//!
//! Once a client accepts a server bid, a contract records the negotiated
//! expected completion time; its price is the task's value function there.
//! The *settled* price at actual completion is determined by the same
//! function: completing on (or before) the negotiated time collects the
//! negotiated price; a late completion collects the decayed value —
//! possibly a penalty the site pays the client (§3).

use mbts_sim::Time;
use mbts_workload::{TaskId, TaskSpec};
use serde::{Serialize, Writer};
use std::sync::Arc;

/// A formed contract between a client and a site, as its
/// [`ContractLedger`] reads it: what negotiation and completion decided,
/// and the price the task's value function (Eq. 1) gives for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contract {
    /// The contracted task (carries the value function).
    pub spec: TaskSpec,
    /// The site that won the bid.
    pub site: usize,
    /// The completion time the server bid promised.
    pub negotiated_completion: Time,
    /// The price the server bid quoted: the task's yield at the
    /// negotiated completion.
    pub negotiated_price: f64,
    /// The actual completion; `None` while the contract is open.
    pub completed_at: Option<Time>,
}

impl Contract {
    /// `true` once settled.
    pub fn is_settled(&self) -> bool {
        self.completed_at.is_some()
    }

    /// `true` if settled late: past the negotiated completion by more
    /// than float dust.
    pub fn was_violated(&self) -> bool {
        let promised = self.negotiated_completion;
        self.completed_at
            .is_some_and(|at| at > promised && !at.approx_eq(promised))
    }

    /// The settled price, if settled: the value function at the actual
    /// completion — the negotiated price when on time, decayed (possibly
    /// into penalty) when late.
    pub fn settled_price(&self) -> Option<f64> {
        self.completed_at.map(|at| self.spec.yield_at(at))
    }
}

/// A contract as a snapshot writes it: `(task id, site, negotiated
/// completion, actual completion)`, the last `null` while it is open.
pub type ContractRow = (u64, usize, Time, Option<Time>);

/// One contract as the ledger keeps it: the completion negotiation
/// promised and the one that came, with the task named by its index into
/// the ledger's tasks. The rest of the contract, its price among it, is
/// derived when it is read.
#[derive(Debug, Clone, Copy)]
struct Row {
    negotiated_completion: Time,
    /// The actual completion; NaN while the contract is open.
    completed_at: f64,
    task: u32,
    site: u32,
}

impl Row {
    fn completed_at(&self) -> Option<Time> {
        (!self.completed_at.is_nan()).then(|| Time::new(self.completed_at))
    }
}

/// The contract ledger of a market run: every contract formed, in
/// formation order, as one 24 B row over the run's shared tasks.
///
/// A row keeps the negotiated completion, the actual completion (NaN
/// while open), the task's index and the site. Reading it
/// ([`get`](Self::get), [`iter`](Self::iter), `&ledger` as an iterator)
/// builds each [`Contract`] by value, its price the task's yield at the
/// negotiated completion (what a site quotes). It serializes as the array
/// of its [`ContractRow`]s, and [`restore`](Self::restore) reads them
/// back over the run's tasks.
#[derive(Clone)]
pub struct ContractLedger {
    tasks: Arc<[TaskSpec]>,
    rows: Vec<Row>,
}

impl ContractLedger {
    /// An empty ledger over `tasks`.
    pub fn new(tasks: Arc<[TaskSpec]>) -> Self {
        ContractLedger {
            tasks,
            rows: Vec::new(),
        }
    }

    /// The ledger of `rows` over `tasks`, each row's task among them and
    /// each site and count within `u32` (panics otherwise, as
    /// [`form`](Self::form) does).
    pub fn restore(tasks: Arc<[TaskSpec]>, rows: &[ContractRow]) -> Self {
        let mut ledger = ContractLedger::new(tasks);
        ledger.rows.reserve_exact(rows.len());
        for &(task, site, negotiated_completion, completed_at) in rows {
            let i = ledger.form(TaskId(task), site, negotiated_completion);
            if let Some(at) = completed_at {
                ledger.settle(i, at);
            }
        }
        ledger
    }

    /// Number of contracts formed.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` before the first contract.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Forms a contract from what negotiation decided: `task`, one of the
    /// ledger's, goes to `site`, promised to complete at
    /// `negotiated_completion`. Returns the contract's index.
    pub fn form(&mut self, task: TaskId, site: usize, negotiated_completion: Time) -> usize {
        let narrow = |n: usize, what: &str| {
            u32::try_from(n).unwrap_or_else(|_| panic!("{what} {n} exceeds u32::MAX"))
        };
        let index = self.rows.len();
        narrow(index, "contract count");
        assert!(
            task.index() < self.tasks.len(),
            "task {} is not one of the ledger's {} tasks",
            task.0,
            self.tasks.len()
        );
        self.rows.push(Row {
            negotiated_completion,
            completed_at: f64::NAN,
            task: narrow(task.index(), "task index"),
            site: narrow(site, "site"),
        });
        index
    }

    /// Contract `i`, if formed.
    pub fn get(&self, i: usize) -> Option<Contract> {
        let row = self.rows.get(i)?;
        let spec = self.tasks[row.task as usize];
        Some(Contract {
            spec,
            site: row.site as usize,
            negotiated_completion: row.negotiated_completion,
            negotiated_price: spec.yield_at(row.negotiated_completion),
            completed_at: row.completed_at(),
        })
    }

    /// Every contract, in formation order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            ledger: self,
            next: 0..self.rows.len(),
        }
    }

    /// Settles open contract `i` at the actual completion time; returns
    /// the settled price, its task's yield there. Panics, as an index
    /// would, if there is no contract `i`.
    pub fn settle(&mut self, i: usize, completed_at: Time) -> f64 {
        let row = &mut self.rows[i];
        debug_assert!(row.completed_at.is_nan(), "settling a non-open contract");
        row.completed_at = completed_at.as_f64();
        self.tasks[row.task as usize].yield_at(completed_at)
    }
}

/// The contracts of a [`ContractLedger`], built by value in formation
/// order.
pub struct Iter<'a> {
    ledger: &'a ContractLedger,
    next: std::ops::Range<usize>,
}

impl Iterator for Iter<'_> {
    type Item = Contract;

    fn next(&mut self) -> Option<Contract> {
        self.ledger.get(self.next.next()?)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.next.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a ContractLedger {
    type Item = Contract;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Two ledgers are equal when they hold equal contracts.
impl PartialEq for ContractLedger {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for ContractLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Writes the ledger as the array of its [`ContractRow`]s.
impl Serialize for ContractLedger {
    fn serialize(&self, out: &mut Writer) {
        out.begin_array();
        for row in &self.rows {
            out.element();
            let written: ContractRow = (
                row.task.into(),
                row.site as usize,
                row.negotiated_completion,
                row.completed_at(),
            );
            written.serialize(out);
        }
        out.end_array();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_workload::PenaltyBound;

    /// A ledger of one contract: arrival 0, runtime 10, value 100, decay
    /// 2, negotiated to complete at t = 20 (queueing delay 10 → price 80).
    fn contract(bound: PenaltyBound) -> ContractLedger {
        let spec = TaskSpec::new(0, 0.0, 10.0, 100.0, 2.0, bound);
        let mut ledger = ContractLedger::new(Arc::from([spec]));
        assert_eq!(ledger.form(spec.id, 0, Time::from(20.0)), 0);
        assert_eq!(ledger.get(0).unwrap().negotiated_price, 80.0);
        ledger
    }

    /// Settles the one contract at `at`; returns it and the price.
    fn settle(bound: PenaltyBound, at: f64) -> (Contract, f64) {
        let mut ledger = contract(bound);
        let price = ledger.settle(0, Time::from(at));
        let c = ledger.get(0).unwrap();
        assert_eq!(c.settled_price(), Some(price));
        (c, price)
    }

    #[test]
    fn on_time_settlement_collects_negotiated_price() {
        let (c, p) = settle(PenaltyBound::UNBOUNDED, 20.0);
        assert_eq!(p, 80.0);
        assert!(c.is_settled());
        assert!(!c.was_violated());
    }

    #[test]
    fn early_settlement_collects_more() {
        let (c, p) = settle(PenaltyBound::UNBOUNDED, 12.0);
        assert_eq!(p, 96.0);
        assert!(!c.was_violated());
    }

    #[test]
    fn late_settlement_decays_the_price() {
        let (c, p) = settle(PenaltyBound::UNBOUNDED, 40.0);
        // delay 30 → 100 − 60 = 40.
        assert_eq!(p, 40.0);
        assert!(c.was_violated());
    }

    /// A completion later than the promise by no more than float dust is
    /// on time; one later by more is not.
    #[test]
    fn a_settlement_late_by_float_dust_is_on_time() {
        let (c, _) = settle(PenaltyBound::UNBOUNDED, 20.0 + 5e-10);
        assert!(c.completed_at.unwrap() > c.negotiated_completion);
        assert!(!c.was_violated());
        let (late, _) = settle(PenaltyBound::UNBOUNDED, 20.0 + 1e-6);
        assert!(late.was_violated());
    }

    #[test]
    fn very_late_settlement_is_a_penalty() {
        let (c, p) = settle(PenaltyBound::UNBOUNDED, 100.0);
        // delay 90 → 100 − 180 = −80: the site pays the client.
        assert_eq!(p, -80.0);
        assert!(c.was_violated());
    }

    #[test]
    fn bounded_penalty_floors_settlement() {
        assert_eq!(settle(PenaltyBound::bounded(25.0), 1000.0).1, -25.0);
    }

    #[test]
    fn open_contract_has_no_settled_price() {
        let c = contract(PenaltyBound::UNBOUNDED).get(0).unwrap();
        assert!(!c.is_settled());
        assert!(!c.was_violated());
        assert_eq!(c.settled_price(), None);
    }

    /// A settled contract writes its row and reads back from it as the
    /// same contract.
    #[test]
    fn serde_roundtrip() {
        let mut ledger = contract(PenaltyBound::ZERO);
        ledger.settle(0, Time::from(30.0));
        let json = serde_json::to_string(&ledger).unwrap();
        assert_eq!(json, "[[0,0,20.0,30.0]]");
        let rows: Vec<ContractRow> = serde_json::from_str(&json).unwrap();
        let back = ContractLedger::restore(Arc::clone(&ledger.tasks), &rows);
        assert_eq!(back.get(0), ledger.get(0));
    }

    #[test]
    #[should_panic(expected = "not one of the ledger's 1 tasks")]
    fn a_contract_over_a_task_the_ledger_lacks_is_refused() {
        contract(PenaltyBound::ZERO).form(TaskId(1), 0, Time::from(20.0));
    }
}

/// A contract has one set of terms, the paper's: it settles on its
/// task's own linear value function.
#[cfg(test)]
mod terms_tests {
    use super::*;
    use mbts_workload::PenaltyBound;

    #[test]
    fn default_terms_are_the_paper_model() {
        let spec = TaskSpec::new(0, 0.0, 10.0, 100.0, 2.0, PenaltyBound::UNBOUNDED);
        let mut ledger = ContractLedger::new(Arc::from([spec]));
        let (promised, at) = (Time::from(20.0), Time::from(40.0));
        ledger.form(spec.id, 0, promised);
        assert_eq!(
            ledger.get(0).unwrap().negotiated_price,
            spec.yield_at(promised)
        );
        assert_eq!(ledger.settle(0, at), spec.yield_at(at));
    }
}

#[cfg(test)]
mod ledger_tests {
    use super::*;
    use mbts_sim::time::TIME_EPSILON;
    use mbts_sim::Duration;
    use mbts_workload::PenaltyBound;
    use proptest::prelude::*;

    fn tasks() -> Arc<[TaskSpec]> {
        (0..4)
            .map(|i| TaskSpec::new(i, i as f64, 10.0, 100.0, 2.0, PenaltyBound::UNBOUNDED))
            .collect()
    }

    /// Four contracts: one settled on time, two settled late, and one
    /// formed again later for a task, still open.
    fn ledger(tasks: &Arc<[TaskSpec]>) -> ContractLedger {
        let mut ledger = ContractLedger::new(Arc::clone(tasks));
        let at = Time::from;
        ledger.form(tasks[2].id, 1, at(20.0));
        ledger.form(tasks[0].id, 0, at(15.0));
        ledger.form(tasks[1].id, 0, at(30.0));
        ledger.settle(0, at(18.0));
        ledger.settle(1, at(40.0));
        ledger.settle(2, at(50.0));
        ledger.form(tasks[1].id, 1, at(70.0));
        ledger
    }

    #[test]
    fn a_row_is_at_most_24_bytes() {
        assert!(std::mem::size_of::<Row>() <= 24);
    }

    #[test]
    fn contracts_read_back_as_formed_and_settled_through_contract() {
        let tasks = tasks();
        let ledger = ledger(&tasks);
        assert_eq!(ledger.len(), 4);
        let late = Contract {
            spec: tasks[0],
            site: 0,
            negotiated_completion: Time::from(15.0),
            // Earliest completion 10, promised 15: 100 − 5·2.
            negotiated_price: 90.0,
            completed_at: Some(Time::from(40.0)),
        };
        assert_eq!(ledger.get(1), Some(late));
        // Delay 30: 100 − 30·2.
        assert_eq!(late.settled_price(), Some(40.0));
        assert!(late.was_violated());
        let on_time = ledger.get(0).unwrap();
        // Earliest completion 12, promised 20: 100 − 8·2.
        assert_eq!(on_time.negotiated_price, 84.0);
        assert_eq!(on_time.settled_price(), Some(88.0));
        assert!(!on_time.was_violated());
        assert!(ledger.get(2).unwrap().was_violated());
        assert!(!ledger.get(3).unwrap().is_settled());
        assert_eq!(ledger.get(4), None);
        let sites: Vec<usize> = (&ledger).into_iter().map(|c| c.site).collect();
        assert_eq!(sites, [1, 0, 0, 1]);
    }

    #[test]
    fn serializes_as_the_vec_of_its_rows() {
        let ledger = ledger(&tasks());
        let rows: Vec<ContractRow> = ledger
            .iter()
            .map(|c| (c.spec.id.0, c.site, c.negotiated_completion, c.completed_at))
            .collect();
        assert_eq!(
            serde_json::to_string(&ledger).unwrap(),
            "[[2,1,20.0,18.0],[0,0,15.0,40.0],[1,0,30.0,50.0],[1,1,70.0,null]]"
        );
        assert_eq!(
            serde_json::to_string(&ledger).unwrap(),
            serde_json::to_string(&rows).unwrap()
        );
        assert_eq!(
            serde_json::to_string_pretty(&ledger).unwrap(),
            serde_json::to_string_pretty(&rows).unwrap()
        );
        let empty = ContractLedger::new(tasks());
        assert_eq!(serde_json::to_string(&empty).unwrap(), "[]");
    }

    #[test]
    fn restored_from_its_rows_is_the_same_ledger_over_the_same_tasks() {
        let tasks = tasks();
        let ledger = ledger(&tasks);
        let json = serde_json::to_string(&ledger).unwrap();
        let rows: Vec<ContractRow> = serde_json::from_str(&json).unwrap();
        let back = ContractLedger::restore(Arc::clone(&tasks), &rows);
        assert_eq!(back, ledger);
        assert!(Arc::ptr_eq(&back.tasks, &tasks));
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        // A restored ledger forms and settles like the original.
        let (mut a, mut b) = (ledger, back);
        for l in [&mut a, &mut b] {
            l.settle(3, Time::from(75.0));
            l.form(tasks[3].id, 0, Time::from(95.0));
        }
        assert_eq!(a, b);
    }

    /// What a test expects of one contract: the task, the site, the
    /// promise and the completion, every derived term computed here from
    /// the paper's rules.
    type Model = (TaskSpec, usize, Time, Option<Time>);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// A ledger driven through formations and settlements reads back
        /// every contract as formed and settled, prices it by its task's
        /// value function, writes exactly its rows and restores from them
        /// to the same ledger. Settlements are on time, early, late, late
        /// by no more than float dust, and far past a bounded task's
        /// floor; some rows stay open.
        #[test]
        fn a_ledger_is_a_vec_of_contracts(
            bounds in proptest::collection::vec(0u8..3, 1..6),
            // (form, pick, variant, x): forms a contract, or settles one.
            ops in proptest::collection::vec(
                (any::<bool>(), any::<usize>(), 0u8..6, 0.0f64..40.0),
                0..32,
            ),
        ) {
            let bound = |b: u8| match b {
                0 => PenaltyBound::UNBOUNDED,
                1 => PenaltyBound::ZERO,
                _ => PenaltyBound::bounded(25.0),
            };
            let tasks: Arc<[TaskSpec]> = bounds
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    TaskSpec::new(i as u64, i as f64 * 1.5, 10.0, 100.0, 2.0, bound(b))
                })
                .collect();
            let mut ledger = ContractLedger::new(Arc::clone(&tasks));
            let mut model: Vec<Model> = Vec::new();
            for (form, pick, variant, x) in ops {
                if form {
                    let spec = tasks[pick % tasks.len()];
                    let completion = spec.arrival + spec.runtime + Duration::new(x);
                    prop_assert_eq!(ledger.form(spec.id, pick % 5, completion), model.len());
                    model.push((spec, pick % 5, completion, None));
                } else if !model.is_empty() {
                    let i = pick % model.len();
                    let (spec, _, negotiated, settled) = &mut model[i];
                    if settled.is_some() {
                        continue;
                    }
                    let at = match variant {
                        0 => *negotiated,
                        1 => Time::from((negotiated.as_f64() - x).max(0.0)),
                        2 => Time::from(negotiated.as_f64() + 1.0 + x),
                        3 => Time::from(negotiated.as_f64() + 5e-10),
                        4 => Time::from(negotiated.as_f64() + 1e6),
                        _ => Time::from(spec.arrival.as_f64() + x),
                    };
                    *settled = Some(at);
                    let got = ledger.settle(i, at);
                    prop_assert_eq!(got.to_bits(), spec.yield_at(at).to_bits());
                }
            }
            prop_assert_eq!(ledger.len(), model.len());
            for (i, &(spec, site, negotiated, settled)) in model.iter().enumerate() {
                let c = ledger.get(i).unwrap();
                prop_assert_eq!(c.spec, spec);
                prop_assert_eq!(c.site, site);
                prop_assert_eq!(c.negotiated_completion, negotiated);
                prop_assert_eq!(c.completed_at, settled);
                let price = spec.yield_at(negotiated);
                prop_assert_eq!(c.negotiated_price.to_bits(), price.to_bits());
                let settled_price = settled.map(|at| spec.yield_at(at).to_bits());
                prop_assert_eq!(c.settled_price().map(f64::to_bits), settled_price);
                let late = settled.is_some_and(|at| at.as_f64() - negotiated.as_f64() > TIME_EPSILON);
                prop_assert_eq!(c.was_violated(), late);
            }
            prop_assert_eq!(ledger.get(model.len()), None);
            let rows: Vec<ContractRow> = model
                .iter()
                .map(|&(spec, site, negotiated, settled)| (spec.id.0, site, negotiated, settled))
                .collect();
            let json = serde_json::to_string(&rows).unwrap();
            prop_assert_eq!(serde_json::to_string(&ledger).unwrap(), json.clone());
            prop_assert_eq!(
                serde_json::to_string_pretty(&ledger).unwrap(),
                serde_json::to_string_pretty(&rows).unwrap()
            );
            let read: Vec<ContractRow> = serde_json::from_str(&json).unwrap();
            let back = ContractLedger::restore(Arc::clone(&tasks), &read);
            prop_assert_eq!(&back, &ledger);
            prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }
}
