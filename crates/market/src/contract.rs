//! Contracts and settlement (§2, §3).
//!
//! Once a client accepts a server bid, a contract records the negotiated
//! expected completion time and price. The *settled* price at actual
//! completion is determined by the task's value function: completing on
//! (or before) the negotiated time collects the negotiated price; a late
//! completion collects the decayed value — possibly a penalty the site
//! pays the client (§3).

use mbts_sim::Time;
use mbts_workload::TaskSpec;
use serde::{Deserialize, Error, Reader, Serialize, Writer};
use std::sync::Arc;

/// Where a contract stands.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ContractStatus {
    /// Accepted; work not yet finished.
    Open,
    /// Finished; records the settlement.
    Settled {
        /// Actual completion time.
        completed_at: Time,
        /// Price actually collected (≤ negotiated price; may be negative).
        settled_price: f64,
        /// Whether the completion violated the negotiated time.
        violated: bool,
    },
}

/// A formed contract between a client and a site.
///
/// A market run does not keep these: its [`ContractLedger`] keeps one
/// compact row per contract over the run's shared tasks and builds a
/// `Contract` by value whenever one is read. Settlement is priced here,
/// in [`settle`](Self::settle), for both.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Contract {
    /// The contracted task (carries the value function).
    pub spec: TaskSpec,
    /// The site that won the bid.
    pub site: usize,
    /// When the contract was formed.
    pub formed_at: Time,
    /// The completion time the server bid promised.
    pub negotiated_completion: Time,
    /// The price the server bid quoted (expected yield at that time).
    pub negotiated_price: f64,
    /// Current status.
    pub status: ContractStatus,
}

impl Contract {
    /// Forms a contract from an accepted bid.
    pub fn new(
        spec: TaskSpec,
        site: usize,
        formed_at: Time,
        negotiated_completion: Time,
        negotiated_price: f64,
    ) -> Self {
        Contract {
            spec,
            site,
            formed_at,
            negotiated_completion,
            negotiated_price,
            status: ContractStatus::Open,
        }
    }

    /// Settles the contract at the actual completion time. The collected
    /// price is the value function at the actual completion — equal to
    /// the negotiated price when on time, decayed (possibly into penalty)
    /// when late. Returns the settled price.
    pub fn settle(&mut self, completed_at: Time) -> f64 {
        debug_assert!(
            matches!(self.status, ContractStatus::Open),
            "settling a non-open contract"
        );
        let settled_price = self.spec.yield_at(completed_at);
        // Guard against float dust around the negotiated instant.
        let violated = completed_at > self.negotiated_completion
            && !completed_at.approx_eq(self.negotiated_completion);
        self.status = ContractStatus::Settled {
            completed_at,
            settled_price,
            violated,
        };
        settled_price
    }

    /// `true` once settled.
    pub fn is_settled(&self) -> bool {
        matches!(self.status, ContractStatus::Settled { .. })
    }

    /// `true` if settled late.
    pub fn was_violated(&self) -> bool {
        matches!(self.status, ContractStatus::Settled { violated: true, .. })
    }

    /// The settled price, if settled.
    pub fn settled_price(&self) -> Option<f64> {
        match self.status {
            ContractStatus::Settled { settled_price, .. } => Some(settled_price),
            ContractStatus::Open => None,
        }
    }
}

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

/// The terms of a contract its row's rules do not give, kept whole: a
/// formation time other than its task's arrival (a workflow task released
/// after it), or a price other than its task's yield at the negotiated
/// completion.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Terms {
    contract: u32,
    formed_at: Time,
    price: f64,
}

/// `true` when two floats are the same bits, so a value read back and
/// written again is the value read; `same_status` compares the same way.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn same_status(a: ContractStatus, b: ContractStatus) -> bool {
    let bits = |s: ContractStatus| match s {
        ContractStatus::Open => None,
        ContractStatus::Settled {
            completed_at,
            settled_price,
            violated,
        } => Some((
            completed_at.as_f64().to_bits(),
            settled_price.to_bits(),
            violated,
        )),
    };
    bits(a) == bits(b)
}

/// Why a ledger cannot be bound to a run's tasks.
#[derive(Debug, Clone, PartialEq)]
pub enum RebindError {
    /// A contract names a task the trace does not hold.
    UnknownTask {
        /// The contract's index in the ledger.
        contract: usize,
        /// The task id it names.
        task: u64,
    },
    /// A contract's task is not the trace's task of that id.
    SpecMismatch {
        /// The contract's index in the ledger.
        contract: usize,
        /// The task id it names.
        task: u64,
    },
    /// A settled contract's price or violation is not what
    /// [`Contract::settle`] gives at its completion, so no market run
    /// settled it.
    Settlement {
        /// The contract's index in the ledger.
        contract: usize,
        /// The task id it names.
        task: u64,
    },
}

impl std::fmt::Display for RebindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebindError::UnknownTask { contract, task } => {
                write!(
                    f,
                    "contract {contract} names task {task}, which the trace lacks"
                )
            }
            RebindError::SpecMismatch { contract, task } => {
                write!(
                    f,
                    "contract {contract} holds a task {task} unlike the trace's"
                )
            }
            RebindError::Settlement { contract, task } => {
                write!(
                    f,
                    "contract {contract} settles task {task} other than its value function does"
                )
            }
        }
    }
}

impl std::error::Error for RebindError {}

/// The contract ledger of a market run: every contract formed, in
/// formation order, as one 24 B row over the run's shared tasks.
///
/// A row keeps the negotiated completion, the actual completion (NaN
/// while open), the task's index and the site. The rest is derived as the
/// run derives it: the task is the ledger's, the formation time the
/// task's arrival, the price the task's yield at the negotiated
/// completion (Eq. 1, what a site quotes), and the settlement
/// [`Contract::settle`] at the completion. A contract whose formation
/// time or price is not so derived keeps those terms in a side table.
///
/// Reading it ([`get`](Self::get), [`iter`](Self::iter), `&ledger` as an
/// iterator) builds each [`Contract`] by value. It serializes as exactly
/// the JSON array of those contracts. A ledger read back owns the tasks it
/// read, one per contract, until [`rebind`](Self::rebind) points it at
/// the run's tasks again.
#[derive(Clone)]
pub struct ContractLedger {
    tasks: Arc<[TaskSpec]>,
    rows: Vec<Row>,
    /// The contracts not fully derived from their rows, ascending.
    terms: Vec<Terms>,
    /// `(contract, status)` for each settlement read back that is not
    /// what [`Contract::settle`] gives, ascending. Empty in any ledger a
    /// run holds: [`rebind`](Self::rebind) refuses such a contract.
    foreign: Vec<(u32, ContractStatus)>,
}

impl ContractLedger {
    /// An empty ledger over `tasks`.
    pub fn new(tasks: Arc<[TaskSpec]>) -> Self {
        ContractLedger {
            tasks,
            rows: Vec::new(),
            terms: Vec::new(),
            foreign: Vec::new(),
        }
    }

    /// Number of contracts formed.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` before the first contract.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends `contract`, over one of the ledger's tasks, and returns its
    /// index.
    pub fn push(&mut self, contract: Contract) -> usize {
        let spec = contract.spec;
        debug_assert!(
            names_task(&spec, &self.tasks),
            "{contract:?} is not a contract over the ledger's tasks"
        );
        let index = self.rows.len();
        let task = self.tasks[spec.id.index()];
        if let Err(e) = self.append(&contract, spec.id.index(), &task) {
            panic!("{e}");
        }
        index
    }

    /// Appends `c` as a row over `task`, the ledger's task at `at`,
    /// keeping beside it whatever reading the row does not derive.
    fn append(&mut self, c: &Contract, at: usize, task: &TaskSpec) -> Result<(), String> {
        let narrow = |n: usize, what: &str| {
            u32::try_from(n).map_err(|_| format!("{what} {n} exceeds u32::MAX"))
        };
        let contract = narrow(self.rows.len(), "contract count")?;
        let (task_index, site) = (narrow(at, "task index")?, narrow(c.site, "site")?);
        let completed_at = match c.status {
            ContractStatus::Settled { completed_at, .. } => completed_at.as_f64(),
            ContractStatus::Open => f64::NAN,
        };
        self.rows.push(Row {
            negotiated_completion: c.negotiated_completion,
            completed_at,
            task: task_index,
            site,
        });
        let derived = self.read(contract as usize, task);
        if !same(c.formed_at.as_f64(), derived.formed_at.as_f64())
            || !same(c.negotiated_price, derived.negotiated_price)
        {
            self.terms.push(Terms {
                contract,
                formed_at: c.formed_at,
                price: c.negotiated_price,
            });
        }
        if !same_status(self.read(contract as usize, task).status, c.status) {
            self.foreign.push((contract, c.status));
        }
        Ok(())
    }

    /// Contract `i`, if formed.
    pub fn get(&self, i: usize) -> Option<Contract> {
        let row = self.rows.get(i)?;
        Some(self.read(i, &self.tasks[row.task as usize]))
    }

    /// Contract `i`, its row's task being `task`.
    fn read(&self, i: usize, task: &TaskSpec) -> Contract {
        let row = self.rows[i];
        let key = i as u32;
        let spec = *task;
        let terms = match self.terms.binary_search_by_key(&key, |t| t.contract) {
            Ok(at) => self.terms[at],
            Err(_) => Terms {
                contract: key,
                formed_at: spec.arrival,
                price: spec.yield_at(row.negotiated_completion),
            },
        };
        let mut contract = Contract::new(
            spec,
            row.site as usize,
            terms.formed_at,
            row.negotiated_completion,
            terms.price,
        );
        if !row.completed_at.is_nan() {
            contract.settle(Time::new(row.completed_at));
        }
        if let Ok(at) = self.foreign.binary_search_by_key(&key, |&(c, _)| c) {
            contract.status = self.foreign[at].1;
        }
        contract
    }

    /// Every contract, in formation order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            ledger: self,
            next: 0..self.rows.len(),
        }
    }

    /// Settles open contract `i` at the actual completion time through
    /// [`Contract::settle`]; returns the settled price. Panics, as an
    /// index would, if there is no contract `i`.
    pub fn settle(&mut self, i: usize, completed_at: Time) -> f64 {
        let mut contract = self.get(i).expect("no such contract");
        let price = contract.settle(completed_at);
        self.rows[i].completed_at = completed_at.as_f64();
        price
    }

    /// Points the ledger at a run's `tasks`, checking that every
    /// contract's task is the one `tasks` holds under its id and that
    /// every settlement is its task's. A ledger read back is rebound
    /// before it forms or settles anything; on an error it is left as it
    /// was.
    pub fn rebind(&mut self, tasks: &Arc<[TaskSpec]>) -> Result<(), RebindError> {
        let mut ledger = ContractLedger::new(Arc::clone(tasks));
        ledger.rows.reserve_exact(self.rows.len());
        for (contract, c) in self.iter().enumerate() {
            let task = c.spec.id.0;
            let (Some(known), Ok(_)) = (tasks.get(c.spec.id.index()), u32::try_from(task)) else {
                return Err(RebindError::UnknownTask { contract, task });
            };
            if !names_task(&c.spec, tasks) {
                return Err(RebindError::SpecMismatch { contract, task });
            }
            // Every count and site this ledger holds fits a row.
            if let Err(e) = ledger.append(&c, c.spec.id.index(), known) {
                unreachable!("{e}");
            }
            if !ledger.foreign.is_empty() {
                return Err(RebindError::Settlement { contract, task });
            }
        }
        *self = ledger;
        Ok(())
    }
}

/// `true` when `spec` is the task `tasks` holds under its id: a market
/// run hands every task to negotiation as its trace holds it.
pub(crate) fn names_task(spec: &TaskSpec, tasks: &[TaskSpec]) -> bool {
    tasks.get(spec.id.index()) == Some(spec)
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

/// Two ledgers are equal when they hold equal contracts, whichever tasks
/// they are bound to.
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

impl Serialize for ContractLedger {
    fn serialize(&self, out: &mut Writer) {
        out.begin_array();
        for contract in self {
            out.element();
            contract.serialize(out);
        }
        out.end_array();
    }
}

/// Reads the array a ledger writes. Each contract's task is kept as read,
/// so the ledger owns one task per contract until it is rebound; a
/// settlement its task's value function does not give is kept as read
/// too, and refused when the ledger is rebound.
impl Deserialize for ContractLedger {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let mut tasks = Vec::new();
        let mut ledger = ContractLedger::new(Arc::from([]));
        input.begin_array("array")?;
        while input.next_element()? {
            let c = Contract::deserialize(input)?;
            ledger
                .append(&c, tasks.len(), &c.spec)
                .map_err(Error::custom)?;
            tasks.push(c.spec);
        }
        ledger.tasks = tasks.into();
        Ok(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_workload::PenaltyBound;

    fn contract(bound: PenaltyBound) -> Contract {
        // Task: arrival 0, runtime 10, value 100, decay 2.
        let spec = TaskSpec::new(0, 0.0, 10.0, 100.0, 2.0, bound);
        // Negotiated to complete at t = 20 (queueing delay 10 → price 80).
        Contract::new(spec, 0, Time::ZERO, Time::from(20.0), 80.0)
    }

    #[test]
    fn on_time_settlement_collects_negotiated_price() {
        let mut c = contract(PenaltyBound::UNBOUNDED);
        let p = c.settle(Time::from(20.0));
        assert_eq!(p, 80.0);
        assert!(c.is_settled());
        assert!(!c.was_violated());
        assert_eq!(c.settled_price(), Some(80.0));
    }

    #[test]
    fn early_settlement_collects_more() {
        let mut c = contract(PenaltyBound::UNBOUNDED);
        let p = c.settle(Time::from(12.0));
        assert_eq!(p, 96.0);
        assert!(!c.was_violated());
    }

    #[test]
    fn late_settlement_decays_the_price() {
        let mut c = contract(PenaltyBound::UNBOUNDED);
        let p = c.settle(Time::from(40.0));
        // delay 30 → 100 − 60 = 40.
        assert_eq!(p, 40.0);
        assert!(c.was_violated());
    }

    #[test]
    fn very_late_settlement_is_a_penalty() {
        let mut c = contract(PenaltyBound::UNBOUNDED);
        let p = c.settle(Time::from(100.0));
        // delay 90 → 100 − 180 = −80: the site pays the client.
        assert_eq!(p, -80.0);
        assert!(c.was_violated());
    }

    #[test]
    fn bounded_penalty_floors_settlement() {
        let mut c = contract(PenaltyBound::bounded(25.0));
        let p = c.settle(Time::from(1000.0));
        assert_eq!(p, -25.0);
    }

    #[test]
    fn open_contract_has_no_settled_price() {
        let c = contract(PenaltyBound::UNBOUNDED);
        assert!(!c.is_settled());
        assert!(!c.was_violated());
        assert_eq!(c.settled_price(), None);
    }

    #[test]
    fn serde_roundtrip() {
        let mut c = contract(PenaltyBound::ZERO);
        c.settle(Time::from(30.0));
        let json = serde_json::to_string(&c).unwrap();
        let back: Contract = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
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
        let c = Contract::new(spec, 0, Time::ZERO, Time::from(20.0), 80.0);
        let (mut settled, at) = (c, Time::from(40.0));
        assert_eq!(settled.settle(at), spec.yield_at(at));
    }
}

#[cfg(test)]
mod ledger_tests {
    use super::*;
    use mbts_sim::Duration;
    use mbts_workload::PenaltyBound;
    use proptest::prelude::*;

    fn tasks() -> Arc<[TaskSpec]> {
        (0..4)
            .map(|i| TaskSpec::new(i, i as f64, 10.0, 100.0, 2.0, PenaltyBound::UNBOUNDED))
            .collect()
    }

    fn form(
        ledger: &mut ContractLedger,
        spec: TaskSpec,
        site: usize,
        formed_at: Time,
        completion: Time,
        price: f64,
    ) {
        let c = Contract::new(spec, site, formed_at, completion, price);
        ledger.push(c);
    }

    /// The rows as bits, so an open row's NaN compares equal to itself.
    fn row_bits(ledger: &ContractLedger) -> Vec<[u64; 4]> {
        let bits = |r: &Row| {
            [
                r.negotiated_completion.as_f64().to_bits(),
                r.completed_at.to_bits(),
                r.task.into(),
                r.site.into(),
            ]
        };
        ledger.rows.iter().map(bits).collect()
    }

    /// Four contracts: one formed at its task's arrival, priced at its
    /// yield at the negotiated completion and settled on time, one formed
    /// later and settled late, one priced other than its quote and settled
    /// late, and one formed again later for that task, still open.
    fn ledger(tasks: &Arc<[TaskSpec]>) -> ContractLedger {
        let mut ledger = ContractLedger::new(Arc::clone(tasks));
        let at = Time::from;
        // Earliest completion 12, promised 20: 100 − 8·2.
        form(&mut ledger, tasks[2], 1, at(2.0), at(20.0), 84.0);
        form(&mut ledger, tasks[0], 0, at(3.0), at(15.0), 90.0);
        form(&mut ledger, tasks[1], 0, at(1.0), at(30.0), 50.0);
        ledger.settle(0, at(18.0));
        ledger.settle(1, at(40.0));
        ledger.settle(2, at(50.0));
        form(&mut ledger, tasks[1], 1, at(50.0), at(70.0), 20.0);
        ledger
    }

    #[test]
    fn a_row_is_at_most_24_bytes() {
        assert!(std::mem::size_of::<Row>() <= 24);
    }

    /// A contract priced at its task's yield at the negotiated completion,
    /// as every site quotes, keeps nothing beside its row; one priced
    /// otherwise keeps its price in the side table and reads back with it.
    #[test]
    fn only_a_price_other_than_the_quote_keeps_terms() {
        let tasks = tasks();
        let mut ledger = ContractLedger::new(Arc::clone(&tasks));
        let (formed, completion) = (tasks[3].arrival, Time::from(25.0));
        // Earliest completion 13, promised 25: 100 − 12·2.
        let quoted = 76.0;
        form(&mut ledger, tasks[3], 0, formed, completion, quoted);
        form(&mut ledger, tasks[3], 1, formed, completion, quoted + 1.0);
        let kept: Vec<u32> = ledger.terms.iter().map(|t| t.contract).collect();
        assert_eq!(kept, [1]);
        assert_eq!(ledger.get(0).unwrap().negotiated_price, quoted);
        assert_eq!(ledger.get(1).unwrap().negotiated_price, quoted + 1.0);
    }

    #[test]
    fn only_contracts_their_rows_do_not_derive_keep_terms() {
        let ledger = ledger(&tasks());
        let kept: Vec<u32> = ledger.terms.iter().map(|t| t.contract).collect();
        assert_eq!(kept, [1, 2, 3]);
        assert!(ledger.foreign.is_empty());
    }

    #[test]
    fn contracts_read_back_as_formed_and_settled_through_contract() {
        let tasks = tasks();
        let ledger = ledger(&tasks);
        assert_eq!(ledger.len(), 4);
        let mut expected = Contract::new(tasks[0], 0, Time::from(3.0), Time::from(15.0), 90.0);
        let price = expected.settle(Time::from(40.0));
        assert_eq!(ledger.get(1), Some(expected));
        assert_eq!(ledger.get(1).unwrap().settled_price(), Some(price));
        let mut on_time = Contract::new(tasks[2], 1, Time::from(2.0), Time::from(20.0), 84.0);
        on_time.settle(Time::from(18.0));
        assert_eq!(ledger.get(0), Some(on_time));
        let late = ledger.get(2).unwrap();
        assert_eq!(late.negotiated_price, 50.0);
        assert!(late.was_violated());
        assert!(!ledger.get(3).unwrap().is_settled());
        assert_eq!(ledger.get(3).unwrap().formed_at, Time::from(50.0));
        assert_eq!(ledger.get(4), None);
        let sites: Vec<usize> = (&ledger).into_iter().map(|c| c.site).collect();
        assert_eq!(sites, [1, 0, 0, 1]);
    }

    #[test]
    fn serializes_as_the_vec_of_its_contracts() {
        let ledger = ledger(&tasks());
        let contracts: Vec<Contract> = ledger.iter().collect();
        assert_eq!(
            serde_json::to_string(&ledger).unwrap(),
            serde_json::to_string(&contracts).unwrap()
        );
        assert_eq!(
            serde_json::to_string_pretty(&ledger).unwrap(),
            serde_json::to_string_pretty(&contracts).unwrap()
        );
        let empty = ContractLedger::new(tasks());
        assert_eq!(serde_json::to_string(&empty).unwrap(), "[]");
    }

    #[test]
    fn read_back_then_rebound_is_the_same_ledger_over_the_same_tasks() {
        let tasks = tasks();
        let ledger = ledger(&tasks);
        let json = serde_json::to_string(&ledger).unwrap();
        let mut back: ContractLedger = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ledger);
        back.rebind(&tasks).unwrap();
        assert_eq!(back, ledger);
        assert!(Arc::ptr_eq(&back.tasks, &tasks));
        assert_eq!(row_bits(&back), row_bits(&ledger));
        assert_eq!(back.terms, ledger.terms);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        // A rebound ledger forms and settles like the original.
        let (mut a, mut b) = (ledger, back);
        for l in [&mut a, &mut b] {
            l.settle(3, Time::from(75.0));
            form(l, tasks[3], 0, Time::from(80.0), Time::from(95.0), 70.0);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn rebinding_to_other_tasks_is_a_typed_error() {
        let tasks = tasks();
        let json = serde_json::to_string(&ledger(&tasks)).unwrap();
        let back: ContractLedger = serde_json::from_str(&json).unwrap();
        let rebind = |tasks: &Arc<[TaskSpec]>| {
            let mut l = back.clone();
            let before = serde_json::to_string(&l).unwrap();
            let result = l.rebind(tasks);
            if result.is_err() {
                assert_eq!(serde_json::to_string(&l).unwrap(), before, "left as it was");
            }
            result
        };
        let mut other = tasks.to_vec();
        other[0].runtime = Duration::new(11.0);
        assert_eq!(
            rebind(&other.into()),
            Err(RebindError::SpecMismatch {
                contract: 1,
                task: 0
            })
        );
        // A contract's value is its task's: one worth more than its task,
        // or less, is not that task.
        for value in [55.0, 150.0] {
            let mut other = tasks.to_vec();
            other[1].value = value;
            assert_eq!(
                rebind(&other.into()),
                Err(RebindError::SpecMismatch {
                    contract: 2,
                    task: 1
                })
            );
        }
        assert_eq!(
            rebind(&tasks[..2].into()),
            Err(RebindError::UnknownTask {
                contract: 0,
                task: 2
            })
        );
        assert!(rebind(&tasks).is_ok());
        let mut empty: ContractLedger = serde_json::from_str("[]").unwrap();
        assert_eq!(empty.rebind(&tasks), Ok(()));
    }

    /// A settled contract whose price or violation is not its value
    /// function's at its completion reads back as written, and writes
    /// back the same text, but no run is given it: rebinding refuses it.
    #[test]
    fn a_settlement_its_task_does_not_give_is_kept_as_read_and_refused() {
        let tasks = tasks();
        let ledger = ledger(&tasks);
        let spoil: [fn(&mut ContractStatus); 2] = [
            |s| {
                if let ContractStatus::Settled { settled_price, .. } = s {
                    *settled_price += 1.0;
                }
            },
            |s| {
                if let ContractStatus::Settled { violated, .. } = s {
                    *violated = !*violated;
                }
            },
        ];
        for edit in spoil {
            let mut contracts: Vec<Contract> = ledger.iter().collect();
            edit(&mut contracts[2].status);
            let json = serde_json::to_string(&contracts).unwrap();
            let mut back: ContractLedger = serde_json::from_str(&json).unwrap();
            assert_eq!(back.get(2), Some(contracts[2]));
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
            assert_eq!(
                back.rebind(&tasks),
                Err(RebindError::Settlement {
                    contract: 2,
                    task: 1
                })
            );
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                json,
                "left as it was"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// A ledger driven through the same formations and settlements as
        /// a plain `Vec<Contract>` reads, iterates and writes as that
        /// vector bit for bit, and so does the ledger read back from its
        /// text and rebound. Formations vary what a row derives (formation
        /// at or after arrival, the quoted price or another); settlements
        /// are on time, early, late, late by no more than float dust, and
        /// far past a bounded task's floor; some rows stay open.
        #[test]
        fn a_ledger_is_a_vec_of_contracts(
            bounds in proptest::collection::vec(0u8..3, 1..6),
            // (kind, pick, variant, x, y, quoted): kinds 0 and 1 form a
            // contract, priced as quoted unless `quoted` is 0; 2 settles one.
            ops in proptest::collection::vec(
                (0u8..3, any::<usize>(), 0u8..8, 0.0f64..40.0, 0.0f64..40.0, 0u8..3),
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
            let mut model: Vec<Contract> = Vec::new();
            for (kind, pick, variant, x, y, quoted) in ops {
                if kind < 2 {
                    let spec = tasks[pick % tasks.len()];
                    let later = if variant & 1 != 0 { y } else { 0.0 };
                    let formed_at = spec.arrival + Duration::new(later);
                    let completion = formed_at + spec.runtime + Duration::new(x);
                    let price = if quoted == 0 { y - x } else { spec.yield_at(completion) };
                    let c = Contract::new(spec, pick % 5, formed_at, completion, price);
                    prop_assert_eq!(ledger.push(c), model.len());
                    model.push(c);
                } else if !model.is_empty() {
                    let i = pick % model.len();
                    if model[i].is_settled() {
                        continue;
                    }
                    let negotiated = model[i].negotiated_completion;
                    let at = match variant {
                        0 => negotiated,
                        1 => Time::from((negotiated.as_f64() - x).max(0.0)),
                        2 => Time::from(negotiated.as_f64() + 1.0 + x),
                        3 => Time::from(negotiated.as_f64() + 5e-10),
                        4 => Time::from(negotiated.as_f64() + 1e6),
                        _ => Time::from(model[i].spec.arrival.as_f64() + y),
                    };
                    let want = model[i].settle(at);
                    let got = ledger.settle(i, at);
                    prop_assert_eq!(got.to_bits(), want.to_bits());
                }
            }
            let text = |c: &Contract| serde_json::to_string(c).unwrap();
            prop_assert_eq!(ledger.len(), model.len());
            for (i, c) in model.iter().enumerate() {
                let got = ledger.get(i).unwrap();
                prop_assert_eq!(text(&got), text(c));
                prop_assert_eq!(got, *c);
            }
            prop_assert_eq!(ledger.get(model.len()), None);
            prop_assert!(ledger.iter().eq(model.iter().copied()));
            let json = serde_json::to_string(&model).unwrap();
            prop_assert_eq!(serde_json::to_string(&ledger).unwrap(), json.clone());
            prop_assert_eq!(
                serde_json::to_string_pretty(&ledger).unwrap(),
                serde_json::to_string_pretty(&model).unwrap()
            );
            let mut back: ContractLedger = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(serde_json::to_string(&back).unwrap(), json.clone());
            prop_assert_eq!(back.rebind(&tasks), Ok(()));
            prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
            prop_assert_eq!(row_bits(&back), row_bits(&ledger));
            prop_assert_eq!(&back.terms, &ledger.terms);
            prop_assert!(back.foreign.is_empty());
        }
    }
}
