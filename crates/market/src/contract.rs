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
    /// The client on whose behalf the task was placed.
    pub client: usize,
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
        client: usize,
        formed_at: Time,
        negotiated_completion: Time,
        negotiated_price: f64,
    ) -> Self {
        Contract {
            spec,
            site,
            client,
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

/// Where a ledger row stands; the settlement itself sits in the row.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RowStatus {
    Open,
    OnTime,
    Violated,
}

/// One contract as the ledger keeps it: what the negotiation produced,
/// with the task named by its index into the ledger's tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    formed_at: Time,
    negotiated_completion: Time,
    negotiated_price: f64,
    /// Meaningful once the status is not `Open`.
    completed_at: Time,
    settled_price: f64,
    task: u32,
    site: u32,
    client: u32,
    status: RowStatus,
}

impl Row {
    /// The row of contract `c`, its task at `task`.
    fn new(task: u32, site: u32, client: u32, c: &Contract) -> Self {
        let mut row = Row {
            formed_at: c.formed_at,
            negotiated_completion: c.negotiated_completion,
            negotiated_price: c.negotiated_price,
            completed_at: Time::ZERO,
            settled_price: 0.0,
            task,
            site,
            client,
            status: RowStatus::Open,
        };
        row.set_status(c.status);
        row
    }

    fn status(&self) -> ContractStatus {
        match self.status {
            RowStatus::Open => ContractStatus::Open,
            RowStatus::OnTime | RowStatus::Violated => ContractStatus::Settled {
                completed_at: self.completed_at,
                settled_price: self.settled_price,
                violated: self.status == RowStatus::Violated,
            },
        }
    }

    fn set_status(&mut self, status: ContractStatus) {
        let ContractStatus::Settled {
            completed_at,
            settled_price,
            violated,
        } = status
        else {
            self.status = RowStatus::Open;
            return;
        };
        self.completed_at = completed_at;
        self.settled_price = settled_price;
        self.status = if violated {
            RowStatus::Violated
        } else {
            RowStatus::OnTime
        };
    }
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
    /// A contract's task is not the trace's task of that id (a
    /// budget-capped value, lower than the trace's, is the one allowed
    /// difference).
    SpecMismatch {
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
        }
    }
}

impl std::error::Error for RebindError {}

/// The contract ledger of a market run: every contract formed, in
/// formation order, as one row of at most 56 B over the run's shared
/// tasks.
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
    /// `(contract, value)` for each contract whose client's budget capped
    /// the task's value below the task's own, ascending by contract.
    capped: Vec<(u32, f64)>,
}

impl ContractLedger {
    /// An empty ledger over `tasks`.
    pub fn new(tasks: Arc<[TaskSpec]>) -> Self {
        ContractLedger {
            tasks,
            rows: Vec::new(),
            capped: Vec::new(),
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

    /// Appends `contract` — over one of the ledger's tasks, its value
    /// possibly capped by a budget — and returns its index.
    pub fn push(&mut self, contract: Contract) -> usize {
        let spec = contract.spec;
        debug_assert!(
            names_task(&spec, &self.tasks),
            "{contract:?} is not a contract over the ledger's tasks"
        );
        let index = self.rows.len();
        let narrow = |n: u64, what: &str| {
            u32::try_from(n).unwrap_or_else(|_| panic!("{what} {n} exceeds u32::MAX"))
        };
        if spec.value != self.tasks[spec.id.index()].value {
            self.capped
                .push((narrow(index as u64, "contract"), spec.value));
        }
        self.rows.push(Row::new(
            narrow(spec.id.0, "task id"),
            narrow(contract.site as u64, "site"),
            narrow(contract.client as u64, "client"),
            &contract,
        ));
        index
    }

    /// Contract `i`, if formed.
    pub fn get(&self, i: usize) -> Option<Contract> {
        let row = self.rows.get(i)?;
        let mut spec = self.tasks[row.task as usize];
        if let Ok(at) = self.capped.binary_search_by_key(&(i as u32), |&(c, _)| c) {
            spec.value = self.capped[at].1;
        }
        Some(Contract {
            spec,
            site: row.site as usize,
            client: row.client as usize,
            formed_at: row.formed_at,
            negotiated_completion: row.negotiated_completion,
            negotiated_price: row.negotiated_price,
            status: row.status(),
        })
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
        self.rows[i].set_status(contract.status);
        price
    }

    /// Points the ledger at a run's `tasks`, checking that every
    /// contract's task is the one `tasks` holds under its id. A ledger
    /// read back is rebound before it forms or settles anything; on an
    /// error it is left as it was.
    pub fn rebind(&mut self, tasks: &Arc<[TaskSpec]>) -> Result<(), RebindError> {
        let mut rows = Vec::with_capacity(self.rows.len());
        let mut capped = Vec::new();
        for (contract, c) in self.iter().enumerate() {
            let task = c.spec.id.0;
            let (Some(known), Ok(index)) = (tasks.get(c.spec.id.index()), u32::try_from(task))
            else {
                return Err(RebindError::UnknownTask { contract, task });
            };
            if !names_task(&c.spec, tasks) {
                return Err(RebindError::SpecMismatch { contract, task });
            }
            if c.spec.value != known.value {
                capped.push((contract as u32, c.spec.value));
            }
            rows.push(Row {
                task: index,
                ..self.rows[contract]
            });
        }
        *self = ContractLedger {
            tasks: Arc::clone(tasks),
            rows,
            capped,
        };
        Ok(())
    }
}

/// `true` when `spec` is the task `tasks` holds under its id, or that
/// task with its value capped lower by a client's budget — the only two
/// forms a market run hands to negotiation.
pub(crate) fn names_task(spec: &TaskSpec, tasks: &[TaskSpec]) -> bool {
    let Some(known) = tasks.get(spec.id.index()) else {
        return false;
    };
    let at_most_its_value = spec.value <= known.value;
    at_most_its_value
        && TaskSpec {
            value: known.value,
            ..*spec
        } == *known
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
/// so the ledger owns one task per contract until it is rebound.
impl Deserialize for ContractLedger {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let mut tasks = Vec::new();
        let mut rows = Vec::new();
        input.begin_array("array")?;
        let index = |n: usize, what: &str| {
            u32::try_from(n).map_err(|_| Error::custom(format!("{what} {n} exceeds u32::MAX")))
        };
        while input.next_element()? {
            let c = Contract::deserialize(input)?;
            rows.push(Row::new(
                index(rows.len(), "contract count")?,
                index(c.site, "site")?,
                index(c.client, "client")?,
                &c,
            ));
            tasks.push(c.spec);
        }
        Ok(ContractLedger {
            tasks: tasks.into(),
            rows,
            capped: Vec::new(),
        })
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
        Contract::new(spec, 0, 0, Time::ZERO, Time::from(20.0), 80.0)
    }

    #[test]
    fn on_time_settlement_collects_negotiated_price() {
        let mut c = contract(PenaltyBound::Unbounded);
        let p = c.settle(Time::from(20.0));
        assert_eq!(p, 80.0);
        assert!(c.is_settled());
        assert!(!c.was_violated());
        assert_eq!(c.settled_price(), Some(80.0));
    }

    #[test]
    fn early_settlement_collects_more() {
        let mut c = contract(PenaltyBound::Unbounded);
        let p = c.settle(Time::from(12.0));
        assert_eq!(p, 96.0);
        assert!(!c.was_violated());
    }

    #[test]
    fn late_settlement_decays_the_price() {
        let mut c = contract(PenaltyBound::Unbounded);
        let p = c.settle(Time::from(40.0));
        // delay 30 → 100 − 60 = 40.
        assert_eq!(p, 40.0);
        assert!(c.was_violated());
    }

    #[test]
    fn very_late_settlement_is_a_penalty() {
        let mut c = contract(PenaltyBound::Unbounded);
        let p = c.settle(Time::from(100.0));
        // delay 90 → 100 − 180 = −80: the site pays the client.
        assert_eq!(p, -80.0);
        assert!(c.was_violated());
    }

    #[test]
    fn bounded_penalty_floors_settlement() {
        let mut c = contract(PenaltyBound::Bounded { max_penalty: 25.0 });
        let p = c.settle(Time::from(1000.0));
        assert_eq!(p, -25.0);
    }

    #[test]
    fn open_contract_has_no_settled_price() {
        let c = contract(PenaltyBound::Unbounded);
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
        let spec = TaskSpec::new(0, 0.0, 10.0, 100.0, 2.0, PenaltyBound::Unbounded);
        let c = Contract::new(spec, 0, 0, Time::ZERO, Time::from(20.0), 80.0);
        let (mut settled, at) = (c, Time::from(40.0));
        assert_eq!(settled.settle(at), spec.yield_at(at));
    }
}

#[cfg(test)]
mod ledger_tests {
    use super::*;
    use mbts_workload::PenaltyBound;

    fn tasks() -> Arc<[TaskSpec]> {
        (0..4)
            .map(|i| TaskSpec::new(i, i as f64, 10.0, 100.0, 2.0, PenaltyBound::Unbounded))
            .collect()
    }

    fn form(
        ledger: &mut ContractLedger,
        spec: TaskSpec,
        site: usize,
        client: usize,
        formed_at: Time,
        completion: Time,
        price: f64,
    ) {
        let c = Contract::new(spec, site, client, formed_at, completion, price);
        ledger.push(c);
    }

    /// Four contracts: one on time, one late, one late with a
    /// budget-capped value, and one formed again for that capped task,
    /// still open.
    fn ledger(tasks: &Arc<[TaskSpec]>) -> ContractLedger {
        let mut ledger = ContractLedger::new(Arc::clone(tasks));
        let at = Time::from;
        form(&mut ledger, tasks[2], 1, 0, at(2.0), at(20.0), 80.0);
        form(&mut ledger, tasks[0], 0, 1, at(3.0), at(15.0), 90.0);
        let capped = TaskSpec {
            value: 60.0,
            ..tasks[1]
        };
        form(&mut ledger, capped, 0, 2, at(4.0), at(30.0), 50.0);
        ledger.settle(0, at(18.0));
        ledger.settle(1, at(40.0));
        ledger.settle(2, at(50.0));
        form(&mut ledger, capped, 1, 2, at(50.0), at(70.0), 20.0);
        ledger
    }

    #[test]
    fn a_row_is_at_most_56_bytes() {
        assert!(std::mem::size_of::<Row>() <= 56);
    }

    #[test]
    fn contracts_read_back_as_formed_and_settled_through_contract() {
        let tasks = tasks();
        let ledger = ledger(&tasks);
        assert_eq!(ledger.len(), 4);
        let mut expected = Contract::new(tasks[0], 0, 1, Time::from(3.0), Time::from(15.0), 90.0);
        let price = expected.settle(Time::from(40.0));
        assert_eq!(ledger.get(1), Some(expected));
        assert_eq!(ledger.get(1).unwrap().settled_price(), Some(price));
        let late = ledger.get(2).unwrap();
        assert_eq!(late.spec.value, 60.0);
        assert!(late.was_violated());
        assert!(!ledger.get(3).unwrap().is_settled());
        assert_eq!(ledger.get(3).unwrap().spec.value, 60.0);
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
        assert_eq!(back.rows, ledger.rows);
        assert_eq!(back.capped, ledger.capped);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        // A rebound ledger forms and settles like the original.
        let (mut a, mut b) = (ledger, back);
        for l in [&mut a, &mut b] {
            l.settle(3, Time::from(75.0));
            form(l, tasks[3], 0, 0, Time::from(80.0), Time::from(95.0), 70.0);
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
        other[0].runtime = mbts_sim::Duration::new(11.0);
        assert_eq!(
            rebind(&other.into()),
            Err(RebindError::SpecMismatch {
                contract: 1,
                task: 0
            })
        );
        // A budget only lowers a value: a contract worth more than its
        // task is not that task.
        let mut other = tasks.to_vec();
        other[1].value = 55.0;
        assert_eq!(
            rebind(&other.into()),
            Err(RebindError::SpecMismatch {
                contract: 2,
                task: 1
            })
        );
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
}
