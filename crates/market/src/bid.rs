//! Server bids and the client's choice among them (§6, Figure 1). A
//! task bid is the task's own [`TaskSpec`](mbts_workload::TaskSpec): the
//! §6 tuple `(runtime_i, value_i, decay_i, bound_i)`, offered to every
//! site as the trace holds it.

use mbts_core::AdmissionDecision;
use mbts_sim::Time;
use serde::{Deserialize, Serialize};

/// A site's answer to a task bid it is willing to accept: the expected
/// completion time in its candidate schedule and the expected price
/// (§6: "client bid value and price are equivalent" under pay-bid).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerBid {
    /// Responding site.
    pub site: usize,
    /// Expected completion time in the site's candidate schedule.
    pub expected_completion: Time,
    /// Expected price (the value function at that completion).
    pub price: f64,
    /// The slack the site computed — exposed so brokers can prefer
    /// lower-risk placements.
    pub slack: f64,
}

impl ServerBid {
    /// Builds a server bid from a site's admission evaluation (only
    /// meaningful if the decision was an accept).
    pub fn from_decision(site: usize, d: &AdmissionDecision) -> Self {
        ServerBid {
            site,
            expected_completion: d.expected_completion,
            price: d.expected_yield,
            slack: d.slack,
        }
    }
}

/// How a client (or broker) chooses among the server bids it receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ClientSelection {
    /// Pick the earliest expected completion — the best service quality,
    /// and (since value functions decay) the highest-value placement.
    #[default]
    EarliestCompletion,
    /// Pick the bid with the most slack — the placement least likely to
    /// be disrupted by future arrivals.
    MaxSlack,
    /// Pick uniformly at random among responders (baseline).
    Random,
    /// Pick the lowest-indexed responding site (baseline; models a client
    /// with a static site preference list).
    FirstResponder,
}

impl ClientSelection {
    /// Applies the selection rule. `coin` supplies randomness for
    /// [`ClientSelection::Random`] (pass any u64; it is reduced modulo the
    /// number of bids so the economy stays deterministic).
    pub fn choose(&self, bids: &[ServerBid], coin: u64) -> Option<ServerBid> {
        if bids.is_empty() {
            return None;
        }
        let pick = match self {
            ClientSelection::EarliestCompletion => bids
                .iter()
                .min_by(|a, b| {
                    a.expected_completion
                        .cmp(&b.expected_completion)
                        .then(a.site.cmp(&b.site))
                })
                .unwrap(),
            ClientSelection::MaxSlack => bids
                .iter()
                .max_by(|a, b| a.slack.total_cmp(&b.slack).then(b.site.cmp(&a.site)))
                .unwrap(),
            ClientSelection::Random => &bids[(coin % bids.len() as u64) as usize],
            ClientSelection::FirstResponder => bids.iter().min_by_key(|b| b.site).unwrap(),
        };
        Some(*pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bid(site: usize, completion: f64, price: f64, slack: f64) -> ServerBid {
        ServerBid {
            site,
            expected_completion: Time::from(completion),
            price,
            slack,
        }
    }

    #[test]
    fn earliest_completion_wins() {
        let bids = vec![
            bid(0, 30.0, 90.0, 5.0),
            bid(1, 10.0, 99.0, 1.0),
            bid(2, 20.0, 95.0, 9.0),
        ];
        let chosen = ClientSelection::EarliestCompletion
            .choose(&bids, 0)
            .unwrap();
        assert_eq!(chosen.site, 1);
    }

    #[test]
    fn earliest_completion_tie_breaks_by_site() {
        let bids = vec![bid(2, 10.0, 90.0, 5.0), bid(0, 10.0, 90.0, 5.0)];
        let chosen = ClientSelection::EarliestCompletion
            .choose(&bids, 0)
            .unwrap();
        assert_eq!(chosen.site, 0);
    }

    #[test]
    fn max_slack_wins() {
        let bids = vec![bid(0, 10.0, 90.0, 5.0), bid(1, 30.0, 70.0, 50.0)];
        let chosen = ClientSelection::MaxSlack.choose(&bids, 0).unwrap();
        assert_eq!(chosen.site, 1);
    }

    #[test]
    fn random_is_deterministic_in_coin() {
        let bids = vec![
            bid(0, 1.0, 1.0, 1.0),
            bid(1, 1.0, 1.0, 1.0),
            bid(2, 1.0, 1.0, 1.0),
        ];
        let a = ClientSelection::Random.choose(&bids, 4).unwrap();
        let b = ClientSelection::Random.choose(&bids, 4).unwrap();
        assert_eq!(a.site, b.site);
        assert_eq!(a.site, 1); // 4 % 3
    }

    #[test]
    fn first_responder_picks_lowest_site() {
        let bids = vec![bid(5, 1.0, 1.0, 1.0), bid(2, 9.0, 1.0, 1.0)];
        assert_eq!(
            ClientSelection::FirstResponder
                .choose(&bids, 0)
                .unwrap()
                .site,
            2
        );
    }

    #[test]
    fn empty_bids_yield_none() {
        for sel in [
            ClientSelection::EarliestCompletion,
            ClientSelection::MaxSlack,
            ClientSelection::Random,
            ClientSelection::FirstResponder,
        ] {
            assert!(sel.choose(&[], 0).is_none());
        }
    }
}
