//! Settlement pricing strategies.
//!
//! §2 of the paper scopes pricing out ("our site policies act as if the
//! price is derived directly from the original value function") while
//! noting that charging below the bid — e.g. Vickrey-style second pricing
//! as in Spawn — encourages truthful bidding. The economy takes the
//! strategy as a parameter:
//!
//! * [`PricingStrategy::PayBid`] — the paper's default: the settled price
//!   is the value function at the actual completion.
//! * [`PricingStrategy::SecondPrice`] — the winner pays the settlement
//!   capped by the *second-best* server bid's quoted price (single-item
//!   Vickrey analogue over the per-task auction among sites). A lone
//!   bidder pays its settlement.

use serde::{Deserialize, Serialize};

/// How the settled price is derived from the value-function settlement
/// and the auction context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PricingStrategy {
    /// Pay exactly the value-function settlement (the paper's model).
    #[default]
    PayBid,
    /// Pay `min(settlement, second-best quoted price)`; penalties pass
    /// through unchanged, and so does the settlement when no second bid
    /// exists.
    SecondPrice,
}

impl PricingStrategy {
    /// Applies the strategy. `settlement` is the value-function price at
    /// actual completion; `second_best_quote` is the runner-up server
    /// bid's quoted price at contract time, if any.
    pub fn settle(&self, settlement: f64, second_best_quote: Option<f64>) -> f64 {
        match self {
            PricingStrategy::PayBid => settlement,
            PricingStrategy::SecondPrice => match second_best_quote {
                // Penalties are contractual: pricing does not soften them.
                Some(q) if settlement > 0.0 => settlement.min(q.max(0.0)),
                _ => settlement,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pay_bid_passes_through() {
        assert_eq!(PricingStrategy::PayBid.settle(80.0, Some(60.0)), 80.0);
        assert_eq!(PricingStrategy::PayBid.settle(-10.0, None), -10.0);
    }

    #[test]
    fn second_price_caps_at_runner_up() {
        let s = PricingStrategy::SecondPrice;
        assert_eq!(s.settle(80.0, Some(60.0)), 60.0);
        assert_eq!(s.settle(50.0, Some(60.0)), 50.0);
    }

    #[test]
    fn second_price_single_bidder_pays_its_settlement() {
        let s = PricingStrategy::SecondPrice;
        assert_eq!(s.settle(80.0, None), 80.0);
        assert_eq!(s.settle(-30.0, None), -30.0);
    }

    #[test]
    fn penalties_pass_through_second_price() {
        let s = PricingStrategy::SecondPrice;
        assert_eq!(s.settle(-30.0, Some(60.0)), -30.0);
    }

    #[test]
    fn negative_runner_up_never_pays_the_winner() {
        let s = PricingStrategy::SecondPrice;
        // Runner-up quoted a penalty: cap at 0, not negative.
        assert_eq!(s.settle(40.0, Some(-5.0)), 0.0);
    }
}
