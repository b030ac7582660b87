//! Economy configuration.

use planner::enumerate::EnumerationOptions;
use pricing::Money;
use serde::{Deserialize, Serialize};

use crate::amortize::AmortizationPolicy;
use crate::budget::BudgetShape;
use crate::invest::InvestmentRule;
use crate::maintenance::FailurePolicy;
use crate::regret::RegretAttribution;
use crate::selection::SelectionObjective;

/// Full configuration of an [`crate::EconomyManager`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EconConfig {
    /// Tie-break objective among affordable existing plans (cases B/C).
    pub objective: SelectionObjective,
    /// Which plan families the policy lets the enumerator consider.
    pub allow_indexes: bool,
    /// Whether multi-node plans may be considered.
    pub allow_extra_nodes: bool,
    /// Amortisation horizon policy (eq. 7's `n`).
    pub amortization: AmortizationPolicy,
    /// Investment rule (eq. 3).
    pub investment: InvestmentRule,
    /// Structure failure thresholds (footnote 3).
    pub failure: FailurePolicy,
    /// Working capital the account opens with.
    pub initial_credit: Money,
    /// Budget shape generated for users (the paper's experiments use
    /// [`BudgetShape::Step`]).
    pub budget_shape: BudgetShape,
    /// The user's deadline `t_max` as a multiple of the backend plan's
    /// execution time (users "accept query execution in the back-end", so
    /// patience ≥ 1).
    pub patience: f64,
    /// Capacity of the regret pool (Section IV-B's LRU-collected set of
    /// structures "relevant to the queries in the recent past").
    pub regret_pool_capacity: usize,
    /// How rejected-plan regret is attributed to structures (see
    /// [`RegretAttribution`]).
    pub regret_attribution: RegretAttribution,
    /// Per-plan maintenance backlog cap, in multiples of the observed mean
    /// inter-arrival gap (footnote 3 with a write-off: see
    /// `cache::CacheState::settle_maintenance`).
    pub maint_window_gaps: f64,
    /// Memoize planning per query template: repeat instances under an
    /// unchanged cache epoch skip enumeration (see `crate::plancache`).
    /// Results are bit-identical either way — the switch exists so tests
    /// and benches can compare memoized runs against fresh planning.
    pub plan_cache: bool,
}

impl Default for EconConfig {
    fn default() -> Self {
        EconConfig {
            objective: SelectionObjective::Cheapest,
            allow_indexes: true,
            allow_extra_nodes: true,
            // Adaptive horizon (the paper's open problem, Section IV-D):
            // n = expected queries in a 30-day repayment window. A fixed
            // small n makes Build/n installments swamp per-query prices at
            // the paper's 2.5 TB scale and freezes the economy.
            amortization: AmortizationPolicy::Adaptive {
                window_secs: 30.0 * 86_400.0,
                min_n: 1_000,
                max_n: 500_000,
            },
            investment: InvestmentRule::default(),
            failure: FailurePolicy::default(),
            initial_credit: Money::from_dollars(5.0),
            budget_shape: BudgetShape::Step,
            patience: 2.0,
            regret_pool_capacity: 512,
            regret_attribution: RegretAttribution::FullValue,
            maint_window_gaps: 3.0,
            plan_cache: true,
        }
    }
}

impl EconConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns a message for the first invalid field.
    pub fn validate(&self) -> Result<(), &'static str> {
        self.investment.validate()?;
        self.failure.validate()?;
        if self.initial_credit.is_negative() {
            return Err("initial_credit must be non-negative");
        }
        if !self.patience.is_finite() || self.patience < 1.0 {
            return Err("patience must be >= 1 (users accept backend execution)");
        }
        if self.regret_pool_capacity == 0 {
            return Err("regret_pool_capacity must be positive");
        }
        if !self.maint_window_gaps.is_finite() || self.maint_window_gaps <= 0.0 {
            return Err("maint_window_gaps must be positive");
        }
        Ok(())
    }

    /// The enumeration options this config implies, with the amortisation
    /// horizon resolved at the given arrival rate.
    #[must_use]
    pub fn enumeration(&self, arrival_rate_per_sec: f64) -> EnumerationOptions {
        // Mean gap falls back to one minute until the rate is observed.
        let mean_gap = if arrival_rate_per_sec > 0.0 {
            1.0 / arrival_rate_per_sec
        } else {
            60.0
        };
        EnumerationOptions {
            allow_indexes: self.allow_indexes,
            allow_extra_nodes: self.allow_extra_nodes,
            amortize_n: self.amortization.horizon(arrival_rate_per_sec),
            maint_window: simcore::SimDuration::from_secs(self.maint_window_gaps * mean_gap),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        assert!(EconConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_fields_caught() {
        let c = EconConfig {
            patience: 0.5,
            ..EconConfig::default()
        };
        assert!(c.validate().is_err());
        let c = EconConfig {
            regret_pool_capacity: 0,
            ..EconConfig::default()
        };
        assert!(c.validate().is_err());
        let c = EconConfig {
            initial_credit: Money::from_dollars(-1.0),
            ..EconConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn enumeration_resolves_horizon() {
        let c = EconConfig {
            amortization: AmortizationPolicy::Adaptive {
                window_secs: 100.0,
                min_n: 1,
                max_n: 1000,
            },
            ..EconConfig::default()
        };
        assert_eq!(c.enumeration(2.0).amortize_n, 200);
        assert!(c.enumeration(2.0).allow_indexes);
    }
}
