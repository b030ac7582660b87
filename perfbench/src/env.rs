//! The read-only planning context every driver shares: schema, candidate
//! indexes, candidate index and estimator, built the way the simulator
//! builds them.

use std::sync::Arc;

use catalog::tpch::{tpch_schema, ScaleFactor};
use catalog::Schema;
use planner::{generate_candidates, CandidateIndex, CostParams, Estimator, PlannerContext};
use pricing::PriceCatalog;
use simcore::NetworkModel;
use workload::paper_templates;

/// Owned planning context.
pub struct Env {
    /// TPC-H schema at the workload's scale factor.
    pub schema: Arc<Schema>,
    candidates: Vec<cache::IndexDef>,
    cand_index: CandidateIndex,
    estimator: Estimator,
}

impl Env {
    /// Builds the context for a TPC-H scale factor.
    #[must_use]
    pub fn build(
        scale_factor: f64,
        candidate_cap: usize,
        cost_params: CostParams,
        prices: PriceCatalog,
    ) -> Self {
        let schema = Arc::new(tpch_schema(ScaleFactor(scale_factor)));
        let templates = paper_templates(&schema);
        let candidates = generate_candidates(&schema, &templates, candidate_cap);
        let cand_index = CandidateIndex::build(&schema, &candidates);
        let estimator = Estimator::new(cost_params, prices, NetworkModel::paper_sdss());
        Env {
            schema,
            candidates,
            cand_index,
            estimator,
        }
    }

    /// The borrowed view the planner and policies take.
    #[must_use]
    pub fn ctx(&self) -> PlannerContext<'_> {
        PlannerContext {
            schema: &self.schema,
            candidates: &self.candidates,
            cand_index: &self.cand_index,
            estimator: &self.estimator,
        }
    }
}
