//! The fleet configurations behind the committed fleet records and the
//! `explain` reference trace: the `fleet_elastic` grid, the
//! `fleet_faults` grid and [`recording_config`]. Each is defined once
//! here and shared by the bin that writes the record and by the tests
//! that hold the record's claims on live runs, so a test can never
//! check a different fleet than the one the record describes.

use fleet::{ElasticConfig, FaultPlan, FleetConfig, SloLedger, TenantSloSpec};
use pricing::Money;
use simulator::ArrivalKind;

use crate::cli::{cli_arg, cli_max_args, cli_usage_error, scale_args};

/// The size of a fleet grid: every cell of the grid runs at this scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridScale {
    /// TPC-H scale factor of the backend.
    pub scale_factor: f64,
    /// Queries each tenant issues.
    pub queries_per_tenant: u64,
    /// Tenant population.
    pub tenants: u32,
    /// Seed nodes per cell.
    pub nodes: usize,
}

impl GridScale {
    /// Parses `[scale_factor] [queries_per_tenant] [tenants] [nodes]`,
    /// each defaulting to `default`'s value. Exits with a usage error on
    /// a malformed or surplus argument, no tenants, or fewer than
    /// `min_nodes` nodes.
    #[must_use]
    pub fn from_args(default: GridScale, min_nodes: usize, usage: &str) -> GridScale {
        cli_max_args(4, usage);
        let (scale_factor, queries_per_tenant) =
            scale_args(default.scale_factor, default.queries_per_tenant, usage);
        let tenants: u32 = cli_arg(3, "tenant count", default.tenants, usage);
        let nodes: usize = cli_arg(4, "node count", default.nodes, usage);
        if tenants == 0 || nodes < min_nodes {
            cli_usage_error(
                &format!("tenants must be positive and nodes at least {min_nodes}"),
                usage,
            );
        }
        GridScale {
            scale_factor,
            queries_per_tenant,
            tenants,
            nodes,
        }
    }

    /// The grid's total query budget.
    #[must_use]
    pub fn total_queries(&self) -> u64 {
        u64::from(self.tenants) * self.queries_per_tenant
    }
}

/// The fleet-wide deadline-miss rate against the tenants' SLO targets,
/// the `slo_miss_rate` column of both fleet records.
#[must_use]
pub fn slo_miss_rate(ledger: &SloLedger) -> f64 {
    let admitted = ledger.total_admitted();
    let misses: u64 = ledger.tenants.iter().map(|t| t.deadline_misses).sum();
    if admitted == 0 {
        0.0
    } else {
        misses as f64 / admitted as f64
    }
}

/// `fleet_elastic`: the economy-driven control plane against the
/// fixed-population baseline, across arrival scenarios with something to
/// react to.
pub mod elastic {
    use super::{ArrivalKind, ElasticConfig, FleetConfig, GridScale, Money, TenantSloSpec};

    /// The scale of the committed `BENCH_fleet_elastic.json`.
    pub const DEFAULT: GridScale = GridScale {
        scale_factor: 50.0,
        queries_per_tenant: 100,
        tenants: 100,
        nodes: 8,
    };

    /// The arrival scenarios, in record order.
    pub const SCENARIOS: [&str; 3] = ["steady", "bursty", "diurnal"];

    /// The arrival process of a scenario. Gaps are sized so the seed
    /// fleet is genuinely *underloaded* in calm phases (drainable idle
    /// capacity — at SF 50 a query's mean response is ~1.8 s, so a cell
    /// stays stable on one node below ~0.5 q/s) and pressed during
    /// storms/peaks (diverging backlog for the controller to react to).
    /// Storm/peak phases outlast eq. 10's 60 s node boot so a scale-up
    /// can still pay.
    ///
    /// # Panics
    /// Panics on a name outside [`SCENARIOS`].
    #[must_use]
    pub fn arrival(scenario: &str) -> ArrivalKind {
        match scenario {
            "steady" => ArrivalKind::Fixed {
                interval_secs: 15.0,
            },
            "bursty" => ArrivalKind::Mmpp {
                calm_gap_secs: 25.0,
                storm_gap_secs: 1.0,
                calm_sojourn_secs: 400.0,
                storm_sojourn_secs: 60.0,
            },
            "diurnal" => ArrivalKind::Diurnal {
                mean_gap_secs: 20.0,
                amplitude: 0.9,
                period_secs: 400.0,
                phase: -std::f64::consts::FRAC_PI_2,
            },
            other => panic!("unknown elastic scenario {other}"),
        }
    }

    /// The control plane the grid runs: reviews every 5 simulated
    /// seconds, smoothed over ~3 reviews, scales up under a mean backlog
    /// above 4 s per routable node and drains below 0.25 s. Growth is
    /// capped at the seed population, so the elastic fleet's
    /// instantaneous burn rate never exceeds the static baseline it is
    /// compared against — the win must come from draining idle capacity,
    /// not from refusing to grow.
    #[must_use]
    pub fn controller(seed_nodes: usize) -> ElasticConfig {
        ElasticConfig {
            review_interval_secs: 5.0,
            ewma_alpha: 0.3,
            scale_up_backlog: 4.0,
            scale_down_backlog: 0.25,
            max_response_secs: 0.0,
            min_nodes: 1,
            max_nodes: seed_nodes,
            cooldown_reviews: 4,
            drain_grace_secs: 60.0,
        }
    }

    /// One cell of the grid. The health plane rides every cell: a
    /// uniform observational SLO contract (10 s p99 target, $1 spend
    /// cap) and a 60 s vitals cadence.
    #[must_use]
    pub fn config(scale: GridScale, scenario: &str, elastic: bool) -> FleetConfig {
        let mut config =
            FleetConfig::uniform(scale.tenants, scale.nodes, scale.queries_per_tenant, 1.0)
                .with_arrivals(arrival(scenario));
        config.scale_factor = scale.scale_factor;
        config.cells = 16;
        config = config.with_health(60.0).with_slo(TenantSloSpec {
            p99_target_secs: 10.0,
            spend_cap: Some(Money::from_dollars(1.0)),
        });
        if elastic {
            config = config.with_elastic(controller(scale.nodes));
        }
        config
    }
}

/// `fleet_faults`: the deterministic fault plane against the fault-free
/// baseline, over an underloaded steady fleet (60 s arrivals, so the
/// elastic control plane has idle capacity to drain and the fault plane
/// has survivors to re-route onto).
pub mod faults {
    use super::{
        ArrivalKind, ElasticConfig, FaultPlan, FleetConfig, GridScale, Money, TenantSloSpec,
    };

    /// The scale of the committed `BENCH_fleet_faults.json`.
    pub const DEFAULT: GridScale = GridScale {
        scale_factor: 50.0,
        queries_per_tenant: 100,
        tenants: 64,
        nodes: 8,
    };

    /// The scenarios, in record order: `none` is the fault-free
    /// reference, every other one injects a fault plan.
    pub const SCENARIOS: [&str; 9] = [
        "none",
        "crash",
        "crash-recover",
        "degraded",
        "flash-crowd",
        "cascade",
        "cascade-evacuate",
        "storm-crash",
        "diurnal-crash",
    ];

    /// Fixed inter-arrival gap (seconds). Underloaded on purpose — at
    /// the default scale (SF 50, ~1.8 s mean service, 8 tenants per
    /// cell) the utilization is ~0.24, so the elastic fleet drains to
    /// its floor, the crash genuinely drops a cell below it, and the
    /// fault plane always has a survivor to re-route onto.
    pub const INTERVAL_SECS: f64 = 60.0;

    /// The uniform observational SLO contract: every tenant targets this
    /// p99. Sized between the fault-free grid's tail (which must hold
    /// its 1% error budget) and the degraded node's 6x-slowed responses
    /// (which must burn it hard enough for the e-process drift detector
    /// to fire).
    pub const SLO_P99_TARGET_SECS: f64 = 6.0;

    /// Last scheduled arrival of the fixed-interval stream; fault
    /// instants are fractions of this, so they always land in-horizon.
    #[must_use]
    pub fn horizon(scale: GridScale) -> f64 {
        scale.queries_per_tenant as f64 * INTERVAL_SECS
    }

    /// The fault plan of a scenario (`None` for `none`), with fault
    /// instants proportional to the run horizon so the same grid
    /// exercises every fault at any scale. The crash victim is node 0:
    /// the elastic drain order retires highest ids first, so node 0 is
    /// alive under *both* modes when the crash fires — the two cells
    /// suffer the identical fault.
    ///
    /// # Panics
    /// Panics on a name outside [`SCENARIOS`].
    #[must_use]
    pub fn plan(scenario: &str, horizon: f64) -> Option<FaultPlan> {
        let plan = FaultPlan::new(horizon);
        // Crashes land just *after* an arrival batch (the fixed streams
        // all tick on multiples of the interval), so the victim dies
        // with work in flight and the backlog re-queue path shows.
        let crash_at = 0.4 * horizon + 0.05;
        // The correlated-failure plan: a rack-style group fells {0, 3}
        // together (node 3 is already drained under the elastic mode, so
        // both modes lose node 0's capital to the same instant), each
        // crash rolls a decaying follow-on probability over the
        // survivors, a mid-run degradation trips the deadline-budgeted
        // retry policy.
        let cascade = |p: FaultPlan| {
            p.with_group(vec![0, 3], crash_at)
                .with_cascade(0.35, 0.5, 0.005 * horizon, 2)
                .with_degrade(1, 0.2 * horizon, 0.6 * horizon, 6.0)
                .with_timeout(2.0)
                .with_retry(3, 0.5, 2.0, 0.5)
        };
        match scenario {
            "none" => None,
            "crash" | "storm-crash" | "diurnal-crash" => Some(plan.with_crash(0, crash_at)),
            "crash-recover" => Some(plan.with_crash_recover(0, crash_at, 0.08 * horizon)),
            "degraded" => Some(
                plan.with_degrade(0, 0.2 * horizon, 0.6 * horizon, 6.0)
                    .with_timeout(2.0),
            ),
            "flash-crowd" => Some(plan.with_surge(0.3 * horizon, 0.1 * horizon, 6.0)),
            "cascade" => Some(cascade(plan)),
            // Warning-only evacuation, short window: long enough to ship
            // the ranked structures, short enough that the victim cannot
            // rebuild what it just shipped before the crash lands. Drain
            // evacuation (`on_drain`) stays off here — a node the control
            // plane retires voluntarily writes nothing off, so moving its
            // structures spends wire money without shrinking the loss
            // this scenario measures.
            "cascade-evacuate" => Some(cascade(plan).with_evacuation(0.01 * horizon, false)),
            other => panic!("unknown fault scenario {other}"),
        }
    }

    /// The arrival process of a scenario: the storm/diurnal rows layer
    /// the crash plan on stochastic arrivals; everything else runs the
    /// fixed grid.
    #[must_use]
    pub fn arrivals(scenario: &str) -> Option<ArrivalKind> {
        match scenario {
            "storm-crash" => Some(ArrivalKind::Mmpp {
                calm_gap_secs: INTERVAL_SECS,
                storm_gap_secs: INTERVAL_SECS / 5.0,
                calm_sojourn_secs: 600.0,
                storm_sojourn_secs: 300.0,
            }),
            "diurnal-crash" => Some(ArrivalKind::Diurnal {
                mean_gap_secs: INTERVAL_SECS,
                amplitude: 0.8,
                period_secs: 1_500.0,
                phase: -std::f64::consts::FRAC_PI_2,
            }),
            _ => None,
        }
    }

    /// The control plane under test: drains idle capacity down to a
    /// floor of 2 nodes and — the fault-plane contract — respawns toward
    /// that floor at the first review after a crash drops the cell below
    /// it.
    #[must_use]
    pub fn controller(seed_nodes: usize) -> ElasticConfig {
        ElasticConfig {
            min_nodes: 2,
            ..super::elastic::controller(seed_nodes)
        }
    }

    /// One cell of the grid, with the health plane attached: the SLO
    /// target is set so the fault-free grid holds its p99 error budget
    /// while the degradation scenarios burn it.
    #[must_use]
    pub fn config(scale: GridScale, scenario: &str, elastic: bool) -> FleetConfig {
        let mut config = FleetConfig::uniform(
            scale.tenants,
            scale.nodes,
            scale.queries_per_tenant,
            INTERVAL_SECS,
        );
        config.scale_factor = scale.scale_factor;
        config.cells = 8;
        config = config.with_health(INTERVAL_SECS).with_slo(TenantSloSpec {
            p99_target_secs: SLO_P99_TARGET_SECS,
            spend_cap: Some(Money::from_dollars(1.0)),
        });
        if let Some(arrival) = arrivals(scenario) {
            config = config.with_arrivals(arrival);
        }
        if elastic {
            config = config.with_elastic(controller(scale.nodes));
        }
        if let Some(plan) = plan(scenario, horizon(scale)) {
            config = config.with_faults(plan);
        }
        config
    }
}

/// The fleet `explain record` traces: the `fleet_elastic` bursty MMPP
/// scenario, re-proportioned so every question `explain` answers has
/// material in the trace. Few cells and many queries per tenant let
/// nodes actually warm (settlements carry `used_structures` for the
/// structure/blame queries), while the elastic controller still drains
/// and retires idle capacity through the calms (so `retire` has
/// something to explain). A crash-and-recover fault on node 3 rides
/// along so crash questions are answerable from the same trace: the
/// node dies at t=30 s — early enough to still be alive in every cell —
/// and a replacement replays its journal 60 s later. The health plane
/// rides along too: a 60 s vitals cadence (the run spans hours of
/// simulated time) and a uniform SLO contract tight enough that the
/// storm phases burn real error budget, so `explain slo` has breaches
/// and burn to narrate.
#[must_use]
pub fn recording_config() -> FleetConfig {
    let mut config =
        FleetConfig::uniform(16, 4, 500, 1.0).with_arrivals(elastic::arrival("bursty"));
    config.scale_factor = 50.0;
    config.cells = 2;
    config
        .with_faults(FaultPlan::new(20_000.0).with_crash_recover(3, 30.0, 60.0))
        .with_elastic(elastic::controller(4))
        .with_health(60.0)
        .with_slo(TenantSloSpec {
            p99_target_secs: 5.0,
            spend_cap: Some(Money::from_dollars(0.4)),
        })
}
