//! The cache marketplace: three routing strategies head-to-head.
//!
//! Runs the same heterogeneous tenant population (fixed / Poisson /
//! bursty arrivals, varied budget generosity) over the same fleet of
//! self-tuned cache nodes under each shipped router, and prints how the
//! market outcome changes: cost, response time, hit rate, and how
//! traffic distributed across the competing nodes.
//!
//! Cheapest-quote routing is the paper's economy played as a
//! competition — every node quotes its price `B_Q(t)` for the query and
//! the lowest bid wins. Nodes that invested well quote low, win traffic,
//! and amortize their structures faster: the self-tuning loop of
//! Section IV-A, at fleet scale.
//!
//! Run with: `cargo run --release --example fleet_market [tenants] [queries_per_tenant]`

use cloudcache::fleet::{run_fleet, FleetConfig, RouterKind};

const USAGE: &str = "fleet_market [tenants] [queries_per_tenant]";

/// Prints `error: <message>` and the usage line, then exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: {USAGE}");
    std::process::exit(2);
}

/// Parses positional argument `position`, or exits with a usage error.
fn arg<T: std::str::FromStr>(position: usize, what: &str, default: T) -> T {
    match std::env::args().nth(position) {
        None => default,
        Some(raw) => raw
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("cannot parse {what} `{raw}`"))),
    }
}

/// The marketplace config under `router`.
fn market(router: RouterKind, tenants: u32, queries_per_tenant: u64) -> FleetConfig {
    let mut config = FleetConfig::mixed(tenants, 4, queries_per_tenant);
    // SF 10 keeps column-transfer times well inside the run horizon,
    // so investments come online and the market outcomes diverge.
    config.scale_factor = 10.0;
    config.cells = 8;
    config.shards = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    config.router = router;
    config
}

fn main() {
    let tenants: u32 = arg(1, "tenants", 24);
    let queries_per_tenant: u64 = arg(2, "queries per tenant", 800);
    if let Err(msg) = market(RouterKind::CheapestQuote, tenants, queries_per_tenant).validate() {
        usage_error(&msg);
    }

    println!(
        "fleet market: {tenants} mixed tenants x {queries_per_tenant} queries, 4 econ-cheap nodes, SF 10\n"
    );

    for router in RouterKind::all() {
        let result = run_fleet(market(router, tenants, queries_per_tenant));
        println!("{}", result.table_row());
        let total = result.queries.max(1);
        for node in &result.nodes {
            println!(
                "    node {} ({:<10}) {:>6} queries ({:>4.1}%)  cost ${:>9.4}  profit ${:>8.4}",
                node.node,
                node.scheme,
                node.queries,
                node.queries as f64 / total as f64 * 100.0,
                node.total_operating_cost().as_dollars(),
                node.profit.as_dollars(),
            );
        }
        let slow = result
            .tenants
            .iter()
            .max_by(|a, b| {
                a.response
                    .mean()
                    .partial_cmp(&b.response.mean())
                    .expect("finite means")
            })
            .expect("population not empty");
        println!(
            "    slowest tenant: #{} mean {:.3}s over {} queries, paid ${:.4}\n",
            slow.tenant.0,
            slow.response.mean(),
            slow.queries,
            slow.payments.as_dollars(),
        );
    }
}
