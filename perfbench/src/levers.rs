//! Lever counters read by name, so deleting a lever from the program
//! needs no change here: a counter that no longer exists is reported as
//! absent.
//!
//! Stats structs are read through their `Debug` form (field name →
//! value), and the accessors themselves are compiled in only when the
//! build script finds them in the program's sources.

/// `name: value` pairs of a `Debug`-printed stats struct whose values
/// are unsigned integers.
#[must_use]
pub fn debug_fields(debug: &str) -> Vec<(String, u64)> {
    debug
        .split(['{', '}', ','])
        .filter_map(|part| {
            let (name, value) = part.split_once(':')?;
            Some((name.trim().to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Counters of one lever; empty when the lever is absent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(pub Vec<(String, u64)>);

impl Counters {
    /// The counter `name`, if the lever provides it.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// `hits ÷ (hits + misses)`, when both counters exist and any lookup
    /// happened.
    #[must_use]
    pub fn hit_ratio(&self) -> Option<f64> {
        let hits = self.get("hits")?;
        let lookups = hits + self.get("misses")?;
        (lookups > 0).then(|| hits as f64 / lookups as f64)
    }
}

/// Plan-memo counters of one economy.
#[cfg(perfbench_plan_cache)]
#[must_use]
pub fn plan_cache(economy: Option<&econ::EconomyManager>) -> Counters {
    economy.map_or_else(Counters::default, |e| {
        Counters(debug_fields(&format!("{:?}", e.plan_cache_stats())))
    })
}

/// Plan-memo counters of one economy (the memo is not in this build).
#[cfg(not(perfbench_plan_cache))]
#[must_use]
pub fn plan_cache(_economy: Option<&econ::EconomyManager>) -> Counters {
    Counters::default()
}

/// Counters of a fleet's shared skeleton cache.
#[cfg(perfbench_skeleton_cache)]
#[must_use]
pub fn skeleton_cache(sim: &fleet::FleetSim) -> Counters {
    Counters(debug_fields(&format!(
        "{:?}",
        sim.skeleton_cache_counters()
    )))
}

/// Counters of a fleet's shared skeleton cache (not in this build).
#[cfg(not(perfbench_skeleton_cache))]
#[must_use]
pub fn skeleton_cache(_sim: &fleet::FleetSim) -> Counters {
    Counters::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_debug_fields_by_name() {
        let c = Counters(debug_fields(
            "PlanCacheStats { hits: 30, misses: 10, victim_hits: 4, note: x }",
        ));
        assert_eq!(c.get("victim_hits"), Some(4));
        assert_eq!(c.get("note"), None);
        assert_eq!(c.get("conflicts"), None);
        assert_eq!(c.hit_ratio(), Some(0.75));
    }

    #[test]
    fn absent_lever_or_no_lookups_has_no_ratio() {
        assert_eq!(Counters::default().hit_ratio(), None);
        let idle = Counters(vec![("hits".into(), 0), ("misses".into(), 0)]);
        assert_eq!(idle.hit_ratio(), None);
    }
}
