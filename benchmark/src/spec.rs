//! The metric tables. `BENCHMARK.json` at the repository root lists
//! the same names, units, directions and bounds; a unit test holds the
//! two together.

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may worsen before a change is rejected.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better,
        bound,
    }
}

/// `failed_ops_share`, the eighth end-to-end number, is printed beside
/// these and travels in the result's `attempted`/`failed` keys: it is 0
/// on every workload, and the contract's metric list admits no zeros.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("wall_s", "s", true, 0.25),
    e2e("ops_per_s", "1/s", false, 0.25),
    e2e("cpu_s", "s", true, 0.25),
    e2e("lat_p50_us", "us", true, 0.25),
    e2e("lat_p99_us", "us", true, 0.25),
    e2e("peak_rss_mb", "MB", true, 0.25),
];

/// A single layer's metric: name, unit, and whether higher is better.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn cost(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn gain(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Layer = crate. Every traced run reports all of these.
pub const PER_LAYER: [PerLayer; 59] = [
    cost("dataset.sample_ues_ns", "ns"),
    cost("dataset.region_of_ns", "ns"),
    cost("geo.cell_of_point_ns", "ns"),
    cost("geo.cell_index_ns", "ns"),
    cost("orbit.snapshot_build_ms", "ms"),
    cost("orbit.serving_lookup_ns", "ns"),
    cost("netsim.des_event_ns", "ns"),
    cost("netsim.isl_build_ms", "ms"),
    cost("netsim.timeline_build_us", "us"),
    cost("netsim.path_avoiding_us", "us"),
    cost("netsim.procsim_local_us", "us"),
    cost("netsim.procsim_home_us", "us"),
    cost("netsim.sim_transmissions", "count"),
    cost("netsim.sim_retransmissions", "count"),
    cost("crypto.local_access_ns", "ns"),
    cost("crypto.sts_complete_ns", "ns"),
    cost("crypto.wire_codec_ns", "ns"),
    cost("crypto.encrypt_state_ns", "ns"),
    cost("crypto.provision_ue_ns", "ns"),
    cost("fiveg.nas_codec_ns", "ns"),
    cost("fiveg.state_codec_ns", "ns"),
    cost("fiveg.procedure_build_ns", "ns"),
    cost("spacecore.establish_ns", "ns"),
    cost("spacecore.handover_ns", "ns"),
    cost("spacecore.release_ns", "ns"),
    cost("spacecore.rollback_ns", "ns"),
    cost("spacecore.register_ue_ns", "ns"),
    cost("spacecore.refresh_state_ns", "ns"),
    cost("spacecore.cell_crossing_ns", "ns"),
    cost("spacecore.establish_self_ns", "ns"),
    gain("spacecore.establish_replica_share", "share"),
    gain("spacecore.local_share", "share"),
    cost("spacecore.lat_p999_us", "us"),
    gain("spacecore.one_sat_scaling_2c", "ratio"),
    cost("spacecore.ledger_op_ns", "ns"),
    cost("spacecore.shard_imbalance", "ratio"),
    cost("emu.placement_replica_ms", "ms"),
    cost("emu.placement_share", "share"),
    cost("emu.soak_wall_1t_ms", "ms"),
    gain("emu.soak_speedup_2t", "ratio"),
    gain("emu.chaos_soak_speedup_2t", "ratio"),
    gain("emu.chaos_sweep_speedup_2t", "ratio"),
    cost("emu.parallel_map_overhead_us", "us"),
    cost("obs.soak_overhead_ratio", "ratio"),
    cost("obs.counter_inc_ns", "ns"),
    cost("obs.hist_observe_ns", "ns"),
    cost("obs.series_add_ns", "ns"),
    cost("obs.snapshot_json_ms", "ms"),
    cost("obs.events_dropped", "count"),
    cost("obs.spans_dropped", "count"),
    cost("obs.series_dropped", "count"),
    cost("trace_overhead_ratio", "ratio"),
    // Work counts at the layer boundaries of the traced serve pass.
    gain("spacecore.establishments", "count"),
    cost("spacecore.rollbacks", "count"),
    gain("spacecore.handovers", "count"),
    gain("spacecore.releases", "count"),
    cost("spacecore.home_updates", "count"),
    cost("harness.spans_kept", "count"),
    cost("harness.spans_dropped", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The text of the entry for `name` in `BENCHMARK.json`, up to the
    /// closing brace.
    fn entry<'a>(doc: &'a str, name: &str) -> &'a str {
        let key = format!("{{\"name\": \"{name}\"");
        let at = doc
            .find(&key)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {name}"));
        let rest = &doc[at..];
        &rest[..=rest.find('}').expect("entry closes")]
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in END_TO_END {
            let e = entry(&doc, m.name);
            assert!(e.contains(&format!("\"unit\": \"{}\"", m.unit)), "{e}");
            let better = if m.lower_is_better { "lower" } else { "higher" };
            assert!(e.contains(&format!("\"better\": \"{better}\"")), "{e}");
            assert!(e.contains(&format!("\"bound\": {}", m.bound)), "{e}");
        }
        for m in PER_LAYER {
            let e = entry(&doc, m.name);
            assert!(e.contains(&format!("\"unit\": \"{}\"", m.unit)), "{e}");
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert!(e.contains(&format!("\"better\": \"{better}\"")), "{e}");
        }
        let listed = doc.matches("{\"name\": ").count();
        let workloads = crate::workload::Workload::ALL.len();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
        for w in crate::workload::Workload::ALL {
            entry(&doc, w.name());
        }
    }

    #[test]
    fn names_fit_the_contract() {
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name));
        let mut seen = std::collections::BTreeSet::new();
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(seen.insert(n), "{n} is listed twice");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(END_TO_END[0].bound, largest);
        assert!(largest <= 0.25);
    }
}
