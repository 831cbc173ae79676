//! The Table 2 signaling datasets: the published per-layer counts.
//!
//! Table 2 of the paper reports per-protocol message counts collected
//! from three satellite terminals (Inmarsat Explorer 710, Tiantong SC310,
//! Tiantong T900) and three terrestrial 5G operators (China Telecom,
//! China Unicom, China Mobile). The exact published counts are embedded
//! here, with the per-layer mix they imply and the satellite lower-layer
//! overhead factor; the Fig. 5 trace statistics hang off
//! [`DatasetSource`].

/// Protocol layer of a captured message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolLayer {
    /// Physical/link-layer control (dominates all captures).
    L1L2,
    /// Radio resource control.
    Rrc,
    /// Mobility management (NAS-MM).
    Mm,
    /// Session management (NAS-SM).
    Sm,
    /// Everything else (vendor diagnostics etc.; N/A for terrestrial).
    Others,
}

impl ProtocolLayer {
    pub const ALL: [ProtocolLayer; 5] = [
        ProtocolLayer::L1L2,
        ProtocolLayer::Rrc,
        ProtocolLayer::Mm,
        ProtocolLayer::Sm,
        ProtocolLayer::Others,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ProtocolLayer::L1L2 => "L1/L2",
            ProtocolLayer::Rrc => "RRC",
            ProtocolLayer::Mm => "MM",
            ProtocolLayer::Sm => "SM",
            ProtocolLayer::Others => "Others",
        }
    }
}

/// One column of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetSource {
    InmarsatExplorer710,
    TiantongSc310,
    TiantongT900,
    ChinaTelecom5g,
    ChinaUnicom5g,
    ChinaMobile5g,
}

impl DatasetSource {
    pub const ALL: [DatasetSource; 6] = [
        DatasetSource::InmarsatExplorer710,
        DatasetSource::TiantongSc310,
        DatasetSource::TiantongT900,
        DatasetSource::ChinaTelecom5g,
        DatasetSource::ChinaUnicom5g,
        DatasetSource::ChinaMobile5g,
    ];

    pub fn name(self) -> &'static str {
        match self {
            DatasetSource::InmarsatExplorer710 => "Inmarsat Explorer 710",
            DatasetSource::TiantongSc310 => "Tiantong SC310",
            DatasetSource::TiantongT900 => "Tiantong T900",
            DatasetSource::ChinaTelecom5g => "China Telecom",
            DatasetSource::ChinaUnicom5g => "China Unicom",
            DatasetSource::ChinaMobile5g => "China Mobile",
        }
    }

    /// Mean registration signaling latency observed in the capture,
    /// seconds (Fig. 5b: "9.5 s and 13.5 s average registration delays in
    /// Inmarsat and Tiantong"). Terrestrial 5G registers in well under a
    /// second.
    pub fn mean_registration_delay_s(self) -> f64 {
        match self {
            DatasetSource::InmarsatExplorer710 => 9.5,
            DatasetSource::TiantongSc310 | DatasetSource::TiantongT900 => 13.5,
            _ => 0.35,
        }
    }
}

/// The Table 2 message-count matrix.
#[derive(Debug, Clone)]
pub struct Table2;

impl Table2 {
    /// The published count for `(source, layer)`. `None` where the paper
    /// reports N/A (the Others row for terrestrial operators).
    pub fn count(source: DatasetSource, layer: ProtocolLayer) -> Option<u64> {
        use DatasetSource::*;
        use ProtocolLayer::*;
        let v: i64 = match (source, layer) {
            (InmarsatExplorer710, L1L2) => 56_231,
            (InmarsatExplorer710, Rrc) => 40_800,
            (InmarsatExplorer710, Mm) => 57_264,
            (InmarsatExplorer710, Sm) => 53_868,
            (InmarsatExplorer710, Others) => 762_957,
            (TiantongSc310, L1L2) => 1_744_094,
            (TiantongSc310, Rrc) => 4_226,
            (TiantongSc310, Mm) => 43_555,
            (TiantongSc310, Sm) => 4_586,
            (TiantongSc310, Others) => 310_455,
            (TiantongT900, L1L2) => 3_887_429,
            (TiantongT900, Rrc) => 1_340,
            (TiantongT900, Mm) => 12_626,
            (TiantongT900, Sm) => 1_670,
            (TiantongT900, Others) => 376_671,
            (ChinaTelecom5g, L1L2) => 3_828_083,
            (ChinaTelecom5g, Rrc) => 28_841,
            (ChinaTelecom5g, Mm) => 605,
            (ChinaTelecom5g, Sm) => 203,
            (ChinaTelecom5g, Others) => -1,
            (ChinaUnicom5g, L1L2) => 1_475_393,
            (ChinaUnicom5g, Rrc) => 14_833,
            (ChinaUnicom5g, Mm) => 970,
            (ChinaUnicom5g, Sm) => 338,
            (ChinaUnicom5g, Others) => -1,
            (ChinaMobile5g, L1L2) => 8_405_587,
            (ChinaMobile5g, Rrc) => 69_782,
            (ChinaMobile5g, Mm) => 4_194,
            (ChinaMobile5g, Sm) => 925,
            (ChinaMobile5g, Others) => -1,
        };
        (v >= 0).then_some(v as u64)
    }

    /// Total messages for a source (the Table 2 "Total" row).
    pub fn total(source: DatasetSource) -> u64 {
        ProtocolLayer::ALL
            .iter()
            .filter_map(|l| Self::count(source, *l))
            .sum()
    }

    /// Fraction of the capture in each layer.
    pub fn layer_mix(source: DatasetSource) -> Vec<(ProtocolLayer, f64)> {
        let total = Self::total(source) as f64;
        ProtocolLayer::ALL
            .iter()
            .filter_map(|l| Self::count(source, *l).map(|c| (*l, c as f64 / total)))
            .collect()
    }

    /// The ratio of lower-layer (L1/L2 + Others) to NAS/RRC control
    /// messages, averaged over the satellite captures. The emulation uses
    /// it to scale procedure-level message counts up to over-the-air
    /// signaling volumes.
    pub fn satellite_lower_layer_factor() -> f64 {
        let sats = [
            DatasetSource::InmarsatExplorer710,
            DatasetSource::TiantongSc310,
            DatasetSource::TiantongT900,
        ];
        let mut ratios = 0.0;
        for s in sats {
            let lower = Self::count(s, ProtocolLayer::L1L2).unwrap_or(0)
                + Self::count(s, ProtocolLayer::Others).unwrap_or(0);
            let control = Self::count(s, ProtocolLayer::Rrc).unwrap_or(0)
                + Self::count(s, ProtocolLayer::Mm).unwrap_or(0)
                + Self::count(s, ProtocolLayer::Sm).unwrap_or(0);
            ratios += lower as f64 / control as f64;
        }
        ratios / sats.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_published_table() {
        // Table 2 "Total" row.
        assert_eq!(Table2::total(DatasetSource::InmarsatExplorer710), 971_120);
        assert_eq!(Table2::total(DatasetSource::TiantongSc310), 2_106_916);
        assert_eq!(Table2::total(DatasetSource::TiantongT900), 4_279_736);
        assert_eq!(Table2::total(DatasetSource::ChinaTelecom5g), 3_857_732);
        assert_eq!(Table2::total(DatasetSource::ChinaUnicom5g), 1_491_534);
        assert_eq!(Table2::total(DatasetSource::ChinaMobile5g), 8_480_488);
    }

    #[test]
    fn terrestrial_others_is_na() {
        assert!(Table2::count(DatasetSource::ChinaMobile5g, ProtocolLayer::Others).is_none());
        assert!(Table2::count(DatasetSource::TiantongSc310, ProtocolLayer::Others).is_some());
    }

    #[test]
    fn mix_sums_to_one() {
        for s in DatasetSource::ALL {
            let sum: f64 = Table2::layer_mix(s).iter().map(|(_, f)| f).sum();
            assert!((sum - 1.0).abs() < 1e-12, "{s:?}: {sum}");
        }
    }

    #[test]
    fn satellite_mm_heavier_than_terrestrial() {
        // The paper's point: satellite terminals see orders of magnitude
        // more MM signaling than terrestrial 5G (repeated registrations).
        let sat_mm = Table2::count(DatasetSource::InmarsatExplorer710, ProtocolLayer::Mm).unwrap();
        let ter_mm = Table2::count(DatasetSource::ChinaTelecom5g, ProtocolLayer::Mm).unwrap();
        assert!(sat_mm > 50 * ter_mm, "{sat_mm} vs {ter_mm}");
    }

    #[test]
    fn lower_layer_factor_in_expected_range() {
        let f = Table2::satellite_lower_layer_factor();
        // Inmarsat ~5.4, SC310 ~39, T900 ~273 → mean ≈ 106.
        assert!(f > 50.0 && f < 200.0, "{f}");
    }

    #[test]
    fn geo_pipe_registration_delays() {
        // Fig. 5b / Trace 1 headline numbers.
        assert!(
            (DatasetSource::InmarsatExplorer710.mean_registration_delay_s() - 9.5).abs() < 1e-9
        );
        assert!((DatasetSource::TiantongSc310.mean_registration_delay_s() - 13.5).abs() < 1e-9);
        assert!(DatasetSource::ChinaMobile5g.mean_registration_delay_s() < 1.0);
    }
}
