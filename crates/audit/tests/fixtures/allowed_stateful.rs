//! Fixture: the same per-UE store as stateful_satellite.rs, but carrying
//! the annotation with a reason — must produce NO findings.

use std::collections::HashMap;

pub struct SatellitePayload {
    // sc-audit: allow(state-flow, reason = "ephemeral radio state for active sessions only")
    contexts: HashMap<Supi, UeContext>,
}
