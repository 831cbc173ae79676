//! Fixture: a per-UE keyed collection in a satellite-side module.
//! Audited as `crates/spacecore/src/satellite.rs` — must trip R4-state-flow.

use std::collections::HashMap;

pub struct SatellitePayload {
    /// A per-UE store on the spacecraft: exactly what the paper forbids.
    contexts: HashMap<Supi, UeContext>,
}
