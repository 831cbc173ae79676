//! Fixture: an allow directive WITHOUT a reason is ignored — the
//! finding must still fire.

use std::collections::HashMap;

pub struct SatellitePayload {
    // sc-audit: allow(state-flow)
    contexts: HashMap<Supi, UeContext>,
}
