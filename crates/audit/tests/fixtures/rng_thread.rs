//! Fixture: unseeded RNG. The vendored `rand` has no unseeded
//! constructor, so this must fail to compile anywhere in the workspace.

use rand::rngs::StdRng;
use rand::Rng;

pub fn jitter() -> u64 {
    let _ = StdRng::from_entropy();
    let _ = rand::rngs::OsRng;
    let mut rng = rand::thread_rng();
    rng.next_u64()
}
