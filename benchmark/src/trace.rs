//! The benchmark's own in-memory span recorder.
//!
//! Spans are taken from outside the crates, around calls into their
//! public functions. Every span feeds a per-kind count and total; a
//! span opened with `keep` is also stored in full (name, start, end,
//! parent, unit id) for the span file written when the run ends.

use std::time::Instant;

/// `parent` of a root span, and the id of a span that was not kept.
pub const NO_PARENT: u32 = u32::MAX;

macro_rules! kinds {
    ($($variant:ident => $name:literal,)*) => {
        /// What a span timed. The name's prefix is the layer (crate)
        /// the time is charged to.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Kind { $($variant,)* }

        impl Kind {
            pub const ALL: &'static [Kind] = &[$(Kind::$variant,)*];

            pub fn name(self) -> &'static str {
                match self { $(Kind::$variant => $name,)* }
            }
        }
    };
}

kinds! {
    // Harness.
    Ledger => "ledger",
    // Top-level calls into sc-emu.
    Soak => "emu.soak",
    ChaosSoak => "emu.chaos_soak",
    ChaosSweep => "emu.chaos_sweep",
    ParallelMap => "emu.parallel_map",
    // Top-level calls into spacecore.
    Establish => "spacecore.establish",
    Rollback => "spacecore.rollback",
    Handover => "spacecore.handover",
    Release => "spacecore.release",
    RegisterUe => "spacecore.register_ue",
    RefreshState => "spacecore.refresh_state",
    CellCrossing => "spacecore.cell_crossing",
    LedgerOp => "spacecore.ledger_op",
    ShardOf => "spacecore.shard_of",
    // Replica children: the constituent public functions, called by the
    // harness in the order the parent uses them.
    WireEncode => "crypto.wire_encode",
    WireDecode => "crypto.wire_decode",
    StsBegin => "crypto.sts_begin",
    LocalAccess => "crypto.local_access",
    StsComplete => "crypto.sts_complete",
    EncryptState => "crypto.encrypt_state",
    ProvisionUe => "crypto.provision_ue",
    NasBuild => "fiveg.nas_build",
    NasEncode => "fiveg.nas_encode",
    NasDecode => "fiveg.nas_decode",
    StateEncode => "fiveg.state_encode",
    StateDecode => "fiveg.state_decode",
    ProcedureBuild => "fiveg.procedure_build",
    PlacementReplica => "emu.placement_replica",
    SampleUes => "dataset.sample_ues",
    RegionOf => "dataset.region_of",
    CellOfPoint => "geo.cell_of_point",
    CellIndex => "geo.cell_index",
    SweepReplica => "emu.sweep_replica",
    SnapshotBuild => "orbit.snapshot_build",
    ServingLookup => "orbit.serving_lookup",
    IslBuild => "netsim.isl_build",
    TimelineBuild => "netsim.timeline_build",
    PathAvoiding => "netsim.path_avoiding",
    ProcsimLocal => "netsim.procsim_local",
    ProcsimHome => "netsim.procsim_home",
    DesEvents => "netsim.des_events",
    ObsCounter => "obs.counter_inc",
    ObsHist => "obs.hist_observe",
    ObsSeries => "obs.series_add",
    ObsSnapshot => "obs.snapshot_json",
}

/// One stored span. Times are nanoseconds since the tracer's epoch;
/// `unit` is the visit or repetition the span belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub unit: u32,
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    kind: Kind,
    start_ns: u64,
    /// Index of the stored span, [`NO_PARENT`] when not kept.
    slot: u32,
}

impl Open {
    /// The id children name as their parent.
    pub fn id(&self) -> u32 {
        self.slot
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    count: u64,
    total_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
    agg: Vec<Agg>,
}

impl Tracer {
    /// A tracer storing at most `capacity` spans; later ones are
    /// counted as dropped (their time still reaches the aggregates).
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            capacity,
            dropped: 0,
            agg: vec![Agg::default(); Kind::ALL.len()],
        }
    }

    /// The instant span times count from; tracers that end up in one
    /// file share it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, kind: Kind, parent: u32, unit: u32, keep: bool) -> Open {
        let mut slot = NO_PARENT;
        if keep {
            if self.spans.len() < self.capacity {
                slot = self.spans.len() as u32;
                self.spans.push(Span {
                    kind,
                    start_ns: 0,
                    end_ns: 0,
                    parent,
                    unit,
                });
            } else {
                self.dropped += 1;
            }
        }
        // The clock is read last so bookkeeping stays outside the span.
        let start_ns = self.now_ns();
        Open {
            kind,
            start_ns,
            slot,
        }
    }

    /// Ends the span and returns its duration in nanoseconds.
    pub fn close(&mut self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        let dur = end_ns - open.start_ns;
        let a = &mut self.agg[open.kind as usize];
        a.count += 1;
        a.total_ns += dur;
        if open.slot != NO_PARENT {
            let s = &mut self.spans[open.slot as usize];
            s.start_ns = open.start_ns;
            s.end_ns = end_ns;
        }
        dur
    }

    /// Times `f` under a span.
    pub fn span<R>(&mut self, kind: Kind, parent: u32, unit: u32, f: impl FnOnce() -> R) -> R {
        let open = self.open(kind, parent, unit, true);
        let r = f();
        self.close(open);
        r
    }

    pub fn count(&self, kind: Kind) -> u64 {
        self.agg[kind as usize].count
    }

    pub fn total_ns(&self, kind: Kind) -> u64 {
        self.agg[kind as usize].total_ns
    }

    /// Mean duration of the spans of `kind`, ns (NaN when none ran).
    pub fn mean_ns(&self, kind: Kind) -> f64 {
        let a = self.agg[kind as usize];
        a.total_ns as f64 / a.count as f64
    }

    /// Appends another thread's spans and aggregates. Stored parents
    /// are re-based onto this tracer's id space.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        for mut s in other.spans {
            if self.spans.len() >= self.capacity {
                self.dropped += 1;
                continue;
            }
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            self.spans.push(s);
        }
        self.dropped += other.dropped;
        for (a, b) in self.agg.iter_mut().zip(other.agg) {
            a.count += b.count;
            a.total_ns += b.total_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_unique_and_layer_prefixed() {
        let mut names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Kind::ALL.len());
        for (i, k) in Kind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
    }

    #[test]
    fn children_follow_parents_and_aggregates_count_unkept_spans() {
        let mut t = Tracer::new(Instant::now(), 16);
        let parent = t.open(Kind::Establish, NO_PARENT, 3, true);
        let pid = parent.id();
        t.close(parent);
        t.span(Kind::LocalAccess, pid, 3, || std::hint::black_box(1 + 1));
        let unkept = t.open(Kind::Establish, NO_PARENT, 4, false);
        assert_eq!(unkept.id(), NO_PARENT);
        t.close(unkept);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 0);
        assert!(t.spans()[0].end_ns >= t.spans()[0].start_ns);
        assert_eq!(t.count(Kind::Establish), 2);
        assert_eq!(t.count(Kind::LocalAccess), 1);
        assert!(t.mean_ns(Kind::Release).is_nan());
    }

    #[test]
    fn absorb_rebases_parents_and_respects_capacity() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 3);
        a.span(Kind::Ledger, NO_PARENT, 0, || ());
        let mut b = Tracer::new(epoch, 3);
        let p = b.open(Kind::Establish, NO_PARENT, 1, true);
        let pid = p.id();
        b.close(p);
        b.span(Kind::StsComplete, pid, 1, || ());
        b.span(Kind::StateDecode, pid, 1, || ());
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.dropped(), 1);
        assert_eq!(a.count(Kind::StateDecode), 1);
    }
}
