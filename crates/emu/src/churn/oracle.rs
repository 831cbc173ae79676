//! The calendar oracle: the engine's handlers run for every UE of the
//! run through one global [`EventQueue`], drained in half-open batches
//! of a caller-chosen width, with one live [`ChaosCursor`], one live
//! [`CellStorm`] and one [`CellLedger`]. Chaos markers are queued before
//! any UE event, so they fire first at their instant, and a crash walks
//! every UE in id order. Events are counted once more as they pop. This
//! is the engine as one global `(time, seq)` order runs it; the per-UE
//! driver in the parent module must reproduce every byte of it.

use super::*;
use sc_netsim::des::EventQueue;
use spacecore::shard::CellLedger;

/// Widest batch the calendar may drain at once: the shortest follow-up
/// delay, [`MIN_DELAY_S`], so that no reaction lands inside the batch
/// that scheduled it.
pub(super) const BATCH_WINDOW_S: f64 = 1.0;

/// A queued event: a timeline marker by index, or a UE's event.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Item {
    Chaos(usize),
    Ue(u32, Ev),
}

/// The global calendar, as the handlers' [`Seam`].
struct Calendar<'a> {
    q: EventQueue<Item>,
    /// The UE whose event is being handled.
    current: u32,
    cursor: ChaosCursor<'a>,
    storm: CellStorm,
    ledger: CellLedger,
}

impl<'a> Seam<'a> for Calendar<'a> {
    fn queue(&mut self, t: f64, ev: Ev) {
        self.q.schedule(t, Item::Ue(self.current, ev));
    }

    fn cursor(&self) -> &ChaosCursor<'a> {
        &self.cursor
    }

    fn storm(&self) -> &CellStorm {
        &self.storm
    }

    fn connect(&mut self, cell: usize, now_us: u64) {
        self.ledger.connect(cell, Tick(now_us));
    }

    fn release(&mut self, cell: usize, now_us: u64) {
        self.ledger.release(cell, Tick(now_us));
    }

    fn moved(&mut self, from: usize, to: usize) {
        self.ledger.move_session(from, to);
    }
}

/// [`run`](super::run) on one calendar drained in `width`-wide batches,
/// the UEs placed from `pop.sample_ues`.
pub(super) fn run(
    cfg: &ChaosloadConfig,
    pop: &PopulationModel,
    classes: usize,
    label: &(dyn Fn(&GeoPoint) -> u8 + Sync),
    record_holds: bool,
    width: f64,
) -> ChurnOut {
    assert!(width > 0.0 && width <= BATCH_WINDOW_S, "batch width {width}");
    let run = Run::new(cfg, classes, record_holds);
    let calendar = Calendar {
        q: EventQueue::new(),
        current: 0,
        cursor: cfg.timeline.cursor(),
        storm: CellStorm::new(run.grid.cell_count()),
        ledger: CellLedger::new(run.grid.cell_count(), cfg.load.warmup_s, run.horizon),
    };
    let mut engine = Engine::new(&run, calendar);
    // The crash row and the overload window each marker opens, in the
    // order `Run::new` lists them.
    let (mut rows, mut wins) = (0..run.crashes.len(), 0..run.storms.len());
    let opens: Vec<(Option<usize>, Option<usize>)> = cfg.timeline.events().iter().map(|e| {
        match e.action {
            _ if e.time_ms / 1000.0 >= run.horizon => (None, None),
            ChaosAction::Crash(sat) if sat < cfg.sats => (rows.next(), wins.next()),
            ChaosAction::LinkDown(a, b) if a.min(b) < cfg.sats => (None, wins.next()),
            _ => (None, None),
        }
    })
    .collect();
    for (k, e) in cfg.timeline.events().iter().enumerate() {
        let t = e.time_ms / 1000.0;
        if t < run.horizon {
            engine.seam.q.schedule(t, Item::Chaos(k));
        }
    }
    let points = pop.sample_ues(cfg.load.total_ues, cfg.load.seed);
    let mut ues: Vec<Ue> = (0..).zip(&points).map(|(id, p)| {
        let cell = cell_index(&run.grid, run.grid.cell_of_point(p));
        Ue::new(id, cell as u32, label(p))
    })
    .collect();
    for ue in &mut ues {
        engine.seam.current = ue.id;
        engine.seed(ue);
    }

    let (mut popped, mut popped_win) = (0u64, vec![0u64; run.windows]);
    let mut batch = Vec::new();
    let batches = (run.horizon / width).ceil() as u64;
    for w in 0..batches {
        let end = ((w + 1) as f64 * width).min(run.horizon);
        engine.seam.q.drain_until(end, &mut batch);
        for ev in &batch {
            let now = run.now(ev.time);
            engine.seam.cursor.advance_to(ev.time * 1000.0, &engine.quiet);
            match ev.event {
                Item::Ue(i, e) => {
                    popped += 1;
                    popped_win[now.win] += 1;
                    engine.seam.current = i;
                    engine.dispatch(now, &mut ues[i as usize], e);
                }
                Item::Chaos(k) => {
                    // Apply through the marker's exact quantized time:
                    // the s → ms roundtrip can land one ulp short of it.
                    let t_ms = cfg.timeline.events()[k].time_ms;
                    engine.seam.cursor.advance_to(t_ms, &engine.quiet);
                    let (row, win) = opens[k];
                    if let Some(w) = win.map(|w| &run.storms[w]) {
                        engine.seam.storm.open(w.cells.clone(), tick(w.until_s));
                    }
                    if let Some(row) = row {
                        for ue in &mut ues {
                            engine.seam.current = ue.id;
                            engine.crash(now, row, ue);
                        }
                    }
                }
            }
        }
    }
    assert!(engine.seam.q.is_empty(), "an event past the last batch was queued");
    assert_eq!(popped, engine.out.events_total, "every queued event pops once");
    assert_eq!(popped_win, engine.out.events_win);
    for ue in &ues {
        engine.finish_ue(ue);
    }
    engine.seam.ledger.finish();
    engine.out.busy_us = engine.seam.ledger.busy_us();
    let active = engine.seam.ledger.cell_active().iter().map(|&n| u64::from(n));
    engine.out.cell_active_end = active.collect();
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext_chaosload::{self, ExtChaosload, MloadConfig};
    use crate::ext_mload;
    use proptest::prelude::*;
    use sc_dataset::population::Region;
    use sc_netsim::chaos::FailureTimeline;
    use spacecore::recovery::RetryBudget;

    /// The chaos-soak result, every field of it rendered, and its
    /// sidecar, of a folded run.
    fn chaos_artifacts(cfg: &ChaosloadConfig, out: ChurnOut) -> (ExtChaosload, String, String) {
        let obs = Recorder::new();
        let r = ext_chaosload::report(&obs, cfg, out);
        let fields = format!("{r:?}");
        (r, fields, obs.snapshot().to_json("ext_chaosload"))
    }

    /// Both drivers on `cfg`: UE by UE on `threads` workers, and the
    /// calendar drained in `width`-wide batches.
    fn chaos_pair(
        cfg: &ChaosloadConfig,
        threads: usize,
        width: f64,
    ) -> [(ExtChaosload, String, String); 2] {
        let pop = PopulationModel::world_bank_like();
        [
            chaos_artifacts(cfg, super::super::run(threads, cfg, &pop, 1, &|_| 0, true)),
            chaos_artifacts(cfg, run(cfg, &pop, 1, &|_| 0, true, width)),
        ]
    }

    /// Hundreds to thousands of UEs over a 3 s warm-up and a 17 s
    /// measured window on `timeline`.
    fn small(total_ues: usize, seed: u64, timeline: FailureTimeline) -> ChaosloadConfig {
        ChaosloadConfig {
            load: MloadConfig {
                total_ues,
                warmup_s: 3.0,
                measure_s: 17.0,
                seed,
                crossing_interval_s: 60.0,
            },
            timeline: timeline.with_seed(seed ^ 0xC4A0_5EED),
            deadline_s: 10.0,
            ..ChaosloadConfig::smoke()
        }
    }

    /// A timeline from generated `(kind, node, slot, len, early)` ops.
    /// Instants are quarter seconds from 0 to 21 s — the warm-up edge
    /// (3 s) and the horizon (20 s) among them, so markers land on
    /// window edges and share quantized times — each optionally 1 µs
    /// early. Nodes favour satellite 5, whose footprint is populated.
    fn timeline(ops: &[(u8, usize, u32, u32, bool)]) -> FailureTimeline {
        let at = |slot: u32, early: bool| {
            (f64::from(slot) * 250.0 - if early { 1e-3 } else { 0.0 }).max(0.0)
        };
        ops.iter().fold(FailureTimeline::none(), |tl, &(kind, node, slot, len, early)| {
            let sat = if node % 2 == 0 { 5 } else { node % 26 };
            let (t, end) = (at(slot, early), at(slot + len, false));
            match kind % 6 {
                0 => tl.crash(t, sat).recover(end, sat),
                1 => tl.crash(t, sat),
                2 => tl.link_flap(t, end, sat, 24),
                3 => tl.link_flap(t, end, sat, (sat + 1) % 24),
                4 => tl.loss_burst(t, end, (node % 10 + 1) as f64 / 10.0),
                _ => tl.recover(t, sat).dead_from_start(node % 30),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The calendar's batch width is invisible, and so is whether
        /// a crash lands on a batch edge (6.0 s) or strictly inside a
        /// batch (6.3 s): 0.25 s, 0.5 s and 1 s calendars all equal the
        /// per-UE run.
        #[test]
        fn batch_width_and_boundary_alignment_invisible(
            seed in any::<u64>(),
            on_boundary in any::<bool>(),
        ) {
            let c = if on_boundary { 6_000.0 } else { 6_300.0 };
            let tl = FailureTimeline::none()
                .crash(c, 5)
                .recover(c + 1_500.0, 5)
                .crash(c + 2_000.0, 5)
                .recover(c + 3_000.0, 5)
                .link_flap(c + 6_000.0, c + 8_000.0, 20, 24)
                .loss_burst(c, c + 3_000.0, 0.25);
            let cfg = small(250, seed, tl);
            for width in [0.25, 0.5, 1.0] {
                let [stream, calendar] = chaos_pair(&cfg, 2, width);
                prop_assert_eq!(&stream.1, &calendar.1, "width={}", width);
                prop_assert_eq!(&stream.2, &calendar.2, "width={}", width);
            }
        }

        /// The failure-free soak, result and sidecar, equals the
        /// calendar for any population, seed and thread count.
        #[test]
        fn mload_artifacts_match_the_calendar_oracle(
            total_ues in 0usize..2_000,
            seed in any::<u64>(),
            threads in 1usize..5,
        ) {
            let cfg = small(total_ues, seed, FailureTimeline::none()).load;
            let free = ChaosloadConfig::failure_free(cfg.clone());
            let pop = PopulationModel::world_bank_like();
            let region = |p: &GeoPoint| pop.region_of(p).index() as u8;
            let classes = Region::ALL.len();
            let outs = [
                super::super::run(threads, &free, &pop, classes, &region, true),
                run(&free, &pop, classes, &region, true, 1.0),
            ];
            let [a, b] = outs.map(|out| {
                let obs = Recorder::new();
                let r = ext_mload::report(&obs, &cfg, &out);
                (format!("{r:?}"), obs.snapshot().to_json("ext_mload"))
            });
            prop_assert_eq!(a, b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Generated timelines — crash, recover and re-crash, feeder
        /// and inter-satellite flaps, nested loss bursts, nodes dead
        /// from the start, markers on window edges and at identical
        /// quantized times, in the warm-up and at the horizon — under
        /// any retry budget, paced or not, give the calendar's bytes,
        /// and every crash row of the measured window accounts for each
        /// session it dropped.
        #[test]
        fn generated_timelines_match_the_calendar_oracle(
            ops in proptest::collection::vec(
                (any::<u8>(), 0usize..64, 0u32..85, 0u32..40, any::<bool>()),
                1..9,
            ),
            total_ues in 200usize..2_500,
            seed in any::<u64>(),
            width in 0usize..3,
            max_attempts in 1u32..7,
            paced in any::<bool>(),
        ) {
            let base = small(total_ues, seed, timeline(&ops));
            let budget = RetryBudget { max_attempts, ..base.budget };
            let cfg = ChaosloadConfig { budget, paced, ..base };
            let [stream, calendar] = chaos_pair(&cfg, 3, [0.25, 0.5, 1.0][width]);
            prop_assert_eq!(&stream.1, &calendar.1, "{:?}", cfg.timeline);
            prop_assert_eq!(&stream.2, &calendar.2, "{:?}", cfg.timeline);
            for row in stream.0.crashes.iter().filter(|c| c.t_s >= cfg.load.warmup_s) {
                let ends = row.reestablished + row.lost + row.pending;
                prop_assert_eq!(row.dropped, ends, "{:?}", row);
                prop_assert_eq!(row.reestablished, row.survived + row.late, "{:?}", row);
            }
        }
    }
}
