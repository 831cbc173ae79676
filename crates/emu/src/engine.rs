//! Parallel experiment engine.
//!
//! Every sweep in this crate is an embarrassingly-parallel map: a list
//! of independent cells (constellation × solution, time step, shell,
//! traffic mix) each producing a result from pure inputs.
//! [`parallel_map`] fans those cells out over scoped threads
//! (`std::thread::scope` — no extra runtime dependency) and writes each
//! result into its input's slot, so output order — and therefore the
//! serialized JSON — is identical to a serial `map`, regardless of
//! thread count or scheduling.
//!
//! A sweep whose cells can share working memory — a route memo whose
//! entries are pure functions of the graph, reusable buffers — maps with
//! [`parallel_map_init`]: each worker builds one state when it claims
//! its first cell and lends it `&mut` to every cell it claims, so a
//! sweep builds at most one state per worker instead of one per cell.
//! Which cells share a state depends on scheduling, so a cell's result
//! must not depend on what earlier cells left in it. The stateless maps
//! are its `|| ()` case: there is one worker loop.
//!
//! Worker count comes from the `SC_EMU_THREADS` environment variable,
//! defaulting to the machine's available parallelism. `SC_EMU_THREADS=1`
//! runs the one worker inline on the caller's thread, which is also the
//! fallback when an experiment has a single cell.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-thread count: `SC_EMU_THREADS` when set to a positive
/// integer, otherwise the machine's available parallelism.
pub fn thread_count() -> usize {
    std::env::var("SC_EMU_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Map `f` over `items` using [`thread_count`] workers, preserving
/// input order in the output.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(thread_count(), items, f)
}

/// [`parallel_map`] with an explicit worker count. The result is the
/// same as `items.into_iter().map(f).collect()` for every `threads`
/// value; tests use `threads = 1` as the serial reference. The
/// stateless case of [`parallel_map_init`].
pub fn parallel_map_with<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_init(threads, items, || (), |(), item| f(item))
}

/// [`parallel_map_with`] with per-worker state: a worker builds its
/// state with `init` when it claims its first item and lends it to `f`
/// for every item it claims, so `init` runs at most once per worker —
/// at most `threads` times, never for a worker that finds the items all
/// taken. The result is the same as the serial
/// `items.into_iter().map(|t| f(&mut init(), t)).collect()` whenever
/// `f`'s answer does not depend on what earlier items left in the state
/// (a cache of pure functions of shared inputs, reusable buffers): which
/// items share a worker, and so a state, depends on scheduling.
pub fn parallel_map_init<T, R, S, I, F>(threads: usize, items: Vec<T>, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n);

    // Dynamic (work-stealing) distribution: workers claim the next
    // unprocessed index, so uneven cell costs — Iridium vs Kuiper-scale
    // shells — don't leave threads idle. Results land in their input's
    // slot, making the output order deterministic.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut state = None;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            // sc-audit: allow(parallel, reason = "per-index slot lock; fetch_add hands each index to exactly one worker, so there is no cross-thread contention and the read is order-free")
            let mut slot = slots[i].lock().unwrap_or_else(|p| p.into_inner());
            let item = slot.take().expect("each slot is claimed exactly once");
            drop(slot);
            let r = f(state.get_or_insert_with(&init), item);
            // sc-audit: allow(parallel, reason = "slot-ordered result write: output lands in its input's index, so completion order cannot leak into the collected Vec")
            *results[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(r);
        }
    };
    // One worker runs inline on the caller's thread (also the fallback
    // for a single item); more run on scoped threads.
    if workers <= 1 {
        worker();
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(worker);
            }
        });
    }

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .expect("every slot was computed")
        })
        .collect()
}

/// [`parallel_map_with`] with telemetry: each item runs against its own
/// child recorder, and the children are merged back into `obs` in input
/// order after the map completes. Counters/histograms commute and events
/// append in slot order, so the merged snapshot — and therefore the
/// emitted `telemetry.json` — is byte-identical for every `threads`
/// value. When `obs` is disabled the children are disabled too and the
/// whole scheme costs nothing.
pub fn parallel_map_obs_with<T, R, F>(
    threads: usize,
    obs: &sc_obs::Recorder,
    items: Vec<T>,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T, &sc_obs::Recorder) -> R + Sync,
{
    let children: Vec<sc_obs::Recorder> = (0..items.len()).map(|_| obs.child()).collect();
    let paired: Vec<(T, sc_obs::Recorder)> =
        items.into_iter().zip(children.iter().cloned()).collect();
    let results = parallel_map_with(threads, paired, |(item, rec)| f(item, &rec));
    for c in &children {
        obs.absorb(c);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let serial: Vec<usize> = items.iter().map(|i| i * 3).collect();
        for threads in [1, 2, 4, 16, 128] {
            let got = parallel_map_with(threads, items.clone(), |i| i * 3);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(parallel_map_with(8, Vec::<u32>::new(), |i| i), vec![]);
        assert_eq!(parallel_map_with(8, vec![7u32], |i| i + 1), vec![8]);
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Make early items the slowest so a naive chunked split would
        // reorder completion; slot placement must still win.
        let items: Vec<u64> = (0..32).collect();
        let got = parallel_map_with(8, items.clone(), |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i * i
        });
        let want: Vec<u64> = items.iter().map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn init_runs_once_per_worker_and_lends_its_state() {
        let items: Vec<usize> = (0..64).collect();
        let serial: Vec<usize> = items.iter().map(|i| i * 3).collect();
        for threads in [1, 2, 4, 16] {
            let inits = AtomicUsize::new(0);
            let seen: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
            let got = parallel_map_init(
                threads,
                items.clone(),
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |claimed, i| {
                    *claimed += 1;
                    seen[i].fetch_add(1, Ordering::Relaxed);
                    (i * 3, *claimed)
                },
            );
            let inits = inits.into_inner();
            assert!((1..=threads).contains(&inits), "threads={threads}: {inits} inits");
            let out: Vec<usize> = got.iter().map(|&(r, _)| r).collect();
            assert_eq!(out, serial, "threads={threads}");
            // Each worker counts its own items in its one state, so the
            // counts restart at 1 exactly once per init.
            let firsts = got.iter().filter(|&&(_, c)| c == 1).count();
            assert_eq!(firsts, inits, "threads={threads}");
            assert!(
                seen.iter().all(|n| n.load(Ordering::Relaxed) == 1),
                "threads={threads}: every item exactly once"
            );
        }
    }

    #[test]
    fn init_never_runs_without_an_item() {
        let inits = AtomicUsize::new(0);
        let got = parallel_map_init(
            4,
            Vec::<u32>::new(),
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i| i,
        );
        assert!(got.is_empty());
        assert_eq!(inits.into_inner(), 0);
    }

    #[test]
    fn thread_count_env_override() {
        // The default path: either the env var (when this test runs
        // under a wrapper that sets it) or available parallelism — both
        // must be at least 1.
        assert!(thread_count() >= 1);
    }

    #[test]
    fn obs_map_merges_thread_invariantly() {
        let items: Vec<u64> = (0..24).collect();
        let reference = {
            let obs = sc_obs::Recorder::new();
            for &i in &items {
                obs.inc("cells", 1);
                obs.observe("value", i as f64);
                obs.event(i as f64, "cell", vec![("i", sc_obs::FieldValue::from(i))]);
            }
            obs.snapshot().to_json("t")
        };
        for threads in [1, 2, 4, 16] {
            let obs = sc_obs::Recorder::new();
            let got = parallel_map_obs_with(threads, &obs, items.clone(), |i, rec| {
                rec.inc("cells", 1);
                rec.observe("value", i as f64);
                rec.event(i as f64, "cell", vec![("i", sc_obs::FieldValue::from(i))]);
                i * 2
            });
            assert_eq!(got, items.iter().map(|i| i * 2).collect::<Vec<_>>());
            assert_eq!(obs.snapshot().to_json("t"), reference, "threads={threads}");
        }
    }

    #[test]
    fn obs_map_disabled_recorder_stays_empty() {
        let obs = sc_obs::Recorder::disabled();
        let got = parallel_map_obs_with(4, &obs, vec![1u32, 2, 3], |i, rec| {
            rec.inc("cells", 1);
            i
        });
        assert_eq!(got, vec![1, 2, 3]);
        assert!(obs.snapshot().is_empty());
    }

    #[test]
    fn non_copy_items_and_results() {
        let items: Vec<String> = (0..20).map(|i| format!("cell-{i}")).collect();
        let got = parallel_map_with(4, items.clone(), |s| s.len());
        let want: Vec<usize> = items.iter().map(|s| s.len()).collect();
        assert_eq!(got, want);
    }
}
