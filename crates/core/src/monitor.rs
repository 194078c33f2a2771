//! Server monitoring and performance estimation.
//!
//! "The information stored by a SeD is a list of the data available on its
//! server, all information concerning its load (for example available memory
//! and processor) and the list of problems that it can solve."
//!
//! [`Estimate`] is the vector a SeD returns when an agent probes it during
//! request submission — DIET's `estVector_t`. Schedulers consume these.
//! `Periodic` is the one loop every periodic monitoring thread runs on.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A point-in-time performance estimate for one SeD.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Estimate {
    /// SeD label (unique across the deployment).
    pub server: String,
    /// Relative processor speed (1.0 = reference).
    pub speed_factor: f64,
    /// Free memory, bytes.
    pub free_memory: u64,
    /// Jobs queued + running on this SeD right now.
    pub queue_length: usize,
    /// Completed solves since boot (freshness/experience signal).
    pub completed: u64,
    /// Mean duration of past solves of the requested service, seconds;
    /// `None` when the SeD has never run it — exactly the paper's situation
    /// ("the second part of the simulation has never been executed, hence
    /// DIET doesn't know anything on its processing time").
    pub known_mean_duration: Option<f64>,
    /// Round-trip probe time, seconds (network proximity signal).
    pub probe_rtt: f64,
    /// Bytes of the request's persistent inputs already resident on this
    /// SeD (replica-catalog locality term; 0 when the request references no
    /// grid data or the MA has no catalog).
    pub data_local_bytes: u64,
    /// Bytes of the request's persistent inputs resident *elsewhere* on the
    /// grid — the SeD-to-SeD transfer this candidate would have to do.
    pub data_miss_bytes: u64,
    /// Admission capacity: requests beyond this queue depth are rejected
    /// with `Busy`. `None` means unbounded (no admission control armed).
    pub admission_limit: Option<usize>,
}

impl Estimate {
    /// Expected completion heuristic: queue backlog × expected task time,
    /// plus the probe round-trip (the request still has to reach the SeD,
    /// however fast it is). Falls back to speed-only task time when the
    /// duration is unknown — previously that fallback dropped `probe_rtt`
    /// entirely, making a distant idle SeD look free.
    pub fn expected_finish(&self) -> f64 {
        self.finish_with_task_time(self.known_mean_duration.unwrap_or(1.0) / self.speed_factor)
    }

    /// The cold-start variant of [`Estimate::expected_finish`]: unit task
    /// cost scaled by processor speed, ignoring any known duration. This is
    /// THE fallback formula — schedulers that cannot compare mixed
    /// known/unknown durations call this instead of re-deriving it inline
    /// (two inline copies drifted once already over the `probe_rtt` term).
    pub fn expected_finish_unit(&self) -> f64 {
        self.finish_with_task_time(1.0 / self.speed_factor)
    }

    /// The single source of truth both estimates share: backlog × per-task
    /// time, plus the probe round-trip.
    fn finish_with_task_time(&self, per_task: f64) -> f64 {
        (self.queue_length as f64 + 1.0) * per_task + self.probe_rtt
    }

    /// [`Estimate::expected_finish`] plus the time to pull this request's
    /// missing persistent inputs from their current holders at
    /// `bandwidth_bps` bytes/second. The locality term the `DataLocal`
    /// scheduler minimizes: a SeD already holding the data pays nothing.
    pub fn expected_finish_with_transfer(&self, bandwidth_bps: f64) -> f64 {
        self.expected_finish() + self.data_miss_bytes as f64 / bandwidth_bps.max(1.0)
    }

    /// Whether this SeD would currently reject a new request with `Busy`.
    /// Schedulers use it to spread load across unsaturated candidates
    /// instead of dogpiling the fastest node under overload.
    pub fn is_saturated(&self) -> bool {
        self.admission_limit
            .is_some_and(|cap| self.queue_length >= cap)
    }
}

/// Shared mutable load tracker each SeD updates as it works; probes snapshot
/// it into [`Estimate`]s. Lock-free so the solver threads never contend with
/// the probe path.
#[derive(Debug, Default)]
pub struct LoadTracker {
    queue: AtomicUsize,
    completed: AtomicU64,
    /// Sum of solve durations in microseconds (for the mean).
    busy_us: AtomicU64,
    /// Replies the server finished computing but could not deliver (the
    /// client hung up, the channel closed, or fault injection dropped it).
    reply_failures: AtomicU64,
    /// A solve is executing right now. Liveness probes consult this: a
    /// worker deep in a long solve cannot answer queued pings, but it is
    /// busy, not dead.
    solving: AtomicBool,
}

impl LoadTracker {
    pub fn new() -> Arc<Self> {
        Arc::new(LoadTracker::default())
    }

    pub fn enqueue(&self) {
        self.queue.fetch_add(1, Ordering::Relaxed);
    }

    pub fn start(&self) {
        self.solving.store(true, Ordering::Release);
    }

    pub fn finish(&self, duration_secs: f64) {
        self.solving.store(false, Ordering::Release);
        self.queue.fetch_sub(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.busy_us
            .fetch_add((duration_secs * 1e6) as u64, Ordering::Relaxed);
    }

    /// Is a solve executing right now?
    pub fn is_solving(&self) -> bool {
        self.solving.load(Ordering::Acquire)
    }

    pub fn queue_length(&self) -> usize {
        self.queue.load(Ordering::Relaxed)
    }

    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Record a reply the server computed but could not deliver.
    pub fn reply_failed(&self) {
        self.reply_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub fn reply_failures(&self) -> u64 {
        self.reply_failures.load(Ordering::Relaxed)
    }

    /// Mean past solve duration, if any solves completed.
    pub fn mean_duration(&self) -> Option<f64> {
        let c = self.completed();
        if c == 0 {
            None
        } else {
            Some(self.busy_us.load(Ordering::Relaxed) as f64 / 1e6 / c as f64)
        }
    }

    /// Snapshot into an estimate.
    pub fn estimate(&self, server: &str, speed_factor: f64, free_memory: u64) -> Estimate {
        Estimate {
            server: server.to_string(),
            speed_factor,
            free_memory,
            queue_length: self.queue_length(),
            completed: self.completed(),
            known_mean_duration: self.mean_duration(),
            probe_rtt: 0.0,
            data_local_bytes: 0,
            data_miss_bytes: 0,
            admission_limit: None,
        }
    }
}

/// Consecutive failures per label — the one rule behind every "is it
/// dead?" decision: the heartbeat monitor's SeD and agent sweeps, the
/// jobserver's machine pool and the MA's failed-call strikes.
#[derive(Debug, Default)]
pub(crate) struct MissTally(HashMap<String, u32>);

impl MissTally {
    /// `label` answered: its run of misses is over.
    pub(crate) fn hit(&mut self, label: &str) {
        self.0.remove(label);
    }

    /// `label` missed once more. True when that makes `threshold` misses in
    /// a row; the count then starts again from zero.
    pub(crate) fn miss(&mut self, label: &str, threshold: u32) -> bool {
        let n = self.0.entry(label.to_string()).or_insert(0);
        *n += 1;
        if *n < threshold {
            return false;
        }
        self.0.remove(label);
        true
    }
}

/// A background thread that calls `tick` every `interval` until stopped —
/// the one way diet-core runs a periodic loop (the MA's heartbeat sweep,
/// the telemetry flusher, the DAG monitor, the jobserver's heartbeat).
///
/// [`stop`](Periodic::stop) drops the loop's channel, which wakes the
/// thread at once however long its interval, then joins it: once `stop`
/// returns on any other thread, no tick is running and none will start.
/// Called from inside a tick (an owner whose last `Arc` drops there runs
/// its `Drop` on this very thread) it skips the join; the loop exits when
/// that tick returns.
pub(crate) struct Periodic(Mutex<Option<(Sender<()>, JoinHandle<()>)>>);

impl Periodic {
    pub(crate) fn spawn(interval: Duration, mut tick: impl FnMut() + Send + 'static) -> Periodic {
        let (wake, sleep) = channel::<()>();
        let thread = std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = sleep.recv_timeout(interval) {
                tick();
            }
        });
        Periodic(Mutex::new(Some((wake, thread))))
    }

    /// Stop the loop and wait for its thread. Idempotent.
    pub(crate) fn stop(&self) {
        let Some((wake, thread)) = self.0.lock().take() else {
            return;
        };
        drop(wake);
        if thread.thread().id() != std::thread::current().id() {
            let _ = thread.join();
        }
    }
}

impl Drop for Periodic {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_counts_queue_and_completions() {
        let t = LoadTracker::new();
        t.enqueue();
        t.enqueue();
        assert_eq!(t.queue_length(), 2);
        t.finish(2.0);
        assert_eq!(t.queue_length(), 1);
        assert_eq!(t.completed(), 1);
        assert_eq!(t.mean_duration(), Some(2.0));
        t.finish(4.0);
        assert_eq!(t.mean_duration(), Some(3.0));
    }

    #[test]
    fn reply_failures_accumulate_independently() {
        let t = LoadTracker::new();
        assert_eq!(t.reply_failures(), 0);
        t.reply_failed();
        t.reply_failed();
        assert_eq!(t.reply_failures(), 2);
        // Undelivered replies don't count as completions.
        assert_eq!(t.completed(), 0);
    }

    #[test]
    fn fresh_tracker_has_unknown_duration() {
        let t = LoadTracker::new();
        assert_eq!(t.mean_duration(), None);
        let e = t.estimate("sed", 1.0, 1 << 30);
        assert_eq!(e.known_mean_duration, None);
        assert_eq!(e.queue_length, 0);
    }

    #[test]
    fn expected_finish_prefers_fast_empty_servers() {
        let idle_fast = Estimate {
            server: "a".into(),
            speed_factor: 1.2,
            queue_length: 0,
            completed: 5,
            known_mean_duration: Some(100.0),
            ..Estimate::default()
        };
        let busy_slow = Estimate {
            server: "b".into(),
            speed_factor: 0.8,
            queue_length: 3,
            completed: 5,
            known_mean_duration: Some(100.0),
            ..Estimate::default()
        };
        assert!(idle_fast.expected_finish() < busy_slow.expected_finish());
    }

    #[test]
    fn expected_finish_fallback_includes_probe_rtt() {
        let mk = |rtt: f64, known: Option<f64>| Estimate {
            server: "s".into(),
            speed_factor: 2.0,
            queue_length: 1,
            known_mean_duration: known,
            probe_rtt: rtt,
            ..Estimate::default()
        };
        // Speed-only fallback: (1 + 1) * 1.0/2.0 + rtt.
        assert_eq!(mk(0.0, None).expected_finish(), 1.0);
        assert_eq!(mk(0.25, None).expected_finish(), 1.25);
        // A distant idle SeD no longer ties with a local one.
        assert!(mk(0.25, None).expected_finish() > mk(0.0, None).expected_finish());
        // The known-duration path carries the RTT term too.
        assert_eq!(mk(0.5, Some(4.0)).expected_finish(), 4.5);
    }

    #[test]
    fn transfer_term_penalizes_data_misses_only() {
        let mk = |local: u64, miss: u64| Estimate {
            server: "s".into(),
            speed_factor: 1.0,
            known_mean_duration: Some(2.0),
            data_local_bytes: local,
            data_miss_bytes: miss,
            ..Estimate::default()
        };
        // Holder pays nothing; a candidate missing 1 GB at 1 GB/s pays 1 s.
        assert_eq!(mk(1 << 30, 0).expected_finish_with_transfer(1e9), 2.0);
        let cold = mk(0, 1 << 30).expected_finish_with_transfer(1e9);
        assert!((cold - (2.0 + 1.073741824)).abs() < 1e-9);
        // Degenerate bandwidth cannot divide by zero.
        assert!(mk(0, 100).expected_finish_with_transfer(0.0).is_finite());
    }

    #[test]
    fn saturation_tracks_admission_limit() {
        let mut e = Estimate {
            server: "s".into(),
            queue_length: 4,
            ..Estimate::default()
        };
        // Unbounded SeDs never report saturated.
        assert!(!e.is_saturated());
        e.admission_limit = Some(8);
        assert!(!e.is_saturated());
        e.admission_limit = Some(4);
        assert!(e.is_saturated());
        e.queue_length = 3;
        assert!(!e.is_saturated());
    }

    #[test]
    fn miss_tally_counts_only_consecutive_misses() {
        let threshold = 3;
        let mut t = MissTally::default();
        // A hit between two short runs: never crossed.
        for _ in 0..threshold - 1 {
            assert!(!t.miss("a", threshold));
        }
        t.hit("a");
        for _ in 0..threshold - 1 {
            assert!(!t.miss("a", threshold));
        }
        // One more makes a run of `threshold`... only for that label.
        assert!(!t.miss("b", threshold));
        assert!(t.miss("a", threshold));
        // ...and the count restarts: crossed again only after a full run.
        let crossings = (0..threshold).filter(|_| t.miss("a", threshold)).count();
        assert_eq!(crossings, 1);
        assert!(!t.miss("a", threshold));
    }

    /// A loop whose every tick takes 20 ms, with counts of the ticks
    /// started and ended; returned while the first tick is under way.
    fn slow_ticks() -> (Periodic, Arc<AtomicU64>, Arc<AtomicU64>) {
        let (started, ended) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let (s, e) = (started.clone(), ended.clone());
        let p = Periodic::spawn(Duration::from_millis(1), move || {
            s.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(20));
            e.fetch_add(1, Ordering::SeqCst);
        });
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        (p, started, ended)
    }

    #[test]
    fn no_tick_runs_after_stop_returns() {
        let (p, started, ended) = slow_ticks();
        // Stopped mid-tick: `stop` waits that tick out and starts no other.
        p.stop();
        let at_stop = started.load(Ordering::SeqCst);
        assert_eq!(
            ended.load(Ordering::SeqCst),
            at_stop,
            "a tick outlived stop"
        );
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(started.load(Ordering::SeqCst), at_stop);
        // A second stop is a no-op.
        p.stop();
    }

    #[test]
    fn dropping_the_handle_stops_the_loop() {
        let (p, started, ended) = slow_ticks();
        drop(p);
        let at_drop = started.load(Ordering::SeqCst);
        assert_eq!(
            ended.load(Ordering::SeqCst),
            at_drop,
            "a tick outlived drop"
        );
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(started.load(Ordering::SeqCst), at_drop);
    }

    #[test]
    fn stop_wakes_a_sleeping_loop_at_once() {
        let p = Periodic::spawn(Duration::from_secs(2), || {});
        let t0 = std::time::Instant::now();
        p.stop();
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn stop_from_inside_a_tick_does_not_self_join() {
        let slot: Arc<Mutex<Option<Periodic>>> = Arc::new(Mutex::new(None));
        let ticks = Arc::new(AtomicU64::new(0));
        let (done_tx, done_rx) = channel();
        let (inner, counted) = (slot.clone(), ticks.clone());
        let p = Periodic::spawn(Duration::from_millis(1), move || {
            counted.fetch_add(1, Ordering::SeqCst);
            // The owner drops on its own loop thread, as a DagEngine's
            // last Arc can inside a monitor tick.
            if let Some(p) = inner.lock().take() {
                drop(p);
                let _ = done_tx.send(());
            }
        });
        *slot.lock() = Some(p);
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a stop from inside the tick returns");
        let after = ticks.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(ticks.load(Ordering::SeqCst), after, "the loop exited");
    }

    #[test]
    fn concurrent_updates_are_consistent() {
        let t = LoadTracker::new();
        let mut handles = vec![];
        for _ in 0..8 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    t.enqueue();
                    t.finish(0.001);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.queue_length(), 0);
        assert_eq!(t.completed(), 8000);
    }
}
