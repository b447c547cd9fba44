//! Host-speed calibration for CPU-bound timings.
//!
//! On a shared machine the speed of a core drifts by tens of percent in
//! phases of seconds to minutes (frequency scaling, neighbours on the
//! same physical core); a one-second window of `paper_suite` campaigns
//! varies by a coefficient of variation of about 16% on the 2-CPU
//! reference host.  A fixed calibration kernel, timed between campaigns,
//! drifts with it, and the ratio of the two varies by about 5%.  A
//! calibrated clock therefore rescales each CPU-bound time to what it
//! would read at the reference speed: `ms × REFERENCE_NS / kernel_ns`,
//! with `kernel_ns` the median of the kernel's recent timings.
//! Workloads that mostly wait on kernel timers (the service and the
//! fleet) keep plain wall clock.

use crate::stats::median;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The calibration kernel's duration at the reference speed (its median
/// on the 2-CPU reference host in a fast phase), nanoseconds.
const REFERENCE_NS: f64 = 25_000.0;

/// Calibration timings the rescaling takes the median of.
const WINDOW: usize = 9;

/// Least time between two calibration timings.
const INTERVAL: Duration = Duration::from_millis(2);

/// A fixed mix of what the measured code does — hashing, small
/// allocations, vector pushes and bit twiddling — that no change to the
/// repository can alter.
fn kernel() -> u64 {
    let mut buckets: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..500u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buckets.entry(x % 61).or_default().push(i ^ x);
    }
    buckets
        .values()
        .map(|v| v.iter().fold(0u64, |a, &b| a.rotate_left(5) ^ b))
        .fold(0, u64::wrapping_add)
}

fn time_kernel() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_secs_f64() * 1e9
}

/// A thread that times the kernel on request, alongside the clock's own
/// thread.  It lives as long as the clock, so its allocator arena and
/// caches are those of a long-running worker, not of a fresh thread.
struct Helper {
    go: Option<mpsc::Sender<()>>,
    done: mpsc::Receiver<f64>,
    handle: Option<JoinHandle<()>>,
}

impl Helper {
    fn spawn() -> Helper {
        let (go, wait) = mpsc::channel::<()>();
        let (report, done) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            while wait.recv().is_ok() {
                if report.send(time_kernel()).is_err() {
                    break;
                }
            }
        });
        Helper {
            go: Some(go),
            done,
            handle: Some(handle),
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        drop(self.go.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Converts measured wall clock into reported time.
pub struct Clock {
    calibrated: bool,
    /// One per core beyond the first the calibration runs on.
    helpers: Vec<Helper>,
    recent_ns: VecDeque<f64>,
    last: Instant,
    /// Sum and count of the factors applied, for the run's notes.
    applied: (f64, u64),
}

impl Clock {
    /// Reports wall clock as measured.
    pub fn wall() -> Clock {
        Clock {
            calibrated: false,
            helpers: Vec::new(),
            recent_ns: VecDeque::new(),
            last: Instant::now(),
            applied: (0.0, 0),
        }
    }

    /// Rescales to the reference host speed, calibrating on `cores`
    /// cores at once: the measured code's parallelism, so that a slow
    /// core the campaigns run on is not missed.
    pub fn calibrated(cores: usize) -> Clock {
        let mut clock = Clock {
            calibrated: true,
            helpers: (1..cores).map(|_| Helper::spawn()).collect(),
            recent_ns: VecDeque::with_capacity(WINDOW),
            last: Instant::now(),
            applied: (0.0, 0),
        };
        for _ in 0..WINDOW {
            clock.sample();
        }
        clock
    }

    /// Times one kernel run.  It runs as the measured code left the
    /// host — caches, allocator, core frequency — which is what makes it
    /// track the measured code's slowdowns; timing it on warmed caches
    /// instead doubled the spread of `family_engine` timings.  The price:
    /// a change that shrinks the measured code's footprint also speeds
    /// the kernel a little, which understates that gain.
    ///
    /// On several cores the kernel runs once per core at the same time,
    /// and the sample is the harmonic mean of their times: work spread
    /// evenly over the cores progresses at the sum of their speeds.
    fn sample(&mut self) {
        for h in &self.helpers {
            let go =
                h.go.as_ref()
                    .expect("helper channel open while the clock lives");
            go.send(()).expect("calibration helper alive");
        }
        let mut times = vec![time_kernel()];
        for h in &self.helpers {
            times.push(h.done.recv().expect("calibration helper alive"));
        }
        let ns = times.len() as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>();
        if self.recent_ns.len() == WINDOW {
            self.recent_ns.pop_front();
        }
        self.recent_ns.push_back(ns);
        self.last = Instant::now();
    }

    /// Rescales a time just measured (any unit).  A calibrated clock
    /// times its kernel first when the last timing is older than
    /// [`INTERVAL`].
    pub fn scale(&mut self, t: f64) -> f64 {
        if !self.calibrated {
            return t;
        }
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
        let recent: Vec<f64> = self.recent_ns.iter().copied().collect();
        let factor = REFERENCE_NS / median(&recent);
        self.applied.0 += factor;
        self.applied.1 += 1;
        t * factor
    }

    /// How this clock reported time, for the run's notes.
    pub fn describe(&self) -> String {
        if !self.calibrated {
            return "times are wall clock".to_string();
        }
        format!(
            "times are rescaled to the reference host speed: mean factor {:.4} over {} times",
            self.applied.0 / self.applied.1.max(1) as f64,
            self.applied.1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_identity() {
        assert_eq!(Clock::wall().scale(12.5), 12.5);
    }

    #[test]
    fn calibrated_clock_scales_by_the_reference_ratio() {
        let mut c = Clock::calibrated(2);
        c.recent_ns = [50_000.0; WINDOW].into();
        // A last timing in the future is never due for a refresh.
        c.last = Instant::now() + Duration::from_secs(3600);
        assert_eq!(c.scale(10.0), 5.0, "a host at half speed reads half");
    }
}
