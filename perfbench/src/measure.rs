//! Measurement helpers: process CPU and memory from `/proc/self`, exact
//! nearest-rank percentiles over raw samples, per-window rates calibrated
//! to the host's speed, and the in-memory span recorder of the traced run.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{mpsc, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// CPU seconds consumed by this process so far (all threads), with
/// nanosecond resolution, unlike the clock ticks of `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User and system CPU seconds consumed by this process so far (all
/// threads, live and exited), from fields 14 and 15 of `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl Cpu {
    pub fn now() -> Self {
        let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
        // The command name (field 2) may hold spaces; the fields after its
        // closing parenthesis start at field 3 (state).
        let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> f64 {
            fields[i - 3]
                .parse::<u64>()
                .expect("stat time fields are integers") as f64
        };
        // SAFETY: sysconf has no preconditions; it only reads a constant.
        let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
        Self {
            user_s: ticks(14) / hz,
            sys_s: ticks(15) / hz,
        }
    }

    /// CPU consumed since `earlier`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Share of the CPU time spent in the kernel (0 when none was spent).
    pub fn sys_share(self) -> f64 {
        let total = self.total_s();
        if total > 0.0 {
            self.sys_s / total
        } else {
            0.0
        }
    }
}

/// Words in the memory kernel's table (32 MiB: about the lifetime
/// simulation's resident set, far past the per-core L2 and sharing the L3
/// with other tenants).
const REFERENCE_WORDS: usize = 1 << 22;

/// Words of the table the served workloads' memory kernel walks (its
/// first 8 MiB: past the per-core L2, like the served device's working
/// set).
const SERVED_REFERENCE_WORDS: usize = 1 << 20;

/// Table updates per memory-kernel measurement (about 11 ms over the whole
/// table, 7 ms over its first 8 MiB).
const REFERENCE_OPS: u64 = 400_000;

/// Thread round trips per hand-off measurement (about 6 ms).
const REFERENCE_ROUND_TRIPS: u64 = 400;

/// The memory kernel's nominal rates, in table updates per second, over
/// the whole table and over its first 8 MiB: its typical rates on the
/// 2-vCPU Xeon host (2.1 GHz) the benchmark was tuned on, which ran it up
/// to 1.5× faster when quiet and 2× slower when busy.
const NOMINAL_UPDATES_PER_S: f64 = 3.6e7;
const SERVED_NOMINAL_UPDATES_PER_S: f64 = 6.0e7;

/// The hand-off kernel's nominal rate, in round trips per second, taken
/// the same way.
const NOMINAL_ROUND_TRIPS_PER_S: f64 = 6.2e4;

static REFERENCE_TABLE: OnceLock<Mutex<Vec<u64>>> = OnceLock::new();

/// The benchmark-owned kernels a workload's timings are calibrated by,
/// chosen by what the workload's time goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Dependent random read-modify-writes over a 32 MiB table: the
    /// lifetime simulation, which is memory-bound on one thread.
    Memory,
    /// The same updates over the table's first 8 MiB, then round trips
    /// between two threads over channels: the served device, whose ops are
    /// cross-thread hand-offs to the engine as well as FTL work over a
    /// smaller working set.
    MemoryAndHandoff,
}

/// The host's current speed relative to the nominal host: runs the
/// `reference` kernels (fixed work that uses no repository code) and
/// returns their nominal time over their measured time.
///
/// On a shared host the same build runs up to 2× slower while other
/// tenants load the machine, for spells of seconds to minutes. Each timing
/// is divided by (or, for a duration, multiplied by) the speed measured
/// right after it, which cancels most of that; a change to the program
/// moves calibrated figures as it moves raw ones, since the kernels are the
/// same on every commit. Calibrated timings read as they would on the
/// nominal host.
pub fn host_speed(reference: Reference) -> f64 {
    let (nominal_s, measured_s) = match reference {
        Reference::Memory => (
            REFERENCE_OPS as f64 / NOMINAL_UPDATES_PER_S,
            memory_kernel_s(REFERENCE_WORDS),
        ),
        Reference::MemoryAndHandoff => (
            REFERENCE_OPS as f64 / SERVED_NOMINAL_UPDATES_PER_S
                + REFERENCE_ROUND_TRIPS as f64 / NOMINAL_ROUND_TRIPS_PER_S,
            memory_kernel_s(SERVED_REFERENCE_WORDS) + handoff_kernel_s(),
        ),
    };
    nominal_s / measured_s
}

/// Seconds [`REFERENCE_OPS`] updates of the table's first `words` words
/// take. The indices are reduced by division by `words`, hidden from the
/// optimiser, so that the kernel mixes integer latency with memory
/// latency, as the simulator does. So built, it tracked the lifetime run's
/// slow spells better than the same kernel over 8 MiB with masked indices.
fn memory_kernel_s(words: usize) -> f64 {
    let mut t = reference_table()
        .lock()
        .expect("the reference table is not poisoned");
    let n = std::hint::black_box(words.min(t.len()));
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let start = Instant::now();
    for _ in 0..REFERENCE_OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) % n;
        let j = (t[i] as usize ^ i) % n;
        t[j] = t[j].wrapping_add(x).rotate_left(7) ^ t[i];
    }
    start.elapsed().as_secs_f64()
}

/// The memory kernel's table, allocated and written on first use.
fn reference_table() -> &'static Mutex<Vec<u64>> {
    REFERENCE_TABLE.get_or_init(|| Mutex::new((0..REFERENCE_WORDS as u64).collect()))
}

/// Allocates the memory kernel's table up front, so that it is resident
/// for the whole run and [`peak_rss_mb`] less the table is the program's
/// own peak.
pub fn reserve_reference() {
    reference_table();
}

/// Seconds [`REFERENCE_ROUND_TRIPS`] round trips to an echo thread take
/// (the thread is started before and joined after the timing).
fn handoff_kernel_s() -> f64 {
    let (to_echo, echo_in) = mpsc::channel::<u64>();
    let (echo_out, from_echo) = mpsc::channel::<u64>();
    let echo = thread::spawn(move || {
        while let Ok(v) = echo_in.recv() {
            if echo_out.send(v).is_err() {
                break;
            }
        }
    });
    let start = Instant::now();
    for i in 0..REFERENCE_ROUND_TRIPS {
        to_echo.send(i).expect("the echo thread is running");
        from_echo.recv().expect("the echo thread answers");
    }
    let secs = start.elapsed().as_secs_f64();
    drop(to_echo);
    echo.join().expect("the echo thread exits");
    secs
}

/// Peak resident set size of this process in MiB (`VmHWM`), less the
/// memory kernel's table when it was allocated (see
/// [`reserve_reference`]), so that the figure is the program's and its
/// inputs' alone.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is present in /proc/self/status");
    let table_mb = match REFERENCE_TABLE.get() {
        Some(_) => (REFERENCE_WORDS * 8) as f64 / (1024.0 * 1024.0),
        None => 0.0,
    };
    kib as f64 / 1024.0 - table_mb
}

/// Nearest-rank percentile of raw samples (sorts in place): the smallest
/// sample such that at least `p` percent of all samples are ≤ it.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

/// Timing windows per second of measured work. A run's timings are
/// taken per window, calibrated by the host speed measured at the window's
/// end, and reported as the interquartile mean over its windows:
/// interference from the host (another tenant, a descheduled CPU) that
/// hits a quarter of a run's windows or less does not move the figure.
pub const WINDOWS_PER_SECOND: u64 = 4;

/// The interquartile mean, over equal consecutive windows of `samples` (in
/// time order), of each window's nearest-rank `p` percentile times the
/// window's factor in `scale` (one window per factor).
pub fn windowed_percentile(samples: &[u64], p: f64, scale: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(!scale.is_empty(), "no windows");
    let per_window: Vec<f64> = samples
        .chunks(samples.len().div_ceil(scale.len()))
        .zip(scale)
        .map(|(w, k)| percentile(&mut w.to_vec(), p) as f64 * k)
        .collect();
    interquartile_mean(&per_window)
}

/// Per-window throughput, CPU cost and host speed of a timed phase: the
/// caller marks the end of each window with the ops done so far.
#[derive(Debug)]
pub struct Windows {
    wall: Instant,
    cpu_s: f64,
    ops: u64,
    /// Ops per wall second of each window.
    pub rates: Vec<f64>,
    /// Process CPU seconds per op of each window.
    pub cpu_per_op: Vec<f64>,
    /// [`host_speed`] measured at the end of each window.
    pub speeds: Vec<f64>,
    reference: Reference,
}

impl Windows {
    /// Starts the first window now; windows are calibrated by `reference`.
    pub fn start(reference: Reference) -> Self {
        Self {
            reference,
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
            ops: 0,
            rates: Vec::new(),
            cpu_per_op: Vec::new(),
            speeds: Vec::new(),
        }
    }

    /// Starts a new window now without closing the current one, e.g.
    /// after untimed work between two timed stretches.
    pub fn restart(&mut self, ops: u64) {
        self.wall = Instant::now();
        self.cpu_s = process_cpu_s();
        self.ops = ops;
    }

    /// Closes the current window at `ops` ops done, measures the host
    /// speed, and opens the next window after that measurement.
    pub fn mark(&mut self, ops: u64) {
        let (wall, cpu_s) = (Instant::now(), process_cpu_s());
        let n = ops - self.ops;
        if n > 0 {
            self.rates
                .push(n as f64 / wall.duration_since(self.wall).as_secs_f64());
            self.cpu_per_op.push((cpu_s - self.cpu_s) / n as f64);
            self.speeds.push(host_speed(self.reference));
        }
        self.restart(ops);
    }

    /// Ops per wall second, calibrated: the interquartile mean over the
    /// windows of rate ÷ speed.
    pub fn ops_per_s(&self) -> f64 {
        let v: Vec<f64> = self
            .rates
            .iter()
            .zip(&self.speeds)
            .map(|(r, k)| r / k)
            .collect();
        interquartile_mean(&v)
    }

    /// Process CPU microseconds per op, calibrated: the interquartile mean
    /// over the windows of CPU per op × speed.
    pub fn cpu_us_per_op(&self) -> f64 {
        let v: Vec<f64> = self
            .cpu_per_op
            .iter()
            .zip(&self.speeds)
            .map(|(c, k)| c * k)
            .collect();
        interquartile_mean(&v) * 1e6
    }

    /// Uncalibrated [`Windows::ops_per_s`].
    pub fn raw_ops_per_s(&self) -> f64 {
        interquartile_mean(&self.rates)
    }

    /// Uncalibrated [`Windows::cpu_us_per_op`].
    pub fn raw_cpu_us_per_op(&self) -> f64 {
        interquartile_mean(&self.cpu_per_op) * 1e6
    }
}

impl Default for Windows {
    fn default() -> Self {
        Self::start(Reference::Memory)
    }
}

/// Mean of the middle half of a non-empty list: a quarter of the values
/// (rounded down) is dropped from each end.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Median of a non-empty list (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Wall-clock nanoseconds from `start` to `end`.
pub fn ns_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// One recorded span: a named wall-clock interval, the span that caused
/// it, and the host op it belongs to (`None` for phase spans).
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: Option<u64>,
}

/// Spans kept in memory for the traced run and written out when it ends.
/// Phase spans wrap each workload phase or ledger level; op spans wrap a
/// sampled one-in-`every` share of the calls made inside a phase.
pub struct Spans {
    epoch: Instant,
    every: u64,
    spans: Vec<Span>,
    open_phase: Option<usize>,
}

impl Spans {
    pub fn new(every: u64) -> Self {
        Self {
            epoch: Instant::now(),
            every: every.max(1),
            spans: Vec::new(),
            open_phase: None,
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        ns_between(self.epoch, Instant::now())
    }

    /// Opens a phase span; op spans recorded until [`Spans::end_phase`]
    /// name it as their parent.
    pub fn begin_phase(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            op: None,
        });
        self.open_phase = Some(self.spans.len() - 1);
    }

    pub fn end_phase(&mut self) {
        if let Some(i) = self.open_phase.take() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Whether op `op` is in the sampled share.
    #[inline]
    pub fn sampled(&self, op: u64) -> bool {
        op.is_multiple_of(self.every)
    }

    /// Records an op span from `start` to `end`.
    pub fn op(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (ns_between(self.epoch, start), ns_between(self.epoch, end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open_phase,
            op: Some(op),
        });
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let null_or = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let parent = null_or(s.parent.map(|p| p as u64));
            let op = null_or(s.op);
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile(&mut [7], 99.0), 7);
    }

    #[test]
    fn windowed() {
        // Ten windows of 1..=100; one stalled window does not move p99.
        let mut v: Vec<u64> = (0..10).flat_map(|_| 1..=100).collect();
        v[950] = 1_000_000;
        let ones = [1.0; 10];
        assert_eq!(windowed_percentile(&v, 99.0, &ones), 99.0);
        assert_eq!(windowed_percentile(&v, 50.0, &ones), 50.0);
        assert_eq!(windowed_percentile(&[5, 7], 50.0, &[1.0, 2.0]), 9.5);
    }

    #[test]
    fn window_marks() {
        let mut w = Windows::start(Reference::MemoryAndHandoff);
        w.mark(100);
        w.mark(100); // an empty window is skipped
        w.mark(300);
        assert_eq!(w.rates.len(), 2);
        assert_eq!(w.speeds.len(), 2);
        assert!(w.rates.iter().all(|r| r.is_finite() && *r > 0.0));
        assert!(w.speeds.iter().all(|k| k.is_finite() && *k > 0.0));
        assert!(process_cpu_s() > 0.0);
    }

    #[test]
    fn medians() {
        assert_eq!(interquartile_mean(&[100.0, 2.0, 4.0, 0.0]), 3.0);
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
