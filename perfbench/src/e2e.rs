//! End-to-end runs (tracing off): what a user of the simulator or of the
//! served device sees.

use std::time::Instant;

use flash_sim::experiments::paper_workload;
use flash_sim::service::{Service, ServiceConfig, ServiceRun};
use flash_sim::{LayerKind, SimConfig, Simulator, StopCondition, StripedLayer, StripedReport};
use flash_trace::{Op, TraceEvent};

use crate::drive::{drive, verify, Shadow, Tally};
use crate::inputs::{self, Device, Served, Workload};
use crate::measure::{
    host_speed, median, ns_between, peak_rss_mb, reserve_reference, windowed_percentile, Cpu,
    Reference, Spans, Windows, WINDOWS_PER_SECOND,
};
use crate::Outcome;

/// Nominal wall seconds of one lifetime run on a 2-CPU host: `--seconds`
/// buys this many seconds per repetition.
const LIFETIME_REP_SECONDS: u64 = 4;

/// One in this many trace events of the lifetime run is timed.
const LIFETIME_SAMPLE_EVERY: u64 = 32;

/// Trace events per timing window of the lifetime run (about a quarter of
/// a second on a 2-CPU host).
const LIFETIME_WINDOW_EVENTS: u64 = 1 << 20;

/// Lifetime set-ups (layer and trace builds) per repetition; the median
/// build time is the repetition's set-up time.
const LIFETIME_SETUPS: usize = 9;

/// Served set-ups per run (the last one is timed; the others give
/// `setup_s` samples and the device counters at the end of set-up).
const SERVED_SETUPS: usize = 5;

/// Stretches a served set-up is timed and calibrated in.
const SETUP_WINDOWS: usize = 8;

/// Raw per-event wall-clock samples and timing windows of the lifetime
/// run, pooled over its repetitions. The sample vectors are reserved up
/// front, so that the peak RSS does not depend on where a vector's
/// doubling lands (untouched capacity is not resident).
#[derive(Default)]
pub struct Samples {
    pub write_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    /// Full windows of [`LIFETIME_WINDOW_EVENTS`] timed events; the partial
    /// window at the end of each repetition is dropped.
    pub windows: Windows,
    /// Timed events so far.
    pub events: u64,
}

impl Samples {
    fn with_capacity(n: usize) -> Self {
        Self {
            write_ns: Vec::with_capacity(n),
            read_ns: Vec::with_capacity(n),
            ..Self::default()
        }
    }
}

/// Wraps the lifetime trace: keeps a shadow of the token each written page
/// carries (the simulator numbers page writes 1, 2, … in trace order),
/// times a sampled share of the events — each sample spans from handing an
/// event to the runner until the runner asks for the next one — and closes
/// a timing window every [`LIFETIME_WINDOW_EVENTS`] timed events.
pub struct Sampled<'a, I> {
    inner: I,
    timing: bool,
    n: u64,
    token: u64,
    pub shadow: Vec<u32>,
    pending: Option<(Instant, Op)>,
    samples: Samples,
    spans: Option<&'a mut Spans>,
}

impl<'a, I> Sampled<'a, I> {
    pub fn new(inner: I, logical_pages: u64, spans: Option<&'a mut Spans>) -> Self {
        Self {
            inner,
            timing: false,
            n: 0,
            token: 0,
            shadow: vec![0; logical_pages as usize],
            pending: None,
            samples: Samples::default(),
            spans,
        }
    }

    /// Starts timing sampled events into `samples` (set-up events are not
    /// timed).
    pub fn start_timing(&mut self, mut samples: Samples) {
        self.timing = true;
        samples.windows.restart(samples.events);
        self.samples = samples;
    }
}

impl<I: Iterator<Item = TraceEvent>> Iterator for Sampled<'_, I> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        if let Some((start, op)) = self.pending.take() {
            let end = Instant::now();
            let ns = ns_between(start, end);
            match op {
                Op::Write => self.samples.write_ns.push(ns),
                Op::Read => self.samples.read_ns.push(ns),
            }
            if let Some(spans) = self.spans.as_deref_mut() {
                if spans.sampled(self.n - 1) {
                    spans.op("sim.event", self.n - 1, start, end);
                }
            }
        }
        if self.timing {
            if self.samples.events > 0 && self.samples.events.is_multiple_of(LIFETIME_WINDOW_EVENTS)
            {
                self.samples.windows.mark(self.samples.events);
            }
            self.samples.events += 1;
        }
        let event = self.inner.next()?;
        if event.op == Op::Write {
            for lba in event.pages() {
                self.token += 1;
                self.shadow[lba as usize] = u32::try_from(self.token).expect("token fits u32");
            }
        }
        if self.timing && self.n.is_multiple_of(LIFETIME_SAMPLE_EVERY) {
            self.pending = Some((Instant::now(), event.op));
        }
        self.n += 1;
        Some(event)
    }
}

/// One run of the paper trace to first failure on the paper chip.
pub struct LifetimeRun {
    /// Median set-up time, calibrated to the host's speed.
    pub setup_s: f64,
    /// Median set-up time as measured.
    pub raw_setup_s: f64,
    pub elapsed_s: f64,
    pub cpu: Cpu,
    pub report: StripedReport,
    pub samples: Samples,
    /// Pages read back after the run, and how many disagreed.
    pub verified: u64,
    pub mismatched: u64,
}

pub fn striped(dev: &Device) -> StripedLayer {
    StripedLayer::build(
        LayerKind::Ftl,
        dev.geometry(),
        dev.spec(),
        Some(dev.swl),
        inputs::COORDINATION,
        &SimConfig::default(),
    )
    .expect("striped layer builds")
}

/// The lifetime run's set-up: builds the layer and the trace and runs the
/// trace's one-time fill of the footprint. Done `LIFETIME_SETUPS` times;
/// returns the median time (calibrated, then raw) and the last build,
/// ready for the timed part.
#[allow(clippy::type_complexity)]
fn lifetime_setup<'a>(
    dev: &Device,
    seed: u64,
    samples: Samples,
    spans: Option<&'a mut Spans>,
) -> (
    (f64, f64),
    Simulator,
    StripedLayer,
    Sampled<'a, impl Iterator<Item = TraceEvent>>,
) {
    let (mut times, mut raw) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..LIFETIME_SETUPS {
        drop(built.take());
        let start = Instant::now();
        let mut striped = striped(dev);
        let logical = striped.logical_pages();
        let mut trace = Sampled::new(inputs::paper_trace(logical, seed), logical, None);
        let mut sim = Simulator::new();
        let fill = paper_workload(logical, seed).footprint_pages();
        sim.run_striped(
            &mut striped,
            (&mut trace).take(fill as usize),
            StopCondition::default(),
        )
        .expect("the fill completes");
        let secs = start.elapsed().as_secs_f64();
        raw.push(secs);
        times.push(secs * host_speed(Reference::Memory));
        built = Some((sim, striped, trace));
    }
    let (sim, striped, mut trace) = built.expect("LIFETIME_SETUPS > 0");
    trace.spans = spans;
    trace.start_timing(samples);
    ((median(&times), median(&raw)), sim, striped, trace)
}

/// One lifetime repetition; its samples are appended to `samples`.
pub fn lifetime_run(seed: u64, samples: Samples, spans: Option<&mut Spans>) -> LifetimeRun {
    let dev = Workload::SimLifetime.device(seed);
    let ((setup_s, raw_setup_s), mut sim, mut striped, mut trace) =
        lifetime_setup(&dev, seed, samples, spans);
    let logical = striped.logical_pages();

    let stop = StopCondition::events(lifetime_event_cap(seed)).or_first_failure();
    let cpu = Cpu::now();
    let start = Instant::now();
    let report = sim
        .run_striped(&mut striped, &mut trace, stop)
        .expect("lifetime run completes");
    let elapsed_s = start.elapsed().as_secs_f64();
    let cpu = Cpu::now().since(cpu);

    let mut mismatched = 0;
    for lba in 0..logical {
        let want = trace.shadow[lba as usize];
        let got = striped.read(lba).ok().flatten();
        if got != (want != 0).then_some(u64::from(want)) {
            mismatched += 1;
        }
    }
    LifetimeRun {
        setup_s,
        raw_setup_s,
        elapsed_s,
        cpu,
        report,
        samples: trace.samples,
        verified: logical,
        mismatched,
    }
}

/// The safety cap of `experiments::first_failure_run`: enough writes to
/// erase every block to its endurance several times over.
pub fn lifetime_event_cap(seed: u64) -> u64 {
    let dev = Workload::SimLifetime.device(seed);
    dev.pages() * u64::from(dev.scale.endurance) * 4
}

/// The counters two runs of identical inputs must agree on.
pub fn same_device_result(a: &StripedReport, b: &StripedReport) -> bool {
    a.events == b.events
        && a.counters == b.counters
        && a.device == b.device
        && a.erase_stats == b.erase_stats
        && a.first_failure == b.first_failure
}

pub fn sim_lifetime(seed: u64, seconds: u64) -> Outcome {
    reserve_reference();
    let mut out = Outcome::default();
    let reps = (seconds / LIFETIME_REP_SECONDS).max(1);
    let most = reps * lifetime_event_cap(seed) / LIFETIME_SAMPLE_EVERY;
    let mut samples = Samples::with_capacity(most as usize);
    let mut runs = Vec::new();
    for _ in 0..reps {
        let mut run = lifetime_run(seed, samples, None);
        samples = std::mem::take(&mut run.samples);
        runs.push(run);
    }
    let first = &runs[0].report;
    let windows = samples.windows.rates.len();
    if windows == 0 {
        out.fail("the lifetime run is shorter than one timing window");
        return out;
    }
    for run in &runs {
        out.attempted += run.report.events + run.verified;
        out.failed += run.mismatched;
        if !same_device_result(&run.report, first) {
            out.fail("repeated lifetime runs of one seed disagree on device counters");
        }
    }
    if first.counters.swl_erases == 0 {
        out.fail("the SW Leveler never erased: the run measures GC only");
    }
    if first.first_failure.is_none() {
        out.fail("no block wore out before the event cap");
        return out;
    }

    let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let raw_setups: Vec<f64> = runs.iter().map(|r| r.raw_setup_s).collect();
    let marks = &samples.windows;

    out.put("setup_s", median(&setups), "s");
    out.put("ops_per_s", marks.ops_per_s(), "1/s");
    latency(&mut out, "write", &samples.write_ns, &marks.speeds);
    latency(&mut out, "read", &samples.read_ns, &marks.speeds);
    out.put(
        "wa",
        first.device.programs as f64 / first.counters.host_writes as f64,
        "ratio",
    );
    out.put("erase_sd", first.erase_stats.std_dev, "erases");
    out.put("cpu_us_per_op", marks.cpu_us_per_op(), "us");
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");
    raw_timings(&mut out, median(&raw_setups), marks);
    out.detail(
        "first_failure_host_pages",
        first.counters.host_writes as f64,
        "pages",
    );
    out.detail("timed_events", first.events as f64, "count");
    out.detail("swl_erases", first.counters.swl_erases as f64, "count");
    out.detail("repetitions", reps as f64, "count");
    out.detail("windows", windows as f64, "count");
    out
}

/// p50/p99 (µs) of raw samples in time order: the interquartile mean over
/// the timing windows of each window's nearest-rank percentile times the
/// window's host speed, with the sample count and the uncalibrated p50.
/// The p50 is a result metric; the p99 goes on the details line, because
/// on a shared host it follows the host's scheduling more than the
/// program.
fn latency(out: &mut Outcome, kind: &str, samples: &[u64], speeds: &[f64]) {
    if samples.is_empty() {
        out.fail(&format!("no {kind} samples"));
        return;
    }
    let us = |p: f64, scale: &[f64]| windowed_percentile(samples, p, scale) / 1e3;
    out.put(&format!("{kind}_p50_us"), us(50.0, speeds), "us");
    out.detail(&format!("{kind}_p99_us"), us(99.0, speeds), "us");
    let ones = vec![1.0; speeds.len()];
    out.detail(&format!("raw.{kind}_p50_us"), us(50.0, &ones), "us");
    out.detail(&format!("{kind}_samples"), samples.len() as f64, "count");
}

/// The uncalibrated timings and the host speed, on the details line.
fn raw_timings(out: &mut Outcome, setup_s: f64, marks: &Windows) {
    out.detail("raw.setup_s", setup_s, "s");
    out.detail("raw.ops_per_s", marks.raw_ops_per_s(), "1/s");
    out.detail("raw.cpu_us_per_op", marks.raw_cpu_us_per_op(), "us");
    out.detail("host_speed", median(&marks.speeds), "ratio");
}

/// A served device built and aged through `setup_ops`, with the shadow of
/// every value the set-up wrote.
pub struct Aged {
    pub service: Service,
    pub shadow: Shadow,
    /// Set-up time, calibrated to the host's speed.
    pub setup_s: f64,
    /// Set-up time as measured.
    pub raw_setup_s: f64,
    pub failed: u64,
    pub attempted: u64,
}

pub fn build_service(dev: &Device, config: ServiceConfig) -> Service {
    Service::build(
        LayerKind::Ftl,
        dev.geometry(),
        dev.spec(),
        Some(dev.swl),
        inputs::COORDINATION,
        &SimConfig::default(),
        config,
    )
    .expect("service builds")
}

pub fn served_config(s: &Served, cache: bool) -> ServiceConfig {
    let config = ServiceConfig::default().with_engine(s.engine());
    if cache {
        config.with_cache(s.cache())
    } else {
        config
    }
}

/// Builds the workload's device and ages it through a client handle, like
/// the timed phase (set-up time).
/// The set-up is timed in [`SETUP_WINDOWS`] stretches of its ops, each
/// calibrated by the host speed measured right after it.
pub fn age(w: Workload, seed: u64, setup_ops: &[inputs::HostOp]) -> Aged {
    let s = w.served().expect("served workload");
    let (mut raw_s, mut setup_s) = (0.0, 0.0);
    let mut start = Instant::now();
    let service = build_service(&w.device(seed), served_config(&s, true));
    let mut shadow = Shadow::new(service.logical_pages());
    let mut tally = Tally::default();
    let (server, mut clients) = service.serve(1);
    let chunk = setup_ops.len().div_ceil(SETUP_WINDOWS).max(1);
    for (i, ops) in setup_ops.chunks(chunk).enumerate() {
        drive(
            &mut clients[0],
            ops,
            i * chunk,
            &mut shadow,
            &mut tally,
            None,
        );
        if (i + 1) * chunk < setup_ops.len() {
            let secs = start.elapsed().as_secs_f64();
            (raw_s, setup_s) = (
                raw_s + secs,
                setup_s + secs * host_speed(Reference::MemoryAndHandoff),
            );
            start = Instant::now();
        }
    }
    drop(clients);
    let service = server.join();
    let secs = start.elapsed().as_secs_f64();
    (raw_s, setup_s) = (
        raw_s + secs,
        setup_s + secs * host_speed(Reference::MemoryAndHandoff),
    );
    Aged {
        service,
        shadow,
        setup_s,
        raw_setup_s: raw_s,
        failed: tally.failed,
        attempted: tally.attempted,
    }
}

/// The inputs of a served workload: set-up ops and timed ops.
pub fn served_inputs(
    w: Workload,
    seed: u64,
    seconds: u64,
) -> (Vec<inputs::HostOp>, Vec<inputs::HostOp>) {
    let s = w.served().expect("served workload");
    let pages = w.device(seed).pages();
    let count = seconds as usize * s.ops_per_second;
    (s.setup_ops(pages, seed), s.timed_ops(pages, count, seed))
}

/// The timed phase of a served run and its accounting.
pub struct ServedRun {
    pub tally: Tally,
    pub elapsed_s: f64,
    /// Rate and CPU cost of each equal window of the timed ops.
    pub windows: Windows,
    pub cpu: Cpu,
    pub run: ServiceRun,
}

/// Serves `aged` to one client thread (this one), drives `timed` in
/// `windows` equal windows, then flushes and reads the whole footprint
/// back.
pub fn served_phase(
    aged: Aged,
    timed: &[inputs::HostOp],
    windows: usize,
    footprint: u64,
    spans: Option<&mut Spans>,
) -> ServedRun {
    let Aged {
        service,
        mut shadow,
        ..
    } = aged;
    let (server, mut clients) = service.serve(1);
    let client = &mut clients[0];
    let mut tally = Tally::with_capacity(timed.len());
    let mut spans = spans;
    let cpu = Cpu::now();
    let start = Instant::now();
    let mut marks = Windows::start(Reference::MemoryAndHandoff);
    let window = timed.len().div_ceil(windows.max(1));
    for (i, ops) in timed.chunks(window).enumerate() {
        drive(
            client,
            ops,
            i * window,
            &mut shadow,
            &mut tally,
            spans.as_deref_mut(),
        );
        marks.mark((i * window + ops.len()) as u64);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let cpu = Cpu::now().since(cpu);
    tally.attempted += 1;
    if client.flush().is_err() {
        tally.failed += 1;
    }
    let (reads, bad) = verify(client, &shadow, footprint);
    tally.attempted += reads;
    tally.failed += bad;
    drop(clients);
    let run = server.join().finish().expect("service finishes");
    ServedRun {
        tally,
        elapsed_s,
        windows: marks,
        cpu,
        run,
    }
}

pub fn served(w: Workload, seed: u64, seconds: u64) -> Outcome {
    reserve_reference();
    let s = w.served().expect("served workload");
    let mut out = Outcome::default();
    let (setup_ops, timed) = served_inputs(w, seed, seconds);
    let windows = (seconds * WINDOWS_PER_SECOND) as usize;
    let footprint = s.footprint_pages(w.device(seed).pages());

    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut at_setup: Option<StripedReport> = None;
    let mut last = None;
    for i in 0..SERVED_SETUPS {
        let aged = age(w, seed, &setup_ops);
        raw_setups.push(aged.raw_setup_s);
        setups.push(aged.setup_s);
        out.attempted += aged.attempted;
        out.failed += aged.failed;
        if i + 1 < SERVED_SETUPS {
            let report = aged.service.finish().expect("service finishes").run.report;
            match &at_setup {
                None => at_setup = Some(report),
                Some(first) if !same_device_result(first, &report) => {
                    out.fail("repeated set-ups of one seed disagree on device counters")
                }
                Some(_) => {}
            }
        } else {
            last = Some(aged);
        }
    }
    let aged = last.expect("the last set-up is kept");
    let at_setup = at_setup.expect("SERVED_SETUPS > 1");
    if at_setup.counters.gc_erases == 0 {
        out.fail("set-up never reached garbage collection");
    }
    let ServedRun {
        tally,
        windows: marks,
        cpu,
        run,
        ..
    } = served_phase(aged, &timed, windows, footprint, None);
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    let end = &run.run.report;
    let gc_in_phase = end.counters.gc_erases - at_setup.counters.gc_erases;
    if gc_in_phase == 0 {
        out.fail("no garbage collection inside the timed phase");
    }
    let programs = end.device.programs - at_setup.device.programs;
    let ops = tally.ops();

    out.put("setup_s", median(&setups), "s");
    out.put("ops_per_s", marks.ops_per_s(), "1/s");
    latency(&mut out, "write", &tally.write_ns, &marks.speeds);
    latency(&mut out, "read", &tally.read_ns, &marks.speeds);
    out.put("wa", programs as f64 / tally.host_pages as f64, "ratio");
    out.put("erase_sd", end.erase_stats.std_dev, "erases");
    out.put("cpu_us_per_op", marks.cpu_us_per_op(), "us");
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");
    raw_timings(&mut out, median(&raw_setups), &marks);
    if !tally.flush_ns.is_empty() {
        out.detail(
            "flush_p50_us",
            windowed_percentile(&tally.flush_ns, 50.0, &marks.speeds) / 1e3,
            "us",
        );
        out.detail("flush_samples", tally.flush_ns.len() as f64, "count");
    }
    out.detail("timed_ops", ops as f64, "count");
    out.detail("erase_mean", end.erase_stats.mean, "erases");
    out.detail("erase_max", end.erase_stats.max as f64, "erases");
    out.detail("erase_min", end.erase_stats.min as f64, "erases");
    out.detail("gc_erases_in_phase", gc_in_phase as f64, "count");
    out.detail("sys_share", cpu.sys_share(), "ratio");
    if let Some(c) = run.cache {
        out.detail("cache_write_hit_rate", c.write_hit_rate(), "ratio");
    }
    out
}
