//! The per-layer cost ledger (`--trace 1`).
//!
//! The workload's own inputs are replayed from a fresh device at increasing
//! depths of the stack, each level timed around calls into that layer's
//! public functions:
//!
//! ```text
//! single chip:  trace → nand → ftl (no SWL) → core (Layer + SWL) → sim.striped 1ch
//! 4 channels:   sim.striped 4ch → sim.engine {1,2} threads × QD {1,64}
//!               → sim.service in-process → served (cache off) → served (cache on)
//! ```
//!
//! A level's self time is its time minus the level below on the same ops.
//! Levels fed identical inputs must agree on the device counters; the
//! service levels also check every read against a shadow map. The traced
//! run also repeats the workload phase with and without sampled spans and
//! reports the difference as the tracing overhead; the spans are written to
//! `perfbench/out/` when the run ends.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use flash_sim::service::ServiceRun;
use flash_sim::{
    Engine, EngineConfig, Layer, LayerCounters, LayerKind, SimConfig, Simulator, StopCondition,
    StripedReport, TranslationLayer,
};
use flash_telemetry::{Cause, Event, Sink};
use flash_trace::TraceEvent;
use ftl::{FtlConfig, PageMappedFtl};
use nand::{DeviceCounters, NandDevice, PageAddr, SpareArea};

use crate::drive::{drive, Shadow, Tally};
use crate::e2e;
use crate::inputs::{self, Device, HostOp, Workload};
use crate::measure::{Cpu, Spans};
use crate::Outcome;

/// One in this many calls inside a level gets an op span.
const SPAN_EVERY: u64 = 1024;

/// Lifetime-trace events replayed by the single-chip levels (fill, GC and
/// SWL steady state) and by the 4-channel levels (mostly the fill: the
/// threaded levels cost microseconds per op).
const LIFETIME_OPS_CHIP: usize = 4_000_000;
const LIFETIME_OPS_LANES: usize = 250_000;

/// Timed ops of a served workload replayed by the 4-channel levels (after
/// all of its set-up ops); the single-chip levels replay every timed op.
const SERVED_TIMED_OPS_LANES: usize = 150_000;

/// The counters every level of one group must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    programs: u64,
    erases: u64,
    gc_erases: u64,
    swl_erases: u64,
    gc_copies: u64,
    swl_copies: u64,
}

impl Counts {
    fn of(layer: &LayerCounters, device: &DeviceCounters) -> Self {
        Self {
            programs: device.programs,
            erases: device.erases,
            gc_erases: layer.gc_erases,
            swl_erases: layer.swl_erases,
            gc_copies: layer.gc_live_copies,
            swl_copies: layer.swl_live_copies,
        }
    }

    fn of_report(r: &StripedReport) -> Self {
        Self::of(&r.counters, &r.device)
    }
}

/// Captures the physical op log (programs, erases, live copies) of a run.
#[derive(Default)]
struct Capture {
    log: Vec<u64>,
}

const PROGRAM: u64 = 0;
const ERASE: u64 = 1;
const COPY: u64 = 2;

fn entry(tag: u64, block: u32, arg: u32) -> u64 {
    tag << 62 | u64::from(block) << 32 | u64::from(arg)
}

fn cause_code(cause: Cause) -> u32 {
    match cause {
        Cause::Gc => 0,
        Cause::Swl => 1,
        Cause::External => 2,
    }
}

fn cause_of(code: u32) -> Cause {
    match code {
        0 => Cause::Gc,
        1 => Cause::Swl,
        _ => Cause::External,
    }
}

impl Sink for Capture {
    fn event(&mut self, event: Event) {
        match event {
            Event::Program { block, page } => self.log.push(entry(PROGRAM, block, page)),
            Event::Erase { block, cause, .. } => {
                self.log.push(entry(ERASE, block, cause_code(cause)))
            }
            Event::LiveCopy { from_block, .. } => self.log.push(entry(COPY, from_block, 0)),
            _ => {}
        }
    }
}

/// Replays a captured log on a bare device: programs and erases as logged,
/// and each live copy as a read of its source block (page 0, which is
/// programmed whenever a block is a copy source). Returns failed ops.
fn replay_nand(device: &mut NandDevice, log: &[u64], spans: &mut Spans) -> u64 {
    let mut failed = 0;
    for (i, &e) in log.iter().enumerate() {
        let start = spans.sampled(i as u64).then(Instant::now);
        let block = (e >> 32 & 0x3FFF_FFFF) as u32;
        let arg = e as u32;
        let ok = match e >> 62 {
            PROGRAM => device
                .program(
                    PageAddr::new(block, arg),
                    i as u64,
                    SpareArea::valid(i as u64),
                )
                .is_ok(),
            ERASE => device.erase_as(block, cause_of(arg)).is_ok(),
            _ => device.read(PageAddr::new(block, 0)).map(black_box).is_ok(),
        };
        if !ok {
            failed += 1;
        }
        if let Some(start) = start {
            spans.op("nand.op", i as u64, start, Instant::now());
        }
    }
    failed
}

/// Drives a translation layer page by page; writes carry tokens numbered
/// 1, 2, … in page order, exactly as the simulator assigns them. Returns
/// failed page ops.
fn replay_layer<L: TranslationLayer>(
    layer: &mut L,
    ops: &[HostOp],
    name: &'static str,
    spans: &mut Spans,
) -> u64 {
    let mut token = 0;
    let mut failed = 0;
    for (i, op) in ops.iter().enumerate() {
        let start = spans.sampled(i as u64).then(Instant::now);
        match *op {
            HostOp::Write { lba, len } => {
                for lba in u64::from(lba)..u64::from(lba) + u64::from(len) {
                    token += 1;
                    failed += u64::from(layer.write(lba, token).is_err());
                }
            }
            HostOp::Read { lba, len } => {
                for lba in u64::from(lba)..u64::from(lba) + u64::from(len) {
                    failed += u64::from(black_box(layer.read(lba)).is_err());
                }
            }
            HostOp::Flush => {}
        }
        if let Some(start) = start {
            spans.op(name, i as u64, start, Instant::now());
        }
    }
    failed
}

/// The ops as simulator trace events (flushes dropped), stamped with the
/// service's logical clock (1 µs per op).
fn events(ops: &[HostOp]) -> impl Iterator<Item = TraceEvent> + '_ {
    ops.iter().enumerate().filter_map(|(i, op)| {
        let at = (i as u64 + 1) * 1_000;
        match *op {
            HostOp::Write { lba, len } => {
                Some(TraceEvent::write_span(at, u64::from(lba), u32::from(len)))
            }
            HostOp::Read { lba, len } => {
                Some(TraceEvent::read_span(at, u64::from(lba), u32::from(len)))
            }
            HostOp::Flush => None,
        }
    })
}

/// Spans every `SPAN_EVERY`-th event handed to the striped runner.
struct Traced<'a, I> {
    inner: I,
    n: u64,
    pending: Option<Instant>,
    name: &'static str,
    spans: &'a mut Spans,
}

impl<'a, I> Traced<'a, I> {
    fn new(inner: I, name: &'static str, spans: &'a mut Spans) -> Self {
        Self {
            inner,
            n: 0,
            pending: None,
            name,
            spans,
        }
    }
}

impl<I: Iterator<Item = TraceEvent>> Iterator for Traced<'_, I> {
    type Item = TraceEvent;
    fn next(&mut self) -> Option<TraceEvent> {
        if let Some(start) = self.pending.take() {
            self.spans.op(self.name, self.n - 1, start, Instant::now());
        }
        let event = self.inner.next()?;
        if self.spans.sampled(self.n) {
            self.pending = Some(Instant::now());
        }
        self.n += 1;
        Some(event)
    }
}

fn engine_for(dev: &Device, config: EngineConfig) -> Engine {
    Engine::new(
        LayerKind::Ftl,
        dev.geometry(),
        dev.spec(),
        Some(dev.swl),
        inputs::COORDINATION,
        &SimConfig::default(),
        config,
    )
    .expect("engine builds")
}

/// Submits the ops to the engine (flushes become barriers) and drains it.
fn replay_engine(
    engine: &mut Engine,
    ops: &[HostOp],
    name: &'static str,
    spans: &mut Spans,
) -> u64 {
    let mut failed = 0;
    for (i, op) in ops.iter().enumerate() {
        let start = spans.sampled(i as u64).then(Instant::now);
        let at = (i as u64 + 1) * 1_000;
        let result = match *op {
            HostOp::Write { lba, len } => {
                engine.submit(TraceEvent::write_span(at, u64::from(lba), u32::from(len)))
            }
            HostOp::Read { lba, len } => {
                engine.submit(TraceEvent::read_span(at, u64::from(lba), u32::from(len)))
            }
            HostOp::Flush => engine.flush(),
        };
        failed += u64::from(result.is_err());
        if let Some(start) = start {
            spans.op(name, i as u64, start, Instant::now());
        }
    }
    failed + u64::from(engine.flush().is_err())
}

/// Accumulates the ledger's metrics and per-level accounting.
struct Ledger {
    out: Outcome,
    spans: Spans,
}

impl Ledger {
    /// Runs one level inside a phase span, with its wall time and CPU.
    fn level<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        self.spans.begin_phase(name);
        let cpu = Cpu::now();
        let start = Instant::now();
        let result = f(&mut self.spans);
        let elapsed = start.elapsed().as_secs_f64();
        let cpu = Cpu::now().since(cpu);
        self.spans.end_phase();
        self.out
            .put(&format!("proc.{name}.user_s"), cpu.user_s, "s");
        self.out.put(&format!("proc.{name}.sys_s"), cpu.sys_s, "s");
        (result, elapsed)
    }

    fn check(&mut self, ok: bool, why: &str) {
        if !ok {
            self.out.fail(why);
        }
    }

    fn ops_failed(&mut self, attempted: u64, failed: u64) {
        self.out.attempted += attempted;
        self.out.failed += failed;
    }
}

fn ns_per(secs: f64, n: u64) -> f64 {
    secs * 1e9 / n.max(1) as f64
}

fn host_pages(ops: &[HostOp]) -> (u64, u64) {
    ops.iter().fold((0, 0), |(w, r), op| match *op {
        HostOp::Write { len, .. } => (w + u64::from(len), r),
        HostOp::Read { len, .. } => (w, r + u64::from(len)),
        HostOp::Flush => (w, r),
    })
}

pub fn run(w: Workload, seed: u64, seconds: u64) -> Outcome {
    let mut l = Ledger {
        out: Outcome::default(),
        spans: Spans::new(SPAN_EVERY),
    };
    workload_phase(&mut l, w, seed, seconds);

    // Inputs: the generation level, then the op lists both groups replay.
    let chip_dev = w.device(seed).with_channels(1);
    let lanes_dev = w.device(seed).with_channels(4);
    // The single-chip levels replay every op, the 4-channel ones a prefix.
    let (ops, lanes) = match w {
        Workload::SimLifetime => {
            let (ops, secs) = l.level("trace", |_| {
                inputs::paper_trace(chip_dev.pages(), seed)
                    .take(LIFETIME_OPS_CHIP)
                    .map(|e| HostOp::from_event(&e))
                    .collect::<Vec<_>>()
            });
            l.out
                .put("trace.ns_per_event", ns_per(secs, ops.len() as u64), "ns");
            (ops, LIFETIME_OPS_LANES)
        }
        _ => {
            let ((setup, timed), secs) = l.level("trace", |_| e2e::served_inputs(w, seed, seconds));
            l.out.put(
                "trace.ns_per_event",
                ns_per(secs, (setup.len() + timed.len()) as u64),
                "ns",
            );
            let lanes = setup.len() + timed.len().min(SERVED_TIMED_OPS_LANES);
            (setup.into_iter().chain(timed).collect(), lanes)
        }
    };
    l.out
        .detail("ledger.chip_host_ops", ops.len() as f64, "count");
    l.out.detail("ledger.lanes_host_ops", lanes as f64, "count");

    chip_levels(&mut l, &chip_dev, &ops);
    lanes_levels(&mut l, w, &lanes_dev, &ops[..lanes]);

    l.out.detail("tracing.spans", l.spans.len() as f64, "count");
    let path = PathBuf::from(format!("perfbench/out/spans-{}-{seed}.jsonl", w.name()));
    if let Err(e) = l.spans.write_jsonl(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    l.out
}

/// The workload phase twice, untraced then traced: process CPU and the
/// tracing overhead.
fn workload_phase(l: &mut Ledger, w: Workload, seed: u64, seconds: u64) {
    let (untraced, traced, cpu) = match w {
        Workload::SimLifetime => {
            let plain = e2e::lifetime_run(seed, e2e::Samples::default(), None);
            l.spans.begin_phase("workload.traced");
            let spanned = e2e::lifetime_run(seed, e2e::Samples::default(), Some(&mut l.spans));
            l.spans.end_phase();
            l.ops_failed(
                plain.verified + spanned.verified,
                plain.mismatched + spanned.mismatched,
            );
            l.check(
                e2e::same_device_result(&plain.report, &spanned.report),
                "traced lifetime run disagrees with the untraced one",
            );
            let rate = |r: &e2e::LifetimeRun| r.report.events as f64 / r.elapsed_s;
            (rate(&plain), rate(&spanned), plain.cpu)
        }
        _ => {
            let (setup, timed) = e2e::served_inputs(w, seed, seconds);
            let footprint = w
                .served()
                .expect("served workload")
                .footprint_pages(w.device(seed).pages());
            let phase = |spans: Option<&mut Spans>| {
                let aged = e2e::age(w, seed, &setup);
                let (attempted, failed) = (aged.attempted, aged.failed);
                let run = e2e::served_phase(aged, &timed, 1, footprint, spans);
                (run, attempted, failed)
            };
            let (plain, a1, f1) = phase(None);
            l.spans.begin_phase("workload.traced");
            let (spanned, a2, f2) = phase(Some(&mut l.spans));
            l.spans.end_phase();
            l.ops_failed(
                a1 + a2 + plain.tally.attempted + spanned.tally.attempted,
                f1 + f2 + plain.tally.failed + spanned.tally.failed,
            );
            l.check(
                e2e::same_device_result(&plain.run.run.report, &spanned.run.run.report),
                "traced served run disagrees with the untraced one",
            );
            let rate = |r: &e2e::ServedRun| r.tally.ops() as f64 / r.elapsed_s;
            (rate(&plain), rate(&spanned), plain.cpu)
        }
    };
    l.out.put("proc.cpu_user_s", cpu.user_s, "s");
    l.out.put("proc.cpu_sys_s", cpu.sys_s, "s");
    l.out.put("proc.sys_share", cpu.sys_share(), "ratio");
    l.out
        .put("tracing.overhead_frac", untraced / traced - 1.0, "ratio");
}

/// Single-chip levels: nand, ftl (no SWL), core (Layer + SWL), striped 1ch.
fn chip_levels(l: &mut Ledger, dev: &Device, ops: &[HostOp]) {
    let (writes, reads) = host_pages(ops);
    let pages = writes + reads;
    let host_ops = ops.iter().filter(|op| **op != HostOp::Flush).count() as u64;
    let ftl_device = || NandDevice::new(dev.chip(), dev.spec());

    // The physical op log of the FTL level, captured from an instrumented
    // twin of it, replayed on a bare device.
    let mut captured = PageMappedFtl::new(
        ftl_device().with_sink_silent(Capture::default()),
        FtlConfig::default(),
    )
    .expect("capture ftl builds");
    let failed = replay_layer(&mut captured, ops, "capture.op", &mut Spans::new(u64::MAX));
    l.ops_failed(host_ops, failed);
    let captured_counts = Counts::of(&captured.counters(), &captured.device().counters());
    let log = captured.into_device().into_sink().log;

    let mut bare = ftl_device();
    let (failed, nand_secs) = l.level("nand", |spans| replay_nand(&mut bare, &log, spans));
    l.ops_failed(log.len() as u64, failed);
    let nand = bare.counters();
    l.check(
        nand.programs == captured_counts.programs && nand.erases == captured_counts.erases,
        "nand replay disagrees with the captured run on programs or erases",
    );
    l.out
        .put("nand.ns_per_op", ns_per(nand_secs, log.len() as u64), "ns");
    l.out.put("nand.programs", nand.programs as f64, "count");
    l.out.put("nand.erases", nand.erases as f64, "count");
    drop(log);

    let mut ftl = PageMappedFtl::new(ftl_device(), FtlConfig::default()).expect("ftl builds");
    let (failed, ftl_secs) = l.level("ftl", |spans| replay_layer(&mut ftl, ops, "ftl.op", spans));
    l.ops_failed(host_ops, failed);
    let base = ftl.counters();
    l.check(
        Counts::of(&base, &ftl.device().counters()) == captured_counts,
        "the FTL disagrees with its instrumented twin",
    );
    drop(ftl);
    l.out
        .put("ftl.ns_per_host_page", ns_per(ftl_secs, pages), "ns");
    l.out.put(
        "ftl.self_ns_per_host_page",
        ns_per(ftl_secs - nand_secs, pages),
        "ns",
    );
    l.out.put("ftl.gc_erases", base.gc_erases as f64, "count");
    l.out
        .put("ftl.gc_copies", base.gc_live_copies as f64, "count");
    l.out.put(
        "ftl.copies_per_gc_erase",
        base.avg_live_copies_per_gc_erase(),
        "ratio",
    );

    let mut core = Layer::build(
        LayerKind::Ftl,
        ftl_device(),
        Some(dev.swl),
        &SimConfig::default(),
    )
    .expect("core layer builds");
    let (failed, core_secs) = l.level("core", |spans| {
        replay_layer(&mut core, ops, "core.op", spans)
    });
    l.ops_failed(host_ops, failed);
    let swl = core.counters();
    let core_counts = Counts::of(&swl, &core.device().counters());
    drop(core);
    l.out.put(
        "core.swl_ns_per_host_page",
        ns_per(core_secs - ftl_secs, pages),
        "ns",
    );
    l.out.put("core.swl_erases", swl.swl_erases as f64, "count");
    l.out
        .put("core.swl_copies", swl.swl_live_copies as f64, "count");
    // Figures 6 and 7: erases and live copies per host write, over the
    // same ops without SWL.
    let per_write = |n: u64, c: &LayerCounters| n as f64 / c.host_writes.max(1) as f64;
    l.out.put(
        "core.swl_extra_erase_ratio",
        per_write(swl.total_erases(), &swl) / per_write(base.total_erases(), &base) - 1.0,
        "ratio",
    );
    l.out.put(
        "core.swl_extra_copy_ratio",
        per_write(swl.total_live_copies(), &swl) / per_write(base.total_live_copies(), &base) - 1.0,
        "ratio",
    );

    let mut striped = e2e::striped(dev);
    let (report, striped_secs) = l.level("striped_1ch", |spans| {
        let trace = Traced::new(events(ops), "striped_1ch.op", spans);
        Simulator::new().run_striped(&mut striped, trace, StopCondition::default())
    });
    l.out.attempted += host_ops;
    match report {
        Ok(report) => l.check(
            Counts::of_report(&report) == core_counts,
            "striped 1ch disagrees with Layer + SWL",
        ),
        Err(_) => l.out.fail("striped 1ch run failed"),
    }
    l.out.put(
        "sim.striped.ns_per_host_op.1ch",
        ns_per(striped_secs, host_ops),
        "ns",
    );
    l.out.put(
        "sim.striped.self_ns_per_host_op",
        ns_per(striped_secs - core_secs, host_ops),
        "ns",
    );
}

/// Four-channel levels: striped oracle, engine grid, service levels.
fn lanes_levels(l: &mut Ledger, w: Workload, dev: &Device, ops: &[HostOp]) {
    let host_ops = ops.iter().filter(|op| **op != HostOp::Flush).count() as u64;
    let all_ops = ops.len() as u64;

    let mut striped = e2e::striped(dev);
    let (report, secs) = l.level("striped_4ch", |spans| {
        let trace = Traced::new(events(ops), "striped_4ch.op", spans);
        Simulator::new().run_striped(&mut striped, trace, StopCondition::default())
    });
    drop(striped);
    l.out.attempted += host_ops;
    let Ok(report) = report else {
        l.out.fail("striped 4ch run failed");
        return;
    };
    let oracle = Counts::of_report(&report);
    let oracle_ns = ns_per(secs, host_ops);
    l.out.put("sim.striped.ns_per_host_op.4ch", oracle_ns, "ns");

    let s = w.ledger_service();
    let mut engine_ns = Vec::new();
    for (threads, qd, name) in [
        (1, 1, "engine_t1_qd1"),
        (1, 64, "engine_t1_qd64"),
        (2, 1, "engine_t2_qd1"),
        (2, 64, "engine_t2_qd64"),
    ] {
        let config = EngineConfig::default()
            .with_threads(threads)
            .with_queue_depth(qd);
        let mut engine = engine_for(dev, config);
        let (failed, secs) = l.level(name, |spans| replay_engine(&mut engine, ops, name, spans));
        l.ops_failed(all_ops, failed);
        match engine.finish() {
            Ok(run) => l.check(
                Counts::of_report(&run.report) == oracle,
                "an engine level disagrees with the striped oracle",
            ),
            Err(_) => l.out.fail("an engine level failed"),
        }
        let ns = ns_per(secs, all_ops);
        l.out.put(
            &format!("sim.engine.ns_per_host_op.t{threads}_qd{qd}"),
            ns,
            "ns",
        );
        engine_ns.push(((threads, qd), ns));
    }
    let engine_at = |t: u32, q: usize| {
        engine_ns
            .iter()
            .find(|((et, eq), _)| *et == t && *eq == q)
            .map(|(_, ns)| *ns)
            .expect("engine grid covers the workload's configuration")
    };
    l.out.put(
        "ledger.engine_over_oracle",
        engine_at(1, 64) / oracle_ns,
        "ratio",
    );

    // Wall-clock engine metrics at the service's configuration (a run of
    // its own: the metrics layer is off in the timed levels).
    let mut engine = engine_for(dev, s.engine().with_metrics(true));
    let failed = replay_engine(
        &mut engine,
        ops,
        "engine_metrics.op",
        &mut Spans::new(u64::MAX),
    );
    l.ops_failed(all_ops, failed);
    match engine.finish().map(|run| run.metrics) {
        Ok(Some(m)) => {
            let snap = &m.snapshot;
            l.out.put("sim.engine.busy_frac", snap.busy_frac(), "ratio");
            l.out
                .put("sim.engine.starved_frac", snap.starved_frac(), "ratio");
            l.out.put(
                "sim.engine.queue_high_water",
                snap.command_high_water() as f64,
                "count",
            );
            l.out.put(
                "sim.engine.host_backpressure_ms",
                snap.host_backpressure_ns as f64 / 1e6,
                "ms",
            );
        }
        _ => l.out.fail("engine metrics run failed"),
    }

    // Service, cache off: in-process, then served to one client thread.
    let mut service = e2e::build_service(dev, e2e::served_config(&s, false));
    let mut shadow = Shadow::new(service.logical_pages());
    let mut tally = Tally::default();
    let (_, inproc_secs) = l.level("service_inproc", |spans| {
        drive(&mut service, ops, 0, &mut shadow, &mut tally, Some(spans))
    });
    l.ops_failed(tally.attempted, tally.failed);
    finished(l, service.finish(), Some(oracle), "in-process service");
    let inproc_ns = ns_per(inproc_secs, all_ops);
    l.out.put("sim.service.ns_per_op.inproc", inproc_ns, "ns");

    let served_ns = served_level(l, dev, &s, false, ops, Some(oracle));
    l.out.put("sim.service.ns_per_op.served", served_ns, "ns");
    l.out.put(
        "ledger.service_over_engine",
        served_ns / engine_at(s.threads, s.queue_depth),
        "ratio",
    );

    let cached_ns = served_level(l, dev, &s, true, ops, None);
    l.out.put("sim.service.ns_per_op.cache_on", cached_ns, "ns");
}

/// One served level: the service on its own thread, this thread the client.
fn served_level(
    l: &mut Ledger,
    dev: &Device,
    s: &inputs::Served,
    cache: bool,
    ops: &[HostOp],
    oracle: Option<Counts>,
) -> f64 {
    let name = if cache {
        "service_cache_on"
    } else {
        "service_served"
    };
    let service = e2e::build_service(dev, e2e::served_config(s, cache));
    let mut shadow = Shadow::new(service.logical_pages());
    let mut tally = Tally::default();
    let (server, mut clients) = service.serve(1);
    let (_, secs) = l.level(name, |spans| {
        drive(
            &mut clients[0],
            ops,
            0,
            &mut shadow,
            &mut tally,
            Some(spans),
        )
    });
    drop(clients);
    l.ops_failed(tally.attempted, tally.failed);
    let run = server.join().finish();
    if cache {
        if let Ok(run) = &run {
            cache_metrics(l, run, ops);
        }
    }
    finished(l, run, oracle, name);
    ns_per(secs, ops.len() as u64)
}

fn cache_metrics(l: &mut Ledger, run: &ServiceRun, ops: &[HostOp]) {
    let Some(c) = run.cache else {
        l.out.fail("cache-on service reported no cache counters");
        return;
    };
    let (writes, reads) = host_pages(ops);
    let flash_bound = c.write_through + c.flushed_pages;
    l.out.put(
        "cache.hit_frac",
        (c.write_hits + c.read_hits) as f64 / (writes + reads).max(1) as f64,
        "ratio",
    );
    l.out.put(
        "cache.absorbed_frac",
        1.0 - flash_bound as f64 / writes.max(1) as f64,
        "ratio",
    );
    l.out
        .put("cache.write_through", c.write_through as f64, "count");
    l.out.put("cache.evicted", c.evicted as f64, "count");
    l.out
        .put("cache.flushed_pages", c.flushed_pages as f64, "count");
}

/// Checks a finished service against the oracle counters, when given.
fn finished(
    l: &mut Ledger,
    run: Result<ServiceRun, flash_sim::SimError>,
    oracle: Option<Counts>,
    what: &str,
) {
    match (run, oracle) {
        (Ok(run), Some(oracle)) => l.check(
            Counts::of_report(&run.run.report) == oracle,
            &format!("{what} disagrees with the striped oracle"),
        ),
        (Ok(_), None) => {}
        (Err(_), _) => l.out.fail(&format!("{what} failed")),
    }
}
