//! The three workloads: device configurations and seeded input generation.
//!
//! Everything here is a pure function of the workload and the seed: the
//! program under test only ever receives the generated ops.

use flash_sim::experiments::{paper_workload, ExperimentScale};
use flash_sim::service::cache::CacheConfig;
use flash_sim::{EngineConfig, SwlCoordination};
use flash_trace::{Op, SegmentResampler, TraceEvent};
use hotid::HotDataConfig;
use nand::{CellKind, CellSpec, ChannelGeometry, Geometry};
use swl_core::rng::SplitMix64;
use swl_core::SwlConfig;

/// Page size of every chip in the benchmark (the paper's 2 KiB).
const PAGE_BYTES: u32 = 2048;

/// The paper's threshold grid point whose scaled value the workloads use.
const PAPER_T: u64 = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimLifetime,
    ServedHot,
    ServedCold,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "sim-lifetime" => Some(Self::SimLifetime),
            "served-hot" => Some(Self::ServedHot),
            "served-cold" => Some(Self::ServedCold),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::SimLifetime => "sim-lifetime",
            Self::ServedHot => "served-hot",
            Self::ServedCold => "served-cold",
        }
    }

    /// The workload's own device: the paper's 4096 × 128-page MLC×2 chip at
    /// endurance 32 on one channel for the lifetime run, the repository's
    /// `scaled` chip on 4 channels for the served runs. `T` is scaled to the
    /// endurance by the repository's own rule with `k = 0` (T = 2 on the
    /// lifetime chip, T = 5 on the served chip).
    pub fn device(self, seed: u64) -> Device {
        let (scale, channels) = match self {
            Self::SimLifetime => (
                ExperimentScale {
                    endurance: 32,
                    seed,
                    ..ExperimentScale::paper()
                },
                1,
            ),
            Self::ServedHot | Self::ServedCold => (
                ExperimentScale {
                    seed,
                    ..ExperimentScale::scaled()
                },
                4,
            ),
        };
        Device {
            scale,
            channels,
            swl: scale.swl_config(PAPER_T, 0),
        }
    }

    pub fn served(self) -> Option<Served> {
        match self {
            Self::SimLifetime => None,
            Self::ServedHot => Some(Served::HOT),
            Self::ServedCold => Some(Served::COLD),
        }
    }

    /// The service configuration the ledger's service levels use: the
    /// workload's own, or `served-hot`'s for the lifetime trace.
    pub fn ledger_service(self) -> Served {
        self.served().unwrap_or(Served::HOT)
    }
}

/// A chip, how many channels it is split over, and its SW Leveler.
#[derive(Debug, Clone, Copy)]
pub struct Device {
    pub scale: ExperimentScale,
    pub channels: u32,
    pub swl: SwlConfig,
}

impl Device {
    /// The same chip split over `channels` lanes.
    pub fn with_channels(self, channels: u32) -> Self {
        assert!(
            self.scale.blocks.is_multiple_of(channels),
            "channels must divide the chip"
        );
        Self { channels, ..self }
    }

    pub fn spec(&self) -> CellSpec {
        CellKind::Mlc2.spec().with_endurance(self.scale.endurance)
    }

    /// The chip split evenly over the channels, one chip per channel.
    pub fn geometry(&self) -> ChannelGeometry {
        ChannelGeometry::new(
            self.channels,
            1,
            Geometry::new(
                self.scale.blocks / self.channels,
                self.scale.pages_per_block,
                PAGE_BYTES,
            ),
        )
    }

    /// The whole chip as a single device.
    pub fn chip(&self) -> Geometry {
        Geometry::new(self.scale.blocks, self.scale.pages_per_block, PAGE_BYTES)
    }

    /// Raw pages; the FTL exports all of them (no overprovisioning).
    pub fn pages(&self) -> u64 {
        u64::from(self.scale.blocks) * u64::from(self.scale.pages_per_block)
    }
}

/// Per-channel SWL keeps every lane independent, so the engine pipelines
/// at any queue depth (global coordination would force page lockstep).
pub const COORDINATION: SwlCoordination = SwlCoordination::PerChannel;

/// The paper trace of `experiments::first_failure_run`: a one-time fill of
/// the footprint followed by the unlimited resampled steady state.
pub fn paper_trace(logical_pages: u64, seed: u64) -> impl Iterator<Item = TraceEvent> {
    let spec = paper_workload(logical_pages, seed);
    spec.fill_events().chain(SegmentResampler::from_spec(
        spec,
        seed.wrapping_mul(0x9E37_79B9),
    ))
}

/// One host op of a served stream. Writes carry no data here: the client
/// gives every written page a fresh unique value when it issues the op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostOp {
    Write { lba: u32, len: u16 },
    Read { lba: u32, len: u16 },
    Flush,
}

impl HostOp {
    pub fn from_event(e: &TraceEvent) -> Self {
        let lba = u32::try_from(e.lba).expect("lba fits u32");
        let len = u16::try_from(e.len).expect("op length fits u16");
        match e.op {
            Op::Write => HostOp::Write { lba, len },
            Op::Read => HostOp::Read { lba, len },
        }
    }
}

/// Shape of a served workload.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub threads: u32,
    pub queue_depth: usize,
    /// Write-cache capacity in pages.
    pub cache_pages: usize,
    /// Footprint as a fraction of the logical space.
    pub footprint: f64,
    /// Hot-set size in pages (`0`: no hot set, uniform placement).
    pub hot_pages: u64,
    /// Share of ops (reads and writes) aimed at the hot set.
    pub hot_prob: f64,
    /// Share of ops that are writes.
    pub write_prob: f64,
    /// One flush per this many ops.
    pub flush_every: usize,
    /// Timed ops per second of `--seconds` (fixed work, sized to take about
    /// that long on a 2-CPU host).
    pub ops_per_second: usize,
}

impl Served {
    const HOT: Served = Served {
        threads: 2,
        queue_depth: 64,
        cache_pages: 4096,
        footprint: 0.40,
        hot_pages: 1024,
        hot_prob: 0.90,
        write_prob: 0.70,
        flush_every: 4096,
        ops_per_second: 75_000,
    };

    const COLD: Served = Served {
        threads: 1,
        queue_depth: 1,
        cache_pages: 1024,
        footprint: 0.50,
        hot_pages: 0,
        hot_prob: 0.0,
        write_prob: 0.30,
        flush_every: 64,
        ops_per_second: 40_000,
    };

    pub fn engine(&self) -> EngineConfig {
        EngineConfig::default()
            .with_threads(self.threads)
            .with_queue_depth(self.queue_depth)
    }

    /// The write cache, with hot-data admission from a page's second write.
    pub fn cache(&self) -> CacheConfig {
        CacheConfig::sized(self.cache_pages).with_hot(HotDataConfig {
            hot_threshold: 2,
            ..HotDataConfig::default()
        })
    }

    pub fn footprint_pages(&self, pages: u64) -> u64 {
        (pages as f64 * self.footprint) as u64
    }

    /// Set-up ops: a sequential prefill of the footprint, then uniform
    /// 8-page overwrites until twice the chip's raw capacity has been
    /// written, so garbage collection is in steady state before timing.
    pub fn setup_ops(&self, pages: u64, seed: u64) -> Vec<HostOp> {
        const SPAN: u64 = 8;
        let footprint = self.footprint_pages(pages);
        let mut rng = SplitMix64::new(seed ^ 0xA6E0);
        let mut ops = Vec::new();
        let mut lba = 0;
        while lba < footprint {
            let len = SPAN.min(footprint - lba);
            ops.push(write(lba, len));
            lba += len;
        }
        let mut written = footprint;
        while written < 2 * pages {
            ops.push(write(rng.next_below(footprint - SPAN + 1), SPAN));
            written += SPAN;
        }
        ops.push(HostOp::Flush);
        ops
    }

    /// The timed op stream: `count` ops of 1–4 pages, with one flush per
    /// `flush_every` ops.
    pub fn timed_ops(&self, pages: u64, count: usize, seed: u64) -> Vec<HostOp> {
        let footprint = self.footprint_pages(pages);
        let mut rng = SplitMix64::new(seed ^ 0x71ED);
        (0..count)
            .map(|i| {
                if (i + 1) % self.flush_every == 0 {
                    return HostOp::Flush;
                }
                let len = rng.range_u64(1..5);
                let is_write = rng.chance(self.write_prob);
                let hot = self.hot_pages > 0 && rng.chance(self.hot_prob);
                let span = if hot { self.hot_pages } else { footprint };
                let lba = rng.next_below(span - len + 1);
                if is_write {
                    write(lba, len)
                } else {
                    read(lba, len)
                }
            })
            .collect()
    }
}

fn write(lba: u64, len: u64) -> HostOp {
    HostOp::Write {
        lba: u32::try_from(lba).expect("lba fits u32"),
        len: len as u16,
    }
}

fn read(lba: u64, len: u64) -> HostOp {
    HostOp::Read {
        lba: u32::try_from(lba).expect("lba fits u32"),
        len: len as u16,
    }
}
