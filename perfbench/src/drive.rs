//! A closed-loop single client that issues host ops against the served
//! block device (in-process or through a client handle), checks every read
//! against a shadow map of acknowledged writes, and keeps raw per-op
//! wall-clock samples.

use std::time::Instant;

use flash_sim::service::{Service, ServiceClient};
use flash_sim::SimError;

use crate::inputs::HostOp;
use crate::measure::{ns_between, Spans};

/// The block-device verbs the client uses.
pub trait Target {
    fn write(&mut self, lba: u64, data: Vec<u64>) -> Result<(), SimError>;
    fn read(&mut self, lba: u64, len: usize) -> Result<Vec<Option<u64>>, SimError>;
    fn flush(&mut self) -> Result<(), SimError>;
}

impl Target for Service {
    fn write(&mut self, lba: u64, data: Vec<u64>) -> Result<(), SimError> {
        Service::write(self, lba, &data)
    }
    fn read(&mut self, lba: u64, len: usize) -> Result<Vec<Option<u64>>, SimError> {
        Service::read(self, lba, len)
    }
    fn flush(&mut self) -> Result<(), SimError> {
        Service::flush(self)
    }
}

impl Target for ServiceClient {
    fn write(&mut self, lba: u64, data: Vec<u64>) -> Result<(), SimError> {
        ServiceClient::write(self, lba, data)
    }
    fn read(&mut self, lba: u64, len: usize) -> Result<Vec<Option<u64>>, SimError> {
        ServiceClient::read(self, lba, len)
    }
    fn flush(&mut self) -> Result<(), SimError> {
        ServiceClient::flush(self)
    }
}

/// The value every acknowledged write left at each logical page (0: never
/// written). Written values are unique and start at 1.
pub struct Shadow {
    values: Vec<u64>,
    next: u64,
}

impl Shadow {
    pub fn new(logical_pages: u64) -> Self {
        Self {
            values: vec![0; logical_pages as usize],
            next: 0,
        }
    }

    /// Fresh values for a `len`-page write.
    fn data(&mut self, len: usize) -> Vec<u64> {
        (0..len)
            .map(|_| {
                self.next += 1;
                self.next
            })
            .collect()
    }

    fn commit(&mut self, lba: u64, data: &[u64]) {
        self.values[lba as usize..lba as usize + data.len()].copy_from_slice(data);
    }

    /// Pages of a read that disagree with the shadow.
    fn mismatches(&self, lba: u64, got: &[Option<u64>]) -> u64 {
        got.iter()
            .zip(&self.values[lba as usize..])
            .filter(|(g, &want)| **g != (want != 0).then_some(want))
            .count() as u64
    }
}

/// Counts and raw samples of one drive.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub host_pages: u64,
    pub write_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub flush_ns: Vec<u64>,
}

impl Tally {
    /// Sample vectors reserved for `ops` ops, so that the peak RSS does not
    /// depend on where a vector's doubling lands.
    pub fn with_capacity(ops: usize) -> Self {
        Self {
            write_ns: Vec::with_capacity(ops),
            read_ns: Vec::with_capacity(ops),
            flush_ns: Vec::with_capacity(ops),
            ..Self::default()
        }
    }

    pub fn ops(&self) -> u64 {
        (self.write_ns.len() + self.read_ns.len() + self.flush_ns.len()) as u64
    }
}

/// Issues `ops` in order, one at a time; `first` is the index of `ops[0]`
/// in its whole stream. A read that disagrees with the shadow, or any op
/// that returns an error, counts as failed. With `spans`, a sampled share
/// of the calls is recorded under the open phase span.
pub fn drive<T: Target>(
    target: &mut T,
    ops: &[HostOp],
    first: usize,
    shadow: &mut Shadow,
    tally: &mut Tally,
    mut spans: Option<&mut Spans>,
) {
    for (i, op) in (first..).zip(ops) {
        tally.attempted += 1;
        let (name, ok, start, end) = match *op {
            HostOp::Write { lba, len } => {
                let data = shadow.data(usize::from(len));
                let payload = data.clone();
                let start = Instant::now();
                let result = target.write(u64::from(lba), payload);
                let end = Instant::now();
                tally.write_ns.push(ns_between(start, end));
                let ok = result.is_ok();
                if ok {
                    shadow.commit(u64::from(lba), &data);
                    tally.host_pages += u64::from(len);
                }
                ("client.write", ok, start, end)
            }
            HostOp::Read { lba, len } => {
                let start = Instant::now();
                let result = target.read(u64::from(lba), usize::from(len));
                let end = Instant::now();
                tally.read_ns.push(ns_between(start, end));
                let ok = result.is_ok_and(|got| shadow.mismatches(u64::from(lba), &got) == 0);
                ("client.read", ok, start, end)
            }
            HostOp::Flush => {
                let start = Instant::now();
                let ok = target.flush().is_ok();
                let end = Instant::now();
                tally.flush_ns.push(ns_between(start, end));
                ("client.flush", ok, start, end)
            }
        };
        if !ok {
            tally.failed += 1;
        }
        if let Some(spans) = spans.as_deref_mut() {
            if spans.sampled(i as u64) {
                spans.op(name, i as u64, start, end);
            }
        }
    }
}

/// Reads the first `pages` logical pages back in 64-page spans and returns
/// `(reads issued, reads that failed or disagreed with the shadow)`.
pub fn verify<T: Target>(target: &mut T, shadow: &Shadow, pages: u64) -> (u64, u64) {
    const SPAN: u64 = 64;
    let (mut reads, mut failed) = (0, 0);
    let mut lba = 0;
    while lba < pages {
        let len = SPAN.min(pages - lba);
        reads += 1;
        match target.read(lba, len as usize) {
            Ok(got) if shadow.mismatches(lba, &got) == 0 => {}
            _ => failed += 1,
        }
        lba += len;
    }
    (reads, failed)
}
