//! The block-mapping translation layer: primary/replacement blocks, merges.

use std::collections::BTreeMap;

use flash_telemetry::{Cause, Event, MergeKind, NullSink, Sink, SpanKind};
use nand::pool::{BlockPool, MappingPolicy, Slot, SwlDriver};
use nand::{NandDevice, PageAddr, SpareArea, VictimIndex};

use crate::config::NftlConfig;
use crate::error::NftlError;

/// Sentinel for "no physical block assigned".
const NO_BLOCK: u32 = u32::MAX;

/// Spare-area status marker for pages written into a primary block.
pub(crate) const STATUS_PRIMARY: u32 = 1;
/// Spare-area status marker for pages appended to a replacement block.
pub(crate) const STATUS_REPL: u32 = 2;
/// Low status bits carrying the page kind; the bits above hold the merge
/// generation of primary pages.
const STATUS_KIND_MASK: u32 = 0xFF;
/// Shift from the status word to the merge generation.
const GEN_SHIFT: u32 = 8;

/// Status word for a primary page of merge generation `gen`. The generation
/// lets a remount tell a complete primary from the half-written successor a
/// power cut left behind: every merge writes its copies with the old
/// generation plus one, and erases the old pair only after the new block is
/// complete — so the *lower* generation is always the trustworthy one.
/// (24 bits of generation wrap after ~16M merges of one virtual block;
/// beyond that, duplicate resolution degrades to the valid-page tiebreak.)
fn primary_status(gen: u32) -> u32 {
    STATUS_PRIMARY | ((gen & (u32::MAX >> GEN_SHIFT)) << GEN_SHIFT)
}

/// What an in-use physical block serves. Meaningful only while the pool
/// holds the block [`Slot::InUse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockRole {
    /// Never assigned since construction or mount.
    Unassigned,
    Primary(u32),
    Replacement(u32),
}

/// RAM state of an open replacement block (a real NFTL rebuilds this from
/// spare areas at mount time).
#[derive(Debug, Clone)]
struct ReplState {
    block: u32,
    /// Next append position.
    next: u32,
    /// Per offset: newest replacement page + 1; 0 = offset not in this block.
    latest: Box<[u32]>,
}

/// The block-mapping policy over a shared [`BlockPool`]: primary and
/// replacement pairs per virtual block, merges, and greedy victim scoring
/// by VBA. [`BlockMappedNftl`] is this policy in a [`SwlDriver`].
#[derive(Debug)]
pub struct BlockMapping<S: Sink = NullSink> {
    /// Device, free ladder, block slots, erase attribution and spans.
    pool: BlockPool<S>,
    config: NftlConfig,
    virtual_blocks: u32,
    logical_pages: u64,
    /// Per VBA: primary physical block (`NO_BLOCK` when unassigned).
    primary: Vec<u32>,
    /// Per VBA: merge generation of the current primary (see
    /// [`primary_status`]).
    gen: Vec<u32>,
    /// Open replacement blocks, keyed by VBA (ordered for determinism).
    repl: BTreeMap<u32, ReplState>,
    role: Vec<BlockRole>,
    /// Incremental index of merge candidates (keyed by VBA; a VBA is a
    /// candidate while it has an open replacement block).
    victims: VictimIndex,
    /// Cyclic cursor for GC victim selection over VBAs.
    gc_scan_vba: u32,
}

impl<S: Sink> BlockMapping<S> {
    fn split(&self, lba: u64) -> (u32, u32) {
        let ppb = u64::from(self.pool.device().geometry().pages_per_block());
        ((lba / ppb) as u32, (lba % ppb) as u32)
    }

    fn lba_of(&self, vba: u32, offset: u32) -> u64 {
        u64::from(vba) * u64::from(self.pool.device().geometry().pages_per_block())
            + u64::from(offset)
    }

    fn check_lba(&self, lba: u64) -> Result<(), NftlError> {
        if lba >= self.logical_pages {
            return Err(NftlError::LbaOutOfRange {
                lba,
                logical_pages: self.logical_pages,
            });
        }
        Ok(())
    }

    /// Whether serving a write to `(vba, offset)` would need a fresh block.
    fn write_needs_alloc(&self, vba: u32, offset: u32) -> bool {
        let p = self.primary[vba as usize];
        if p == NO_BLOCK {
            return true;
        }
        if self.pool.device().block(p).page_state(offset).is_free() {
            return false;
        }
        !self.repl.contains_key(&vba)
    }

    /// Counts and emits one accepted host write.
    fn host_write_done(&mut self, lba: u64) {
        self.pool.counters_mut().host_writes += 1;
        self.pool.emit(Event::HostWrite { lba });
    }

    /// `(invalid, valid)` pages of a VBA's open primary/replacement pair;
    /// `None` without a replacement.
    fn pair_stats(&self, vba: u32) -> Option<(u32, u32)> {
        let rs = self.repl.get(&vba)?;
        let pb = self.pool.device().block(self.primary[vba as usize]);
        let rb = self.pool.device().block(rs.block);
        Some((
            pb.invalid_pages() + rb.invalid_pages(),
            pb.valid_pages() + rb.valid_pages(),
        ))
    }

    /// Re-reports one VBA to the victim index. Must be called after any
    /// event that changes the VBA's merge stats or candidacy: opening or
    /// closing its replacement block, or programming/invalidating pages in
    /// either block of the pair.
    fn refresh_victim(&mut self, vba: u32) {
        let (eligible, (invalid, valid)) = match self.pair_stats(vba) {
            Some(stats) => (true, stats),
            None => (false, (0, 0)),
        };
        self.victims.update(vba, eligible, invalid, valid);
    }

    /// The pre-index cyclic scan over open replacements, kept as the oracle
    /// the incremental [`VictimIndex`] is checked against under
    /// `debug_assertions`. Pure: does not advance `gc_scan_vba`.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn reference_select_victim(&self) -> Option<u32> {
        let start = self.gc_scan_vba;
        let mut fallback: Option<(u64, u32)> = None; // (invalid, vba)
        let keys = self
            .repl
            .range(start..)
            .map(|(&v, _)| v)
            .chain(self.repl.range(..start).map(|(&v, _)| v));
        for vba in keys {
            let rs = &self.repl[&vba];
            let p = self.primary[vba as usize];
            let pb = self.pool.device().block(p);
            let rb = self.pool.device().block(rs.block);
            let invalid = u64::from(pb.invalid_pages()) + u64::from(rb.invalid_pages());
            let valid = u64::from(pb.valid_pages()) + u64::from(rb.valid_pages());
            if invalid > valid {
                return Some(vba);
            }
            if invalid > 0 && fallback.is_none_or(|(best, _)| invalid > best) {
                fallback = Some((invalid, vba));
            }
        }
        fallback.map(|(_, v)| v)
    }

    /// Greedy victim selection over open replacements (cyclic over VBAs):
    /// first pair whose invalid pages outnumber their valid pages, falling
    /// back to the pair with the most invalid pages. Answered by the
    /// incremental [`VictimIndex`] instead of a linear scan.
    fn gc_merge_one_inner(&mut self, erased: &mut Vec<u32>) -> Result<(), NftlError> {
        let choice = self.victims.select(self.gc_scan_vba);
        debug_assert_eq!(
            choice,
            self.reference_select_victim(),
            "victim index diverged from the linear-scan oracle"
        );
        let vba = choice.ok_or(NftlError::NoReclaimableSpace)?;
        self.gc_scan_vba = vba.wrapping_add(1) % self.virtual_blocks.max(1);
        let counters = self.pool.counters_mut();
        counters.gc_collections += 1;
        counters.gc_merges += 1;
        if S::ENABLED {
            let (invalid, valid) = self.pair_stats(vba).unwrap_or((0, 0));
            let free_depth = self.pool.free_len() as u32;
            let candidates = self.victims.candidates();
            self.pool.emit(Event::GcPick {
                key: vba,
                invalid,
                valid,
                free_depth,
                candidates,
            });
            self.pool.emit(Event::Merge {
                vba,
                kind: MergeKind::Gc,
            });
        }
        self.merge(vba, None, Cause::Gc, erased)
    }

    /// Folds a VBA's newest data into a fresh primary block and erases the
    /// old primary (and replacement, if open). `fill` programs host data
    /// into an offset in place of its old copy — the overwrite that
    /// triggered a full merge — so the data is safely on flash *before* the
    /// old pair is destroyed. Without a replacement this relocates the
    /// primary (SWL eviction of fully cold data): an offset-aligned copy
    /// into a fresh block. The merge's erases and copies count under
    /// `cause` (GC or SWL).
    ///
    /// Crash ordering: copies (and the fill) land in the fresh block with
    /// generation `gen+1` first; the old pair is erased only afterwards. A
    /// power cut therefore leaves either the old pair intact (the partial
    /// successor is scrubbed at mount, resolved by generation) or the new
    /// primary complete — never a state that loses acknowledged data.
    fn merge(
        &mut self,
        vba: u32,
        fill: Option<(u32, u64)>,
        cause: Cause,
        erased: &mut Vec<u32>,
    ) -> Result<(), NftlError> {
        self.spanned(SpanKind::Merge, |nftl| {
            nftl.merge_inner(vba, fill, cause, erased)
        })
    }

    fn merge_inner(
        &mut self,
        vba: u32,
        fill: Option<(u32, u64)>,
        cause: Cause,
        erased: &mut Vec<u32>,
    ) -> Result<(), NftlError> {
        let old_primary = self.primary[vba as usize];
        debug_assert_ne!(old_primary, NO_BLOCK, "merge requires a primary");
        let rs = self.repl.remove(&vba);
        let new_gen = self.gen[vba as usize].wrapping_add(1);
        let pages_per_block = self.pool.device().geometry().pages_per_block();

        // Copy phase, restarted on another fresh block when an injected
        // program failure strikes mid-merge (the half-written block is
        // retired; the sources are still intact, so the copies repeat).
        let fresh = 'attempt: loop {
            let fresh = match self.pool.pop_freshest_free() {
                Ok(fresh) => fresh,
                Err(e) => {
                    self.undo_merge(vba, rs);
                    return Err(e.into());
                }
            };
            for offset in 0..pages_per_block {
                let lba = self.lba_of(vba, offset);
                // `copied_from` is `None` for the host fill (not a copy).
                let (data, copied_from) = match fill {
                    Some((fill_offset, fill_data)) if fill_offset == offset => (fill_data, None),
                    _ => {
                        let src = match &rs {
                            Some(rs) if rs.latest[offset as usize] != 0 => {
                                Some(PageAddr::new(rs.block, rs.latest[offset as usize] - 1))
                            }
                            _ => {
                                let state =
                                    self.pool.device().block(old_primary).page_state(offset);
                                state
                                    .is_valid()
                                    .then_some(PageAddr::new(old_primary, offset))
                            }
                        };
                        let Some(src) = src else { continue };
                        match self.pool.device_mut().read(src) {
                            Ok(content) => (content.data, Some(src.block)),
                            Err(e) => {
                                self.pool.park(fresh);
                                self.undo_merge(vba, rs);
                                return Err(e.into());
                            }
                        }
                    }
                };
                match self.pool.device_mut().program(
                    PageAddr::new(fresh, offset),
                    data,
                    SpareArea::with_status(lba, primary_status(new_gen)),
                ) {
                    Ok(()) => {}
                    Err(nand::NandError::ProgramFailed { .. }) => {
                        self.pool.retire(fresh);
                        continue 'attempt;
                    }
                    Err(e) => {
                        // Power cut (or a dead device): RAM state is about
                        // to be discarded; park the half-written block out
                        // of circulation so the audit stays coherent.
                        self.pool.park(fresh);
                        self.undo_merge(vba, rs);
                        return Err(e.into());
                    }
                }
                if let Some(from_block) = copied_from {
                    self.pool.live_copy(from_block, fresh, cause);
                }
            }
            break fresh;
        };

        self.primary[vba as usize] = fresh;
        self.role[fresh as usize] = BlockRole::Primary(vba);
        self.gen[vba as usize] = new_gen;
        if let Err(e) = self.pool.erase_and_free(old_primary, cause, erased) {
            // Power cut mid-erase: park the stragglers (RAM dies with us).
            self.pool.park(old_primary);
            if let Some(rs) = rs {
                self.pool.park(rs.block);
            }
            self.refresh_victim(vba);
            return Err(e.into());
        }
        if let Some(rs) = rs {
            if let Err(e) = self.pool.erase_and_free(rs.block, cause, erased) {
                self.pool.park(rs.block);
                self.refresh_victim(vba);
                return Err(e.into());
            }
        }
        // The replacement (if any) is gone: the VBA stops being a merge
        // candidate.
        self.refresh_victim(vba);
        Ok(())
    }

    /// Restores RAM state after a merge failed before committing: the
    /// replacement (if any) goes back into the map and the victim index is
    /// re-synced. The on-flash sources were not touched, so the layer keeps
    /// serving correct data.
    fn undo_merge(&mut self, vba: u32, rs: Option<ReplState>) {
        if let Some(rs) = rs {
            self.repl.insert(vba, rs);
        }
        self.refresh_victim(vba);
    }

    /// Debug audit: block slots, the free list and replacement maps are
    /// consistent with device page states.
    #[cfg(test)]
    pub(crate) fn check_consistency(&self) {
        let blocks = self.pool.device().geometry().blocks();
        let mut free_set = std::collections::HashSet::new();
        for b in self.pool.free_blocks() {
            assert!(free_set.insert(b), "block {b} twice in free list");
            assert_eq!(self.pool.slot(b), Slot::Free);
        }
        for b in 0..blocks {
            match (self.pool.slot(b), self.role[b as usize]) {
                (Slot::Free, _) => assert!(
                    free_set.contains(&b),
                    "free block {b} missing from free list"
                ),
                (Slot::InUse, BlockRole::Primary(v)) => {
                    assert_eq!(self.primary[v as usize], b, "primary map mismatch")
                }
                (Slot::InUse, BlockRole::Replacement(v)) => {
                    assert_eq!(self.repl[&v].block, b, "replacement map mismatch")
                }
                (Slot::InUse, BlockRole::Unassigned) => panic!("in-use block {b} has no role"),
                (Slot::Retired, _) => {
                    assert!(!free_set.contains(&b), "retired block {b} in free list")
                }
            }
        }
        for (&vba, rs) in &self.repl {
            assert_eq!(self.role[rs.block as usize], BlockRole::Replacement(vba));
            for (offset, &latest) in rs.latest.iter().enumerate() {
                if latest != 0 {
                    assert!(
                        self.pool
                            .device()
                            .block(rs.block)
                            .page_state(latest - 1)
                            .is_valid(),
                        "latest pointer of vba {vba} offset {offset} is stale"
                    );
                }
            }
        }
    }
}

impl<S: Sink> MappingPolicy for BlockMapping<S> {
    type Sink = S;
    type Config = NftlConfig;
    type Error = NftlError;

    fn new(device: NandDevice<S>, config: NftlConfig) -> Result<Self, NftlError> {
        let geometry = device.geometry();
        let blocks = geometry.blocks();
        let reserved = config.reserved_blocks.min(blocks.saturating_sub(1));
        let virtual_blocks = blocks - reserved;
        let logical_pages = u64::from(virtual_blocks) * u64::from(geometry.pages_per_block());
        Ok(Self {
            pool: BlockPool::new(device, blocks, config.free_target(blocks)),
            virtual_blocks,
            logical_pages,
            primary: vec![NO_BLOCK; virtual_blocks as usize],
            gen: vec![0; virtual_blocks as usize],
            repl: BTreeMap::new(),
            role: vec![BlockRole::Unassigned; blocks as usize],
            victims: VictimIndex::new(virtual_blocks),
            gc_scan_vba: 0,
            config,
        })
    }

    /// Rebuilds all RAM tables from the spare areas of an existing chip —
    /// what real NFTL firmware does at attach time.
    ///
    /// Hardened against the debris a power cut can leave behind:
    ///
    /// - Blocks carrying the on-flash bad-block marker (programmed by
    ///   bad-block management in an earlier session) come back as retired.
    /// - Pages torn mid-program carry no spare metadata and are skipped;
    ///   blocks holding nothing but torn pages (e.g. a torn erase) are
    ///   scrubbed back into the free pool.
    /// - Duplicate primaries for one virtual block — the old pair plus the
    ///   half-finished successor of an interrupted merge — are resolved by
    ///   merge generation: the lower generation is complete (the merge
    ///   erases it only after finishing the new copy), so it wins and the
    ///   other is scrubbed.
    fn mount(device: NandDevice<S>, config: NftlConfig) -> Result<Self, NftlError> {
        let mut inner = Self::new(device, config)?;
        inner.pool.begin_mount();
        let blocks = inner.pool.device().geometry().blocks();
        let pages_per_block = inner.pool.device().geometry().pages_per_block();
        // (vba, block, generation) primary candidates; resolved below.
        let mut primaries: Vec<(u32, u32, u32)> = Vec::new();
        let mut scrub: Vec<u32> = Vec::new();

        for b in 0..blocks {
            if !inner.pool.mount_block(b) {
                continue;
            }
            // Classify the block from its first page whose spare metadata
            // survived (torn pages carry none).
            let block = inner.pool.device().block(b);
            let mut marker: Option<(u32, u64)> = None; // (status, lba)
            for (page, state) in block.page_states() {
                if state.is_free() {
                    continue;
                }
                let spare = block.spare(page);
                if let Some(lba) = spare.lba() {
                    marker = Some((spare.status(), lba));
                    break;
                }
            }
            let Some((status, lba)) = marker else {
                // Nothing but torn pages: crash debris, recycle it.
                scrub.push(b);
                continue;
            };
            if lba >= inner.logical_pages {
                return Err(NftlError::MountCorrupt { block: b });
            }
            let (vba, _) = inner.split(lba);
            match status & STATUS_KIND_MASK {
                STATUS_PRIMARY => {
                    primaries.push((vba, b, status >> GEN_SHIFT));
                }
                STATUS_REPL => {
                    let mut latest = vec![0u32; pages_per_block as usize].into_boxed_slice();
                    let mut next = 0u32;
                    let block = inner.pool.device().block(b);
                    for (page, state) in block.page_states() {
                        if state.is_free() {
                            break; // appends are contiguous from page 0
                        }
                        next = page + 1;
                        if !state.is_valid() {
                            continue;
                        }
                        let page_lba = block
                            .spare(page)
                            .lba()
                            .ok_or(NftlError::MountCorrupt { block: b })?;
                        let (page_vba, offset) = inner.split(page_lba);
                        if page_vba != vba {
                            return Err(NftlError::MountCorrupt { block: b });
                        }
                        latest[offset as usize] = page + 1;
                    }
                    let previous = inner.repl.insert(
                        vba,
                        ReplState {
                            block: b,
                            next,
                            latest,
                        },
                    );
                    if previous.is_some() {
                        return Err(NftlError::MountCorrupt { block: b });
                    }
                    inner.role[b as usize] = BlockRole::Replacement(vba);
                }
                _ => return Err(NftlError::MountCorrupt { block: b }),
            }
        }

        // Resolve duplicate primaries: lowest generation wins; ties (only
        // reachable through injected program faults, never through power
        // cuts alone) favour the block serving more live pages, then the
        // lower block number. Losers are crash debris and get scrubbed.
        primaries.sort_by_key(|&(vba, b, gen)| {
            let valid = inner.pool.device().block(b).valid_pages();
            (vba, gen, std::cmp::Reverse(valid), b)
        });
        let mut prev_vba = None;
        for (vba, b, gen) in primaries {
            if prev_vba == Some(vba) {
                scrub.push(b);
                continue;
            }
            prev_vba = Some(vba);
            inner.primary[vba as usize] = b;
            inner.gen[vba as usize] = gen;
            inner.role[b as usize] = BlockRole::Primary(vba);
        }
        // Scrubbing erases a block whose contents did not survive the crash
        // and returns it to the free pool (or retires it if it refuses).
        for b in scrub {
            inner.pool.erase_and_free(b, Cause::Gc, &mut Vec::new())?;
        }

        // Every replacement must hang off an assigned primary.
        for (&vba, rs) in &inner.repl {
            if inner.primary[vba as usize] == NO_BLOCK {
                return Err(NftlError::MountCorrupt { block: rs.block });
            }
        }
        let vbas: Vec<u32> = inner.repl.keys().copied().collect();
        for vba in vbas {
            inner.refresh_victim(vba);
        }
        Ok(inner)
    }

    fn config(&self) -> NftlConfig {
        self.config
    }

    fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    fn pool(&self) -> &BlockPool<S> {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut BlockPool<S> {
        &mut self.pool
    }

    fn into_pool(self) -> BlockPool<S> {
        self.pool
    }

    fn host_write(&mut self, lba: u64, data: u64, erased: &mut Vec<u32>) -> Result<(), NftlError> {
        self.check_lba(lba)?;
        let (vba, offset) = self.split(lba);

        match self.ensure_free(erased) {
            Ok(()) => {}
            Err(NftlError::NoReclaimableSpace) => {
                // Nothing mergeable yet. Proceed while a merge reserve
                // remains, or when this write allocates nothing.
                let safe = self.pool.free_len() >= 2 || !self.write_needs_alloc(vba, offset);
                if !safe {
                    return Err(NftlError::NoReclaimableSpace);
                }
            }
            Err(other) => return Err(other),
        }

        if self.primary[vba as usize] == NO_BLOCK {
            let p = self.pool.pop_freshest_free()?;
            self.role[p as usize] = BlockRole::Primary(vba);
            self.primary[vba as usize] = p;
        }

        // Retry loop: an injected program failure consumes the target page,
        // so each pass routes the write to the next viable place — the
        // in-place slot, then the replacement block, then (once the
        // replacement fills) a merge that folds the data into a fresh
        // primary. Terminates because every retry consumes pages and the
        // free pool is finite.
        loop {
            let p = self.primary[vba as usize];
            if self.pool.device().block(p).page_state(offset).is_free() {
                // In-place slot still available in the primary block.
                debug_assert!(self
                    .repl
                    .get(&vba)
                    .is_none_or(|rs| rs.latest[offset as usize] == 0));
                let spare = SpareArea::with_status(lba, primary_status(self.gen[vba as usize]));
                match self
                    .pool
                    .device_mut()
                    .program(PageAddr::new(p, offset), data, spare)
                {
                    Ok(()) => {}
                    Err(nand::NandError::ProgramFailed { .. }) => {
                        // Slot consumed, primary grown-bad: fall through to
                        // the replacement path.
                        self.refresh_victim(vba);
                        continue;
                    }
                    Err(other) => {
                        self.refresh_victim(vba);
                        return Err(other.into());
                    }
                }
                // An open replacement makes this VBA a merge candidate whose
                // valid count just grew.
                self.refresh_victim(vba);
                self.host_write_done(lba);
                return Ok(());
            }

            // Overwrite: goes to the replacement block.
            if !self.repl.contains_key(&vba) {
                let r = self.pool.pop_freshest_free()?;
                self.role[r as usize] = BlockRole::Replacement(vba);
                let pages = self.pool.device().geometry().pages_per_block() as usize;
                self.repl.insert(
                    vba,
                    ReplState {
                        block: r,
                        next: 0,
                        latest: vec![0; pages].into_boxed_slice(),
                    },
                );
            }

            let pages_per_block = self.pool.device().geometry().pages_per_block();
            if self.repl[&vba].next == pages_per_block {
                // Replacement full: merge, folding the incoming data into
                // the fresh primary in place of the offset's old copy. The
                // data lands *before* the merge erases the old pair, so a
                // power cut can never destroy the only surviving copy of
                // the last acknowledged write.
                self.pool.counters_mut().full_merges += 1;
                self.pool.emit(Event::Merge {
                    vba,
                    kind: MergeKind::Full,
                });
                self.merge(vba, Some((offset, data)), Cause::Gc, erased)?;
                self.host_write_done(lba);
                return Ok(());
            }

            let rs = self.repl.get_mut(&vba).expect("replacement just ensured");
            let slot = rs.next;
            let block = rs.block;
            let prev = rs.latest[offset as usize];
            rs.next += 1;
            match self.pool.device_mut().program(
                PageAddr::new(block, slot),
                data,
                SpareArea::with_status(lba, STATUS_REPL),
            ) {
                Ok(()) => {}
                Err(nand::NandError::ProgramFailed { .. }) => {
                    // Slot consumed, replacement grown-bad: the next pass
                    // appends to the following slot or merges once full.
                    self.refresh_victim(vba);
                    continue;
                }
                Err(other) => {
                    self.refresh_victim(vba);
                    return Err(other.into());
                }
            }
            let rs = self.repl.get_mut(&vba).expect("replacement just ensured");
            rs.latest[offset as usize] = slot + 1;
            // Invalidate the superseded copy (replacement page or primary
            // slot). A primary slot consumed by an earlier fault carries no
            // live copy to invalidate.
            let device = self.pool.device_mut();
            if prev != 0 {
                device.invalidate(PageAddr::new(block, prev - 1))?;
            } else if device.block(p).page_state(offset).is_valid() {
                device.invalidate(PageAddr::new(p, offset))?;
            }
            self.refresh_victim(vba);
            self.host_write_done(lba);
            return Ok(());
        }
    }

    fn host_read(&mut self, lba: u64) -> Result<Option<u64>, NftlError> {
        self.check_lba(lba)?;
        let (vba, offset) = self.split(lba);
        self.pool.counters_mut().host_reads += 1;
        self.pool.emit(Event::HostRead { lba });
        if let Some(rs) = self.repl.get(&vba) {
            let latest = rs.latest[offset as usize];
            if latest != 0 {
                let addr = PageAddr::new(rs.block, latest - 1);
                return Ok(Some(self.pool.device_mut().read(addr)?.data));
            }
        }
        let p = self.primary[vba as usize];
        if p != NO_BLOCK && self.pool.device().block(p).page_state(offset).is_valid() {
            return Ok(Some(
                self.pool.device_mut().read(PageAddr::new(p, offset))?.data,
            ));
        }
        Ok(None)
    }

    /// One GC episode under a `gc` span; the merge it runs opens its own
    /// nested `merge` span, so the pick/bookkeeping cost and the copy
    /// cascade are attributed separately.
    fn collect_one(&mut self, erased: &mut Vec<u32>) -> Result<(), NftlError> {
        self.spanned(SpanKind::Gc, |nftl| nftl.gc_merge_one_inner(erased))
    }

    /// Primaries and replacements are merged with their pair (a primary
    /// without one is relocated), free blocks are erased in place.
    fn recycle(&mut self, b: u32, erased: &mut Vec<u32>) -> Result<(), NftlError> {
        if self.pool.slot(b) == Slot::InUse && self.pool.free_len() == 0 {
            self.collect_one(erased)?;
        }
        match (self.pool.slot(b), self.role[b as usize]) {
            (Slot::Retired, _) => {}
            (Slot::Free, _) => {
                self.pool.erase_and_free(b, Cause::Swl, erased)?;
            }
            (Slot::InUse, BlockRole::Primary(vba) | BlockRole::Replacement(vba)) => {
                self.pool.counters_mut().swl_merges += 1;
                self.pool.emit(Event::Merge {
                    vba,
                    kind: MergeKind::Swl,
                });
                self.merge(vba, None, Cause::Swl, erased)?;
            }
            (Slot::InUse, BlockRole::Unassigned) => unreachable!("in-use block {b} has no role"),
        }
        Ok(())
    }
}

/// A block-mapping NFTL with an optional static wear leveler: the
/// [`BlockMapping`] policy driven by the shared [`SwlDriver`] shell.
///
/// See the [crate-level documentation](crate) for the design and an example.
pub type BlockMappedNftl<S = NullSink> = SwlDriver<BlockMapping<S>>;

impl<S: Sink> BlockMapping<S> {
    /// Number of currently open replacement blocks.
    pub fn open_replacements(&self) -> usize {
        self.repl.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NftlCounters;
    use nand::{CellKind, Geometry};
    use swl_core::{LevelOutcome, SwlConfig};

    fn device(blocks: u32, pages: u32) -> NandDevice {
        NandDevice::new(
            Geometry::new(blocks, pages, 2048),
            CellKind::Mlc2.spec().with_endurance(1_000_000),
        )
    }

    fn nftl(blocks: u32, pages: u32) -> BlockMappedNftl {
        BlockMappedNftl::new(device(blocks, pages), NftlConfig::default()).unwrap()
    }

    #[test]
    fn read_your_writes_in_primary() {
        let mut n = nftl(8, 4);
        n.write(0, 10).unwrap();
        n.write(1, 11).unwrap();
        n.write(5, 15).unwrap(); // second virtual block
        assert_eq!(n.read(0).unwrap(), Some(10));
        assert_eq!(n.read(1).unwrap(), Some(11));
        assert_eq!(n.read(5).unwrap(), Some(15));
        assert_eq!(n.read(2).unwrap(), None);
        n.check_consistency();
    }

    #[test]
    fn overwrites_go_to_replacement() {
        let mut n = nftl(8, 4);
        n.write(0, 1).unwrap();
        n.write(0, 2).unwrap();
        n.write(0, 3).unwrap();
        assert_eq!(n.read(0).unwrap(), Some(3));
        assert_eq!(n.open_replacements(), 1);
        n.check_consistency();
    }

    #[test]
    fn paper_figure_2b_scenario() {
        // Figure 2(b): LBAs A=8, B=10, C=14 written 3, 7 and 1 times into a
        // primary + replacement pair (8 pages per block → all in VBA 1).
        let mut n = nftl(8, 8);
        for i in 0..3u64 {
            n.write(8, 100 + i).unwrap();
        }
        for i in 0..7u64 {
            n.write(10, 200 + i).unwrap();
        }
        n.write(14, 300).unwrap();
        assert_eq!(n.read(8).unwrap(), Some(102));
        assert_eq!(n.read(10).unwrap(), Some(206));
        assert_eq!(n.read(14).unwrap(), Some(300));
        n.check_consistency();
    }

    #[test]
    fn full_replacement_triggers_merge() {
        let mut n = nftl(8, 4);
        // 4-page replacement fills after 4 overwrites of offsets in VBA 0.
        n.write(0, 0).unwrap();
        for i in 1..=10u64 {
            n.write(0, i).unwrap();
        }
        assert_eq!(n.read(0).unwrap(), Some(10));
        assert!(n.counters().full_merges > 0, "{:?}", n.counters());
        n.check_consistency();
    }

    #[test]
    fn merge_preserves_sibling_offsets() {
        let mut n = nftl(8, 4);
        // Fill VBA 0 offsets 0..4 with distinct data.
        for off in 0..4u64 {
            n.write(off, 50 + off).unwrap();
        }
        // Hammer offset 1 until merges happen.
        for i in 0..20u64 {
            n.write(1, 1000 + i).unwrap();
        }
        assert_eq!(n.read(0).unwrap(), Some(50));
        assert_eq!(n.read(1).unwrap(), Some(1019));
        assert_eq!(n.read(2).unwrap(), Some(52));
        assert_eq!(n.read(3).unwrap(), Some(53));
        assert!(n.counters().full_merges >= 4);
        n.check_consistency();
    }

    #[test]
    fn lba_bounds_enforced() {
        let mut n = nftl(4, 4);
        let max = n.logical_pages();
        assert!(matches!(
            n.write(max, 0),
            Err(NftlError::LbaOutOfRange { .. })
        ));
        assert!(matches!(n.read(max), Err(NftlError::LbaOutOfRange { .. })));
    }

    #[test]
    fn reserved_blocks_shrink_logical_space() {
        let n = BlockMappedNftl::new(device(8, 4), NftlConfig::default().with_reserved_blocks(3))
            .unwrap();
        assert_eq!(n.logical_pages(), 5 * 4);
    }

    #[test]
    fn gc_merges_under_free_pressure() {
        // 8 blocks, 4 pages; write over several VBAs with overwrites so
        // replacements pile up and GC must merge to stay afloat.
        let mut n =
            BlockMappedNftl::new(device(8, 4), NftlConfig::default().with_reserved_blocks(4))
                .unwrap();
        for round in 0..30u64 {
            for lba in 0..n.logical_pages() {
                n.write(lba, round * 100 + lba).unwrap();
            }
        }
        for lba in 0..n.logical_pages() {
            assert_eq!(n.read(lba).unwrap(), Some(29 * 100 + lba));
        }
        assert!(n.counters().gc_merges + n.counters().full_merges > 0);
        n.check_consistency();
    }

    #[test]
    fn erase_attribution_covers_device() {
        let mut n = nftl(16, 4);
        for round in 0..40u64 {
            for lba in 0..12u64 {
                n.write(lba, round).unwrap();
            }
        }
        assert_eq!(
            n.counters().total_erases(),
            n.device().counters().erases,
            "every device erase must be attributed"
        );
    }

    #[test]
    fn swl_levels_cold_primaries() {
        let d = device(16, 4);
        let mut n =
            BlockMappedNftl::with_swl(d, NftlConfig::default(), SwlConfig::new(4, 0)).unwrap();
        // Cold data in VBAs 0..4 (write once).
        for lba in 0..16u64 {
            n.write(lba, 9000 + lba).unwrap();
        }
        // Hot updates on one LBA of VBA 5.
        for i in 0..400u64 {
            n.write(20, i).unwrap();
        }
        assert!(n.counters().swl_erases > 0, "{:?}", n.counters());
        for lba in 0..16u64 {
            assert_eq!(n.read(lba).unwrap(), Some(9000 + lba), "cold lba {lba}");
        }
        assert_eq!(n.read(20).unwrap(), Some(399));
        n.check_consistency();
    }

    #[test]
    fn swl_flattens_wear_distribution() {
        let run = |swl: bool| -> f64 {
            let d = device(16, 8);
            let mut n = if swl {
                BlockMappedNftl::with_swl(d, NftlConfig::default(), SwlConfig::new(8, 0)).unwrap()
            } else {
                BlockMappedNftl::new(d, NftlConfig::default()).unwrap()
            };
            for lba in 0..64u64 {
                n.write(lba, lba).unwrap();
            }
            for i in 0..4000u64 {
                n.write(64 + (i % 2), i).unwrap();
            }
            n.device().erase_stats().std_dev
        };
        let plain = run(false);
        let leveled = run(true);
        assert!(
            leveled < plain,
            "SWL must flatten NFTL wear: {leveled:.2} vs {plain:.2}"
        );
    }

    #[test]
    fn run_swl_without_leveler_is_idle() {
        let mut n = nftl(4, 4);
        assert_eq!(n.run_swl().unwrap(), LevelOutcome::Idle);
    }

    #[test]
    fn deterministic_behaviour() {
        let run = || {
            let mut n = nftl(16, 4);
            for round in 0..25u64 {
                for lba in 0..20u64 {
                    n.write(lba, round * 31 + lba).unwrap();
                }
            }
            (n.device().erase_counts(), n.counters())
        };
        let (a_counts, a_c) = run();
        let (b_counts, b_c) = run();
        assert_eq!(a_counts, b_counts);
        assert_eq!(a_c, b_c);
    }

    #[test]
    fn event_stream_reconstructs_counters_exactly() {
        use flash_telemetry::{MetricsAggregator, VecSink};

        let d = device(16, 4).with_sink(VecSink::default());
        let mut n =
            BlockMappedNftl::with_swl(d, NftlConfig::default(), SwlConfig::new(4, 0)).unwrap();
        for lba in 0..16u64 {
            n.write(lba, 9000 + lba).unwrap();
        }
        for i in 0..400u64 {
            n.write(20, i).unwrap();
            if i % 7 == 0 {
                n.read(i % 16).unwrap();
            }
        }
        let counters = n.counters();
        assert!(counters.swl_erases > 0, "scenario must exercise SWL");
        let mut agg = MetricsAggregator::new();
        for event in n.into_device().into_sink().events {
            agg.event(event);
        }
        assert_eq!(agg.counters(), counters);
        assert!(agg.swl_invokes() > 0);
    }

    #[test]
    fn spans_balance_and_attribute_all_device_time() {
        use flash_telemetry::{SpanCause, SpanReplayer, VecSink};

        let d = device(16, 4).with_sink(VecSink::default());
        let mut n =
            BlockMappedNftl::with_swl(d, NftlConfig::default(), SwlConfig::new(4, 0)).unwrap();
        let mut live_totals = Vec::new();
        let mut do_write = |n: &mut BlockMappedNftl<VecSink>, lba, data| {
            let before = n.device().busy_ns();
            n.write(lba, data).unwrap();
            live_totals.push(n.device().busy_ns() - before);
        };
        for lba in 0..16u64 {
            do_write(&mut n, lba, 9000 + lba);
        }
        for i in 0..400u64 {
            do_write(&mut n, 20, i);
        }
        assert!(n.counters().swl_erases > 0, "scenario must exercise SWL");

        let mut replay = SpanReplayer::new();
        let mut writes = Vec::new();
        let mut merge_time = 0u64;
        let mut swl_spans = 0u64;
        for event in &n.into_device().into_sink().events {
            if let flash_telemetry::Event::SpanBegin {
                kind: flash_telemetry::SpanKind::Swl,
                ..
            } = event
            {
                swl_spans += 1;
            }
            if let Some(op) = replay.observe(event) {
                if op.kind == flash_telemetry::SpanKind::HostWrite {
                    merge_time += op.ns(SpanCause::Merge);
                    writes.push(op);
                }
            }
        }
        assert!(replay.check().is_clean(), "{:?}", replay.check());
        assert_eq!(writes.len(), live_totals.len());
        for (op, &live) in writes.iter().zip(&live_totals) {
            assert_eq!(op.total_ns(), live);
            assert_eq!(op.cause_ns.iter().sum::<u64>(), op.total_ns());
        }
        // Merge cascades dominate NFTL overwrites. SWL passes open spans,
        // but their device time is all inside nested merges (innermost-span
        // attribution), so the `swl` *self* bucket may legitimately be 0.
        assert!(merge_time > 0, "merges must show up in the attribution");
        assert!(swl_spans > 0, "SWL passes must open spans");
    }

    #[test]
    fn instrumented_run_matches_null_sink_run() {
        fn work<S: Sink>(mut n: BlockMappedNftl<S>) -> (NftlCounters, Vec<u64>) {
            for lba in 0..16u64 {
                n.write(lba, 9000 + lba).unwrap();
            }
            for i in 0..400u64 {
                n.write(20, i).unwrap();
            }
            (n.counters(), n.device().erase_counts())
        }
        let plain = work(
            BlockMappedNftl::with_swl(device(16, 4), NftlConfig::default(), SwlConfig::new(4, 0))
                .unwrap(),
        );
        let probed = work(
            BlockMappedNftl::with_swl(
                device(16, 4).with_sink(flash_telemetry::CountSink::default()),
                NftlConfig::default(),
                SwlConfig::new(4, 0),
            )
            .unwrap(),
        );
        assert_eq!(plain, probed, "telemetry must not perturb behaviour");
    }

    #[test]
    fn program_failure_remaps_and_preserves_data() {
        use nand::FaultPlan;

        let d = device(24, 4).with_fault_plan(FaultPlan::new(11).with_program_fail_prob(0.02));
        let mut n = BlockMappedNftl::new(d, NftlConfig::default()).unwrap();
        let mut shadow = std::collections::HashMap::new();
        // Every program failure costs a whole block here (the grown-bad
        // block is retired at its next merge), so the pool can legitimately
        // run dry; stop cleanly when it does.
        'work: for round in 0..40u64 {
            for lba in 0..24u64 {
                let data = round * 1000 + lba;
                match n.write(lba, data) {
                    Ok(()) => {
                        shadow.insert(lba, data);
                    }
                    Err(NftlError::NoReclaimableSpace | NftlError::FreeExhausted) => break 'work,
                    Err(other) => panic!("unexpected error {other}"),
                }
            }
        }
        let grown_bad = (0..24).filter(|&b| n.device().is_bad_block(b)).count();
        assert!(grown_bad > 0, "0.05 fail rate over ~1000 programs must bite");
        for (lba, data) in shadow {
            assert_eq!(n.read(lba).unwrap(), Some(data), "lba {lba}");
        }
        n.check_consistency();
    }

    #[test]
    fn erase_failure_retires_block_and_layer_survives() {
        use nand::FaultPlan;

        let d = device(24, 4).with_fault_plan(FaultPlan::new(5).with_endurance_range(4, 8));
        let mut n = BlockMappedNftl::new(d, NftlConfig::default()).unwrap();
        let mut shadow = std::collections::HashMap::new();
        'work: for round in 0..200u64 {
            for lba in 0..24u64 {
                let data = round * 1000 + lba;
                match n.write(lba, data) {
                    Ok(()) => {
                        shadow.insert(lba, data);
                    }
                    Err(NftlError::NoReclaimableSpace | NftlError::FreeExhausted) => break 'work,
                    Err(other) => panic!("unexpected error {other}"),
                }
            }
        }
        assert!(
            n.counters().retired_blocks > 0,
            "endurance range must retire blocks: {:?}",
            n.counters()
        );
        for (lba, data) in shadow {
            assert_eq!(n.read(lba).unwrap(), Some(data), "lba {lba}");
        }
        n.check_consistency();
    }

    #[test]
    fn retirement_survives_remount_via_bad_block_marker() {
        use nand::FaultPlan;

        let d = device(24, 4).with_fault_plan(FaultPlan::new(5).with_endurance_range(4, 8));
        let mut n = BlockMappedNftl::new(d, NftlConfig::default()).unwrap();
        let mut shadow = std::collections::HashMap::new();
        'work: for round in 0..200u64 {
            for lba in 0..24u64 {
                match n.write(lba, round * 1000 + lba) {
                    Ok(()) => {
                        shadow.insert(lba, round * 1000 + lba);
                    }
                    Err(NftlError::NoReclaimableSpace | NftlError::FreeExhausted) => break 'work,
                    Err(other) => panic!("unexpected error {other}"),
                }
            }
        }
        assert!(n.counters().retired_blocks > 0);
        let retired: Vec<u32> = (0..24)
            .filter(|&b| n.device().block(b).spare(0).is_bad_block_marker())
            .collect();
        assert!(!retired.is_empty(), "retired blocks must carry the marker");

        let mut n = BlockMappedNftl::mount(n.into_device(), NftlConfig::default()).unwrap();
        for (lba, data) in shadow {
            assert_eq!(n.read(lba).unwrap(), Some(data), "lba {lba} after remount");
        }
        n.check_consistency();
    }

    #[test]
    fn fault_free_plan_is_bit_identical() {
        use nand::FaultPlan;

        fn work(mut n: BlockMappedNftl) -> (NftlCounters, Vec<u64>) {
            for lba in 0..16u64 {
                n.write(lba, 9000 + lba).unwrap();
            }
            for i in 0..400u64 {
                n.write(20, i).unwrap();
            }
            (n.counters(), n.device().erase_counts())
        }
        let plain = work(
            BlockMappedNftl::with_swl(device(16, 4), NftlConfig::default(), SwlConfig::new(4, 0))
                .unwrap(),
        );
        let disarmed = work(
            BlockMappedNftl::with_swl(
                device(16, 4).with_fault_plan(FaultPlan::new(42)),
                NftlConfig::default(),
                SwlConfig::new(4, 0),
            )
            .unwrap(),
        );
        assert_eq!(plain, disarmed, "a disarmed FaultPlan must change nothing");
    }

    #[test]
    fn power_cut_and_remount_preserve_acked_writes() {
        use nand::FaultPlan;

        // Mini-sweep over early cut points (the exhaustive sweep lives in
        // the workspace-level crash-consistency harness); overwrite-heavy so
        // cuts land inside merges too.
        for cut_at in 0..160u64 {
            for torn in [false, true] {
                let plan = FaultPlan::new(1).with_power_cut(cut_at, torn);
                let d = device(8, 4).with_fault_plan(plan);
                let mut n = BlockMappedNftl::new(d, NftlConfig::default()).unwrap();
                let mut acked = std::collections::HashMap::new();
                let mut in_flight = None;
                let mut cut = false;
                'work: for round in 0..12u64 {
                    for lba in 0..8u64 {
                        let data = round * 100 + lba;
                        in_flight = Some((lba, data));
                        match n.write(lba, data) {
                            Ok(()) => {
                                acked.insert(lba, data);
                            }
                            Err(NftlError::Device(nand::NandError::PowerCut)) => {
                                cut = true;
                                break 'work;
                            }
                            Err(other) => panic!("unexpected error {other}"),
                        }
                    }
                }
                if !cut {
                    continue; // cut point beyond this workload
                }
                let mut dev = n.into_device();
                dev.power_cycle();
                let mut n = BlockMappedNftl::mount(dev, NftlConfig::default())
                    .unwrap_or_else(|e| panic!("mount after cut {cut_at} torn {torn}: {e}"));
                for (&lba, &want) in &acked {
                    let got = n.read(lba).unwrap();
                    let newer = in_flight == Some((lba, got.unwrap_or(u64::MAX)));
                    assert!(
                        got == Some(want) || newer,
                        "cut {cut_at} torn {torn}: lba {lba} read {got:?}, acked {want}"
                    );
                }
                // The layer keeps working after recovery.
                n.write(0, 777_777).unwrap();
                assert_eq!(n.read(0).unwrap(), Some(777_777));
                n.check_consistency();
            }
        }
    }

    #[test]
    fn over_committed_space_fails_cleanly() {
        // 4 blocks × 4 pages: using all 4 VBAs with overwrites needs more
        // blocks than exist.
        let mut n = nftl(4, 4);
        let mut hit_error = false;
        'outer: for round in 0..4u64 {
            for lba in 0..16u64 {
                match n.write(lba, round) {
                    Ok(()) => {}
                    Err(NftlError::NoReclaimableSpace | NftlError::FreeExhausted) => {
                        hit_error = true;
                        break 'outer;
                    }
                    Err(other) => panic!("unexpected error {other}"),
                }
            }
        }
        assert!(hit_error, "over-committed nftl must fail cleanly");
    }
}
