//! The Cleaner substrate shared by every translation layer.
//!
//! The paper's SW Leveler plugs into *any* FTL's Cleaner through two hooks:
//! SWL-BETUpdate on every erase, and a call that garbage-collects a given
//! block set. Everything around those hooks that does not depend on how
//! logical addresses map to flash lives here, once:
//!
//! - [`BlockPool`] owns the device, the wear-bucketed free ladder, the
//!   per-block [`Slot`] (free, in use, retired), erase-and-free with
//!   bad-block retirement, GC-vs-SWL erase attribution, the free-target
//!   loop's threshold, telemetry emission and causal spans.
//! - [`MappingPolicy`] is what a translation layer supplies on top: its
//!   construction and mount, the host write and read, one GC episode, and
//!   the recycling of one block for the SW Leveler.
//! - [`SwlDriver`] turns a policy into a translation layer: it roots each
//!   operation in a span, feeds the erases it caused to SWL-BETUpdate, and
//!   runs SWL-Procedure through the policy.

use std::ops::{Deref, DerefMut};

use flash_telemetry::{Cause, Event, FlashCounters, NullSink, Sink, SpanKind, SpanTracker};
use swl_core::{LevelOutcome, SwLeveler, SwlCleaner, SwlConfig, SwlError};

use crate::{FreeBlockLadder, NandDevice, NandError};

/// Where a block stands in the allocation cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Erased and waiting in the free ladder.
    Free,
    /// Out of the ladder and owned by the mapping policy.
    InUse,
    /// Withdrawn by bad-block management; never allocated again.
    Retired,
}

/// The free ladder is empty, or the free-target loop stopped converging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreeExhausted;

/// The device and its block-level bookkeeping, shared by every mapping
/// policy.
///
/// Generic over the device's telemetry [`Sink`]: with the default
/// [`NullSink`] every emission site compiles out.
#[derive(Debug)]
pub struct BlockPool<S: Sink = NullSink> {
    device: NandDevice<S>,
    /// Free blocks bucketed by wear; allocation pops the lowest.
    free: FreeBlockLadder,
    slots: Vec<Slot>,
    free_target: u32,
    /// While set, [`Self::cause`] attributes work to static wear leveling.
    in_swl: bool,
    /// Causal-span bookkeeping (ids + open stack); dormant under `NullSink`.
    spans: SpanTracker,
    counters: FlashCounters,
}

impl<S: Sink> BlockPool<S> {
    /// A pool whose blocks `0..pooled` start free, queued in block order;
    /// blocks from `pooled` up stay in use outside the ladder (a reserve the
    /// policy manages itself). The Cleaner keeps at least `free_target`
    /// blocks free.
    pub fn new(device: NandDevice<S>, pooled: u32, free_target: u32) -> Self {
        let mut free = FreeBlockLadder::new();
        for b in 0..pooled {
            free.push(b, device.block(b).erase_count());
        }
        let mut slots = vec![Slot::Free; pooled as usize];
        slots.resize(device.geometry().blocks() as usize, Slot::InUse);
        Self {
            device,
            free,
            slots,
            free_target,
            in_swl: false,
            spans: SpanTracker::new(),
            counters: FlashCounters::default(),
        }
    }

    /// The underlying device.
    #[inline]
    pub fn device(&self) -> &NandDevice<S> {
        &self.device
    }

    /// The underlying device, for page programs, reads and invalidations.
    /// Block erases of pooled blocks go through [`Self::erase_and_free`].
    #[inline]
    pub fn device_mut(&mut self) -> &mut NandDevice<S> {
        &mut self.device
    }

    /// Shuts the pool down, returning the chip.
    pub fn into_device(self) -> NandDevice<S> {
        self.device
    }

    /// Cause-attributed counters; the pool maintains the erase, live-copy
    /// and retirement fields, the policy the rest.
    #[inline]
    pub fn counters(&self) -> FlashCounters {
        self.counters
    }

    /// Mutable access to the counters, for the policy's fields.
    #[inline]
    pub fn counters_mut(&mut self) -> &mut FlashCounters {
        &mut self.counters
    }

    /// Where `block` stands.
    #[inline]
    pub fn slot(&self, block: u32) -> Slot {
        self.slots[block as usize]
    }

    /// Number of free blocks.
    #[inline]
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// The free blocks, in unspecified order.
    pub fn free_blocks(&self) -> impl Iterator<Item = u32> + '_ {
        self.free.iter()
    }

    /// Whether the free pool is under its target, so the Cleaner must run.
    #[inline]
    pub fn below_target(&self) -> bool {
        (self.free.len() as u32) < self.free_target
    }

    /// What erases and copies are attributed to right now: [`Cause::Swl`]
    /// while the SW Leveler's block-set collection runs, else [`Cause::Gc`].
    #[inline]
    pub fn cause(&self) -> Cause {
        if self.in_swl {
            Cause::Swl
        } else {
            Cause::Gc
        }
    }

    /// Emits `event` into the device's sink; compiled out under `NullSink`.
    #[inline]
    pub fn emit(&mut self, event: Event) {
        if S::ENABLED {
            self.device.sink_mut().event(event);
        }
    }

    /// Opens a causal span stamped with the device's cumulative busy time.
    /// Returns the span id, or 0 (which [`Self::span_end`] ignores) when the
    /// sink is compiled out — the disabled path is two constant branches.
    #[inline]
    pub fn span_begin(&mut self, kind: SpanKind) -> u64 {
        if !S::ENABLED {
            return 0;
        }
        let at_ns = self.device.busy_ns();
        let (id, parent) = self.spans.begin();
        self.device.sink_mut().event(Event::SpanBegin {
            id,
            parent,
            kind,
            at_ns,
        });
        id
    }

    /// Closes span `id`, first closing any descendants an error path left
    /// open so the emitted stream stays balanced.
    #[inline]
    pub fn span_end(&mut self, id: u64) {
        if !S::ENABLED || id == 0 {
            return;
        }
        let at_ns = self.device.busy_ns();
        let Self { spans, device, .. } = self;
        spans.end(id, |popped| {
            device
                .sink_mut()
                .event(Event::SpanEnd { id: popped, at_ns });
        });
    }

    /// Pops the free block with the lowest erase count — the dynamic wear
    /// leveling policy of the paper's Cleaner. O(1) amortized via the wear
    /// bucket ladder.
    ///
    /// # Errors
    ///
    /// [`FreeExhausted`] when no block is free.
    pub fn pop_freshest_free(&mut self) -> Result<u32, FreeExhausted> {
        let block = self.free.pop_min().ok_or(FreeExhausted)?;
        self.slots[block as usize] = Slot::InUse;
        Ok(block)
    }

    /// Erases `block` and returns it to the free ladder, counting the erase
    /// under `cause` and appending the block to `erased` for
    /// SWL-BETUpdate. A block already free (the SW Leveler erasing it in
    /// place) moves up the wear ladder where it sits. A block that refuses
    /// to erase — worn out under [`crate::WearPolicy::FailWornBlocks`], or
    /// bad per the device's [`crate::FaultPlan`] — is [retired](Self::retire)
    /// instead, stale contents and all.
    ///
    /// # Errors
    ///
    /// Any other device error, e.g. [`NandError::PowerCut`].
    pub fn erase_and_free(
        &mut self,
        block: u32,
        cause: Cause,
        erased: &mut Vec<u32>,
    ) -> Result<(), NandError> {
        let pre_wear = self.device.block(block).erase_count();
        match self.device.erase_as(block, cause) {
            Ok(()) => {}
            Err(NandError::BlockWornOut { .. } | NandError::EraseFailed { .. }) => {
                self.retire(block);
                return Ok(());
            }
            Err(other) => return Err(other),
        }
        if cause == Cause::Swl {
            self.counters.swl_erases += 1;
        } else {
            self.counters.gc_erases += 1;
        }
        let wear = self.device.block(block).erase_count();
        if self.slots[block as usize] == Slot::Free {
            self.free.reposition(block, pre_wear, wear);
        } else {
            self.slots[block as usize] = Slot::Free;
            self.free.push(block, wear);
        }
        erased.push(block);
        Ok(())
    }

    /// Counts one live page copied from `from_block` to `to_block` under
    /// `cause`, and emits the copy.
    pub fn live_copy(&mut self, from_block: u32, to_block: u32, cause: Cause) {
        if cause == Cause::Swl {
            self.counters.swl_live_copies += 1;
        } else {
            self.counters.gc_live_copies += 1;
        }
        self.emit(Event::LiveCopy {
            from_block,
            to_block,
            cause,
        });
    }

    /// Withdraws `block` from circulation and programs the on-flash
    /// bad-block marker, so a later mount rediscovers the retirement instead
    /// of resurrecting stale contents.
    pub fn retire(&mut self, block: u32) {
        if self.slots[block as usize] == Slot::Free {
            let wear = self.device.block(block).erase_count();
            let removed = self.free.remove(block, wear);
            debug_assert!(removed, "free block {block} missing from the ladder");
        }
        self.slots[block as usize] = Slot::Retired;
        // A spare-area status program: free and uncuttable; it can only fail
        // once power is already cut, when the RAM state is about to be
        // discarded anyway.
        let _ = self.device.mark_bad(block);
        self.counters.retired_blocks += 1;
        self.emit(Event::Retire { block });
    }

    /// Parks an in-use block out of circulation in RAM only, with no marker
    /// and no count: for blocks a power cut left half-written, when the RAM
    /// state is about to be discarded and only has to stay coherent.
    pub fn park(&mut self, block: u32) {
        debug_assert_ne!(self.slots[block as usize], Slot::Free);
        self.slots[block as usize] = Slot::Retired;
    }

    /// Empties the free ladder and marks every block in use: the blank slate
    /// a mount scan fills in with [`Self::mount_block`].
    pub fn begin_mount(&mut self) {
        self.free.clear();
        self.slots.fill(Slot::InUse);
    }

    /// Mount-time classification of `block` from its on-flash state: a
    /// block carrying the bad-block marker (retired in an earlier session)
    /// comes back retired, a fully erased block joins the free ladder, and
    /// anything else stays in use. Returns whether the block holds pages for
    /// the policy to parse.
    pub fn mount_block(&mut self, block: u32) -> bool {
        let blk = self.device.block(block);
        if blk.spare(0).is_bad_block_marker() {
            self.slots[block as usize] = Slot::Retired;
            return false;
        }
        if blk.valid_pages() == 0 && blk.invalid_pages() == 0 {
            let wear = blk.erase_count();
            self.slots[block as usize] = Slot::Free;
            self.free.push(block, wear);
            return false;
        }
        true
    }
}

/// A translation layer's mapping policy: how its logical space maps onto
/// pooled blocks, and so how a host write lands, how one GC episode runs,
/// and how a block is recycled for the SW Leveler. Wrapped in a
/// [`SwlDriver`], a policy is a complete translation layer.
pub trait MappingPolicy: Sized {
    /// The device's telemetry sink.
    type Sink: Sink;
    /// The layer's configuration.
    type Config: Copy;
    /// The layer's error type.
    type Error: From<NandError> + From<FreeExhausted> + From<SwlError>;

    /// Builds the policy over a blank (or never-mounted) `device`.
    ///
    /// # Errors
    ///
    /// When `config` is unusable on this device.
    fn new(device: NandDevice<Self::Sink>, config: Self::Config) -> Result<Self, Self::Error>;

    /// Rebuilds the policy from the spare areas of a used `device` — the
    /// firmware mount path.
    ///
    /// # Errors
    ///
    /// When the on-flash state is not a consistent layout of this policy.
    fn mount(device: NandDevice<Self::Sink>, config: Self::Config) -> Result<Self, Self::Error>;

    /// The configuration in effect.
    fn config(&self) -> Self::Config;

    /// Exported logical capacity in pages.
    fn logical_pages(&self) -> u64;

    /// The policy's block pool.
    fn pool(&self) -> &BlockPool<Self::Sink>;

    /// The policy's block pool, mutably.
    fn pool_mut(&mut self) -> &mut BlockPool<Self::Sink>;

    /// Consumes the policy, returning its pool.
    fn into_pool(self) -> BlockPool<Self::Sink>;

    /// Writes one logical page, running the Cleaner first when the free
    /// pool is under its target, and appends every erased block to
    /// `erased`.
    ///
    /// # Errors
    ///
    /// The layer's error for a bad address or a failed reclamation.
    fn host_write(&mut self, lba: u64, data: u64, erased: &mut Vec<u32>)
        -> Result<(), Self::Error>;

    /// Reads one logical page; `None` when it has never been written.
    ///
    /// # Errors
    ///
    /// The layer's error for a bad address or a failed read.
    fn host_read(&mut self, lba: u64) -> Result<Option<u64>, Self::Error>;

    /// One garbage-collection episode: pick a victim, move its live data
    /// out, and erase it, appending every erased block to `erased`.
    ///
    /// # Errors
    ///
    /// The layer's error when nothing is reclaimable or the device fails.
    fn collect_one(&mut self, erased: &mut Vec<u32>) -> Result<(), Self::Error>;

    /// Recycles `block` for the SW Leveler: moves its live data out and
    /// erases it, or erases it in place when it is free. Blocks out of the
    /// leveler's reach (retired, reserved) are skipped.
    ///
    /// # Errors
    ///
    /// The layer's error when relocation or the device fails.
    fn recycle(&mut self, block: u32, erased: &mut Vec<u32>) -> Result<(), Self::Error>;

    /// Runs `f` inside a causal span of `kind`.
    #[inline]
    fn spanned<T>(&mut self, kind: SpanKind, f: impl FnOnce(&mut Self) -> T) -> T {
        let span = self.pool_mut().span_begin(kind);
        let result = f(self);
        self.pool_mut().span_end(span);
        result
    }

    /// Runs the Cleaner until the free pool meets its target (the paper's
    /// "free blocks under 0.2 %" trigger).
    ///
    /// # Errors
    ///
    /// The first [`Self::collect_one`] error, or [`FreeExhausted`] when the
    /// loop stops converging.
    fn ensure_free(&mut self, erased: &mut Vec<u32>) -> Result<(), Self::Error> {
        let mut guard = 0u32;
        while self.pool().below_target() {
            self.collect_one(erased)?;
            guard += 1;
            if guard > self.pool().device().geometry().blocks() * 2 {
                return Err(FreeExhausted.into());
            }
        }
        Ok(())
    }
}

/// A translation layer: a [`MappingPolicy`] with an optional SW Leveler.
///
/// This is the public shell both of the workspace's layers share
/// (`ftl::PageMappedFtl` and `nftl::BlockMappedNftl` are aliases of it).
/// Every operation runs under a root causal span; the blocks it erased are
/// fed to SWL-BETUpdate, and SWL-Procedure runs through the policy when the
/// leveler asks for it. Methods particular to one policy are reached
/// through `Deref` to the policy.
///
/// Generic over the device's telemetry [`Sink`]: with the default
/// [`NullSink`] every emission site compiles out.
#[derive(Debug)]
pub struct SwlDriver<P> {
    policy: P,
    swl: Option<SwLeveler>,
    /// Reused buffer of the blocks one operation erased.
    erased: Vec<u32>,
}

impl<P: MappingPolicy> SwlDriver<P> {
    /// Builds the layer over `device` without static wear leveling.
    ///
    /// # Errors
    ///
    /// When `config` is unusable on this device.
    pub fn new(device: NandDevice<P::Sink>, config: P::Config) -> Result<Self, P::Error> {
        Ok(Self::wrap(P::new(device, config)?))
    }

    /// Builds the layer with the SW Leveler attached.
    ///
    /// # Errors
    ///
    /// As for [`Self::new`], or the leveler's error when `swl_config` is
    /// invalid.
    pub fn with_swl(
        device: NandDevice<P::Sink>,
        config: P::Config,
        swl_config: SwlConfig,
    ) -> Result<Self, P::Error> {
        let swl = SwLeveler::new(device.geometry().blocks(), swl_config)?;
        let mut layer = Self::new(device, config)?;
        layer.attach_swl(swl);
        Ok(layer)
    }

    /// Re-attaches a previously used chip, rebuilding the translation state
    /// from the spare areas on flash — the firmware mount path. Pair with
    /// [`Self::into_device`] to simulate power cycles.
    ///
    /// # Errors
    ///
    /// When the on-flash state is not a consistent layout of this policy.
    pub fn mount(device: NandDevice<P::Sink>, config: P::Config) -> Result<Self, P::Error> {
        Ok(Self::wrap(P::mount(device, config)?))
    }

    fn wrap(policy: P) -> Self {
        Self {
            policy,
            swl: None,
            erased: Vec::new(),
        }
    }

    /// Shuts the layer down, returning the chip (with all its data and
    /// wear) for a later [`Self::mount`].
    pub fn into_device(self) -> NandDevice<P::Sink> {
        self.policy.into_pool().into_device()
    }

    /// Attaches (or replaces) a pre-built SW Leveler, e.g. one restored from
    /// a [`swl_core::persist::DualBuffer`] snapshot.
    pub fn attach_swl(&mut self, swl: SwLeveler) {
        self.swl = Some(swl);
    }

    /// Writes `data` to logical page `lba`, then gives the SW Leveler a
    /// chance to run. The root span brackets the whole operation — GC,
    /// merges, remaps, and any SWL pass the write triggers — mirroring the
    /// simulator's latency bracket exactly.
    ///
    /// # Errors
    ///
    /// The layer's error for a bad address or a failed reclamation (e.g.
    /// when the logical space is over-committed).
    #[inline]
    pub fn write(&mut self, lba: u64, data: u64) -> Result<(), P::Error> {
        self.erasing(SpanKind::HostWrite, |policy, erased| {
            policy.host_write(lba, data, erased)
        })
    }

    /// Reads logical page `lba`; `None` when it has never been written.
    ///
    /// # Errors
    ///
    /// The layer's error for a bad address or a failed read.
    #[inline]
    pub fn read(&mut self, lba: u64) -> Result<Option<u64>, P::Error> {
        self.policy
            .spanned(SpanKind::HostRead, |policy| policy.host_read(lba))
    }

    /// Forces garbage collection over a block range, as an external wear
    /// leveling policy (e.g. [`swl_core::counting::CountingLeveler`]) would:
    /// live data is moved out, the blocks are erased (free ones in place,
    /// all attributed to SWL), and any attached SW Leveler is notified.
    /// Runs under a root `gc` span, since no host op pays for it. Returns
    /// the number of blocks erased.
    ///
    /// # Errors
    ///
    /// Propagates reclamation failures.
    pub fn force_recycle(&mut self, first_block: u32, count: u32) -> Result<u64, P::Error> {
        self.erasing(SpanKind::Gc, |policy, erased| {
            Cleaning(policy).erase_block_set(first_block, count, erased)?;
            Ok(erased.len() as u64)
        })
    }

    /// Manually invokes SWL-Procedure (e.g. from a timer), returning what it
    /// did. A no-op returning [`LevelOutcome::Idle`] without a leveler.
    ///
    /// # Errors
    ///
    /// Propagates reclamation failures.
    pub fn run_swl(&mut self) -> Result<LevelOutcome, P::Error> {
        self.level(|swl, cleaner| swl.level(cleaner))
    }

    /// Runs exactly one SWL-Procedure step, ignoring the local threshold —
    /// the entry point for an external multi-shard coordinator (see
    /// [`SwLeveler::level_step`]).
    ///
    /// # Errors
    ///
    /// Propagates reclamation failures.
    pub fn run_swl_step(&mut self) -> Result<LevelOutcome, P::Error> {
        self.level(|swl, cleaner| swl.level_step(cleaner))
    }

    /// Exported logical capacity in pages.
    pub fn logical_pages(&self) -> u64 {
        self.policy.logical_pages()
    }

    /// The underlying device (erase counts, busy time, failure record).
    pub fn device(&self) -> &NandDevice<P::Sink> {
        self.policy.pool().device()
    }

    /// Cause-attributed counters.
    pub fn counters(&self) -> FlashCounters {
        self.policy.pool().counters()
    }

    /// The attached SW Leveler, if any.
    pub fn swl(&self) -> Option<&SwLeveler> {
        self.swl.as_ref()
    }

    /// The configuration in effect.
    pub fn config(&self) -> P::Config {
        self.policy.config()
    }

    /// Runs `op` under a root span of `kind`, then feeds the blocks it
    /// erased to SWL-BETUpdate and invokes SWL-Procedure when needed (its
    /// pass nests in the same root span). An error of `op` wins over one of
    /// the leveler.
    #[inline]
    fn erasing<T>(
        &mut self,
        kind: SpanKind,
        op: impl FnOnce(&mut P, &mut Vec<u32>) -> Result<T, P::Error>,
    ) -> Result<T, P::Error> {
        let span = self.policy.pool_mut().span_begin(kind);
        let mut erased = std::mem::take(&mut self.erased);
        erased.clear();
        let result = op(&mut self.policy, &mut erased);
        let follow_up = self.notify_swl(&erased);
        self.erased = erased;
        self.policy.pool_mut().span_end(span);
        result.and_then(|value| follow_up.map(|()| value))
    }

    /// Runs one leveler pass under an `swl` span.
    fn level(
        &mut self,
        pass: impl FnOnce(&mut SwLeveler, &mut Cleaning<'_, P>) -> Result<LevelOutcome, P::Error>,
    ) -> Result<LevelOutcome, P::Error> {
        let Some(swl) = self.swl.as_mut() else {
            return Ok(LevelOutcome::Idle);
        };
        let span = self.policy.pool_mut().span_begin(SpanKind::Swl);
        let result = pass(swl, &mut Cleaning(&mut self.policy));
        self.policy.pool_mut().span_end(span);
        result
    }

    /// Feeds erases to SWL-BETUpdate and invokes SWL-Procedure when needed.
    fn notify_swl(&mut self, erased: &[u32]) -> Result<(), P::Error> {
        let Some(swl) = self.swl.as_mut() else {
            return Ok(());
        };
        for &b in erased {
            swl.note_erase(b);
        }
        // In deferred mode an external coordinator (e.g. the multi-channel
        // striped layer) watches a global unevenness and drives
        // `run_swl_step`; the layer itself only feeds SWL-BETUpdate.
        if !swl.config().deferred && swl.needs_leveling() {
            self.run_swl()?;
        }
        Ok(())
    }
}

impl<P> Deref for SwlDriver<P> {
    type Target = P;

    fn deref(&self) -> &P {
        &self.policy
    }
}

impl<P> DerefMut for SwlDriver<P> {
    fn deref_mut(&mut self) -> &mut P {
        &mut self.policy
    }
}

/// A policy lent to the SW Leveler as its [`SwlCleaner`].
struct Cleaning<'a, P>(&'a mut P);

impl<P: MappingPolicy> SwlCleaner for Cleaning<'_, P> {
    type Error = P::Error;

    /// Recycles the requested block set, attributing its erases and copies
    /// to SWL.
    fn erase_block_set(
        &mut self,
        first_block: u32,
        count: u32,
        erased: &mut Vec<u32>,
    ) -> Result<(), P::Error> {
        let blocks = self.0.pool().device().geometry().blocks();
        self.0.pool_mut().in_swl = true;
        let result = (first_block..(first_block + count).min(blocks))
            .try_for_each(|b| self.0.recycle(b, erased));
        self.0.pool_mut().in_swl = false;
        result
    }

    /// Merges the leveler's events (activation, interval reset) into the
    /// layer's telemetry stream.
    fn emit_telemetry(&mut self, event: Event) {
        self.0.pool_mut().emit(event);
    }
}
