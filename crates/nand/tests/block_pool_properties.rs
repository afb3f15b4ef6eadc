//! Model check of [`BlockPool`], the Cleaner substrate under both
//! translation layers.
//!
//! Random sequences of the pool's block-level operations — pop, erase of an
//! in-use block (succeeding, or failing through the device's
//! [`FaultPlan`]), in-place erase of a block still in the free ladder, and
//! retirement — run against a plain reference model: three sets (free, in
//! use, retired), one wear count per block, and the expected GC/SWL erase
//! and retirement tallies. Erase failures come from the plan's per-block
//! endurance limits, which the model reads up front, so every outcome is
//! predicted rather than observed.

use proptest::prelude::*;

use flash_telemetry::Cause;
use nand::pool::{BlockPool, FreeExhausted, Slot};
use nand::{CellKind, FaultPlan, Geometry, NandDevice};
use swl_core::rng::SplitMix64;

const BLOCKS: u32 = 37;
/// Blocks `POOLED..BLOCKS` start in use, outside the ladder (a reserve).
const POOLED: u32 = 33;

#[derive(Debug, Default)]
struct Model {
    slots: Vec<Slot>,
    wear: Vec<u64>,
    /// Per-block erase limit drawn by the fault plan.
    limit: Vec<u64>,
    gc_erases: u64,
    swl_erases: u64,
    retired: u64,
    failed_erases: u64,
}

impl Model {
    fn blocks_in(&self, slot: Slot) -> Vec<u32> {
        (0..BLOCKS)
            .filter(|&b| self.slots[b as usize] == slot)
            .collect()
    }

    /// The effect of erasing `b`: it fails once the block reached its
    /// endurance limit (and retires), otherwise bumps its wear and frees it.
    fn erase(&mut self, b: u32, cause: Cause) -> bool {
        let i = b as usize;
        if self.wear[i] >= self.limit[i] {
            self.slots[i] = Slot::Retired;
            self.retired += 1;
            self.failed_erases += 1;
            return false;
        }
        self.wear[i] += 1;
        self.slots[i] = Slot::Free;
        match cause {
            Cause::Swl => self.swl_erases += 1,
            _ => self.gc_erases += 1,
        }
        true
    }
}

fn pick(rng: &mut SplitMix64, blocks: &[u32]) -> Option<u32> {
    (!blocks.is_empty()).then(|| blocks[rng.next_below(blocks.len() as u64) as usize])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every operation the pool agrees with the model: each block is
    /// in exactly one of {ladder, in use, retired}, pops return a free block
    /// of minimum wear, retired blocks never come back and carry the
    /// on-flash marker, and the GC/SWL erase counters match the causes.
    #[test]
    fn block_pool_matches_reference_model(seed in any::<u64>(), steps in 400usize..1_500) {
        let plan = FaultPlan::new(seed).with_endurance_range(3, 14);
        let device = NandDevice::new(
            Geometry::new(BLOCKS, 4, 2048),
            CellKind::Mlc2.spec().with_endurance(1_000_000),
        )
        .with_fault_plan(plan);
        let mut pool = BlockPool::new(device, POOLED, 2);
        let mut model = Model {
            slots: (0..BLOCKS)
                .map(|b| if b < POOLED { Slot::Free } else { Slot::InUse })
                .collect(),
            wear: vec![0; BLOCKS as usize],
            limit: (0..BLOCKS).map(|b| plan.endurance_limit(b).expect("range set")).collect(),
            ..Model::default()
        };
        let mut rng = SplitMix64::new(seed ^ 0x5EED);
        let mut retired_ever: Vec<u32> = Vec::new();

        for step in 0..steps {
            let cause = if rng.next_below(2) == 0 { Cause::Gc } else { Cause::Swl };
            let mut erased = Vec::new();
            match rng.next_below(64) {
                // Pop the freshest free block.
                0..=23 => {
                    let free = model.blocks_in(Slot::Free);
                    match pool.pop_freshest_free() {
                        Ok(b) => {
                            prop_assert_eq!(model.slots[b as usize], Slot::Free,
                                "step {}: popped block {} was not free", step, b);
                            let min = free.iter().map(|&f| model.wear[f as usize]).min();
                            prop_assert_eq!(Some(model.wear[b as usize]), min,
                                "step {}: pop returned a block above minimum wear", step);
                            model.slots[b as usize] = Slot::InUse;
                        }
                        Err(FreeExhausted) => prop_assert!(free.is_empty(),
                            "step {}: pop failed with {} free blocks", step, free.len()),
                    }
                }
                // Erase an in-use block: back to the ladder, or retired by
                // the fault plan.
                24..=47 => {
                    let Some(b) = pick(&mut rng, &model.blocks_in(Slot::InUse)) else { continue };
                    let ok = model.erase(b, cause);
                    prop_assert!(pool.erase_and_free(b, cause, &mut erased).is_ok());
                    prop_assert_eq!(erased, if ok { vec![b] } else { vec![] });
                }
                // The SW Leveler erasing a block in place in the ladder.
                48..=62 => {
                    let Some(b) = pick(&mut rng, &model.blocks_in(Slot::Free)) else { continue };
                    let ok = model.erase(b, cause);
                    prop_assert!(pool.erase_and_free(b, cause, &mut erased).is_ok());
                    prop_assert_eq!(erased, if ok { vec![b] } else { vec![] });
                }
                // Retire a free or in-use block outright (rare, or the
                // pool runs out of blocks long before they wear out).
                _ => {
                    let live: Vec<u32> = (0..BLOCKS)
                        .filter(|&b| model.slots[b as usize] != Slot::Retired)
                        .collect();
                    let Some(b) = pick(&mut rng, &live) else { continue };
                    pool.retire(b);
                    model.slots[b as usize] = Slot::Retired;
                    model.retired += 1;
                }
            }

            // Exactly one of {ladder, in use, retired}, as the model says.
            let mut in_ladder = vec![0u32; BLOCKS as usize];
            for b in pool.free_blocks() {
                in_ladder[b as usize] += 1;
            }
            for b in 0..BLOCKS {
                let i = b as usize;
                prop_assert_eq!(pool.slot(b), model.slots[i], "step {}: block {}", step, b);
                let expected = u32::from(model.slots[i] == Slot::Free);
                prop_assert_eq!(in_ladder[i], expected,
                    "step {}: block {} appears {} times in the ladder", step, b, in_ladder[i]);
                prop_assert_eq!(pool.device().block(b).erase_count(), model.wear[i],
                    "step {}: wear of block {}", step, b);
                if model.slots[i] == Slot::Retired && !retired_ever.contains(&b) {
                    retired_ever.push(b);
                }
            }
            prop_assert_eq!(pool.free_len(), model.blocks_in(Slot::Free).len());
            // Retirement is final and durable.
            for &b in &retired_ever {
                prop_assert_eq!(pool.slot(b), Slot::Retired, "step {}: block {} came back", step, b);
                prop_assert!(pool.device().block(b).spare(0).is_bad_block_marker(),
                    "step {}: retired block {} lacks the bad-block marker", step, b);
            }
            let counters = pool.counters();
            prop_assert_eq!(counters.gc_erases, model.gc_erases, "step {}: gc erases", step);
            prop_assert_eq!(counters.swl_erases, model.swl_erases, "step {}: swl erases", step);
            prop_assert_eq!(counters.retired_blocks, model.retired, "step {}: retirements", step);
        }
        prop_assert!(model.gc_erases > 0 && model.swl_erases > 0, "both causes must erase");
        prop_assert!(model.failed_erases > 0, "the fault plan must fail some erases");
    }
}
