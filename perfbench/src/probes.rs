//! Simulator-layer probes: host ns per event of the mesh tile compute,
//! one address translation and one shared-memory access, each measured
//! by calling the public function on a fixed synthetic stream sized to
//! the workload's configuration.

use gemmini_core::mesh::MatrixUnit;
use gemmini_mem::addr::{LINE_SIZE, PAGE_SIZE};
use gemmini_mem::{MemorySystem, MemorySystemConfig, PhysAddr};
use gemmini_vm::{Access, AddressSpace, FrameAllocator, TranslationConfig, TranslationSystem};
use std::hint::black_box;
use std::time::Instant;

/// Calls per timed batch; the probe reports the median batch.
const BATCH: usize = 4096;
/// Timed batches per probe.
const BATCHES: usize = 9;

fn median_ns_per_call(mut batch: impl FnMut()) -> f64 {
    batch(); // warm-up
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[BATCHES / 2]
}

/// Host ns per full `dim × dim` tile through the functional MAC kernel
/// (`MatrixUnit::compute_into`, weights preloaded).
pub fn mesh_tile_ns(dim: usize) -> f64 {
    let mut unit = MatrixUnit::new(dim);
    let pattern = |i: usize| ((i * 37 + 11) % 127) as i8 - 63;
    let b: Vec<i8> = (0..dim * dim).map(pattern).collect();
    let a: Vec<i8> = (0..dim * dim).map(|i| pattern(i + 5)).collect();
    unit.preload_flat(&b, dim, dim, dim);
    let mut out = vec![0i32; dim * dim];
    median_ns_per_call(|| {
        for _ in 0..BATCH {
            unit.compute_into(black_box(&a), dim, dim, dim, None, &mut out);
            black_box(&out);
        }
    })
}

/// Host ns per `TranslationSystem::translate` call on a DMA-like stream:
/// line-sized strides through a working set of four times the TLB
/// hierarchy's reach, so hits, misses and walks all occur.
pub fn translate_ns(translation: TranslationConfig, mem: MemorySystemConfig) -> f64 {
    let mut frames = FrameAllocator::new();
    let mut space = AddressSpace::new(&mut frames);
    let entries = (translation.private.entries + translation.shared.entries).max(1) as u64;
    let pages = 4 * entries;
    let base = space.alloc(&mut frames, pages * PAGE_SIZE);
    let mut system = TranslationSystem::new(translation);
    let mut memory = MemorySystem::new(mem);
    let lines = pages * PAGE_SIZE / LINE_SIZE;
    let mut i = 0u64;
    let mut now = 0u64;
    median_ns_per_call(|| {
        for _ in 0..BATCH {
            let va = base.add((i % lines) * LINE_SIZE);
            let access = if i % 4 == 3 {
                Access::Write
            } else {
                Access::Read
            };
            let t = system
                .translate(&space, &mut memory, now, va, access)
                .expect("probe pages are mapped read-write");
            now += t.latency + 1;
            i += 1;
        }
    })
}

/// Host ns per one-line `MemorySystem::read`/`write` on a stream striding
/// through twice the L2's capacity, one write in four.
pub fn access_ns(mem: MemorySystemConfig) -> f64 {
    let mut memory = MemorySystem::new(mem);
    let lines = 2 * mem.l2.size_bytes / LINE_SIZE;
    let mut i = 0u64;
    let mut now = 0u64;
    median_ns_per_call(|| {
        for _ in 0..BATCH {
            let addr = PhysAddr::new((i % lines) * LINE_SIZE);
            now = if i % 4 == 3 {
                memory.write(0, now, addr, LINE_SIZE)
            } else {
                memory.read(0, now, addr, LINE_SIZE)
            };
            i += 1;
        }
    })
}
