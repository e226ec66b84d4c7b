//! Fixed-count host-time loops over single components: the cache, the
//! DRAM model, the memory system's tick, the PPU interpreter and the
//! programmable prefetcher's event path. The same operations as the
//! Criterion component benches, timed here with fixed operation counts
//! so a traced run reports nanoseconds per operation.

use etpp_core::{PrefetchProgramBuilder, PrefetcherParams, ProgrammablePrefetcher};
use etpp_isa::{run_kernel, EventCtx, KernelBuilder};
use etpp_mem::{
    AccessKind, Cache, CacheParams, ConfigOp, DemandEvent, Dram, DramParams, FilterFlags,
    MemParams, MemoryImage, MemorySystem, NullEngine, PrefetchEngine, RangeId,
};
use std::hint::black_box;
use std::time::Instant;

/// Operations per loop: each loop runs for a few tens of milliseconds.
const CACHE_OPS: u64 = 2_000_000;
const DRAM_OPS: u64 = 2_000_000;
const TICK_OPS: u64 = 1_000_000;
const KERNEL_OPS: u64 = 200_000;
const EVENT_OPS: u64 = 1_000_000;

/// Each loop runs this many times; the median is reported.
const REPEATS: usize = 3;

/// Nanoseconds per operation of each component loop.
pub struct ComponentNs {
    pub cache: f64,
    pub dram: f64,
    pub tick: f64,
    pub kernel: f64,
    pub event: f64,
}

fn ns_per_op(ops: u64, mut body: impl FnMut(u64)) -> f64 {
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t = Instant::now();
        body(ops);
        samples.push(t.elapsed().as_secs_f64() * 1e9 / ops as f64);
    }
    crate::stats::median(&samples)
}

pub fn measure() -> ComponentNs {
    ComponentNs {
        cache: cache_loop(),
        dram: dram_loop(),
        tick: tick_loop(),
        kernel: kernel_loop(),
        event: event_loop(),
    }
}

fn cache_loop() -> f64 {
    ns_per_op(CACHE_OPS, |ops| {
        let mut cache = Cache::new(CacheParams::paper_l1());
        let mut addr = 0u64;
        for _ in 0..ops {
            addr = addr.wrapping_add(0x40).wrapping_mul(0x9E37_79B9) & 0xFF_FFC0;
            black_box(cache.lookup_demand(black_box(addr)));
            black_box(cache.fill(addr, false, false));
        }
    })
}

fn dram_loop() -> f64 {
    ns_per_op(DRAM_OPS, |ops| {
        let mut dram = Dram::new(DramParams::paper());
        let (mut now, mut addr) = (0u64, 1u64);
        for _ in 0..ops {
            addr = addr.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            now += 10;
            black_box(dram.access_read(now, black_box(addr & 0xFF_FFC0)));
        }
    })
}

fn tick_loop() -> f64 {
    ns_per_op(TICK_OPS, |ops| {
        let mut image = MemoryImage::new();
        let base = image.alloc(1 << 20, 4096);
        let mut mem = MemorySystem::new(MemParams::paper(), image);
        let mut engine = NullEngine;
        for i in 0..ops {
            let _ = black_box(mem.try_access(i, base + (i * 8) % (1 << 20), AccessKind::Load, 1));
            mem.tick(i, &mut engine);
            black_box(mem.take_completions_due(i));
        }
    })
}

/// A context whose loads return fixed values and whose prefetches go
/// nowhere, so the loop times the interpreter alone.
struct NullCtx;

impl EventCtx for NullCtx {
    fn vaddr(&self) -> u64 {
        0x1000
    }
    fn line_word(&self, _off: u8) -> u64 {
        7
    }
    fn global(&self, _idx: u8) -> u64 {
        0x8000
    }
    fn ewma_lookahead(&self, _range: u16) -> u64 {
        16
    }
    fn prefetch(&mut self, _vaddr: u64, _tag: Option<u16>, _at: u64) {}
}

fn kernel_loop() -> f64 {
    let mut b = KernelBuilder::new("fanout");
    let top = b.label();
    let kernel = b
        .ld_global(1, 0)
        .li(2, 0)
        .bind(top)
        .ld_data(3, 2)
        .shli(3, 3, 3)
        .add(3, 3, 1)
        .prefetch(3)
        .addi(2, 2, 8)
        .li(4, 64)
        .bltu(2, 4, top)
        .halt()
        .build();
    ns_per_op(KERNEL_OPS, |ops| {
        for _ in 0..ops {
            black_box(run_kernel(black_box(&kernel), &mut NullCtx, 512));
        }
    })
}

fn event_loop() -> f64 {
    let mut prog = PrefetchProgramBuilder::new();
    let k = prog.add_kernel(
        KernelBuilder::new("k")
            .ld_vaddr(0)
            .addi(0, 0, 128)
            .prefetch(0)
            .halt()
            .build(),
    );
    let program = prog.build();
    ns_per_op(EVENT_OPS, |ops| {
        let mut pf = ProgrammablePrefetcher::new(PrefetcherParams::paper(), program.clone());
        pf.config(
            0,
            &ConfigOp::SetRange {
                id: RangeId(0),
                lo: 0,
                hi: u64::MAX,
                on_load: Some(k.0),
                on_prefetch: None,
                flags: FilterFlags::default(),
            },
        );
        for i in 0..ops {
            let now = i * 40;
            pf.on_demand(
                now,
                &DemandEvent {
                    at: now,
                    vaddr: 0x1000 + (now * 8) % 4096,
                    pc: 1,
                    is_write: false,
                    l1_hit: true,
                },
            );
            pf.tick(now);
            black_box(pf.pop_request(now));
        }
    })
}
