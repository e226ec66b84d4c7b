//! Property-based tests over the simulator's core invariants.

use etpp::cpu::{Core, CoreParams, TraceBuilder};
use etpp::isa::{run_kernel, EventCtx, Inst, Kernel};
use etpp::mem::{AccessKind, Cache, CacheParams, MemParams, MemoryImage, MemorySystem, NullEngine};
use etpp::trace::{
    content_hash_versioned, TraceMeta, TraceReader, TraceRecord, TraceWriter, FORMAT_VERSION,
};
use etpp_telemetry::json::{self, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Cache invariants
// ---------------------------------------------------------------------------

proptest! {
    /// A line is present after fill until something else evicts it; lookups
    /// never spuriously report lines the cache was never given.
    #[test]
    fn cache_tracks_membership(addrs in proptest::collection::vec(0u64..1u64 << 20, 1..200)) {
        let mut cache = Cache::new(CacheParams { size: 4096, ways: 2, hit_latency: 1, mshrs: 4 });
        let mut resident: std::collections::HashSet<u64> = Default::default();
        for a in addrs {
            let line = a & !63;
            if let Some(ev) = cache.fill(line, false, false) {
                prop_assert!(resident.remove(&ev.line_addr), "evicted a line never filled");
            }
            resident.insert(line);
            prop_assert!(cache.contains(line));
        }
        // Everything the model thinks is resident must really be there.
        for &line in &resident {
            prop_assert!(cache.contains(line), "bookkeeping lost line {line:#x}");
        }
        prop_assert_eq!(cache.occupancy(), resident.len());
    }

    /// Prefetch accounting: used + unused never exceeds fills.
    #[test]
    fn prefetch_accounting_is_consistent(
        ops in proptest::collection::vec((0u64..1u64 << 14, any::<bool>()), 1..300)
    ) {
        let mut cache = Cache::new(CacheParams { size: 2048, ways: 2, hit_latency: 1, mshrs: 4 });
        for (a, is_pf) in ops {
            let line = a & !63;
            if is_pf {
                cache.fill(line, true, false);
            } else {
                cache.lookup_demand(line);
            }
        }
        let s = cache.stats;
        prop_assert!(s.prefetches_used + s.prefetches_unused <= s.prefetch_fills);
    }
}

// ---------------------------------------------------------------------------
// Memory image
// ---------------------------------------------------------------------------

proptest! {
    /// Reads always return the last written value, at any alignment.
    #[test]
    fn image_read_after_write(
        writes in proptest::collection::vec((0u64..1 << 16, any::<u64>()), 1..100)
    ) {
        let mut img = MemoryImage::new();
        let base = img.alloc(1 << 17, 4096);
        let mut last_write: std::collections::HashMap<u64, (usize, u64)> = Default::default();
        for (i, (off, val)) in writes.iter().enumerate() {
            img.write_u64(base + off, *val);
            last_write.insert(*off, (i, *val));
        }
        // Verify offsets whose 8-byte windows were not clobbered by a later
        // write to an overlapping offset.
        for (&off, &(idx, val)) in &last_write {
            let clobbered = last_write
                .iter()
                .any(|(&o, &(i, _))| o != off && o.abs_diff(off) < 8 && i > idx);
            if !clobbered {
                prop_assert_eq!(img.read_u64(base + off), val);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// PPU interpreter
// ---------------------------------------------------------------------------

fn arb_inst() -> impl Strategy<Value = Inst> {
    let r = 0u8..16;
    prop_oneof![
        (r.clone(), any::<u64>()).prop_map(|(rd, imm)| Inst::Li { rd, imm }),
        (r.clone(), r.clone(), r.clone()).prop_map(|(rd, ra, rb)| Inst::Add { rd, ra, rb }),
        (r.clone(), r.clone(), r.clone()).prop_map(|(rd, ra, rb)| Inst::Xor { rd, ra, rb }),
        (r.clone(), r.clone(), any::<i64>()).prop_map(|(rd, ra, imm)| Inst::AddI { rd, ra, imm }),
        (r.clone(), r.clone(), 0u8..64).prop_map(|(rd, ra, sh)| Inst::ShlI { rd, ra, sh }),
        (r.clone(), r.clone(), 0u8..64).prop_map(|(rd, ra, sh)| Inst::ShrI { rd, ra, sh }),
        (r.clone()).prop_map(|rd| Inst::LdVaddr { rd }),
        (r.clone(), r.clone()).prop_map(|(rd, roff)| Inst::LdData { rd, roff }),
        (r.clone(), 0u8..32).prop_map(|(rd, idx)| Inst::LdGlobal { rd, idx }),
        (r.clone()).prop_map(|ra| Inst::Prefetch { ra }),
        (r.clone(), r.clone(), 0u16..40).prop_map(|(ra, rb, target)| Inst::Beq { ra, rb, target }),
        (0u16..40).prop_map(|target| Inst::Jmp { target }),
        Just(Inst::Halt),
    ]
}

struct CountCtx(u64);
impl EventCtx for CountCtx {
    fn vaddr(&self) -> u64 {
        0x4040
    }
    fn line_word(&self, _off: u8) -> u64 {
        0x1234
    }
    fn global(&self, idx: u8) -> u64 {
        idx as u64 * 1000
    }
    fn ewma_lookahead(&self, _range: u16) -> u64 {
        8
    }
    fn prefetch(&mut self, _v: u64, _t: Option<u16>, _i: u64) {
        self.0 += 1;
    }
}

proptest! {
    /// The interpreter never runs away, never panics, and its instruction
    /// count is bounded by the budget on arbitrary (even nonsense) kernels.
    #[test]
    fn interpreter_is_total(insts in proptest::collection::vec(arb_inst(), 0..40)) {
        let kernel = Kernel { name: "fuzz".into(), insts };
        let mut ctx = CountCtx(0);
        let out = run_kernel(&kernel, &mut ctx, 256);
        prop_assert!(out.insts <= 256);
        prop_assert_eq!(out.prefetches, ctx.0);
    }
}

// ---------------------------------------------------------------------------
// Core + memory: random dependency DAGs always drain
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Any well-formed trace (deps point backwards) finishes, retires every
    /// op exactly once, and committed stores reach the image.
    #[test]
    fn random_traces_always_finish(
        ops in proptest::collection::vec((0u8..5, 0u64..1 << 14, 1u32..8), 1..150)
    ) {
        let mut img = MemoryImage::new();
        let base = img.alloc(1 << 15, 4096);
        let mut b = TraceBuilder::new();
        let mut emitted = Vec::new();
        let mut stored = std::collections::HashMap::new();
        for (i, (kind, addr, dep_back)) in ops.iter().enumerate() {
            let dep = if i > 0 {
                Some(emitted[i.saturating_sub(*dep_back as usize).min(i - 1)])
            } else {
                None
            };
            let a = base + (addr & !7);
            let id = match kind {
                0 => b.load(a, 1, [dep, None]),
                1 => {
                    stored.insert(a, i as u64);
                    b.store(a, i as u64, 2, [dep, None])
                }
                2 => b.int_op(1, [dep, None]),
                3 => b.branch(3, i % 3 == 0, [dep, None]),
                _ => b.swpf(a, 4, [dep, None]),
            };
            emitted.push(id);
        }
        let n = ops.len() as u64;
        let trace = b.build();
        let mut mem = MemorySystem::new(MemParams::paper(), img);
        let mut core = Core::new(CoreParams::paper(), &trace);
        let mut engine = NullEngine;
        let mut now = 0u64;
        while !core.finished() {
            mem.tick(now, &mut engine);
            core.tick(now, &mut mem);
            now += 1;
            prop_assert!(now < 2_000_000, "simulation wedged");
        }
        prop_assert_eq!(core.stats.insts_retired, n);
        for (a, v) in stored {
            // The trace's final store to `a` is the max index — we recorded
            // last-write-wins into the map as we built it.
            prop_assert_eq!(mem.image().read_u64(a), v);
        }
        let _ = AccessKind::Load;
    }
}

// ---------------------------------------------------------------------------
// Trace format v2: dependence-annotated streams round-trip exactly
// ---------------------------------------------------------------------------

/// Raw generator output folded into a well-formed v2 record stream:
/// cycles non-decreasing, loads carrying dependence distances (far
/// beyond real ROB bounds too), stores carrying payloads but no edges.
/// Raw v2 generator output: `((dcycle, pc, vaddr), (selector, value, dep))`.
type RawV2 = ((u64, u32, u64), (u8, u64, u32));

fn materialise_v2(raw: Vec<RawV2>) -> Vec<TraceRecord> {
    let mut cycle = 0u64;
    let mut out = Vec::with_capacity(raw.len());
    for ((dcycle, pc, vaddr), (sel, value, dep)) in raw {
        cycle += dcycle;
        out.push(if sel % 4 == 0 {
            TraceRecord::Access {
                cycle,
                pc,
                vaddr,
                kind: AccessKind::Store,
                value,
                size: [1u8, 4, 8][sel as usize % 3],
                dep: 0,
            }
        } else {
            TraceRecord::Access {
                cycle,
                pc,
                vaddr,
                kind: AccessKind::Load,
                value: 0,
                size: 0,
                dep,
            }
        });
    }
    out
}

proptest! {
    /// Arbitrary dependence-annotated streams survive the v2 encoding
    /// bit-identically: write → read is the identity (edges included),
    /// re-encoding is byte-stable, and the content hash agrees between
    /// writer, reader and the standalone hasher.
    #[test]
    fn v2_streams_roundtrip_with_dependence_edges(
        raw in proptest::collection::vec(
            ((0u64..10_000, any::<u32>(), any::<u64>()), (0u8..8, any::<u64>(), 0u32..5_000)),
            0..300,
        )
    ) {
        let records = materialise_v2(raw);
        let meta = TraceMeta::new("prop-v2", "tiny").with_capture_cycles(records.len() as u64);

        let write = || {
            let mut buf = Vec::new();
            let mut w = TraceWriter::new(&mut buf, &meta).unwrap();
            for r in &records {
                w.record(r).unwrap();
            }
            let (_, hash) = w.finish().unwrap();
            (buf, hash)
        };
        let (bytes, written_hash) = write();
        prop_assert_eq!(write().0, bytes.clone(), "encoding must be deterministic");
        prop_assert_eq!(written_hash, content_hash_versioned(&records, FORMAT_VERSION));

        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        prop_assert_eq!(reader.version(), FORMAT_VERSION);
        prop_assert_eq!(reader.meta(), &meta);
        let back = reader.read_to_end().unwrap();
        prop_assert_eq!(back.records, records);
        prop_assert_eq!(&back.meta, &meta);
    }
}

// ---------------------------------------------------------------------------
// JSON codec: every artifact's reader and writer
// ---------------------------------------------------------------------------

/// Any char, biased so control characters, ASCII, and multi-byte UTF-8
/// all show up often; surrogate code points map to U+FFFD.
fn any_char(x: u32) -> char {
    let code = match x % 4 {
        0 => x / 4 % 0x20,
        1 => x / 4 % 0x80,
        2 => x / 4 % 0x800,
        _ => x / 4 % 0x11_0000,
    };
    char::from_u32(code).unwrap_or('\u{fffd}')
}

/// Builds an arbitrary document from a flat recipe: each op pushes a
/// scalar or folds the top of the stack into an array or object; the
/// leftover stack becomes the top-level array (or object).
fn json_document(ops: Vec<(u8, u64, Vec<u32>)>, as_object: bool) -> Value {
    let mut stack: Vec<Value> = Vec::new();
    let keyed = |items: Vec<Value>, text: &str| {
        // Suffixing the position keeps keys unique, as the parser demands.
        Value::object(
            items
                .into_iter()
                .enumerate()
                .map(|(i, v)| (format!("{text}{i}"), v)),
        )
    };
    for (op, x, chars) in ops {
        let text: String = chars.into_iter().map(any_char).collect();
        let take = stack.len().saturating_sub(x as usize % 4);
        let v = match op % 8 {
            0 => Value::Null,
            1 => Value::Bool(x & 1 == 1),
            2 => Value::from(x),
            3 => Value::fixed(x as i64 as f64 / 1e3, (x % 7) as usize),
            4 | 5 => Value::from(text),
            6 => Value::Array(stack.split_off(take)),
            _ => keyed(stack.split_off(take), &text),
        };
        stack.push(v);
    }
    if as_object {
        keyed(stack, "k")
    } else {
        Value::Array(stack)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Emit → parse is the identity in both layouts, for strings over
    /// the full char range (control characters included) and numbers
    /// kept as their literal tokens.
    #[test]
    fn json_values_round_trip(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), proptest::collection::vec(any::<u32>(), 0..12)), 0..40),
        as_object in any::<bool>(),
        depth in 0usize..5,
    ) {
        let v = json_document(ops, as_object);
        prop_assert_eq!(json::parse(&v.to_compact()).unwrap(), v.clone());
        prop_assert_eq!(json::parse(&v.to_pretty(depth)).unwrap(), v);
    }

    /// A truncated artifact never parses: every strict prefix of an
    /// emitted object or array document is rejected, in both layouts.
    #[test]
    fn corrupted_json_prefixes_are_rejected(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), proptest::collection::vec(any::<u32>(), 0..6)), 0..24),
        as_object in any::<bool>(),
        depth in 0usize..5,
    ) {
        let v = json_document(ops, as_object);
        for doc in [v.to_compact(), v.to_pretty(depth).trim_end().to_string()] {
            for cut in (0..doc.len()).filter(|&k| doc.is_char_boundary(k)) {
                prop_assert!(json::parse(&doc[..cut]).is_err(), "prefix {cut} of {doc:?} parsed");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Corruption tolerance: damaged streams error, they never panic or lie
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// A corrupted byte stream — one flipped byte or a truncated tail,
    /// against either format version — must surface as a reader error:
    /// the decoder never panics, and when it does still accept the
    /// stream (e.g. a flip inside the v1 header, which the footer hash
    /// does not cover) it must yield exactly the clean record stream,
    /// never silently different records.
    #[test]
    fn corrupted_streams_error_instead_of_panicking(
        raw in proptest::collection::vec(
            ((0u64..10_000, any::<u32>(), any::<u64>()), (0u8..8, any::<u64>(), 0u32..5_000)),
            0..120,
        ),
        version in 1u16..3,
        at in any::<u64>(),
        mask in 0u8..255,
        truncate in any::<bool>(),
    ) {
        let records = materialise_v2(raw);
        let meta = TraceMeta::new("prop-corrupt", "tiny").with_capture_cycles(records.len() as u64);
        let mut clean = Vec::new();
        let mut w = TraceWriter::with_version(&mut clean, &meta, version).unwrap();
        for r in &records {
            w.record(r).unwrap();
        }
        w.finish().unwrap();
        let expected = TraceReader::new(clean.as_slice())
            .unwrap()
            .read_to_end()
            .unwrap()
            .records;

        let mut bytes = clean;
        if truncate {
            let keep = (at % (bytes.len() as u64 + 1)) as usize;
            bytes.truncate(keep);
        } else {
            let i = (at % bytes.len() as u64) as usize;
            bytes[i] ^= mask + 1; // mask+1 in 1..=255: always a real change
        }

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match TraceReader::new(bytes.as_slice()) {
                Ok(r) => r.read_to_end().map(|b| b.records).map_err(|e| e.to_string()),
                Err(e) => Err(e.to_string()),
            }
        }));
        let read = match outcome {
            Ok(r) => r,
            Err(_) => panic!(
                "decoder panicked on corrupt input (version {version}, \
                 truncate {truncate}, at {at}, mask {mask})"
            ),
        };
        if let Ok(back) = read {
            prop_assert_eq!(back, expected, "corruption silently changed the stream");
        }
    }
}

// ---------------------------------------------------------------------------
// Backward compatibility: the checked-in v1 golden fixture stays readable
// ---------------------------------------------------------------------------

/// The record stream behind `tests/data/golden_v1.etpt`, as captured
/// (dependence edges included — the v1 encoding drops them, which is
/// exactly what the fixture pins).
fn golden_records() -> Vec<TraceRecord> {
    let mut out = Vec::new();
    let mut x = 0x2545f4914f6cdd1du64;
    let mut cycle = 0u64;
    for i in 0..200u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        cycle += x % 7;
        out.push(if i % 6 == 5 {
            TraceRecord::Access {
                cycle,
                pc: 0x80 + (i as u32 % 4) * 4,
                vaddr: 0x2_0000 + ((x % 0x1_0000) & !7),
                kind: AccessKind::Store,
                value: x,
                size: 8,
                dep: 0,
            }
        } else {
            TraceRecord::Access {
                cycle,
                pc: 0x40 + (i as u32 % 3) * 4,
                vaddr: 0x1_0000 + ((x % 0x1_0000) & !7),
                kind: AccessKind::Load,
                value: 0,
                size: 0,
                dep: (i % 5) as u32,
            }
        });
    }
    out
}

/// [`golden_records`] as a version-1 reader must present them: edges
/// stripped.
fn golden_records_v1() -> Vec<TraceRecord> {
    golden_records()
        .into_iter()
        .map(|r| match r {
            TraceRecord::Access {
                cycle,
                pc,
                vaddr,
                kind,
                value,
                size,
                ..
            } => TraceRecord::Access {
                cycle,
                pc,
                vaddr,
                kind,
                value,
                size,
                dep: 0,
            },
            c => c,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// PC-delta accuracy table (engine zoo)
// ---------------------------------------------------------------------------

proptest! {
    /// Virtual-training bookkeeping stays sane under arbitrary observation
    /// sequences: every reported accuracy lies in [0, 1], and the
    /// threshold extremes behave as the engine's issue logic assumes —
    /// a 1.0 threshold admits nothing (the strict `>` can never pass)
    /// while a 0.0 threshold admits every tracked slot (accuracies are
    /// kept strictly positive by round-up halving, so `> 0.0` always
    /// passes once a slot exists).
    #[test]
    fn accuracy_table_invariants(
        obs in proptest::collection::vec((0u32..64, -4096i64..4096), 1..400)
    ) {
        let mut t = etpp::baselines::AccuracyTable::new(16, 4);
        for &(pc, delta) in &obs {
            t.observe(pc, delta);
            if let Some(a) = t.accuracy(pc, delta) {
                prop_assert!((0.0..=1.0).contains(&a), "accuracy {a} out of range");
            }
        }
        for &(pc, _) in &obs {
            for d in t.candidates(pc, 0.0, 0) {
                let a = t.accuracy(pc, d).expect("candidate must be tracked");
                prop_assert!((0.0..=1.0).contains(&a));
            }
            prop_assert!(
                t.candidates(pc, 1.0, 0).is_empty(),
                "threshold 1.0 must admit nothing"
            );
            prop_assert_eq!(
                t.candidates(pc, 0.0, 0).len(),
                t.tracked(pc),
                "threshold 0.0 must admit every tracked slot"
            );
        }
    }

    /// Slot and PC-entry eviction never panics and never leaks capacity:
    /// a deliberately tiny table flooded with far more distinct PCs and
    /// deltas than it can hold stays within its configured bounds.
    #[test]
    fn accuracy_table_eviction_respects_capacity(
        obs in proptest::collection::vec((0u32..1024, -(1i64 << 20)..(1 << 20)), 1..600)
    ) {
        let mut t = etpp::baselines::AccuracyTable::new(4, 2);
        for &(pc, delta) in &obs {
            t.observe(pc, delta);
        }
        for pc in 0u32..1024 {
            prop_assert!(t.tracked(pc) <= 2, "pc {pc} holds more than delta_slots");
        }
    }
}

/// A version-2-writing build must keep reading version-1 files exactly:
/// same records (edges zero), same metadata, verified footer. The
/// fixture bytes are checked in, so encoder drift cannot silently
/// rewrite history.
#[test]
fn golden_v1_fixture_stays_readable() {
    let bytes: &[u8] = include_bytes!("data/golden_v1.etpt");
    let reader = TraceReader::new(bytes).expect("golden v1 header must parse");
    assert_eq!(reader.version(), 1);
    assert_eq!(reader.meta().workload, "golden");
    assert_eq!(reader.meta().scale, "fixture");
    assert_eq!(reader.meta().capture_cycles, 0, "v1 carries no cycle count");
    let back = reader.read_to_end().expect("golden v1 body must verify");
    let expected = golden_records_v1();
    assert_eq!(back.records.len(), expected.len());
    assert_eq!(back.records, expected);
    assert_eq!(
        content_hash_versioned(&back.records, 1),
        content_hash_versioned(&expected, 1)
    );
}

/// Regenerates the golden fixture from [`golden_records`]. Ignored: run
/// manually (`cargo test --test properties -- --ignored regenerate`)
/// only when the v1 layout legitimately needs re-pinning — which it
/// should not, that is the point of a frozen format version.
#[test]
#[ignore = "writes tests/data/golden_v1.etpt; the fixture is meant to stay frozen"]
fn regenerate_golden_v1_fixture() {
    let meta = TraceMeta::new("golden", "fixture").with_capture_cycles(777);
    let mut buf = Vec::new();
    let mut w = TraceWriter::with_version(&mut buf, &meta, 1).unwrap();
    for r in &golden_records() {
        w.record(r).unwrap();
    }
    w.finish().unwrap();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_v1.etpt");
    std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
    std::fs::write(path, &buf).unwrap();
    eprintln!("wrote {path} ({} bytes)", buf.len());
}
