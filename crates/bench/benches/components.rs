//! Criterion micro-benchmarks of the emulator's substrates.
//!
//! These measure *host* time (how fast the library simulates), complementing
//! the experiment binaries, which report *virtual* time (what the simulated
//! machine would observe). Keeping the substrates fast is what lets the
//! experiment sweeps run thousands of simulated seconds in host seconds.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use lastcpu_bus::{ConnId, DeviceId, Dst, Envelope, Payload, RequestId, ServiceId, Token};
use lastcpu_devices::flash::{NandChip, NandConfig};
use lastcpu_devices::ftl::Ftl;
use lastcpu_iommu::{AccessKind, Iommu};
use lastcpu_mem::{FrameAllocator, Pasid, Perms, PhysAddr, VirtAddr, PAGE_SIZE};
use lastcpu_sim::{CorrId, DetRng, Histogram, SimDuration, SimTime, TraceData, TraceSink};
use lastcpu_virtio::{FlatMemory, QueueLayout, QueueMemory, VirtqueueDevice, VirtqueueDriver};

fn bench_wire_codec(c: &mut Criterion) {
    let env = Envelope {
        src: DeviceId(7),
        dst: Dst::Device(DeviceId(9)),
        req: RequestId(42),
        corr: CorrId(1),
        payload: Payload::OpenRequest {
            service: ServiceId(3),
            token: Token(0xDEADBEEF),
            params: vec![0xAB; 64],
        },
    };
    let bytes = env.encode();
    c.bench_function("wire/encode_open_request", |b| {
        b.iter(|| black_box(&env).encode())
    });
    c.bench_function("wire/decode_open_request", |b| {
        b.iter(|| Envelope::decode(black_box(&bytes)).unwrap())
    });
    // The analytic size used on the routing hot path in place of a full
    // encode: its entire point is the gap between these two numbers.
    c.bench_function("wire/encoded_len_open_request", |b| {
        b.iter(|| black_box(&env).encoded_len())
    });
}

fn bench_event_queue(c: &mut Criterion) {
    use lastcpu_sim::{EventQueue, HeapQueue};
    // Steady-state churn at constant depth: pop the earliest event,
    // schedule a replacement. Compares the timing wheel against the
    // reference heap on the same deterministic delay stream.
    macro_rules! queue_benches {
        ($name:literal, $Q:ident) => {
            c.bench_function(concat!("queue/churn_depth_4k/", $name), |b| {
                let mut q: $Q<u64> = $Q::new();
                let mut rng = DetRng::new(7);
                let mut delay = move || SimDuration::from_nanos(1 + rng.below(1 << 16));
                for i in 0..4096u64 {
                    q.schedule_in(delay(), i);
                }
                b.iter(|| {
                    let ev = q.pop().expect("constant depth");
                    q.schedule_in(delay(), black_box(ev.event));
                })
            });
            c.bench_function(concat!("queue/push_pop_burst_64/", $name), |b| {
                let mut q: $Q<u64> = $Q::new();
                b.iter(|| {
                    for i in 0..64u64 {
                        // Same-instant burst: exercises the FIFO tie-break path.
                        q.schedule_in(SimDuration::from_nanos(100), i);
                    }
                    let mut acc = 0u64;
                    while let Some(ev) = q.pop() {
                        acc = acc.wrapping_add(ev.event);
                    }
                    black_box(acc)
                })
            });
        };
    }
    queue_benches!("wheel", EventQueue);
    queue_benches!("heap", HeapQueue);
}

fn bench_virtqueue(c: &mut Criterion) {
    c.bench_function("virtio/submit_serve_complete", |b| {
        let mut mem = FlatMemory::new(64 * 1024);
        let layout = QueueLayout::new(0x100, 16);
        let mut drv = VirtqueueDriver::create(&mut mem, layout).unwrap();
        let mut dev = VirtqueueDevice::attach(layout);
        mem.write(0x4000, b"request!").unwrap();
        b.iter(|| {
            let head = drv.submit_request(&mut mem, 0x4000, 8, 0x5000, 16).unwrap();
            let chain = dev.pop(&mut mem).unwrap().unwrap();
            let req = dev.read_request(&mut mem, &chain).unwrap();
            black_box(&req);
            let n = dev.write_response(&mut mem, &chain, b"resp").unwrap();
            dev.push_used(&mut mem, chain.head, n).unwrap();
            let done = drv.complete(&mut mem).unwrap().unwrap();
            assert_eq!(done.head, head);
        })
    });
}

fn bench_ftl(c: &mut Criterion) {
    c.bench_function("ftl/write_4k_with_gc", |b| {
        let mut ftl = Ftl::new(NandChip::new(NandConfig {
            blocks: 64,
            pages_per_block: 32,
            page_size: 4096,
            max_erase_cycles: u32::MAX,
            ..NandConfig::default()
        }));
        let page = vec![0x5Au8; 4096];
        let lp = ftl.logical_pages();
        let mut lpn = 0u32;
        b.iter(|| {
            ftl.write(lpn % lp, black_box(&page)).unwrap();
            lpn = lpn.wrapping_add(7);
        })
    });
}

fn bench_iommu(c: &mut Criterion) {
    let mut mmu = Iommu::new(64);
    mmu.bind_pasid(Pasid(1));
    for p in 0..1024u64 {
        mmu.map(
            Pasid(1),
            VirtAddr::new(p * PAGE_SIZE),
            PhysAddr::new((p + 8) * PAGE_SIZE),
            Perms::RW,
        )
        .unwrap();
    }
    c.bench_function("iommu/translate_hit", |b| {
        mmu.translate(Pasid(1), VirtAddr::new(0), AccessKind::Read)
            .unwrap();
        b.iter(|| {
            mmu.translate(Pasid(1), black_box(VirtAddr::new(0x10)), AccessKind::Read)
                .unwrap()
        })
    });
    c.bench_function("iommu/translate_random_1024_pages", |b| {
        let mut rng = DetRng::new(9);
        b.iter(|| {
            let va = VirtAddr::new(rng.below(1024) * PAGE_SIZE);
            mmu.translate(Pasid(1), black_box(va), AccessKind::Read)
                .unwrap()
        })
    });
}

fn bench_frame_allocator(c: &mut Criterion) {
    c.bench_function("frame_alloc/alloc_free_order3", |b| {
        let mut fa = FrameAllocator::new(1 << 16);
        b.iter(|| {
            let f = fa.alloc_order(3).unwrap();
            fa.free(black_box(f)).unwrap();
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("stats/histogram_record", |b| {
        let mut h = Histogram::new();
        let mut v = 1u64;
        b.iter(|| {
            h.record(SimDuration::from_nanos(black_box(v)));
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1) >> 34;
        })
    });
}

fn bench_trace_overhead(c: &mut Criterion) {
    // The observability acceptance bar: with tracing disabled, an emit must
    // cost a single branch — compare these two numbers to verify.
    c.bench_function("trace/emit_disabled", |b| {
        let mut sink = TraceSink::disabled();
        let mut n = 0u64;
        b.iter(|| {
            n = n.wrapping_add(1);
            sink.emit_data(
                SimTime::from_nanos(n),
                "bench",
                CorrId(1),
                TraceData::QueueDoorbell {
                    to: String::new(),
                    value: black_box(n),
                },
            );
        });
    });
    c.bench_function("trace/emit_enabled_bounded", |b| {
        let mut sink = TraceSink::bounded(4096);
        let mut n = 0u64;
        b.iter(|| {
            n = n.wrapping_add(1);
            sink.emit_data(
                SimTime::from_nanos(n),
                "bench",
                CorrId(1),
                TraceData::QueueDoorbell {
                    to: "dev:9".to_string(),
                    value: black_box(n),
                },
            );
        });
    });
}

fn bench_doorbell_value(c: &mut Criterion) {
    // Sanity-priced micro op: encode/decode the setup doorbell.
    c.bench_function("ssd/setup_doorbell_encode", |b| {
        b.iter(|| lastcpu_devices::ssd::setup_doorbell(black_box(0x2000_0000), 64))
    });
    let _ = ConnId(0);
}

criterion_group!(
    benches,
    bench_wire_codec,
    bench_event_queue,
    bench_virtqueue,
    bench_ftl,
    bench_iommu,
    bench_frame_allocator,
    bench_histogram,
    bench_trace_overhead,
    bench_doorbell_value,
);
criterion_main!(benches);
