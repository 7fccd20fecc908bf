//! Does the simulator move the host-speed calibration?
//!
//! `cargo run --release --example calib_probe` (in `perfbench/`)
//!
//! For each workload and five seeds, measures the calibration scale (see
//! `lastcpu_perfbench::calib`) three ways, one right after another so that
//! host-speed drift mostly cancels:
//! - `idle`: chunks 10 ms apart with a register-only spin loop between;
//! - `thrash`: chunks 10 ms apart with a sweep over a 128 MiB buffer
//!   between, which evicts every cache level;
//! - `window`: the scale of an untraced rep's window, where the simulator
//!   runs between chunks.
//!
//! If `window` sits between `idle` and `thrash`, the simulator's cache and
//! heap state can shift the scale by at most the idle-to-thrash gap.

use std::hint::black_box;
use std::time::{Duration, Instant};

use lastcpu_perfbench::alloc::CountingAlloc;
use lastcpu_perfbench::calib::HostClock;
use lastcpu_perfbench::layers::median;
use lastcpu_perfbench::workload::{run_rep, Scale, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const GAP: Duration = Duration::from_millis(10);

/// Calibration scale of 40 chunks with `filler` between them.
fn scale_with(mut filler: impl FnMut()) -> f64 {
    let mut clock = HostClock::start();
    for _ in 0..40 {
        filler();
        clock.tick();
    }
    clock.stop().scale
}

fn main() {
    let mut buf = vec![1u64; 16 << 20];
    let mut pos = 0usize;
    for w in Workload::ALL {
        let (mut vs_idle, mut vs_thrash) = (Vec::new(), Vec::new());
        for seed in 0..5 {
            let idle = scale_with(|| {
                let t = Instant::now();
                let mut x = 0u64;
                while t.elapsed() < GAP {
                    for _ in 0..1000 {
                        x = black_box(x.wrapping_mul(3).wrapping_add(1));
                    }
                }
            });
            let thrash = scale_with(|| {
                let t = Instant::now();
                let mut s = 0u64;
                while t.elapsed() < GAP {
                    for _ in 0..4096 {
                        s = s.wrapping_add(buf[pos]);
                        buf[pos] = s;
                        pos = (pos + 8) % buf.len();
                    }
                }
            });
            let window = run_rep(w, &Scale::FULL, seed, false)
                .expect("rep runs")
                .host_scale;
            println!(
                "{} seed {seed}: idle {idle:.4} thrash {thrash:.4} window {window:.4}",
                w.name()
            );
            vs_idle.push(window / idle);
            vs_thrash.push(window / thrash);
        }
        println!(
            "{}: median window/idle {:.3}, window/thrash {:.3}",
            w.name(),
            median(&vs_idle),
            median(&vs_thrash)
        );
    }
}
