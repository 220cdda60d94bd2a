//! Calibration kernel: a fixed amount of work that uses nothing from the
//! program under test, timed beside every repetition. The reference box
//! drifts by 20-35% over an hour (README, "Noise study"); host times are
//! reported at reference speed, i.e. multiplied by `REF_S / measured`, so
//! that two runs an hour apart can be compared at all. The kernel leans on
//! what the simulator leans on — a priority queue, a hash map, small heap
//! allocations — so that the box slows both by a similar factor.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// What one kernel run takes on the reference box at the fastest it was
/// seen; the unit host times are expressed in.
pub const REF_S: f64 = 0.030;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// One timed run of the kernel, in seconds.
pub fn sample_s() -> f64 {
    let t = Instant::now();
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;

    // Event-queue shape: a standing heap, pop the earliest, push a later one.
    let mut heap: BinaryHeap<std::cmp::Reverse<u64>> = (0..50_000)
        .map(|_| std::cmp::Reverse(xorshift(&mut s) >> 20))
        .collect();
    for _ in 0..150_000 {
        let std::cmp::Reverse(now) = heap.pop().expect("heap stays full");
        acc = acc.wrapping_add(now);
        heap.push(std::cmp::Reverse(now + (xorshift(&mut s) >> 44)));
    }

    // Actor-table shape: lookups and updates in a map that misses cache.
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 16);
    for _ in 0..250_000 {
        let k = xorshift(&mut s) & 0xFFFF;
        *map.entry(k).or_insert(0) += 1;
        acc = acc.wrapping_add(map.get(&(k ^ 1)).copied().unwrap_or(0));
    }

    // Message shape: short-lived boxed payloads of a few sizes.
    let mut live: Vec<Box<[u8]>> = Vec::with_capacity(1024);
    for i in 0..200_000u64 {
        let len = 32 + (xorshift(&mut s) & 0xFF) as usize;
        let mut b = vec![0u8; len].into_boxed_slice();
        b[0] = i as u8;
        if live.len() == 1024 {
            let old = live.swap_remove((xorshift(&mut s) & 1023) as usize);
            acc = acc.wrapping_add(old[0] as u64);
        }
        live.push(b);
    }
    black_box((acc, heap.len(), map.len(), live.len()));
    t.elapsed().as_secs_f64()
}
