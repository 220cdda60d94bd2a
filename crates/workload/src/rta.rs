//! Real-time-analytics tuple stream (§5.1): "we generate the requests based
//! on a Twitter dataset; the number of data tuples in each request vary based
//! on the packet size".
//!
//! The original trace is the SNAP Twitter dataset, which is not
//! redistributable here; we synthesize a stream with the properties the
//! pipeline actually exercises — a Zipfian topic popularity distribution
//! (so the counter/ranker stages see realistic heavy hitters) and a tunable
//! fraction of tuples matching the filter's pattern set (see DESIGN.md §1).

use ipipe_sim::{DetRng, ZipfKeys};

/// One data tuple flowing through filter → counter → ranker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    /// Topic identifier (hashtag analogue); Zipf-popular.
    pub topic: u32,
    /// Tuple body the filter pattern-matches against.
    pub text: String,
    /// Arbitrary metric attached to the tuple.
    pub weight: u32,
}

/// Serialized size of a tuple on the wire.
pub const TUPLE_WIRE_BYTES: u32 = 48;

/// Number of tuples packed into a request of `packet_size` bytes.
pub fn tuples_per_packet(packet_size: u32) -> u32 {
    ((packet_size.saturating_sub(42)) / TUPLE_WIRE_BYTES).max(1)
}

/// Synthetic Twitter-like tuple stream.
pub struct RtaWorkload {
    topics: ZipfKeys,
    match_fraction: f64,
    rng: DetRng,
}

/// Words the filter's pattern set matches on (the "interesting" stream).
pub const INTERESTING_WORDS: [&str; 4] = ["goal", "launch", "election", "storm"];
const FILLER_WORDS: [&str; 6] = ["lorem", "ipsum", "dolor", "amet", "chatter", "misc"];

impl RtaWorkload {
    /// Stream over `topics` topics with `match_fraction` of tuples containing
    /// an interesting word.
    pub fn new(topics: u64, match_fraction: f64, seed: u64) -> RtaWorkload {
        assert!(topics > 0);
        RtaWorkload {
            topics: ZipfKeys::new(topics, 1.0),
            match_fraction: match_fraction.clamp(0.0, 1.0),
            rng: DetRng::new(seed),
        }
    }

    /// Paper-flavoured default: 10k topics, 30% interesting.
    pub fn paper_default(seed: u64) -> RtaWorkload {
        RtaWorkload::new(10_000, 0.3, seed)
    }

    /// Draw the next tuple.
    pub fn next_tuple(&mut self) -> Tuple {
        let topic = self.topics.sample(&mut self.rng) as u32;
        let interesting = self.rng.chance(self.match_fraction);
        let word = if interesting {
            INTERESTING_WORDS[self.rng.index(INTERESTING_WORDS.len())]
        } else {
            FILLER_WORDS[self.rng.index(FILLER_WORDS.len())]
        };
        let noise = self.rng.below(10_000);
        Tuple {
            topic,
            text: format!("t{topic} {word} {noise}"),
            weight: 1 + self.rng.below(16) as u32,
        }
    }

    /// A packet's worth of tuples for the given packet size.
    pub fn next_request(&mut self, packet_size: u32) -> Vec<Tuple> {
        (0..tuples_per_packet(packet_size))
            .map(|_| self.next_tuple())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuples_per_packet_scales() {
        assert_eq!(tuples_per_packet(64), 1);
        assert!(tuples_per_packet(1024) > tuples_per_packet(256));
        // 1KB packet: (1024-42)/48 = 20 tuples.
        assert_eq!(tuples_per_packet(1024), 20);
    }

    #[test]
    fn match_fraction_is_respected() {
        let mut w = RtaWorkload::new(100, 0.3, 1);
        let n = 20_000;
        let matches = (0..n)
            .filter(|_| {
                let t = w.next_tuple();
                INTERESTING_WORDS.iter().any(|p| t.text.contains(p))
            })
            .count();
        let frac = matches as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn topics_are_zipf_popular() {
        let mut w = RtaWorkload::paper_default(2);
        let mut count0 = 0;
        let mut count_mid = 0;
        for _ in 0..30_000 {
            let t = w.next_tuple();
            if t.topic == 0 {
                count0 += 1;
            } else if t.topic == 5000 {
                count_mid += 1;
            }
        }
        assert!(count0 > count_mid * 5, "count0={count0} mid={count_mid}");
    }

    #[test]
    fn determinism() {
        let a = RtaWorkload::paper_default(7).next_request(512);
        let b = RtaWorkload::paper_default(7).next_request(512);
        assert_eq!(a, b);
        assert_eq!(a.len() as u32, tuples_per_packet(512));
    }
}
