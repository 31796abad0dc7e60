//! The stand-in keeps the algorithms that set what a draw costs and how
//! fair it is. Stream equality with the published crate is not promised.

use rand::rngs::{chacha_blocks, StdRng};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

fn hex(words: &[u32]) -> String {
    words.iter().flat_map(|w| w.to_le_bytes()).map(|b| format!("{b:02x}")).collect()
}

/// Known answers for an all-zero key and nonce, block 0: the ChaCha20
/// keystream of RFC 7539 §2.3.2's construction (widely reproduced) pins
/// the block function, and the 12- and 8-round vectors of the eSTREAM /
/// Strombergson test set pin the round count `StdRng` uses.
#[test]
fn block_function_matches_known_answers() {
    let mut out = [0u32; 64];
    chacha_blocks(&[0; 8], 0, 20, &mut out);
    assert_eq!(
        hex(&out[..16]),
        "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7\
         da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
    );
    chacha_blocks(&[0; 8], 0, 12, &mut out);
    assert_eq!(
        hex(&out[..16]),
        "9bf49a6a0755f953811fce125f2683d50429c3bb49e074147e0089a52eae155f\
         0564f879d27ae3c02ce82834acfa8c793a629f2ca0de6919610be82f411326be"
    );
    chacha_blocks(&[0; 8], 0, 8, &mut out);
    assert_eq!(
        hex(&out[..16]),
        "3e00ef2f895f40d67f5bb8e81f09a5a12c840ec3ce9a7f3b181be188ef711a1e\
         984ce172b9216f419f445367456d5619314a42a3da86b001387bfdb80e0cfe42"
    );
}

#[test]
fn std_rng_is_the_twelve_round_stream_with_a_block_counter() {
    let mut rng = StdRng::from_seed([0; 32]);
    let drawn: Vec<u32> = (0..96).map(|_| rng.next_u32()).collect();
    // Four blocks per refill, block counters 0..3, then 4..
    let mut first = [0u32; 64];
    chacha_blocks(&[0; 8], 0, 12, &mut first);
    let mut second = [0u32; 64];
    chacha_blocks(&[0; 8], 4, 12, &mut second);
    assert_eq!(&drawn[..64], &first[..]);
    assert_eq!(&drawn[64..], &second[..32]);
    // The four lanes of a refill are four different blocks.
    assert_ne!(&first[..16], &first[16..32]);
}

#[test]
fn next_u64_consumes_two_words_across_a_refill() {
    let mut words = StdRng::seed_from_u64(9);
    let mut wide = StdRng::seed_from_u64(9);
    wide.next_u32();
    words.next_u32();
    // 63 words remain: 31 pairs, then one pair that straddles the refill.
    for _ in 0..40 {
        let lo = words.next_u32() as u64;
        let hi = words.next_u32() as u64;
        assert_eq!(wide.next_u64(), hi << 32 | lo);
    }
}

#[test]
fn equality_tracks_stream_position() {
    let mut a = StdRng::seed_from_u64(3);
    let mut b = a.clone();
    assert_eq!(a, b);
    a.next_u64();
    assert_ne!(a, b);
    // `dist-exec` counts draws by stepping a clone until it catches up.
    let mut steps = 0;
    for _ in 0..100 {
        a.next_u64();
    }
    while a != b {
        b.next_u64();
        steps += 1;
        assert!(steps <= 101, "the clone never caught up");
    }
    assert_eq!(steps, 101);
    assert_ne!(StdRng::seed_from_u64(1), StdRng::seed_from_u64(2));
}

#[test]
fn gen_range_is_unbiased_over_a_small_modulus() {
    // A plain `next_u32() % 3` would be fair too at this sample size; the
    // point is that every value of a span that does not divide 2^32 comes
    // up equally often, and that the bounds are respected.
    let mut rng = StdRng::seed_from_u64(7);
    const DRAWS: usize = 300_000;
    let mut counts = [0usize; 3];
    for _ in 0..DRAWS {
        counts[rng.gen_range(0..3usize)] += 1;
    }
    let expected = DRAWS as f64 / 3.0;
    // Chi-square with 2 degrees of freedom: 13.8 is the 0.1% point.
    let chi2: f64 = counts.iter().map(|&c| (c as f64 - expected).powi(2) / expected).sum();
    assert!(chi2 < 13.8, "counts {counts:?}, chi2 {chi2}");

    for _ in 0..10_000 {
        let v: i8 = rng.gen_range(-100..=100);
        assert!((-100..=100).contains(&v));
        let x = rng.gen_range(-1.0..=1.0);
        assert!((-1.0..=1.0).contains(&x));
        let y = rng.gen_range(0.0..std::f64::consts::TAU);
        assert!((0.0..std::f64::consts::TAU).contains(&y));
        let u: f64 = rng.gen();
        assert!((0.0..1.0).contains(&u));
    }
    // Both ends of an inclusive integer range are reachable.
    let seen: std::collections::BTreeSet<u8> = (0..200).map(|_| rng.gen_range(0..=1u8)).collect();
    assert_eq!(seen.len(), 2);
}

#[test]
fn gen_bool_follows_its_probability() {
    let mut rng = StdRng::seed_from_u64(11);
    let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
    assert!((24_000..26_000).contains(&hits), "{hits}");
    assert!((0..100).all(|_| rng.gen_bool(1.0)));
    assert!((0..100).all(|_| !rng.gen_bool(0.0)));
}

#[test]
fn shuffle_permutes_and_depends_on_the_seed() {
    let original: Vec<u32> = (0..50).collect();
    let mut a = original.clone();
    a.shuffle(&mut StdRng::seed_from_u64(1));
    let mut again = original.clone();
    again.shuffle(&mut StdRng::seed_from_u64(1));
    let mut b = original.clone();
    b.shuffle(&mut StdRng::seed_from_u64(2));
    assert_eq!(a, again);
    assert_ne!(a, b);
    assert_ne!(a, original);
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, original);
}

#[test]
fn a_dyn_generator_has_the_convenience_methods() {
    let mut rng = StdRng::seed_from_u64(5);
    let dynamic: &mut dyn RngCore = &mut rng;
    let x: f64 = dynamic.gen();
    assert!((0.0..1.0).contains(&x));
    assert!(dynamic.gen_range(0..10usize) < 10);
}
