//! The generator against SplitMix64's published outputs, and the draws
//! against the ranges they promise.

use testkit::{sweep, Gen};

#[test]
fn the_stream_is_splitmix64() {
    // The reference implementation's outputs for seed 1234567.
    let mut g = Gen::new(1234567);
    let want = [6457827717110365317u64, 3203168211198807973, 9817491932198370423];
    assert_eq!([g.u64(), g.u64(), g.u64()], want);
}

#[test]
fn draws_stay_inside_their_ranges_and_reach_both_ends() {
    let mut g = Gen::new(7);
    let (mut seen, mut signs) = ([false; 5], [false; 2]);
    for _ in 0..2_000 {
        seen[g.below(5)] = true;
        let i = g.int_in(-3i64..2);
        assert!((-3..2).contains(&i));
        signs[(i >= 0) as usize] = true;
        assert!((250u8..255).contains(&g.int_in(250u8..255)));
        let x = g.f64_in(-0.5..0.25);
        assert!((-0.5..0.25).contains(&x));
        assert!([1, 2, 3].contains(g.pick(&[1, 2, 3])));
        let v = g.vec(0..4, Gen::bool);
        assert!(v.len() < 4);
    }
    assert!(seen.iter().chain(&signs).all(|&s| s));
    assert_eq!(g.f64s(9, 1.0..2.0).len(), 9);
    assert_eq!(g.int_in(u64::MAX - 1..u64::MAX), u64::MAX - 1);
}

#[test]
fn a_case_replays_alone() {
    let mut firsts = Vec::new();
    sweep(5, 0xABCD, |g| firsts.push(g.u64()));
    let alone: Vec<u64> = (0..5).map(|case| Gen::case(0xABCD, case).u64()).collect();
    assert_eq!(firsts, alone);
    assert!(firsts.windows(2).all(|w| w[0] != w[1]));
}
