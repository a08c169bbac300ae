// lint-fixture: crate=sim kind=library
//! Seeded R3 violations: allocation-capable calls inside an opted-in
//! `lint: hot-path` region. The rule is opt-in — identical calls outside
//! any region are fine.

// lint: hot-path
pub fn hot(xs: &[u32], out: &mut Vec<u32>) -> u64 {
    let scratch: Vec<u32> = Vec::new(); // expect: R3
    let label = format!("{} items", xs.len()); // expect: R3
    let copy = xs.to_vec(); // expect: R3
    let doubled: Vec<u32> = xs.iter().map(|x| x * 2).collect(); // expect: R3
    let boxed = Box::new(xs.len()); // expect: R3
    let owned = label.to_string(); // expect: R3
    let cloned = copy.clone(); // expect: R3
    let grown = vec![0u32; 4]; // expect: R3
    let fished = Vec::<u32>::new(); // expect: R3
    let sized = Vec::<u32>::with_capacity(xs.len()); // expect: R3
    let fish_box = Box::<usize>::new(xs.len()); // expect: R3
    let nested = Vec::<Vec<u32>>::new(); // expect: R3
    out.push(scratch.len() as u32);
    (doubled.len() + cloned.len() + grown.len() + owned.len() + *boxed) as u64
        + (fished.len() + sized.len() + *fish_box + nested.len()) as u64
}

// Outside the region: the meter is opt-in, so nothing fires.
pub fn cold(xs: &[u32]) -> Vec<u32> {
    let mut v = xs.to_vec();
    v.push(0);
    v
}

// Reusing warmed buffers inside a region is the sanctioned pattern.
// lint: hot-path
pub fn hot_and_clean(xs: &[u32], buf: &mut Vec<u32>) -> usize {
    buf.clear();
    buf.extend_from_slice(xs);
    buf.len()
}
